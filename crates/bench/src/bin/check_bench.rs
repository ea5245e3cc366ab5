//! CI bench-regression gate and vendor-drift checker.
//!
//! ```text
//! check_bench compare <baseline.json> <candidate.json>
//!     Diff a fresh BENCH_*.json against the committed baseline.
//!     Deterministic fields (optimizer-call counts, allocations,
//!     objectives, contract booleans) must match; wall-clock fields
//!     and thread counts are ignored, except that the candidate must
//!     keep each same-run wall-time ratio in `RATIO_GATES` (the capped
//!     leg of BENCH_fleet.json's scaled section within 2x the batched
//!     leg). Exit 1 on any regression.
//!
//! check_bench vendor [<Cargo.lock> [<vendor-dir>]]
//!     Verify every vendor/ stub's version against the Cargo.lock
//!     pins (defaults: ./Cargo.lock, ./vendor). Exit 1 on drift.
//! ```

use std::process::ExitCode;
use vda_bench::benchcheck;

fn fail(problems: &[String], what: &str) -> ExitCode {
    eprintln!("{what} FAILED ({} problems):", problems.len());
    for p in problems {
        eprintln!("  - {p}");
    }
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            let (baseline, candidate) = match (read(&args[1]), read(&args[2])) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let problems = benchcheck::compare_reports(&baseline, &candidate);
            if problems.is_empty() {
                println!("bench gate OK: {} matches {}", args[2], args[1]);
                ExitCode::SUCCESS
            } else {
                fail(&problems, "bench gate")
            }
        }
        Some("vendor") if args.len() <= 3 => {
            let lock_path = args.get(1).map(String::as_str).unwrap_or("Cargo.lock");
            let vendor_dir = args.get(2).map(String::as_str).unwrap_or("vendor");
            let lock = match read(lock_path) {
                Ok(l) => l,
                Err(e) => return e,
            };
            let mut manifests = Vec::new();
            let entries = match std::fs::read_dir(vendor_dir) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("cannot read {vendor_dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for entry in entries.flatten() {
                let manifest_path = entry.path().join("Cargo.toml");
                if let Ok(contents) = std::fs::read_to_string(&manifest_path) {
                    manifests.push((entry.file_name().to_string_lossy().into_owned(), contents));
                }
            }
            manifests.sort();
            let problems = benchcheck::check_vendor(&lock, &manifests);
            if problems.is_empty() {
                println!(
                    "vendor OK: {} stubs match the {lock_path} pins",
                    manifests.len()
                );
                ExitCode::SUCCESS
            } else {
                fail(&problems, "vendor check")
            }
        }
        _ => {
            eprintln!("usage: check_bench compare <baseline.json> <candidate.json>");
            eprintln!("       check_bench vendor [<Cargo.lock> [<vendor-dir>]]");
            ExitCode::from(2)
        }
    }
}
