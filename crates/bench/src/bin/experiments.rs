//! Experiment runner: regenerates the paper's figures and tables.
//!
//! ```text
//! experiments <id> [<id> ...]   run specific experiments (fig2, fig12, …)
//! experiments all               run everything in paper order
//! experiments list              list available experiment ids
//! experiments --enumeration-json [path.json]
//!                               measure enumeration perf and write the
//!                               machine-readable BENCH_enumeration.json
//!                               (default path: BENCH_enumeration.json;
//!                               a custom path must end in .json so
//!                               experiment ids are never mistaken for it)
//! experiments --placement-json [path.json]
//!                               run the fleet-placement scenario and
//!                               write BENCH_placement.json (same path
//!                               rules as --enumeration-json)
//! experiments --dynamic-json [path.json]
//!                               run the steady-state incremental
//!                               re-optimization scenario and write
//!                               BENCH_dynamic.json (same path rules)
//! experiments --fleet-json [path.json]
//!                               run the sharded control-plane fleet
//!                               scenario (event stream + snapshot/
//!                               resume) and write BENCH_fleet.json
//!                               (same path rules)
//! experiments --adaptive-json [path.json]
//!                               run the adaptive-calibration drift
//!                               scenario (frozen vs guardrail-promoted
//!                               models, plus the forced-rollback leg)
//!                               and write BENCH_adaptive.json (same
//!                               path rules)
//! ```

use std::process::ExitCode;
use vda_bench::experiments::{self, adaptbench, dynbench, enumeration, fleetbench, placement};

/// Extract `--<flag> [path.json]` from `args`: the flag plus an
/// optional `.json` path operand; anything else (e.g. `all`, `fig2`)
/// stays behind as an experiment id.
fn json_flag(args: &mut Vec<String>, flag: &str, default: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    Some(if pos < args.len() && args[pos].ends_with(".json") {
        args.remove(pos)
    } else {
        default.to_string()
    })
}

/// Measures a scenario, writes its artifact to the given path, and
/// returns the rendered report text.
type WriteJson = fn(&str) -> std::io::Result<String>;

/// The artifact flags: `(flag, default path, writer)`.
#[rustfmt::skip]
const ARTIFACTS: [(&str, &str, WriteJson); 5] = [
    ("--enumeration-json", "BENCH_enumeration.json", enumeration::write_json),
    ("--placement-json", "BENCH_placement.json", placement::write_json),
    ("--dynamic-json", "BENCH_dynamic.json", dynbench::write_json),
    ("--fleet-json", "BENCH_fleet.json", fleetbench::write_json),
    ("--adaptive-json", "BENCH_adaptive.json", adaptbench::write_json),
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut ran_flag = false;
    for (flag, default, write_json) in ARTIFACTS {
        let Some(path) = json_flag(&mut args, flag, default) else {
            continue;
        };
        ran_flag = true;
        match write_json(&path) {
            Ok(report) => {
                println!("{report}");
                println!("wrote {path}");
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ran_flag && args.is_empty() {
        return ExitCode::SUCCESS;
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: experiments <id>... | all | list | --enumeration-json [path] | --placement-json [path] | --dynamic-json [path] | --fleet-json [path] | --adaptive-json [path]"
        );
        eprintln!("ids: {}", id_list().join(" "));
        return ExitCode::from(2);
    }
    if args[0] == "list" {
        println!("{}", id_list().join("\n"));
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if args[0] == "all" {
        id_list().into_iter().map(str::to_string).collect()
    } else {
        args
    };

    for id in &ids {
        match experiments::run_by_id(id) {
            Some(report) => print!("{report}"),
            None => {
                eprintln!("unknown experiment id {id:?}; try `experiments list`");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn id_list() -> Vec<&'static str> {
    experiments::registry()
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}
