//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <drift|storm|advise> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop caller drives the program through its public API on
//! inputs generated from `--seed`, checks every op's output, and prints
//! one JSON object as its last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off:
//!   the median of several set-ups, then an op phase of `--seconds`
//!   (and at least the workload's minimum op count).
//! * `--trace 1` sets up once, runs an untraced op phase, a traced op
//!   phase (spans around every public call, counters before and after),
//!   the layer unit-cost pass, and a replay of the untraced phase's
//!   first ops at `RAYON_NUM_THREADS=1`. It reports the per-layer
//!   metrics and writes its spans to `perfbench/out/`.

mod advise;
mod fleet;
mod trace;
mod units;
mod util;
mod workload;

use std::hint::black_box;
use trace::Tracer;
use util::{median, peak_rss_mb, percentile, Stopwatch};
use workload::{Counters, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// `latency_tail_ms` is this percentile per block of [`TAIL_BLOCK`] ops.
const TAIL_PCT: f64 = 90.0;
const TAIL_BLOCK: usize = 100;

/// One op phase of the closed loop.
struct Phase {
    latencies_ms: Vec<f64>,
    /// Events each op carried.
    op_events: Vec<usize>,
    events: usize,
    failed: usize,
    wall_s: f64,
    /// Phase wall time after each op, seconds.
    elapsed_s: Vec<f64>,
    /// `objective()` after each op.
    objectives: Vec<f64>,
    /// Peak resident set (`VmHWM`) when the minimum op count was
    /// reached.
    rss_at_min_mb: f64,
}

impl Phase {
    fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    fn throughput(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// The tail latency: the nearest-rank p90 of each complete block of
    /// [`TAIL_BLOCK`] ops (ten samples beyond it), then the median over
    /// the blocks; over all ops when there are fewer than two blocks.
    /// Blocks keep the figure steady against interference from outside
    /// the process, which a whole-run p99 picks up.
    fn block_tail(&self) -> f64 {
        let tails: Vec<f64> = self
            .latencies_ms
            .chunks_exact(TAIL_BLOCK)
            .map(|b| percentile(b, TAIL_PCT))
            .collect();
        if tails.len() < 2 {
            percentile(&self.latencies_ms, TAIL_PCT)
        } else {
            median(&tails)
        }
    }

    /// Events per second over the first `n` ops.
    fn throughput_over(&self, n: usize) -> f64 {
        let events: usize = self.op_events[..n].iter().sum();
        events as f64 / self.elapsed_s[n - 1].max(1e-9)
    }
}

/// Run ops until `seconds` have passed and at least `min_ops` ran — or
/// exactly `exact` ops. A phase never runs past eight times its length.
fn run_phase(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    seconds: f64,
    min_ops: usize,
    exact: Option<usize>,
) -> Phase {
    let mut p = Phase {
        latencies_ms: Vec::new(),
        op_events: Vec::new(),
        events: 0,
        failed: 0,
        wall_s: 0.0,
        elapsed_s: Vec::new(),
        objectives: Vec::new(),
        rss_at_min_mb: 0.0,
    };
    let t0 = Stopwatch::start();
    loop {
        let elapsed = t0.secs();
        let done = match exact {
            Some(n) => p.ops() >= n,
            None => (p.ops() >= min_ops && elapsed >= seconds) || elapsed >= 8.0 * seconds.max(1.0),
        };
        if done {
            break;
        }
        tr.set_op(p.ops() as u64);
        let step = w.step(tr);
        p.latencies_ms.push(step.latency_ms);
        p.events += step.events;
        p.op_events.push(step.events);
        p.failed += usize::from(!step.ok);
        p.elapsed_s.push(t0.secs());
        p.objectives.push(w.objective());
        if p.ops() == min_ops {
            p.rss_at_min_mb = peak_rss_mb();
        }
    }
    p.wall_s = t0.secs();
    p
}

/// The metrics object plus the result envelope.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(w: &mut dyn Workload, seconds: f64) -> Report {
    let mut tr = Tracer::new(false);
    let setups: Vec<f64> = (0..w.setup_repeats())
        .map(|_| {
            w.prepare();
            let t0 = Stopwatch::start();
            w.setup(&mut tr);
            t0.secs()
        })
        .collect();
    let min_ops = w.min_ops();
    let p = run_phase(w, &mut tr, seconds, min_ops, None);
    let reached = p.ops() >= min_ops;
    if !reached {
        eprintln!("perfbench: only {} of {min_ops} ops ran", p.ops());
    }
    let mut r = Report {
        correct: p.failed == 0 && reached,
        attempted: p.ops(),
        failed: p.failed,
        metrics: Vec::new(),
    };
    r.put("setup_s", median(&setups), "s");
    r.put("latency_p50_ms", median(&p.latencies_ms), "ms");
    r.put("latency_tail_ms", p.block_tail(), "ms");
    r.put("throughput_ops_s", p.throughput(), "1/s");
    // Read when the minimum op count is reached, so every run of a seed
    // reports the same stretch of work.
    r.put("peak_rss_mb", p.rss_at_min_mb, "MiB");
    let at_min = min_ops.min(p.ops()).saturating_sub(1);
    r.put(
        "objective_s",
        p.objectives.get(at_min).copied().unwrap_or(0.0),
        "s",
    );
    eprintln!(
        "perfbench: {} ops ({} events) in {:.2} s; tail = p{TAIL_PCT} per block of {TAIL_BLOCK} ops over {} blocks",
        p.ops(),
        p.events,
        p.wall_s,
        p.ops() / TAIL_BLOCK,
    );
    r
}

/// Median time of one `par_map` over `len` trivial items, µs.
fn par_map_us(len: usize) -> f64 {
    use rayon::prelude::ParallelMapSlice;
    let xs: Vec<u64> = (0..len as u64).collect();
    units::per_call_us(4.0, || {
        black_box(xs.par_map(|&x| x.wrapping_mul(3)));
    })
}

/// `--trace 1`: the per-layer metrics. Set-up counters are read
/// right after the traced set-up, which is where the traced phase
/// starts.
///
/// Three set-ups of the same inputs run the same op stream: untraced
/// at the default thread count, traced at the default thread count,
/// and untraced at one thread. Comparing the same leading ops of the
/// first with the second gives the tracing overhead, and with the
/// third the single-thread phase ratio. Counters, spans and the unit
/// costs come from the traced phase.
fn traced(w: &mut dyn Workload, name: &str, seed: u64, seconds: f64) -> Report {
    let mut tr = Tracer::new(false);
    let min_ops = w.min_ops();
    w.prepare();
    w.setup(&mut tr);
    let plain = run_phase(w, &mut tr, seconds, min_ops, None);

    w.rewind();
    w.prepare();
    tr.set_enabled(true);
    w.setup(&mut tr);
    let from = tr.len();
    w.take_checkpoints();
    let before = w.counters();
    let p = run_phase(w, &mut tr, seconds, min_ops, None);
    let after = w.counters();
    let checkpoints = w.take_checkpoints();
    tr.set_enabled(false);
    let u = w.unit_costs();
    let threads = rayon::current_num_threads();
    let (pm1, pm25) = (par_map_us(1), par_map_us(25));

    // The first ops that took half the untraced phase, replayed at one
    // thread. Decisions do not depend on the thread count, so the
    // objective must come out bit-identical.
    let k = plain
        .elapsed_s
        .iter()
        .take_while(|&&t| t <= plain.wall_s / 2.0)
        .count()
        .clamp(1, plain.ops());
    w.rewind();
    w.prepare();
    w.setup(&mut tr);
    // The rayon stub reads the variable on every call; no other thread
    // runs here, so setting it cannot race a reader.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run_phase(w, &mut tr, seconds, 0, Some(k));
    std::env::remove_var("RAYON_NUM_THREADS");
    let same = |a: &Phase, b: &Phase, n: usize| {
        a.objectives.get(n - 1).map(|o| o.to_bits()) == b.objectives.get(n - 1).map(|o| o.to_bits())
    };
    let n = plain.ops().min(p.ops());
    let same_decisions = same(&plain, &single, k) && same(&plain, &p, n);
    if !same_decisions {
        eprintln!("perfbench: a replay of the same ops diverged");
    }

    let spans_path =
        std::path::Path::new("perfbench/out").join(format!("spans_{name}_{seed}.jsonl"));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }

    let failed = plain.failed + p.failed + single.failed;
    let mut r = Report {
        correct: failed == 0 && same_decisions,
        attempted: plain.ops() + p.ops() + single.ops(),
        failed,
        metrics: Vec::new(),
    };
    layer_metrics(&mut r, &tr, from, &p, &before, &after, &checkpoints, &u);
    let (untraced_tput, traced_tput) = (plain.throughput_over(n), p.throughput_over(n));
    r.put("trace.throughput_untraced_ops_s", untraced_tput, "1/s");
    r.put("trace.throughput_traced_ops_s", traced_tput, "1/s");
    r.put(
        "trace.overhead_ratio",
        untraced_tput / traced_tput.max(1e-9),
        "ratio",
    );
    r.put("rayon.threads", threads as f64, "count");
    r.put("rayon.par_map_us_1", pm1, "us");
    r.put("rayon.par_map_us_25", pm25, "us");
    let waves = delta(&before, &after, |c| c.waves);
    r.put(
        "rayon.fanout_share",
        waves * pm25 / (p.wall_s * 1e6),
        "ratio",
    );
    r.put(
        "rayon.phase_ratio_1t",
        single.wall_s / plain.elapsed_s[k - 1].max(1e-9),
        "ratio",
    );
    busy_shares(&mut r, &p, &before, &after, &checkpoints, &u, waves * pm25);
    eprintln!(
        "perfbench: untraced {} ops, traced {} ops, {k} replayed at one thread; spans in {}",
        plain.ops(),
        p.ops(),
        spans_path.display()
    );
    r
}

/// The change of one counter between two readings.
fn delta(before: &Counters, after: &Counters, f: impl Fn(&Counters) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &mut Report,
    tr: &Tracer,
    from: usize,
    p: &Phase,
    before: &Counters,
    after: &Counters,
    checkpoints: &[workload::Checkpoint],
    u: &workload::Units,
) {
    let ops = p.ops().max(1) as f64;
    let d = |f: fn(&Counters) -> u64| delta(before, after, f);
    let med = |span: &str| median(&tr.durations_ms(from, span));

    for kind in [
        "scaled",
        "changed",
        "arrived",
        "departed",
        "decommissioned",
        "actuals",
    ] {
        let span = format!("event.{kind}");
        r.put(&format!("controlplane.event_ms.{kind}"), med(&span), "ms");
    }
    r.put("controlplane.batch_ms", med("process_batch"), "ms");
    r.put(
        "controlplane.resolves_per_op",
        d(|c| c.resolves) / ops,
        "count",
    );
    r.put("controlplane.waves_per_op", d(|c| c.waves) / ops, "count");
    r.put(
        "controlplane.migrations_per_op",
        d(|c| c.migrations) / ops,
        "count",
    );

    let (hits, misses) = (d(|c| c.probe_hits), d(|c| c.probe_misses));
    r.put("probe.hits", hits, "count");
    r.put("probe.misses", misses, "count");
    r.put("probe.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    r.put("probe.evictions", d(|c| c.probe_evictions), "count");
    r.put("probe.rows", after.probe_rows as f64, "count");
    r.put("probe.bytes", after.probe_bytes as f64, "bytes");
    r.put("probe.hit_ns", u.probe_hit_ns, "ns");
    r.put("probe.evict_us_per_victim", u.evict_us_per_victim, "us");

    let calls = d(|c| c.optimizer_calls);
    r.put(
        "optimizer.calls.setup",
        before.optimizer_calls as f64,
        "count",
    );
    r.put("optimizer.calls.ops", calls, "count");
    r.put("optimizer.plan_us", u.plan_us, "us");
    r.put(
        "optimizer.busy_share",
        calls * u.plan_us / (p.wall_s * 1e6),
        "ratio",
    );
    r.put("parse.us_per_statement", u.parse_us, "us");
    r.put("bind.statements", d(|c| c.bind_statements), "count");
    r.put("bind.us_per_statement", u.bind_us, "us");
    r.put(
        "calibration.fits.setup",
        before.calibration_fits as f64,
        "count",
    );
    r.put("calibration.fits", d(|c| c.calibration_fits), "count");
    r.put("calibration.fit_ms", u.fit_ms, "ms");

    r.put("enumerate.cold_solves", d(|c| c.cold_solves), "count");
    r.put("enumerate.delta_solves", d(|c| c.delta_solves), "count");
    r.put("enumerate.lattice_reuses", d(|c| c.lattice_reuses), "count");
    r.put("enumerate.c2f_solve_ms", u.c2f_solve_ms, "ms");
    r.put("enumerate.greedy_ms", med("recommend"), "ms");
    r.put(
        "refine.iterations",
        d(|c| c.refine_iterations) / ops,
        "count",
    );
    r.put("refine.ms", med("refine"), "ms");
    let gains = after.gain_sum - before.gain_sum;
    let answered = (after.gain_n - before.gain_n).max(1) as f64;
    r.put("refine.actual_gain_pct", gains / answered, "%");

    let cp = |f: fn(&workload::Checkpoint) -> f64| {
        median(&checkpoints.iter().map(f).collect::<Vec<_>>())
    };
    r.put("snapshot.bytes", cp(|c| c.bytes as f64), "bytes");
    r.put("snapshot.capture_ms", cp(|c| c.capture_ms), "ms");
    r.put("snapshot.snapshot_ms", cp(|c| c.snapshot_ms()), "ms");
    r.put("snapshot.restore_ms", cp(|c| c.resume_ms()), "ms");
    let mb = cp(|c| c.bytes as f64) / 1e6;
    let (encode, decode) = if checkpoints.is_empty() {
        (u.encode_mb_s, u.decode_mb_s)
    } else {
        (
            mb / (cp(|c| c.encode_ms) / 1e3),
            mb / (cp(|c| c.decode_ms) / 1e3),
        )
    };
    r.put("snapshot.encode_mb_s", encode, "MB/s");
    r.put("snapshot.decode_mb_s", decode, "MB/s");
    r.put("snapshot.checkpoints", checkpoints.len() as f64, "count");

    r.put("adaptive.actuals", d(|c| c.actuals), "count");
    r.put("guardrail.shadow", d(|c| c.shadow), "count");
    r.put("guardrail.canary", d(|c| c.canary), "count");
    r.put("guardrail.promoted", d(|c| c.promoted), "count");
    r.put("guardrail.rolled_back", d(|c| c.rolled_back), "count");

    // Self time per op of each public call the benchmark wraps.
    let selfs = tr.self_ms_by_name(from);
    let self_of = |prefix: &str| -> f64 {
        selfs
            .iter()
            .filter(|(k, _)| *k == &prefix || k.starts_with(&format!("{prefix}.")))
            .map(|(_, v)| v)
            .sum::<f64>()
            / ops
    };
    for name in [
        "op",
        "generate",
        "event",
        "process_batch",
        "check",
        "checkpoint",
        "snapshot",
        "to_json",
        "from_json",
        "restore",
        "tenant_new",
        "calibrate",
        "recommend",
        "refine",
        "quality",
    ] {
        r.put(&format!("self_ms.{name}"), self_of(name), "ms");
    }
}

/// The unit-cost table joined with the traced phase's counters: an
/// estimated busy time per layer as a share of the phase's wall time,
/// plus the share left unattributed (negative when the estimates
/// overlap).
fn busy_shares(
    r: &mut Report,
    p: &Phase,
    before: &Counters,
    after: &Counters,
    checkpoints: &[workload::Checkpoint],
    u: &workload::Units,
    fanout_us: f64,
) {
    let d = |f: fn(&Counters) -> u64| delta(before, after, f);
    let wall_us = p.wall_s * 1e6;
    let victims = d(|c| c.probe_evictions) / u.rows_per_victim.max(1.0);
    let snapshot_us: f64 = checkpoints
        .iter()
        .map(|c| (c.capture_ms + c.encode_ms + c.decode_ms + c.restore_ms) * 1e3)
        .sum();
    let layers = [
        ("optimizer", d(|c| c.optimizer_calls) * u.plan_us),
        (
            "probe",
            (d(|c| c.probe_hits) + d(|c| c.probe_misses)) * u.probe_hit_ns / 1e3,
        ),
        ("evict", victims * u.evict_us_per_victim),
        ("bind", d(|c| c.bind_statements) * (u.parse_us + u.bind_us)),
        ("calibration", d(|c| c.calibration_fits) * u.fit_ms * 1e3),
        ("enumerate", d(|c| c.cold_solves) * u.c2f_solve_ms * 1e3),
        ("rayon", fanout_us),
        ("snapshot", snapshot_us),
    ];
    let mut attributed = 0.0;
    for (layer, us) in layers {
        r.put(&format!("busy.{layer}_share"), us / wall_us, "ratio");
        attributed += us;
    }
    r.put(
        "busy.unattributed_share",
        1.0 - attributed / wall_us,
        "ratio",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <drift|storm|advise> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let t0 = Stopwatch::start();
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "drift" => Box::new(fleet::Fleet::new(fleet::Shape::Drift, args.seed)),
        "storm" => Box::new(fleet::Fleet::new(fleet::Shape::Storm, args.seed)),
        "advise" => Box::new(advise::Advise::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (drift, storm, advise)");
            std::process::exit(2);
        }
    };
    eprintln!("perfbench: inputs generated in {:.0} ms", t0.ms());
    let report = if args.trace {
        traced(w.as_mut(), &args.workload, args.seed, args.seconds)
    } else {
        untraced(w.as_mut(), args.seconds)
    };
    println!("{}", report.to_json());
}
