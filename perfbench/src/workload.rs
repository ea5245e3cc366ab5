//! What every workload provides to the shared measurement loop.

use crate::trace::Tracer;

/// One finished op as the loop sees it.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The op's own wall time (the program calls only), ms.
    pub latency_ms: f64,
    /// Events the op carried (1 per event, 25 per storm batch, 1 per
    /// advise request) — the unit of `throughput_ops_s`.
    pub events: usize,
    /// The op neither panicked nor failed an output check.
    pub ok: bool,
}

/// Cumulative counters read from the program's public surface (or,
/// where the program keeps none, tallied by the workload from what
/// its public calls return). The traced run differences two of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub resolves: u64,
    pub waves: u64,
    pub migrations: u64,
    pub optimizer_calls: u64,
    pub probe_hits: u64,
    pub probe_misses: u64,
    pub probe_evictions: u64,
    pub probe_rows: u64,
    pub probe_bytes: u64,
    pub cold_solves: u64,
    pub delta_solves: u64,
    pub lattice_reuses: u64,
    pub bind_statements: u64,
    pub calibration_fits: u64,
    pub refine_iterations: u64,
    pub actuals: u64,
    pub shadow: u64,
    pub canary: u64,
    pub promoted: u64,
    pub rolled_back: u64,
    /// Sum and count of `actual_improvement` over answered requests.
    pub gain_sum: f64,
    pub gain_n: u64,
}

/// One drift checkpoint: snapshot + encode, then decode + restore into
/// a standby plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checkpoint {
    pub bytes: usize,
    pub capture_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub restore_ms: f64,
}

impl Checkpoint {
    /// `snapshot()` + `to_json()`.
    pub fn snapshot_ms(&self) -> f64 {
        self.capture_ms + self.encode_ms
    }

    /// `from_json()` + `ControlPlane::restore`.
    pub fn resume_ms(&self) -> f64 {
        self.decode_ms + self.restore_ms
    }
}

/// Unit costs of single layers, measured on the workload's own inputs.
/// `0.0` marks a layer the workload does not exercise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Units {
    pub parse_us: f64,
    pub bind_us: f64,
    pub plan_us: f64,
    pub probe_hit_ns: f64,
    pub evict_us_per_victim: f64,
    pub rows_per_victim: f64,
    pub c2f_solve_ms: f64,
    pub fit_ms: f64,
    pub encode_mb_s: f64,
    pub decode_mb_s: f64,
}

pub trait Workload {
    /// Set-ups measured per untraced run (`setup_s` is their median).
    fn setup_repeats(&self) -> usize;
    /// Ops every run completes, however long that takes; `objective`
    /// and `peak_rss_mb` are read after exactly this many ops.
    fn min_ops(&self) -> usize;
    /// Generate the inputs of the next set-up (not timed), releasing
    /// any previous program state first.
    fn prepare(&mut self);
    /// Stand the program up over the prepared inputs (timed).
    fn setup(&mut self, tr: &mut Tracer);
    /// Generate, run and check the next op.
    fn step(&mut self, tr: &mut Tracer) -> Step;
    /// Estimated seconds under the current allocations (`advise`: the
    /// sum over the requests answered so far).
    fn objective(&self) -> f64;
    /// Restart the op stream from its first op (same seed) and zero the
    /// workload's own tallies; the next `prepare` + `setup` then replays
    /// the same ops.
    fn rewind(&mut self);
    fn counters(&self) -> Counters;
    /// Checkpoints taken since the last call.
    fn take_checkpoints(&mut self) -> Vec<Checkpoint>;
    /// The layer unit-cost pass (traced run only, after the op phases).
    fn unit_costs(&mut self) -> Units;
}
