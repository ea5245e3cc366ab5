//! Small shared pieces: the benchmark's stopwatch, the seeded
//! generator, sample statistics, the process's peak resident set, and
//! the output checks every workload applies to a placement.

// detlint:allow-file(wall-clock, reason = "the benchmark's own timer: every measurement reads this stopwatch")

use std::time::Instant;
use vda_core::problem::{Allocation, Resource, SearchSpace};

/// SplitMix64: a tiny, fully specified generator, so the benchmark's
/// inputs depend on `--seed` alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per stream so two workloads on
    /// one seed draw unrelated inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0, items.len() - 1)]
    }
}

/// Draws from `items` without replacement, reshuffling once every item
/// has been drawn, so any run of draws covers the items evenly. This
/// keeps a run's mix, and with it the run's totals, close to the same
/// across seeds.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = rng.int(0, i);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Median of `xs` (mean of the middle pair for even counts); `0.0`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`); `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tolerance of the feasibility checks.
const EPS: f64 = 1e-9;

/// One machine's allocations are feasible: one per tenant, every
/// varied axis at least the minimum share, and every axis summing to
/// at most the whole machine.
pub fn feasible(space: &SearchSpace, allocations: &[Allocation], tenants: usize) -> bool {
    if allocations.len() != tenants {
        return false;
    }
    Resource::ALL.iter().all(|&r| {
        let shares = allocations.iter().map(|a| a.get(r));
        let in_range = shares
            .clone()
            .all(|s| s.is_finite() && s > 0.0 && s <= 1.0 + EPS);
        let above_min = !space.is_varied(r) || shares.clone().all(|s| s >= space.min_share - EPS);
        let fits = !space.is_varied(r) || shares.sum::<f64>() <= 1.0 + EPS;
        in_range && above_min && fits
    })
}
