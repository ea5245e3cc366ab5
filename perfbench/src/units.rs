//! Unit costs of single layers, each timed through the layer's public
//! functions on a workload's own inputs.

use crate::util::{median, Stopwatch};
use std::hint::black_box;
use vda_core::costmodel::{Calibrator, Estimate, ProbeCache};
use vda_core::enumerate::{coarse_to_fine_search_with, CoarseToFineOptions, SearchOptions};
use vda_core::problem::{AllocKey, SearchSpace};
use vda_core::VirtualizationDesignAdvisor;
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_simdb::optimizer::Optimizer;
use vda_vmm::{Hypervisor, PhysicalMachine, VmConfig};

/// Median over five rounds of the per-call time of `f`, microseconds.
/// Each round repeats `f` until it has run for at least `round_ms`.
pub fn per_call_us(round_ms: f64, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Stopwatch::start();
            let mut n = 0u64;
            while n == 0 || t0.ms() < round_ms {
                f();
                n += 1;
            }
            t0.ms() * 1e3 / n as f64
        })
        .collect();
    median(&rounds)
}

/// A statement as one tenant runs it: SQL, the catalog it binds
/// against and the engine whose optimizer plans it.
pub struct Statement {
    pub sql: String,
    pub catalog: Catalog,
    pub engine: Engine,
}

/// Per-statement parse, bind and plan costs (µs), averaged over
/// `statements`. Plans use the engine's ideal parameters for a VM
/// holding half the paper testbed.
pub fn frontend(statements: &[Statement]) -> (f64, f64, f64) {
    if statements.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = statements.len() as f64;
    let parse = per_call_us(4.0, || {
        for s in statements {
            black_box(vda_simdb::sql::parse_statement(&s.sql).ok());
        }
    }) / n;
    let bind = per_call_us(4.0, || {
        for s in statements {
            black_box(vda_simdb::bind::bind_statement(&s.sql, &s.catalog).ok());
        }
    }) / n;
    let hv = Hypervisor::new(PhysicalMachine::paper_testbed());
    let perf = hv.perf_for(VmConfig::new(0.5, 0.5).expect("a valid half-machine VM"));
    let bound: Vec<_> = statements
        .iter()
        .filter_map(|s| {
            let q = vda_simdb::bind::bind_statement(&s.sql, &s.catalog).ok()?;
            let factors = s.engine.factors(&s.engine.true_params(&perf));
            Some((q, &s.catalog, factors))
        })
        .collect();
    let plan = per_call_us(4.0, || {
        for (q, cat, factors) in &bound {
            black_box(Optimizer::new(cat, *factors).plan(q));
        }
    }) / bound.len().max(1) as f64;
    (parse, bind, plan)
}

/// One probe-cache hit, through a cache-backed what-if estimate of
/// tenant 0 of `adv` at its current allocation `at`, nanoseconds.
pub fn probe_hit_ns(adv: &VirtualizationDesignAdvisor, at: vda_core::problem::Allocation) -> f64 {
    let est = adv.estimator(0);
    est.estimate(at);
    per_call_us(4.0, || {
        black_box(est.estimate(at));
    }) * 1e3
}

/// Eviction cost per victim generation: a standalone cache is filled
/// with `rows` (a workload's own probe rows), one recency epoch per
/// `(model, tenant)` generation, then capped so exactly the oldest
/// eighth of the generations (at most 500) must go. Returns
/// microseconds per victim and rows per victim.
pub fn evict_us_per_victim(rows: &[(u64, u64, AllocKey, Estimate)]) -> (f64, f64) {
    let mut generations: Vec<&[(u64, u64, AllocKey, Estimate)]> = Vec::new();
    let mut start = 0;
    for i in 1..=rows.len() {
        if i == rows.len() || (rows[i].0, rows[i].1) != (rows[start].0, rows[start].1) {
            generations.push(&rows[start..i]);
            start = i;
        }
    }
    if generations.len() < 2 {
        return (0.0, 0.0);
    }
    let victims = (generations.len() / 8).clamp(1, 500);
    let doomed: usize = generations[..victims].iter().map(|g| g.len()).sum();
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let cache = ProbeCache::new();
            for (epoch, g) in generations.iter().enumerate() {
                cache.set_epoch(epoch as u64 + 1);
                cache.import(g);
            }
            cache.set_capacity(rows.len() - doomed);
            let t0 = Stopwatch::start();
            let evicted = cache.enforce_capacity();
            let us = t0.ms() * 1e3;
            assert_eq!(
                evicted as usize, doomed,
                "eviction took the oldest generations"
            );
            us / victims as f64
        })
        .collect();
    (median(&runs), doomed as f64 / victims as f64)
}

/// One coarse-to-fine solve of `adv`'s tenants from a cold lattice
/// (estimates come from whatever cache the advisor has attached), ms.
pub fn c2f_solve_ms(adv: &VirtualizationDesignAdvisor, space: &SearchSpace) -> f64 {
    let n = adv.tenant_count();
    let estimators: Vec<_> = (0..n).map(|i| adv.estimator(i)).collect();
    let c2f = CoarseToFineOptions::auto(space, n);
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Stopwatch::start();
            black_box(coarse_to_fine_search_with(
                space,
                adv.qos(),
                &estimators,
                &c2f,
                &SearchOptions::default(),
            ));
            t0.ms()
        })
        .collect();
    median(&runs)
}

/// One optimizer calibration of `engine` on `machine`, ms.
pub fn fit_ms(machine: PhysicalMachine, engines: &[Engine]) -> f64 {
    let hv = Hypervisor::new(machine);
    let runs: Vec<f64> = engines
        .iter()
        .cycle()
        .take(3 * engines.len())
        .map(|e| {
            let t0 = Stopwatch::start();
            black_box(Calibrator::new(&hv).calibrate(e));
            t0.ms()
        })
        .collect();
    median(&runs)
}
