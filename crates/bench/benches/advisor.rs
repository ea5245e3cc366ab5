//! Criterion micro-benchmarks of the advisor pipeline (§7.2's cost
//! discussion): calibration, what-if estimation (cache ablation),
//! greedy vs exhaustive enumeration, refinement, and a dynamic
//! monitoring period.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vda_bench::setups::{self, EngineChoice, FIXED_512MB_SHARE};
use vda_core::costmodel::calibration::Calibrator;
use vda_core::costmodel::whatif::WhatIfEstimator;
use vda_core::dynamic::{DynamicConfigManager, DynamicOptions};
use vda_core::problem::{Allocation, SearchSpace};
use vda_core::refine::RefineOptions;
use vda_core::tenant::Tenant;
use vda_simdb::engines::Engine;
use vda_workloads::tpch;

fn bench_calibration(c: &mut Criterion) {
    let hv = setups::testbed();
    c.bench_function("calibrate_pg", |b| {
        b.iter(|| black_box(Calibrator::new(&hv).calibrate(&Engine::pg())))
    });
    c.bench_function("calibrate_db2", |b| {
        b.iter(|| black_box(Calibrator::new(&hv).calibrate(&Engine::db2())))
    });
}

fn bench_whatif(c: &mut Criterion) {
    let hv = setups::testbed();
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let tenant = Tenant::new(
        "bench",
        engine.clone(),
        setups::sf(1.0),
        tpch::query_workload(18, 5.0),
    )
    .expect("binds");
    let model = Calibrator::new(&hv).calibrate(&engine);

    c.bench_function("whatif_estimate_cold", |b| {
        b.iter(|| {
            let est = WhatIfEstimator::new(&tenant, &model);
            black_box(est.cost(Allocation::new(0.5, 0.5)))
        })
    });
    let warm = WhatIfEstimator::new(&tenant, &model);
    warm.cost(Allocation::new(0.5, 0.5));
    c.bench_function("whatif_estimate_cached", |b| {
        b.iter(|| black_box(warm.cost(Allocation::new(0.5, 0.5))))
    });
    let uncached = WhatIfEstimator::without_cache(&tenant, &model);
    c.bench_function("whatif_estimate_uncached_ablation", |b| {
        b.iter(|| black_box(uncached.cost(Allocation::new(0.5, 0.5))))
    });
}

fn search_advisor() -> vda_core::advisor::VirtualizationDesignAdvisor {
    let engine = setups::engine_fixed_memory(EngineChoice::Db2);
    let cat = setups::sf(1.0);
    let (c_unit, i_unit) = setups::cpu_units(&engine, &cat);
    setups::advisor_for(
        &engine,
        &cat,
        vec![
            c_unit.compose(5.0, &i_unit, 5.0),
            c_unit.compose(2.0, &i_unit, 8.0),
            c_unit.compose(8.0, &i_unit, 2.0),
            i_unit.times(10.0),
        ],
    )
}

fn bench_search(c: &mut Criterion) {
    let adv = search_advisor();
    let space = SearchSpace::cpu_only(FIXED_512MB_SHARE);
    c.bench_function("greedy_4_workloads", |b| {
        b.iter(|| black_box(adv.recommend(&space)))
    });
    c.bench_function("exhaustive_4_workloads", |b| {
        b.iter(|| black_box(adv.recommend_exhaustive(&space)))
    });
    c.bench_function("optimal_actual_4_workloads", |b| {
        b.iter(|| black_box(adv.optimal_actual(&space)))
    });
    let mut serial_adv = search_advisor();
    serial_adv.set_search_options(vda_core::enumerate::SearchOptions::serial());
    c.bench_function("greedy_4_workloads_serial_eval", |b| {
        b.iter(|| black_box(serial_adv.recommend(&space)))
    });
    c.bench_function("exhaustive_4_workloads_serial_eval", |b| {
        b.iter(|| black_box(serial_adv.recommend_exhaustive(&space)))
    });
}

fn bench_refinement(c: &mut Criterion) {
    let adv = search_advisor();
    let space = SearchSpace::cpu_only(FIXED_512MB_SHARE);
    let rec = adv.recommend(&space);
    c.bench_function("refine_recommendation_4_workloads", |b| {
        b.iter(|| {
            black_box(adv.refine_recommendation(
                &space,
                &rec.result.allocations,
                &RefineOptions::default(),
            ))
        })
    });
}

fn bench_dynamic_period(c: &mut Criterion) {
    let adv = search_advisor();
    let space = SearchSpace::cpu_only(FIXED_512MB_SHARE);
    c.bench_function("dynamic_monitoring_period", |b| {
        b.iter(|| {
            let mut mgr = DynamicConfigManager::new(&adv, space, DynamicOptions::default());
            black_box(mgr.process_period(&adv))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_calibration, bench_whatif, bench_search, bench_refinement,
              bench_dynamic_period
);
criterion_main!(benches);
