//! Fleet placement: N tenants over K machines (beyond the paper).
//!
//! The paper stops at N = 10 tenants on one machine; the fleet layer
//! decides *which* tenant lands on *which* machine before the
//! per-machine advisor configures it. This scenario places ten mixed
//! DSS tenants on three identical machines (CPU + memory jointly) and
//! compares the placer — marginal-benefit bin-packing plus
//! swap/migrate local search, greedy per-machine inner solves —
//! against naive round-robin placement. [`write_json`] emits the
//! deterministic numbers (assignment, objectives, optimizer calls,
//! move/solve counts) as `BENCH_placement.json`; CI diffs them against
//! the committed baseline and fails on regression.

use crate::harness::{fmt_f, fmt_pct, Report, Table};
use crate::setups::{self, cold_estimators, EngineChoice};
use std::time::Instant;
use vda_core::jsonio::{write_pretty, Json};
use vda_core::metrics::CostAccounting;
use vda_core::placement::{
    assignment_objective, place_tenants, FleetOptions, MachineSpec, PlacementResult,
};
use vda_core::problem::{QoS, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::VirtualizationDesignAdvisor;

/// Machines in the fleet scenario.
pub const MACHINES: usize = 3;

/// Big (reference-sized) machines in the heterogeneous scenario.
pub const HET_BIG: usize = 2;
/// Small machines in the heterogeneous scenario.
pub const HET_SMALL: usize = 2;
/// The small machines' CPU and memory capacity relative to the big
/// ones.
pub const HET_SMALL_SCALE: f64 = 0.5;

/// The placement measurement: the placer's answer plus the round-robin
/// baseline, with optimizer-call accounting.
#[derive(Debug, Clone)]
pub struct PlacementMeasurement {
    /// Tenant count.
    pub workloads: usize,
    /// Machine count.
    pub machines: usize,
    /// The placer's result.
    pub result: PlacementResult,
    /// Round-robin fleet objective (same pricing).
    pub round_robin_objective: f64,
    /// Wall time of the placement run, milliseconds.
    pub wall_ms: f64,
    /// Optimizer calls the placement run issued (cold caches).
    pub optimizer_calls: u64,
    /// Per-tenant names, for the report.
    pub tenant_names: Vec<String>,
}

impl PlacementMeasurement {
    /// Relative improvement of the placer over round-robin.
    pub fn improvement(&self) -> f64 {
        (self.round_robin_objective - self.result.objective) / self.round_robin_objective
    }
}

/// Ten mixed DSS tenants: CPU-hungry (Q18/Q21), scan/memory-leaning
/// (Q6/Q7/Q16), and a couple of heavyweights, so machines genuinely
/// differ in attractiveness.
fn fleet_advisor() -> VirtualizationDesignAdvisor {
    let engine = EngineChoice::Db2.engine();
    let cat = setups::sf(1.0);
    let mut adv = VirtualizationDesignAdvisor::new(setups::testbed());
    let mix: [(usize, f64); 10] = [
        (18, 6.0),
        (18, 1.0),
        (21, 4.0),
        (6, 2.0),
        (7, 3.0),
        (16, 1.0),
        (6, 5.0),
        (7, 1.0),
        (21, 1.0),
        (16, 3.0),
    ];
    for (i, &(q, count)) in mix.iter().enumerate() {
        let w = vda_workloads::tpch::query_workload(q, count).named(format!("T{i}-Q{q}"));
        adv.add_tenant(
            Tenant::new(format!("T{i}-Q{q}"), engine.clone(), cat.clone(), w)
                .expect("bench workloads bind"),
            QoS::default(),
        );
    }
    adv.calibrate();
    adv
}

/// Run the fleet scenario.
pub fn measure() -> PlacementMeasurement {
    let adv = fleet_advisor();
    let space = SearchSpace::cpu_and_memory(); // δ = 0.05
    let qos = adv.qos();
    let n = adv.tenant_count();
    let specs = vec![MachineSpec::reference(space); MACHINES];
    let options = FleetOptions::default();

    let models = cold_estimators(&adv);
    let t0 = Instant::now();
    let result = place_tenants(&specs, qos, &models, &options);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let optimizer_calls = CostAccounting::tally(&models).optimizer_calls;

    let round_robin: Vec<usize> = (0..n).map(|i| i % MACHINES).collect();
    let round_robin_objective = assignment_objective(&specs, qos, &models, &round_robin, &options)
        .expect("round-robin names one fleet machine per tenant");

    PlacementMeasurement {
        workloads: n,
        machines: MACHINES,
        result,
        round_robin_objective,
        wall_ms,
        optimizer_calls,
        tenant_names: (0..n).map(|i| adv.tenant(i).name.clone()).collect(),
    }
}

/// The heterogeneous fleet measurement: heterogeneity-aware placement
/// over 2 big + 2 small machines vs the homogeneous assumption
/// (placing as if every machine were the smallest, then paying the
/// true fleet).
#[derive(Debug, Clone)]
pub struct HeterogeneousMeasurement {
    /// Tenant count.
    pub workloads: usize,
    /// The true fleet's machine specs (small machines first — the
    /// homogeneous assumption cannot see which slots are big).
    pub specs: Vec<MachineSpec>,
    /// The heterogeneity-aware placer's result.
    pub result: PlacementResult,
    /// Assignment chosen under the all-machines-are-smallest
    /// assumption.
    pub smallest_assignment: Vec<usize>,
    /// That assignment's objective priced on the TRUE fleet.
    pub smallest_objective: f64,
    /// Wall time of the heterogeneity-aware placement run, ms.
    pub wall_ms: f64,
    /// Optimizer calls the aware placement issued (cold caches).
    pub optimizer_calls: u64,
    /// Per-tenant names, for the report.
    pub tenant_names: Vec<String>,
}

impl HeterogeneousMeasurement {
    /// Relative improvement of heterogeneity-aware placement over the
    /// smallest-machine assumption.
    pub fn improvement(&self) -> f64 {
        (self.smallest_objective - self.result.objective) / self.smallest_objective
    }
}

/// The heterogeneous fleet: `HET_SMALL` half-scale machines followed
/// by `HET_BIG` reference machines, all on the same joint CPU+memory
/// δ-grid. Small machines come first so the homogeneous baseline —
/// which sees four interchangeable machines — packs its
/// most-resource-sensitive tenants onto slots that are, in truth, the
/// small ones.
fn het_specs() -> Vec<MachineSpec> {
    let space = SearchSpace::cpu_and_memory();
    let mut specs = vec![MachineSpec::scaled(space, HET_SMALL_SCALE, HET_SMALL_SCALE); HET_SMALL];
    specs.extend(vec![MachineSpec::reference(space); HET_BIG]);
    specs
}

/// Run the heterogeneous fleet scenario.
pub fn measure_heterogeneous() -> HeterogeneousMeasurement {
    let adv = fleet_advisor();
    let qos = adv.qos();
    let n = adv.tenant_count();
    let specs = het_specs();
    let options = FleetOptions::default();

    let models = cold_estimators(&adv);
    let t0 = Instant::now();
    let result = place_tenants(&specs, qos, &models, &options);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let optimizer_calls = CostAccounting::tally(&models).optimizer_calls;

    // The homogeneous assumption: every machine is the smallest. Place
    // under that fiction, then pay the true fleet for the resulting
    // assignment.
    let smallest = vec![specs[0]; specs.len()];
    let blind = place_tenants(&smallest, qos, &models, &options);
    let smallest_objective =
        assignment_objective(&specs, qos, &models, &blind.assignment, &options)
            .expect("the blind placement names one fleet machine per tenant");

    HeterogeneousMeasurement {
        workloads: n,
        specs,
        result,
        smallest_assignment: blind.assignment,
        smallest_objective,
        wall_ms,
        optimizer_calls,
        tenant_names: (0..n).map(|i| adv.tenant(i).name.clone()).collect(),
    }
}

/// Both placement measurements, as emitted into
/// `BENCH_placement.json`.
#[derive(Debug, Clone)]
pub struct PlacementBench {
    /// The homogeneous 10-tenants-over-3-machines scenario.
    pub homogeneous: PlacementMeasurement,
    /// The heterogeneous 2-big + 2-small scenario.
    pub heterogeneous: HeterogeneousMeasurement,
}

/// Measure and render as a report.
pub fn run() -> Report {
    run_from(measure())
}

/// Measure the heterogeneous scenario and render as a report.
pub fn run_heterogeneous() -> Report {
    run_heterogeneous_from(measure_heterogeneous())
}

/// Render the heterogeneous measurement as a report.
pub fn run_heterogeneous_from(m: HeterogeneousMeasurement) -> Report {
    let mut report = Report::new(
        "placement-heterogeneous",
        "Heterogeneous fleet: 10 tenants over 2 big + 2 small machines",
    );
    let mut table = Table::new(vec!["machine", "cpu/mem scale", "tenants", "weighted cost"]);
    for (machine, spec) in m.specs.iter().enumerate() {
        let tenants = m.result.tenants_on(machine);
        let names: Vec<&str> = tenants
            .iter()
            .map(|&i| m.tenant_names[i].as_str())
            .collect();
        let cost = match &m.result.per_machine[machine] {
            Some(r) => fmt_f(r.weighted_cost, 2),
            None => "-".to_string(),
        };
        table.row(vec![
            machine.to_string(),
            format!(
                "{}/{}",
                fmt_f(spec.scale.cpu(), 2),
                fmt_f(spec.scale.memory(), 2)
            ),
            names.join(","),
            cost,
        ]);
    }
    report.section("heterogeneity-aware placement", table);

    let mut summary = Table::new(vec!["metric", "value"]);
    summary.row(vec![
        "aware objective".to_string(),
        fmt_f(m.result.objective, 2),
    ]);
    summary.row(vec![
        "smallest-assumption objective".to_string(),
        fmt_f(m.smallest_objective, 2),
    ]);
    summary.row(vec!["improvement".to_string(), fmt_pct(m.improvement())]);
    summary.row(vec![
        "local-search moves".to_string(),
        m.result.moves.len().to_string(),
    ]);
    summary.row(vec![
        "inner solves (memoized)".to_string(),
        m.result.inner_solves.to_string(),
    ]);
    summary.row(vec![
        "optimizer calls".to_string(),
        m.optimizer_calls.to_string(),
    ]);
    summary.row(vec!["wall ms".to_string(), fmt_f(m.wall_ms, 1)]);
    report.section("aware vs smallest-machine assumption", summary);
    report.note(format!(
        "heterogeneity-aware placement beats the homogeneous assumption: {}",
        m.improvement() > 0.0
    ));
    report
}

/// Render an existing measurement as a report.
pub fn run_from(m: PlacementMeasurement) -> Report {
    let mut report = Report::new(
        "placement",
        "Fleet placement: 10 tenants over 3 machines vs round-robin",
    );
    let mut table = Table::new(vec!["machine", "tenants", "weighted cost", "cpu shares"]);
    for machine in 0..m.machines {
        let tenants = m.result.tenants_on(machine);
        let names: Vec<&str> = tenants
            .iter()
            .map(|&i| m.tenant_names[i].as_str())
            .collect();
        let (cost, shares) = match &m.result.per_machine[machine] {
            Some(r) => (
                fmt_f(r.weighted_cost, 2),
                r.allocations
                    .iter()
                    .map(|a| fmt_f(a.cpu(), 2))
                    .collect::<Vec<_>>()
                    .join("/"),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(vec![machine.to_string(), names.join(","), cost, shares]);
    }
    report.section("final placement", table);

    let mut summary = Table::new(vec!["metric", "value"]);
    summary.row(vec![
        "fleet objective".to_string(),
        fmt_f(m.result.objective, 2),
    ]);
    summary.row(vec![
        "round-robin objective".to_string(),
        fmt_f(m.round_robin_objective, 2),
    ]);
    summary.row(vec!["improvement".to_string(), fmt_pct(m.improvement())]);
    summary.row(vec![
        "local-search moves".to_string(),
        m.result.moves.len().to_string(),
    ]);
    summary.row(vec![
        "inner solves (memoized)".to_string(),
        m.result.inner_solves.to_string(),
    ]);
    summary.row(vec![
        "optimizer calls".to_string(),
        m.optimizer_calls.to_string(),
    ]);
    summary.row(vec!["wall ms".to_string(), fmt_f(m.wall_ms, 1)]);
    report.section("placer vs round-robin", summary);
    report.note(format!(
        "placement beats round-robin: {} ({} over {} machines)",
        m.improvement() > 0.0,
        m.workloads,
        m.machines
    ));
    report
}

/// Serialize both measurements as the `BENCH_placement.json`
/// artifact: the homogeneous scenario's fields at the top level (as
/// before), the heterogeneous scenario nested under
/// `"heterogeneous"`. Every field except the `wall_ms` ones is
/// deterministic and gated by `check_bench`.
pub fn to_json(bench: &PlacementBench) -> String {
    let m = &bench.homogeneous;
    let per_machine = (0..m.machines).map(|machine| {
        let cost = m.result.per_machine[machine]
            .as_ref()
            .map_or(Json::Null, |r| r.weighted_cost.into());
        Json::obj(vec![
            ("machine", machine.into()),
            ("tenants", Json::arr(&m.result.tenants_on(machine))),
            ("weighted_cost", cost),
        ])
    });
    let het = &bench.heterogeneous;
    write_pretty(&Json::obj(vec![
        ("experiment", "placement".into()),
        ("workloads", m.workloads.into()),
        ("machines", m.machines.into()),
        ("space", "cpu_and_memory".into()),
        ("delta", 0.05.into()),
        ("wall_ms", m.wall_ms.into()),
        ("assignment", Json::arr(&m.result.assignment)),
        ("total_weighted_cost", m.result.total_weighted_cost.into()),
        ("objective", m.result.objective.into()),
        ("round_robin_objective", m.round_robin_objective.into()),
        ("improvement", m.improvement().into()),
        ("moves", m.result.moves.len().into()),
        ("inner_solves", m.result.inner_solves.into()),
        ("optimizer_calls", m.optimizer_calls.into()),
        ("per_machine", Json::Arr(per_machine.collect())),
        (
            "heterogeneous",
            Json::obj(vec![
                ("workloads", het.workloads.into()),
                ("machines", het.specs.len().into()),
                ("big_machines", HET_BIG.into()),
                ("small_machines", HET_SMALL.into()),
                // Both resource dimensions are gated: an asymmetric
                // scale change (cpu ≠ memory) must fail the gate too.
                (
                    "machine_scales_cpu",
                    Json::Arr(het.specs.iter().map(|s| s.scale.cpu().into()).collect()),
                ),
                (
                    "machine_scales_memory",
                    Json::Arr(het.specs.iter().map(|s| s.scale.memory().into()).collect()),
                ),
                ("wall_ms", het.wall_ms.into()),
                ("assignment", Json::arr(&het.result.assignment)),
                ("total_weighted_cost", het.result.total_weighted_cost.into()),
                ("objective", het.result.objective.into()),
                (
                    "smallest_assumption_assignment",
                    Json::arr(&het.smallest_assignment),
                ),
                (
                    "smallest_assumption_objective",
                    het.smallest_objective.into(),
                ),
                ("improvement", het.improvement().into()),
                ("moves", het.result.moves.len().into()),
                ("inner_solves", het.result.inner_solves.into()),
                ("optimizer_calls", het.optimizer_calls.into()),
                (
                    "beats_smallest_assumption",
                    (het.improvement() > 0.0).into(),
                ),
            ]),
        ),
    ]))
}

/// Measure both scenarios, write `BENCH_placement.json` to `path`,
/// and return both rendered reports.
pub fn write_json(path: &str) -> std::io::Result<String> {
    let bench = PlacementBench {
        homogeneous: measure(),
        heterogeneous: measure_heterogeneous(),
    };
    std::fs::write(path, to_json(&bench))?;
    Ok(format!(
        "{}\n{}",
        run_from(bench.homogeneous),
        run_heterogeneous_from(bench.heterogeneous)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vda_core::jsonio::parse;

    #[test]
    fn fleet_scenario_beats_round_robin_and_is_feasible() {
        let m = measure();
        assert_eq!(m.workloads, 10);
        assert!(
            m.result.objective <= m.round_robin_objective + 1e-9,
            "placer {} vs round-robin {}",
            m.result.objective,
            m.round_robin_objective
        );
        assert!(m.optimizer_calls > 0);
        // Every machine hosts someone and stays within budget.
        for machine in 0..m.machines {
            let r = m.result.per_machine[machine]
                .as_ref()
                .expect("no machine should sit idle at N=10, K=3");
            let cpu: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
            let mem: f64 = r.allocations.iter().map(|a| a.memory()).sum();
            assert!(cpu <= 1.0 + 1e-9);
            assert!(mem <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn heterogeneous_scenario_beats_smallest_machine_assumption() {
        let m = measure_heterogeneous();
        assert_eq!(m.workloads, 10);
        assert_eq!(m.specs.len(), HET_BIG + HET_SMALL);
        assert!(
            m.result.objective < m.smallest_objective,
            "aware {} must beat the smallest-machine assumption {}",
            m.result.objective,
            m.smallest_objective
        );
        assert!(m.improvement() > 0.0);
        assert!(m.optimizer_calls > 0);
        // Every machine stays within its own budget (shares of itself).
        for machine in 0..m.specs.len() {
            if let Some(r) = &m.result.per_machine[machine] {
                let cpu: f64 = r.allocations.iter().map(|a| a.cpu()).sum();
                let mem: f64 = r.allocations.iter().map(|a| a.memory()).sum();
                assert!(cpu <= 1.0 + 1e-9);
                assert!(mem <= 1.0 + 1e-9);
            }
        }
        // The big machines (slots 2, 3) must host more of the fleet
        // than the small ones.
        let small_load = m.result.tenants_on(0).len() + m.result.tenants_on(1).len();
        let big_load = m.result.tenants_on(2).len() + m.result.tenants_on(3).len();
        assert!(
            big_load >= small_load,
            "big machines should carry at least as many tenants: {:?}",
            m.result.assignment
        );
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let bench = PlacementBench {
            homogeneous: measure(),
            heterogeneous: measure_heterogeneous(),
        };
        let json = to_json(&bench);
        assert!(json.contains("\"experiment\": \"placement\""));
        assert!(json.contains("\"assignment\""));
        assert!(json.contains("\"per_machine\""));
        assert!(json.contains("\"heterogeneous\""));
        assert!(json.contains("\"smallest_assumption_objective\""));
        assert!(json.contains("\"beats_smallest_assumption\": true"));
        let doc = parse(&json).expect("the artifact parses");
        let het = doc.get("heterogeneous").expect("nested section");
        assert_eq!(
            het.get("beats_smallest_assumption"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            het.get("machine_scales_cpu"),
            Some(&Json::arr(&[0.5, 0.5, 1.0, 1.0]))
        );
        assert_eq!(
            doc.get("per_machine")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(MACHINES)
        );
    }
}
