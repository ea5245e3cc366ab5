//! Property tests for the bounded-memory probe cache: across random
//! drift sequences, a control plane whose [`ProbeCache`] is capped —
//! however tightly — must make **bit-identical decisions** to an
//! unbounded twin. Eviction is allowed to cost recomputation (extra
//! misses, extra optimizer calls); it is never allowed to change an
//! action string, a re-solved set, a migration, or an objective bit.
//!
//! [`ProbeCache`]: vda::core::costmodel::ProbeCache

use proptest::prelude::*;
use vda::core::problem::{QoS, SearchSpace};
use vda::core::tenant::Tenant;
use vda::core::VirtualizationDesignAdvisor;
use vda::core::{ControlPlane, ControlPlaneOptions, FleetEvent};
use vda::simdb::engines::Engine;
use vda::vmm::{Hypervisor, PhysicalMachine};
use vda::workloads::tpch;

/// Queries cycled through by drift events (scan-leaning: cheap to
/// probe, so the tests stay affordable in debug builds).
const CYCLE: [usize; 3] = [6, 16, 7];

/// A miniature two-class fleet: machine 0 a stock paper testbed,
/// machine 1 a faster clock, two tenants each.
fn fleet() -> (Vec<VirtualizationDesignAdvisor>, Vec<SearchSpace>) {
    let mut machines = Vec::new();
    for m in 0..2usize {
        let mut spec = PhysicalMachine::paper_testbed();
        if m == 1 {
            spec.core_ghz *= 1.5;
        }
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec));
        for s in 0..2usize {
            let q = CYCLE[(m * 2 + s) % CYCLE.len()];
            let name = format!("m{m}-t{s}-q{q}");
            adv.add_tenant(
                Tenant::new(
                    name.clone(),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + (m * 2 + s) as f64 * 0.5).named(name),
                )
                .expect("bench workloads bind"),
                if s == 0 {
                    QoS::with_limit(6.0)
                } else {
                    QoS::default()
                },
            );
        }
        machines.push(adv);
    }
    let space = SearchSpace::cpu_only(512.0 / 8192.0);
    (machines, vec![space; 2])
}

fn options(probe_cache_capacity: usize) -> ControlPlaneOptions {
    ControlPlaneOptions {
        migration_threshold: 1e-3,
        recalibration_surcharge: 1e-2,
        probe_cache_capacity,
        ..ControlPlaneOptions::default()
    }
}

/// Decode one drift event against the plane's *live* state, so every
/// generated event is valid whatever the earlier events did to slot
/// counts. `(kind, msel, ssel, factor)` come from the proptest
/// strategy.
fn decode_event(
    plane: &ControlPlane,
    e: usize,
    kind: u32,
    msel: usize,
    ssel: usize,
    factor: f64,
) -> FleetEvent {
    let count = plane.machine_count();
    let mut m = msel % count;
    while plane.machine(m).tenant_count() == 0 {
        m = (m + 1) % count;
    }
    let tcount = plane.machine(m).tenant_count();
    let slot = ssel % tcount;
    let q = CYCLE[e % CYCLE.len()];
    match kind % 4 {
        0 => FleetEvent::WorkloadScaled {
            machine: m,
            slot,
            factor,
        },
        1 => FleetEvent::WorkloadChanged {
            machine: m,
            slot,
            workload: tpch::query_workload(q, 1.0 + factor).named(format!("drift-{e}-q{q}")),
        },
        2 if tcount > 1 => FleetEvent::TenantDeparted {
            machine: m,
            slot: tcount - 1,
        },
        _ => FleetEvent::TenantArrived {
            machine: msel % count,
            tenant: Box::new(
                Tenant::new(
                    format!("arrival-{e}-q{q}"),
                    Engine::db2(),
                    tpch::catalog(1.0),
                    tpch::query_workload(q, 1.0 + 0.125 * e as f64)
                        .named(format!("arrival-{e}-q{q}")),
                )
                .expect("bench workloads bind"),
            ),
            qos: QoS::default(),
        },
    }
}

/// The core contract check: drive an unbounded plane and a capped twin
/// through the same sequence in lockstep, comparing every decision
/// field the [`DecisionLog`](vda::core::DecisionLog) would record.
/// Returns the capped plane's eviction count so callers can also
/// assert that the cap actually bound.
fn check_capped_equals_uncapped(drifts: &[(u32, usize, usize, f64)], capacity: usize) -> u64 {
    let (machines, spaces) = fleet();
    let mut unbounded = ControlPlane::new(machines, spaces, options(0));
    let (machines, spaces) = fleet();
    let mut capped = ControlPlane::new(machines, spaces, options(capacity));

    for (e, &(kind, msel, ssel, factor)) in drifts.iter().enumerate() {
        // Decode against the unbounded plane; the twins' states match
        // step for step (that is the property under test), so the
        // event is valid for both.
        let event = decode_event(&unbounded, e, kind, msel, ssel, factor);
        let u = unbounded.process_event(event.clone());
        let c = capped.process_event(event);
        assert_eq!(c.action, u.action, "event {e}: actions diverge");
        assert_eq!(c.resolved, u.resolved, "event {e}: resolved sets diverge");
        assert_eq!(c.migrations, u.migrations, "event {e}: migrations diverge");
        assert_eq!(
            c.objective.to_bits(),
            u.objective.to_bits(),
            "event {e}: objective bits diverge"
        );
    }

    assert_eq!(
        capped.placements(),
        unbounded.placements(),
        "final placements diverge"
    );
    assert_eq!(
        capped.objective().to_bits(),
        unbounded.objective().to_bits(),
        "final objective bits diverge"
    );

    let u_stats = unbounded.stats();
    let c_stats = capped.stats();
    assert_eq!(u_stats.probe_evictions, 0, "unbounded cache must not evict");
    assert!(
        c_stats.probe_misses >= u_stats.probe_misses,
        "eviction can only add misses: capped {} vs unbounded {}",
        c_stats.probe_misses,
        u_stats.probe_misses
    );
    assert!(
        c_stats.probe_bytes <= u_stats.probe_bytes,
        "capped cache outgrew the unbounded one: {} vs {}",
        c_stats.probe_bytes,
        u_stats.probe_bytes
    );
    c_stats.probe_evictions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random drift sequences, random (small but nonzero) capacity:
    /// the capped plane's decisions are bit-identical to the
    /// unbounded twin's.
    #[test]
    fn capped_cache_decisions_are_bit_identical_across_random_drift_sequences(
        drifts in proptest::collection::vec(
            (0u32..4, 0usize..8, 0usize..8, 0.4f64..2.5),
            2..6,
        ),
        capacity in 1usize..64,
    ) {
        check_capped_equals_uncapped(&drifts, capacity);
    }
}

/// A fixed sequence against a cap tight enough that eviction is
/// guaranteed to bind — the deterministic anchor the random cases
/// cannot promise.
#[test]
fn a_binding_cap_evicts_without_changing_any_decision() {
    let drifts = [
        (0u32, 0usize, 1usize, 1.6f64),
        (1, 1, 0, 2.0),
        (0, 0, 0, 0.7),
        (1, 0, 1, 1.3),
        (3, 1, 0, 1.2),
        (0, 1, 1, 1.9),
    ];
    let evictions = check_capped_equals_uncapped(&drifts, 8);
    assert!(evictions > 0, "a cap of 8 rows must bind on this sequence");
}
