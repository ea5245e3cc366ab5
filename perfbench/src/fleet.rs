//! The `drift` and `storm` workloads: a [`ControlPlane`] driven by a
//! seeded event stream, one closed-loop caller.
//!
//! * `drift` — 202 machines (200 populated + 2 spares, four hardware
//!   classes), 1000 TPC-H tenants, CPU-only space, uncapped probe
//!   cache, adaptive tuning on. One op is one `process_event`; every
//!   [`CHECKPOINT_EVERY`] events the plane is snapshotted, encoded,
//!   decoded and restored into a standby plane.
//! * `storm` — 1000 machines × 20 tenants on a 4 % CPU grid. One op is
//!   one `process_batch` of 25 events that touch the same slots
//!   repeatedly, so batches coalesce. The probe cache is capped below
//!   its working set and the decision log is a 12-entry ring.
//!
//! Construction follows the fleet bench's recipe: every tenant's
//! intensity carries a salt from its global index, so workload
//! fingerprints are fleet-unique and the plane's counters do not
//! depend on the thread count. The seed picks each tenant's query and
//! base intensity, and every event's target, kind and intensity.

use crate::trace::Tracer;
use crate::units;
use crate::util::{feasible, Deck, Rng, Stopwatch};
use crate::workload::{Checkpoint, Counters, Step, Units, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use vda_core::problem::{AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda_core::tenant::Tenant;
use vda_core::{
    AdaptionOptions, AdaptiveTuningOptions, ControlPlane, ControlPlaneOptions, FleetEvent,
    FleetSnapshot, GuardrailOptions, VirtualizationDesignAdvisor,
};
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_vmm::{Hypervisor, PhysicalMachine};

/// Per-core clock multipliers of the four hardware classes.
pub const GHZ_STEPS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// Construction mix: (TPC-H query, base intensity).
const MIX: [(usize, f64); 10] = [
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

/// Queries drawn by workload changes and arrivals.
const CYCLE: [usize; 5] = [18, 6, 21, 7, 16];

/// Degradation limit on each machine's first tenant, so every machine
/// takes the limit-aware coarse-to-fine path.
const FIRST_TENANT_LIMIT: f64 = 6.0;

/// Memory share of the drift fleet's VMs (512 MB of the 8 GB testbed).
const DRIFT_MEMORY_SHARE: f64 = 512.0 / 8192.0;

/// Drift events between two checkpoints.
const CHECKPOINT_EVERY: usize = 1000;

/// Storm: CPU grid step, minimum share and fixed memory share.
const STORM_SHARE: f64 = 0.04;

/// Storm: events per `process_batch`.
const STORM_BATCH: usize = 25;

/// Storm: probe-cache row cap (uncapped, the cache holds about 140k
/// rows after set-up and about 226k after a 20 s run) and decision-log
/// ring size.
const STORM_CACHE_ROWS: usize = 120_000;
const STORM_LOG: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Drift,
    Storm,
}

impl Shape {
    fn populated(self) -> usize {
        match self {
            Shape::Drift => 200,
            Shape::Storm => 1000,
        }
    }

    fn spares(self) -> usize {
        match self {
            Shape::Drift => 2,
            Shape::Storm => 0,
        }
    }

    fn tenants_per_machine(self) -> usize {
        match self {
            Shape::Drift => 5,
            Shape::Storm => 20,
        }
    }

    fn space(self) -> SearchSpace {
        match self {
            Shape::Drift => SearchSpace::over(
                AxisSet::of(&[Resource::Cpu]),
                ResourceVector::full().with(Resource::Memory, DRIFT_MEMORY_SHARE),
            ),
            Shape::Storm => {
                let mut space = SearchSpace::over(
                    AxisSet::of(&[Resource::Cpu]),
                    ResourceVector::full().with(Resource::Memory, STORM_SHARE),
                );
                space.min_share = STORM_SHARE;
                space.deltas = ResourceVector::splat(STORM_SHARE);
                space
            }
        }
    }

    fn options(self) -> ControlPlaneOptions {
        match self {
            // Fleet-relative gates scaled down as in the fleet bench: no
            // single move clears 5 % of a 200-machine objective.
            Shape::Drift => ControlPlaneOptions {
                migration_threshold: 1e-4,
                recalibration_surcharge: 1e-3,
                decision_log_capacity: 1000,
                adaptive: Some(AdaptiveTuningOptions {
                    adaption: AdaptionOptions::default(),
                    guardrail: GuardrailOptions::default(),
                }),
                ..ControlPlaneOptions::default()
            },
            Shape::Storm => ControlPlaneOptions {
                migration_threshold: 0.5,
                recalibration_surcharge: 1e-3,
                probe_cache_capacity: STORM_CACHE_ROWS,
                decision_log_capacity: STORM_LOG,
                ..ControlPlaneOptions::default()
            },
        }
    }
}

/// Machine `m`'s hardware: the paper testbed at its class's clock.
pub fn spec_for(class: usize) -> PhysicalMachine {
    let mut spec = PhysicalMachine::paper_testbed();
    spec.core_ghz *= GHZ_STEPS[class % GHZ_STEPS.len()];
    spec
}

/// What a generated event does, as drawn from a workload's deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scaled,
    Changed,
    /// An arrival or a departure (they alternate).
    Structural,
    Actuals,
}

/// Per 20 drift events: 13 scalings, 3 workload changes, 2 arrivals or
/// departures and 2 actuals reports. Per 4 storm events: 1 change and
/// 3 scalings.
fn kinds(shape: Shape) -> Deck<Kind> {
    let counts: &[(Kind, usize)] = match shape {
        Shape::Drift => &[
            (Kind::Scaled, 13),
            (Kind::Changed, 3),
            (Kind::Structural, 2),
            (Kind::Actuals, 2),
        ],
        Shape::Storm => &[(Kind::Scaled, 3), (Kind::Changed, 1)],
    };
    Deck::new(
        counts
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect(),
    )
}

/// Event-kind span names.
fn kind_of(ev: &FleetEvent) -> &'static str {
    match ev {
        FleetEvent::WorkloadScaled { .. } => "event.scaled",
        FleetEvent::WorkloadChanged { .. } => "event.changed",
        FleetEvent::TenantArrived { .. } => "event.arrived",
        FleetEvent::TenantDeparted { .. } => "event.departed",
        FleetEvent::MachineDecommissioned { .. } => "event.decommissioned",
        FleetEvent::ActualsReported { .. } => "event.actuals",
    }
}

pub struct Fleet {
    shape: Shape,
    seed: u64,
    rng: Rng,
    kinds: Deck<Kind>,
    /// Storm: the machine each group of five events lands on, drawn so
    /// every machine takes a group before any takes a second.
    machines: Deck<usize>,
    engine: Engine,
    catalog: Catalog,
    /// Generated construction tenants per machine (cloned per set-up).
    tenants: Vec<Vec<(Tenant, QoS)>>,
    pending: Option<Vec<VirtualizationDesignAdvisor>>,
    plane: Option<ControlPlane>,
    /// Events issued since the stream started.
    events: usize,
    /// Arrivals and departures alternate, keeping the tenant count level.
    structural: usize,
    /// Tenants the plane must hold.
    expected_tenants: usize,
    tally: Counters,
    checkpoints: Vec<Checkpoint>,
}

impl Fleet {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let engine = Engine::db2();
        let catalog = vda_workloads::tpch::catalog(1.0);
        let mut rng = Rng::new(seed, shape as u64 + 1);
        let mut mix = Deck::new(MIX.to_vec());
        let tpm = shape.tenants_per_machine();
        let tenants = (0..shape.populated())
            .map(|m| {
                (0..tpm)
                    .map(|s| {
                        let (q, base) = mix.draw(&mut rng);
                        let g = (m * tpm + s) as f64;
                        // Drift salts as in the 202-machine fleet bench,
                        // storm salts as in its scaled section: both keep
                        // every construction fingerprint unique.
                        let mult = match shape {
                            Shape::Drift => base * (1.0 + 0.001 * g),
                            Shape::Storm => 1.0 + 1e-4 * g,
                        };
                        let name = format!("M{m}-S{s}-Q{q}");
                        let w = vda_workloads::tpch::query_workload(q, mult).named(name.clone());
                        let qos = if s == 0 {
                            QoS::with_limit(FIRST_TENANT_LIMIT)
                        } else {
                            QoS::default()
                        };
                        let t = Tenant::new(name, engine.clone(), catalog.clone(), w)
                            .expect("TPC-H workloads bind");
                        (t, qos)
                    })
                    .collect()
            })
            .collect();
        Fleet {
            shape,
            seed,
            rng: Rng::new(seed, 100 + shape as u64),
            kinds: kinds(shape),
            machines: Deck::new((0..shape.populated()).collect()),
            engine,
            catalog,
            tenants,
            pending: None,
            plane: None,
            events: 0,
            structural: 0,
            expected_tenants: shape.populated() * tpm,
            tally: Counters::default(),
            checkpoints: Vec::new(),
        }
    }

    fn plane(&self) -> &ControlPlane {
        self.plane.as_ref().expect("set up before stepping")
    }

    /// A random machine hosting at least `min` tenants (and fewer than
    /// `max`), scanning forward from a random start.
    fn machine_with(&mut self, min: usize, max: usize) -> usize {
        let count = self.plane().machine_count();
        let mut m = self.rng.int(0, count - 1);
        for _ in 0..count {
            let n = self.plane().machine(m).tenant_count();
            if n >= min && n < max {
                return m;
            }
            m = (m + 1) % count;
        }
        panic!("no machine hosts between {min} and {max} tenants");
    }

    fn slot_of(&mut self, m: usize) -> usize {
        let n = self.plane().machine(m).tenant_count();
        self.rng.int(0, n - 1)
    }

    fn drift_event(&mut self) -> FleetEvent {
        let e = self.events;
        self.events += 1;
        if e < self.shape.spares() {
            // Spares sit at the end and nothing lands on them before
            // the first arrivals, so the last machine is empty.
            let machine = self.plane().machine_count() - 1;
            return FleetEvent::MachineDecommissioned { machine };
        }
        let kind = self.kinds.draw(&mut self.rng);
        if kind == Kind::Actuals {
            let machine = self.machine_with(1, usize::MAX);
            let slot = self.slot_of(machine);
            return FleetEvent::ActualsReported { machine, slot };
        }
        if kind == Kind::Structural {
            self.structural += 1;
            if self.structural % 2 == 1 {
                let machine = self.machine_with(0, 8);
                let q = *self.rng.pick(&CYCLE);
                let name = format!("A{e}-Q{q}");
                let w = vda_workloads::tpch::query_workload(q, self.rng.uniform(1.5, 2.0))
                    .named(name.clone());
                self.tally.bind_statements += w.statements.len() as u64;
                let tenant = Tenant::new(name, self.engine.clone(), self.catalog.clone(), w)
                    .expect("TPC-H workloads bind");
                self.expected_tenants += 1;
                return FleetEvent::TenantArrived {
                    machine,
                    tenant: Box::new(tenant),
                    qos: QoS::default(),
                };
            }
            let machine = self.machine_with(2, usize::MAX);
            let slot = self.slot_of(machine);
            self.expected_tenants -= 1;
            return FleetEvent::TenantDeparted { machine, slot };
        }
        let machine = self.machine_with(1, usize::MAX);
        let slot = self.slot_of(machine);
        if kind == Kind::Changed {
            let q = *self.rng.pick(&CYCLE);
            let w = vda_workloads::tpch::query_workload(q, self.rng.uniform(2.0, 3.0))
                .named(format!("drift-{e}-Q{q}"));
            self.tally.bind_statements += w.statements.len() as u64;
            return FleetEvent::WorkloadChanged {
                machine,
                slot,
                workload: w,
            };
        }
        FleetEvent::WorkloadScaled {
            machine,
            slot,
            factor: self.rng.uniform(0.8, 1.25),
        }
    }

    /// Five groups of five events, each group on one machine touching
    /// three slots in the pattern `a b c a b`, so two of every five
    /// events coalesce. Machines come from a deck, so how often a
    /// machine is revisited, and with it the cache's churn, does not
    /// depend on the seed. A quarter are workload changes (intensities at
    /// 4.0 and above, clear of every construction salt), the rest
    /// intensity scalings.
    fn storm_batch(&mut self) -> Vec<FleetEvent> {
        let mut batch = Vec::with_capacity(STORM_BATCH);
        let tpm = self.shape.tenants_per_machine();
        while batch.len() < STORM_BATCH {
            let machine = self.machines.draw(&mut self.rng);
            let a = self.rng.int(0, tpm - 1);
            let b = (a + self.rng.int(1, tpm - 1)) % tpm;
            let c = (0..tpm)
                .map(|k| (b + 1 + k) % tpm)
                .find(|&s| s != a && s != b)
                .expect("at least three slots");
            for slot in [a, b, c, a, b] {
                let e = self.events;
                self.events += 1;
                batch.push(if self.kinds.draw(&mut self.rng) == Kind::Changed {
                    let q = *self.rng.pick(&CYCLE);
                    let w = vda_workloads::tpch::query_workload(q, self.rng.uniform(4.0, 5.0))
                        .named(format!("storm-{e}-Q{q}"));
                    self.tally.bind_statements += w.statements.len() as u64;
                    FleetEvent::WorkloadChanged {
                        machine,
                        slot,
                        workload: w,
                    }
                } else {
                    FleetEvent::WorkloadScaled {
                        machine,
                        slot,
                        factor: self.rng.uniform(0.8, 1.25),
                    }
                });
            }
        }
        batch
    }

    /// The checks every op must pass: a finite objective, every
    /// machine's allocations feasible, the tenant count as expected
    /// and (storm) the probe cache within its cap.
    fn state_ok(&self, objective: f64) -> bool {
        let plane = self.plane();
        if !objective.is_finite() || objective.to_bits() != plane.objective().to_bits() {
            return false;
        }
        let mut tenants = 0;
        for m in 0..plane.machine_count() {
            let n = plane.machine(m).tenant_count();
            tenants += n;
            let ok = match &plane.placements()[m] {
                Some(r) => {
                    r.weighted_cost.is_finite() && feasible(plane.space(m), &r.allocations, n)
                }
                None => n == 0,
            };
            if !ok {
                return false;
            }
        }
        let capped = plane.options().probe_cache_capacity;
        tenants == self.expected_tenants && (capped == 0 || plane.probe_cache().len() <= capped)
    }

    /// Count the guardrail transition a decision reports.
    fn tally_action(&mut self, action: &str) {
        if action.starts_with("actuals-reported") {
            self.tally.actuals += 1;
        }
        if action.ends_with("(shadow)") {
            self.tally.shadow += 1;
        } else if action.ends_with("(canary)") {
            self.tally.canary += 1;
        } else if action.ends_with("(promoted)") {
            self.tally.promoted += 1;
        } else if action.ends_with("(rolled-back)") {
            self.tally.rolled_back += 1;
        }
    }

    /// Snapshot, encode, decode and restore into a standby plane; the
    /// standby's re-snapshot must be byte-identical to the checkpoint.
    fn checkpoint(&mut self, tr: &mut Tracer) -> bool {
        let id = tr.begin("checkpoint");
        let plane = self.plane.as_ref().expect("set up before stepping");
        let t0 = Stopwatch::start();
        let snap = tr.span("snapshot", || plane.snapshot());
        let capture_ms = t0.ms();
        let t0 = Stopwatch::start();
        let json = tr.span("to_json", || snap.to_json());
        let encode_ms = t0.ms();
        // The restarted process rebuilds its topology (uncalibrated
        // advisors with the same hardware, tenants and QoS) first.
        let (machines, spaces) = tr.span("rebuild", || {
            (0..plane.machine_count())
                .map(|m| {
                    let src = plane.machine(m);
                    let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(
                        *src.hypervisor().machine(),
                    ));
                    for i in 0..src.tenant_count() {
                        adv.add_tenant(src.tenant(i).clone(), src.qos()[i]);
                    }
                    (adv, *plane.space(m))
                })
                .unzip::<_, _, Vec<_>, Vec<_>>()
        });
        let t0 = Stopwatch::start();
        let parsed = tr.span("from_json", || FleetSnapshot::from_json(&json));
        let decode_ms = t0.ms();
        let t0 = Stopwatch::start();
        let standby = tr.span("restore", || {
            parsed.as_ref().ok().and_then(|p| {
                ControlPlane::restore(machines, spaces, plane.options().clone(), p).ok()
            })
        });
        let restore_ms = t0.ms();
        let same = tr.span("check", || {
            standby.is_some_and(|s| s.snapshot().to_json() == json)
        });
        tr.end(id);
        self.checkpoints.push(Checkpoint {
            bytes: json.len(),
            capture_ms,
            encode_ms,
            decode_ms,
            restore_ms,
        });
        same
    }
}

impl Workload for Fleet {
    fn setup_repeats(&self) -> usize {
        match self.shape {
            Shape::Drift => 5,
            Shape::Storm => 3,
        }
    }

    fn min_ops(&self) -> usize {
        match self.shape {
            Shape::Drift => 2000,
            Shape::Storm => 100,
        }
    }

    fn prepare(&mut self) {
        self.plane = None;
        let machines = (0..self.shape.populated() + self.shape.spares())
            .map(|m| {
                let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(m)));
                for (t, qos) in self.tenants.get(m).into_iter().flatten() {
                    adv.add_tenant(t.clone(), *qos);
                }
                adv
            })
            .collect();
        self.pending = Some(machines);
    }

    fn setup(&mut self, tr: &mut Tracer) {
        let machines = self.pending.take().expect("prepare before setup");
        let spaces = vec![self.shape.space(); machines.len()];
        let options = self.shape.options();
        let plane = tr.span("control_plane_new", || {
            ControlPlane::new(machines, spaces, options)
        });
        self.plane = Some(plane);
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let op = tr.begin("op");
        // The op timer covers the program call alone; generation and
        // checks run outside it.
        let (events, latency_ms, outcome) = match self.shape {
            Shape::Drift => {
                let ev = tr.span("generate", || self.drift_event());
                let plane = self.plane.as_mut().expect("set up before stepping");
                let t0 = Stopwatch::start();
                let id = tr.begin(kind_of(&ev));
                let out = catch_unwind(AssertUnwindSafe(|| plane.process_event(ev)));
                tr.end(id);
                (1, t0.ms(), out.map(|o| (o.objective, o.action)))
            }
            Shape::Storm => {
                let batch = tr.span("generate", || self.storm_batch());
                let plane = self.plane.as_mut().expect("set up before stepping");
                let t0 = Stopwatch::start();
                let id = tr.begin("process_batch");
                let out = catch_unwind(AssertUnwindSafe(|| plane.process_batch(&batch)));
                tr.end(id);
                (batch.len(), t0.ms(), out.map(|o| (o.objective, o.action)))
            }
        };
        let mut ok = match outcome {
            Ok((objective, action)) => {
                self.tally_action(&action);
                tr.span("check", || self.state_ok(objective))
            }
            Err(_) => false,
        };
        if self.shape == Shape::Drift && ok && self.events.is_multiple_of(CHECKPOINT_EVERY) {
            ok = self.checkpoint(tr);
        }
        tr.end(op);
        Step {
            latency_ms,
            events,
            ok,
        }
    }

    fn objective(&self) -> f64 {
        self.plane().objective()
    }

    fn rewind(&mut self) {
        self.rng = Rng::new(self.seed, 100 + self.shape as u64);
        self.kinds = kinds(self.shape);
        self.machines = Deck::new((0..self.shape.populated()).collect());
        self.events = 0;
        self.structural = 0;
        self.expected_tenants = self.shape.populated() * self.shape.tenants_per_machine();
        self.tally = Counters::default();
    }

    fn counters(&self) -> Counters {
        let plane = self.plane();
        let stats = plane.stats();
        let mut c = Counters {
            resolves: stats.resolves,
            waves: stats.waves,
            migrations: stats.migrations,
            optimizer_calls: stats.optimizer_calls,
            probe_hits: stats.probe_hits,
            probe_misses: stats.probe_misses,
            probe_evictions: stats.probe_evictions,
            probe_rows: plane.probe_cache().len() as u64,
            probe_bytes: stats.probe_bytes,
            ..self.tally
        };
        let mut fits = std::collections::BTreeSet::new();
        for m in 0..plane.machine_count() {
            let adv = plane.machine(m);
            let (cold, delta, reuse) = adv.warm_stats();
            c.cold_solves += cold;
            c.delta_solves += delta;
            c.lattice_reuses += reuse;
            for (kind, _) in adv.calibrations() {
                fits.insert((adv.hypervisor().machine().fingerprint(), kind.name()));
            }
        }
        // The class registry fits once per (hardware class, engine
        // kind) present in the fleet.
        c.calibration_fits = fits.len() as u64;
        c
    }

    fn take_checkpoints(&mut self) -> Vec<Checkpoint> {
        std::mem::take(&mut self.checkpoints)
    }

    fn unit_costs(&mut self) -> Units {
        let plane = self.plane();
        let mut queries: Vec<usize> = MIX.iter().map(|&(q, _)| q).chain(CYCLE).collect();
        queries.sort_unstable();
        queries.dedup();
        let statements: Vec<units::Statement> = queries
            .iter()
            .map(|&q| units::Statement {
                sql: vda_workloads::tpch::query(q),
                catalog: self.catalog.clone(),
                engine: self.engine.clone(),
            })
            .collect();
        let (parse_us, bind_us, plan_us) = units::frontend(&statements);
        let m = (0..plane.machine_count())
            .find(|&m| plane.placements()[m].is_some())
            .expect("a populated machine");
        let at = plane.placements()[m].as_ref().expect("placed").allocations[0];
        let probe_hit_ns = units::probe_hit_ns(plane.machine(m), at);
        let (evict_us_per_victim, rows_per_victim) =
            units::evict_us_per_victim(&plane.probe_cache().export());
        let solves: Vec<f64> = (m..plane.machine_count())
            .filter(|&k| plane.machine(k).tenant_count() > 0)
            .take(3)
            .map(|k| units::c2f_solve_ms(plane.machine(k), plane.space(k)))
            .collect();
        let fit_ms = units::fit_ms(spec_for(0), std::slice::from_ref(&self.engine));
        let mut u = Units {
            parse_us,
            bind_us,
            plan_us,
            probe_hit_ns,
            evict_us_per_victim,
            rows_per_victim,
            c2f_solve_ms: crate::util::median(&solves),
            fit_ms,
            ..Units::default()
        };
        if self.shape == Shape::Storm {
            // Storm takes no checkpoints; one encode/decode of its own
            // state gives the codec's unit cost at this size.
            let snap = plane.snapshot();
            let t0 = Stopwatch::start();
            let json = snap.to_json();
            let encode_ms = t0.ms();
            let t0 = Stopwatch::start();
            let parsed = FleetSnapshot::from_json(&json);
            let decode_ms = t0.ms();
            let mb = json.len() as f64 / 1e6;
            if parsed.is_ok() {
                u.encode_mb_s = mb / (encode_ms / 1e3);
                u.decode_mb_s = mb / (decode_ms / 1e3);
            }
        }
        u
    }
}
