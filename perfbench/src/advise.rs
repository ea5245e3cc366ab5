//! The `advise` workload: the paper's own use, one-shot
//! recommendations for freshly consolidated machines.
//!
//! Each request is a fresh machine of a seeded hardware class hosting
//! 2–8 tenants: TPC-H query mixes on seeded pg/db2/tuple engines plus
//! one TPC-C tenant in the last slot. One op answers one request:
//! `Tenant::new` (parse + bind) per tenant, `calibrate`, a greedy
//! `recommend` over the CPU + memory space and one
//! `refine_recommendation` from simulated actuals. Every cache starts
//! cold; the control plane, probe cache and snapshot codec do no work.

use crate::fleet::{spec_for, GHZ_STEPS};
use crate::trace::Tracer;
use crate::units;
use crate::util::{feasible, median, Deck, Rng, Stopwatch};
use crate::workload::{Checkpoint, Counters, Step, Units, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use vda_core::problem::{Allocation, AxisSet, QoS, Resource, ResourceVector, SearchSpace};
use vda_core::refine::RefineOptions;
use vda_core::tenant::Tenant;
use vda_core::{ProbeCache, Recommendation, VirtualizationDesignAdvisor};
use vda_simdb::catalog::Catalog;
use vda_simdb::engines::Engine;
use vda_vmm::Hypervisor;
use vda_workloads::workload::{Workload as Mix, WorkloadStatement};

/// Transactions per TPC-C client per monitoring interval (the §7.6 mix).
const TPCC_TXNS_PER_CLIENT: f64 = 40.0;

#[derive(Debug, Clone)]
enum Work {
    /// `(query, executions)` pairs on the TPC-H SF1 catalog.
    Tpch(Vec<(usize, f64)>),
    /// Warehouses accessed and clients per warehouse.
    Tpcc { warehouses: u32, clients: u32 },
}

#[derive(Debug, Clone)]
struct TenantSpec {
    engine: usize,
    work: Work,
}

#[derive(Debug, Clone)]
struct Request {
    class: usize,
    tenants: Vec<TenantSpec>,
    /// Degradation limit on tenant 0, for a quarter of the requests.
    limit: Option<f64>,
}

fn engines() -> [Engine; 3] {
    [Engine::pg(), Engine::db2(), Engine::tuple()]
}

/// The seeded request stream. Discrete choices come from decks, so
/// every run sees the tenant counts, queries, engines and hardware
/// classes in even proportions.
struct Requests {
    rng: Rng,
    class: Deck<usize>,
    tenants: Deck<usize>,
    queries_per_tenant: Deck<usize>,
    query: Deck<usize>,
    engine: Deck<usize>,
    oltp_engine: Deck<usize>,
    warehouses: Deck<u32>,
    clients: Deck<u32>,
    limited: Deck<bool>,
}

impl Requests {
    fn new(seed: u64) -> Self {
        Requests {
            rng: Rng::new(seed, 3),
            class: Deck::new((0..GHZ_STEPS.len()).collect()),
            tenants: Deck::new((2..=8).collect()),
            queries_per_tenant: Deck::new(vec![1, 2, 3]),
            query: Deck::new((1..=22).collect()),
            engine: Deck::new(vec![0, 1, 2]),
            oltp_engine: Deck::new(vec![0, 1]),
            warehouses: Deck::new(vec![2, 3, 4]),
            clients: Deck::new(vec![2, 3, 4, 5]),
            limited: Deck::new(vec![true, false, false, false]),
        }
    }

    fn next(&mut self) -> Request {
        let rng = &mut self.rng;
        let n = self.tenants.draw(rng);
        let mut tenants: Vec<TenantSpec> = (0..n - 1)
            .map(|_| {
                let queries = (0..self.queries_per_tenant.draw(rng))
                    .map(|_| (self.query.draw(rng), rng.uniform(1.0, 4.0)))
                    .collect();
                TenantSpec {
                    engine: self.engine.draw(rng),
                    work: Work::Tpch(queries),
                }
            })
            .collect();
        tenants.push(TenantSpec {
            engine: self.oltp_engine.draw(rng),
            work: Work::Tpcc {
                warehouses: self.warehouses.draw(rng),
                clients: self.clients.draw(rng),
            },
        });
        let limit = self.limited.draw(rng).then(|| rng.uniform(2.0, 5.0));
        Request {
            class: self.class.draw(rng),
            tenants,
            limit,
        }
    }
}

/// A fixed request, answered once as part of every set-up.
fn warmup_request() -> Request {
    let tpch = |engine, q: usize| TenantSpec {
        engine,
        work: Work::Tpch(vec![(q, 2.0)]),
    };
    Request {
        class: 0,
        tenants: vec![
            tpch(0, 18),
            tpch(1, 6),
            tpch(2, 21),
            TenantSpec {
                engine: 0,
                work: Work::Tpcc {
                    warehouses: 2,
                    clients: 3,
                },
            },
        ],
        limit: None,
    }
}

/// The schemas every request's tenants bind against.
struct Catalogs {
    tpch: Catalog,
    tpcc: Catalog,
}

impl Catalogs {
    fn build() -> Self {
        Catalogs {
            tpch: vda_workloads::tpch::catalog(1.0),
            tpcc: vda_workloads::tpcc::catalog(10),
        }
    }

    fn workload(&self, i: usize, spec: &TenantSpec) -> (Mix, &Catalog) {
        match &spec.work {
            Work::Tpch(queries) => {
                let mut w = Mix::new(format!("dss-{i}"));
                for &(q, count) in queries {
                    w.push(WorkloadStatement::dss(vda_workloads::tpch::query(q), count));
                }
                (w, &self.tpch)
            }
            Work::Tpcc {
                warehouses,
                clients,
            } => (
                vda_workloads::tpcc::workload(*warehouses, *clients, TPCC_TXNS_PER_CLIENT),
                &self.tpcc,
            ),
        }
    }
}

/// A request's answer: the advisor it built, the greedy
/// recommendation and the refined allocations.
struct Answer {
    adv: VirtualizationDesignAdvisor,
    rec: Recommendation,
    refined: Vec<Allocation>,
}

/// Run `f`, reporting whether it returned without panicking.
fn guard(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

pub struct Advise {
    seed: u64,
    requests: Requests,
    space: SearchSpace,
    catalogs: Option<Catalogs>,
    /// Estimated seconds summed over the answered requests.
    objective: f64,
    tally: Counters,
}

impl Advise {
    pub fn new(seed: u64) -> Self {
        Advise {
            seed,
            requests: Requests::new(seed),
            space: SearchSpace::over(
                AxisSet::of(&[Resource::Cpu, Resource::Memory]),
                ResourceVector::full(),
            ),
            catalogs: None,
            objective: 0.0,
            tally: Counters::default(),
        }
    }

    /// Answer one request (the timed op); every program call runs
    /// under its own span and its own panic guard. `None` when a call
    /// panicked or a workload failed to bind.
    fn answer(&mut self, req: &Request, tr: &mut Tracer) -> Option<Answer> {
        let cats = self.catalogs.as_ref().expect("set up before stepping");
        let engines = engines();
        let space = self.space;
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(req.class)));
        for (i, spec) in req.tenants.iter().enumerate() {
            let (w, cat) = cats.workload(i, spec);
            self.tally.bind_statements += w.statements.len() as u64;
            let engine = engines[spec.engine].clone();
            let mut tenant = None;
            tr.span("tenant_new", || {
                guard(|| tenant = Tenant::new(format!("t{i}"), engine, cat.clone(), w).ok())
            });
            let qos = match (i, req.limit) {
                (0, Some(limit)) => QoS::with_limit(limit),
                _ => QoS::default(),
            };
            adv.add_tenant(tenant?, qos);
        }
        if !tr.span("calibrate", || guard(|| adv.calibrate())) {
            return None;
        }
        self.tally.calibration_fits += adv.calibrations().len() as u64;
        let mut rec = None;
        tr.span("recommend", || guard(|| rec = Some(adv.recommend(&space))));
        let rec = rec?;
        self.tally.optimizer_calls += rec.optimizer_calls;
        let mut refined = None;
        tr.span("refine", || {
            guard(|| {
                refined = Some(adv.refine_recommendation(
                    &space,
                    &rec.result.allocations,
                    &RefineOptions::default(),
                ))
            })
        });
        let (outcome, _) = refined?;
        self.tally.refine_iterations += outcome.iterations as u64;
        Some(Answer {
            adv,
            rec,
            refined: outcome.final_allocations,
        })
    }

    /// Check an answer and score the refined allocation against the
    /// equal split on simulated actuals (outside the op timer).
    fn judge(&mut self, req: &Request, a: &Answer, tr: &mut Tracer) -> bool {
        let space = self.space;
        let n = a.adv.tenant_count();
        let shaped = a.rec.result.weighted_cost.is_finite()
            && feasible(&space, &a.rec.result.allocations, n)
            && feasible(&space, &a.refined, n);
        let (mut gain, mut no_worse) = (f64::NAN, false);
        let answered = tr.span("quality", || {
            guard(|| {
                gain = a.adv.actual_improvement(&space, &a.refined);
                // Without degradation limits the greedy search never
                // ends above the equal split it starts from.
                no_worse = req.limit.is_some()
                    || a.adv
                        .estimated_improvement(&space, &a.rec.result.allocations)
                        >= -1e-9;
            })
        });
        if answered && gain.is_finite() {
            self.tally.gain_sum += gain * 100.0;
            self.tally.gain_n += 1;
        }
        shaped && answered && no_worse && gain.is_finite()
    }
}

impl Workload for Advise {
    fn setup_repeats(&self) -> usize {
        9
    }

    fn min_ops(&self) -> usize {
        400
    }

    fn prepare(&mut self) {
        self.catalogs = None;
    }

    /// The advisor service's start-up: build the schemas, then answer
    /// one fixed request, so work moved from requests into start-up
    /// shows in `setup_s`.
    fn setup(&mut self, tr: &mut Tracer) {
        self.catalogs = Some(tr.span("catalogs", Catalogs::build));
        let id = tr.begin("warmup");
        let req = warmup_request();
        let answer = self.answer(&req, tr);
        let ok = answer.is_some_and(|a| self.judge(&req, &a, tr));
        tr.end(id);
        assert!(ok, "the warm-up request is answered");
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let op = tr.begin("op");
        let req = tr.span("generate", || self.requests.next());
        let t0 = Stopwatch::start();
        let answer = self.answer(&req, tr);
        let latency_ms = t0.ms();
        let ok = match answer {
            Some(a) => {
                self.objective += a.rec.result.weighted_cost;
                self.judge(&req, &a, tr)
            }
            None => false,
        };
        tr.end(op);
        Step {
            latency_ms,
            events: 1,
            ok,
        }
    }

    fn objective(&self) -> f64 {
        self.objective
    }

    fn rewind(&mut self) {
        self.requests = Requests::new(self.seed);
        self.objective = 0.0;
        self.tally = Counters::default();
    }

    fn counters(&self) -> Counters {
        self.tally
    }

    fn take_checkpoints(&mut self) -> Vec<Checkpoint> {
        Vec::new()
    }

    fn unit_costs(&mut self) -> Units {
        let mut stream = Requests::new(self.seed);
        let reqs: Vec<Request> = (0..20).map(|_| stream.next()).collect();
        let cats = self.catalogs.as_ref().expect("set up before the unit pass");
        let engines = engines();
        let mut statements = Vec::new();
        for req in &reqs {
            for (i, spec) in req.tenants.iter().enumerate() {
                let (w, cat) = cats.workload(i, spec);
                for s in w.statements {
                    statements.push(units::Statement {
                        sql: s.sql,
                        catalog: cat.clone(),
                        engine: engines[spec.engine].clone(),
                    });
                }
            }
        }
        let (parse_us, bind_us, plan_us) = units::frontend(&statements);
        // The first request, answered through a probe cache so the
        // cache's unit costs are measured on this workload's rows.
        let req = &reqs[0];
        let mut adv = VirtualizationDesignAdvisor::new(Hypervisor::new(spec_for(req.class)));
        for (i, spec) in req.tenants.iter().enumerate() {
            let (w, cat) = cats.workload(i, spec);
            let t = Tenant::new(
                format!("t{i}"),
                engines[spec.engine].clone(),
                cat.clone(),
                w,
            )
            .expect("request workloads bind");
            adv.add_tenant(t, QoS::default());
        }
        let cache = ProbeCache::new();
        adv.attach_probe_cache(cache.clone());
        adv.calibrate();
        let rec = adv.recommend_c2f_warm(&self.space);
        let probe_hit_ns = units::probe_hit_ns(&adv, rec.result.allocations[0]);
        let (evict_us_per_victim, rows_per_victim) = units::evict_us_per_victim(&cache.export());
        let c2f_solve_ms = units::c2f_solve_ms(&adv, &self.space);
        let fits: Vec<f64> = (0..GHZ_STEPS.len())
            .map(|class| units::fit_ms(spec_for(class), &engines))
            .collect();
        Units {
            parse_us,
            bind_us,
            plan_us,
            probe_hit_ns,
            evict_us_per_victim,
            rows_per_victim,
            c2f_solve_ms,
            fit_ms: median(&fits),
            ..Units::default()
        }
    }
}
