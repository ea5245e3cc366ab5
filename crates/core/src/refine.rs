//! Online refinement of the advisor's cost models (§5).
//!
//! The optimizer-backed what-if estimates can be wrong in systematic
//! ways (unmodeled contention, underestimated sort-memory benefit).
//! After deploying a recommendation, the advisor observes *actual*
//! workload costs and refines per-workload cost models:
//!
//! * CPU-like resources follow `cost = α/r + β` (linear in `1/r`,
//!   §5.1);
//! * memory follows a **piecewise** version, one piece per query-plan
//!   regime, with interval boundaries harvested from the plan
//!   signatures seen during configuration enumeration;
//! * with `M` resources, `cost = Σ_j α_jk/r_j + β_k` on memory piece
//!   `k` (§5.2).
//!
//! Refinement scales a model by `Act/Est` (first iteration: every
//! piece, to remove the optimizer's global bias; later iterations:
//! only the observed piece), switches to pure regression on observed
//! costs once a piece has enough observations, then re-runs the greedy
//! search on the refined models — no optimizer calls — and repeats
//! until the recommendation stops changing.

use crate::costmodel::model::CostModel;
use crate::costmodel::whatif::Estimate;
use crate::enumerate::{solve, SearchOptions, Strategy};
use crate::problem::{Allocation, QoS, Resource, SearchSpace};
use serde::{Deserialize, Serialize};
use vda_stats::MultiLinearFit;

/// Floor for model predictions (a cost model must stay positive for
/// the greedy search's comparisons to stay meaningful).
const MIN_PREDICTION: f64 = 1e-9;

/// One plan-regime piece of a refined model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPiece {
    /// Smallest share of the piecewise resource where this regime was
    /// observed.
    pub lo: f64,
    /// Largest share where this regime was observed.
    pub hi: f64,
    /// Coefficients α_j on `1/r_j`, one per varied resource.
    pub alphas: Vec<f64>,
    /// Constant term β.
    pub beta: f64,
    /// Plan-regime signature that defined this piece.
    pub plan_regime: u64,
    /// Actual observations inside this piece: (`1/r_j` row, actual
    /// cost).
    pub observations: Vec<(Vec<f64>, f64)>,
}

impl ModelPiece {
    fn distance(&self, share: f64) -> f64 {
        if share < self.lo {
            self.lo - share
        } else if share > self.hi {
            share - self.hi
        } else {
            0.0
        }
    }

    fn predict_inv(&self, inv: &[f64]) -> f64 {
        let mut v = self.beta;
        for (a, x) in self.alphas.iter().zip(inv) {
            v += a * x;
        }
        v.max(MIN_PREDICTION)
    }
}

/// A per-workload refined cost model over the varied resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefinedModel {
    /// Varied resources, canonical order; the *last* one is treated as
    /// piecewise (memory when present).
    pub varied: Vec<Resource>,
    /// Plan-regime pieces ordered by interval.
    pub pieces: Vec<ModelPiece>,
    /// Whether any observation has been absorbed yet (the first
    /// refinement iteration scales all pieces).
    pub refined_once: bool,
}

impl RefinedModel {
    /// Fit the initial model from what-if estimates (§5.1: "running a
    /// linear regression on multiple points representing the estimated
    /// costs ... that we obtain during the configuration enumeration
    /// phase").
    ///
    /// `source` is any [`CostModel`] (normally the tenant's what-if
    /// estimator) supplying `(seconds, plan_regime)` samples; `grid`
    /// is the number of sample levels per varied resource.
    pub fn fit_initial(space: &SearchSpace, grid: usize, source: &dyn CostModel) -> Self {
        let estimate = |alloc: Allocation| {
            let e = source.estimate(alloc);
            (e.seconds, e.plan_regime)
        };
        let varied = space.varied();
        assert!(!varied.is_empty());
        let grid = grid.max(3);
        let levels: Vec<f64> = (0..grid)
            .map(|i| space.min_share + (1.0 - space.min_share) * i as f64 / (grid - 1) as f64)
            .collect();
        let piecewise_memory = varied.contains(&Resource::Memory);

        // 1. Piece boundaries: sweep the piecewise resource at the
        //    middle level of the others, recording regime changes.
        let mid = levels[grid / 2];
        let mut pieces: Vec<ModelPiece> = Vec::new();
        if piecewise_memory {
            for &m in &levels {
                let cpu = if varied.contains(&Resource::Cpu) {
                    mid
                } else {
                    space.fixed.cpu()
                };
                let alloc = Allocation::full()
                    .with(Resource::Cpu, cpu)
                    .with(Resource::Memory, m);
                let (_, regime) = estimate(alloc);
                match pieces.last_mut() {
                    Some(last) if last.plan_regime == regime => last.hi = m,
                    _ => pieces.push(ModelPiece {
                        lo: m,
                        hi: m,
                        alphas: vec![0.0; varied.len()],
                        beta: 0.0,
                        plan_regime: regime,
                        observations: Vec::new(),
                    }),
                }
            }
        } else {
            pieces.push(ModelPiece {
                lo: 0.0,
                hi: 1.0,
                alphas: vec![0.0; varied.len()],
                beta: 0.0,
                plan_regime: 0,
                observations: Vec::new(),
            });
        }

        // 2. Sample the full grid and fit each piece by regression of
        //    estimated cost on the 1/r_j row.
        let mut rows_per_piece: Vec<(Vec<Vec<f64>>, Vec<f64>)> =
            vec![(Vec::new(), Vec::new()); pieces.len()];
        let mut all_rows: Vec<Vec<f64>> = Vec::new();
        let mut all_ys: Vec<f64> = Vec::new();
        let cpu_levels: Vec<f64> = if varied.contains(&Resource::Cpu) {
            levels.clone()
        } else {
            vec![space.fixed.cpu()]
        };
        let mem_levels: Vec<f64> = if piecewise_memory {
            levels.clone()
        } else {
            vec![space.fixed.memory()]
        };
        for &c in &cpu_levels {
            for &m in &mem_levels {
                let alloc = Allocation::full()
                    .with(Resource::Cpu, c)
                    .with(Resource::Memory, m);
                let (cost, _) = estimate(alloc);
                let inv: Vec<f64> = varied.iter().map(|r| 1.0 / alloc.get(*r)).collect();
                let piece = piece_index(&pieces, if piecewise_memory { m } else { 0.5 });
                rows_per_piece[piece].0.push(inv.clone());
                rows_per_piece[piece].1.push(cost);
                all_rows.push(inv);
                all_ys.push(cost);
            }
        }

        let global = MultiLinearFit::fit(&all_rows, &all_ys).ok();
        for (piece, (rows, ys)) in pieces.iter_mut().zip(&rows_per_piece) {
            let fit = if rows.len() > varied.len() {
                MultiLinearFit::fit(rows, ys)
                    .ok()
                    .or_else(|| global.clone())
            } else {
                global.clone()
            };
            if let Some(f) = fit {
                piece.alphas = f.coefficients.clone();
                piece.beta = f.intercept;
            }
        }

        RefinedModel {
            varied,
            pieces,
            refined_once: false,
        }
    }

    /// Index of the piece governing a share of the piecewise resource
    /// (containing interval, else closest — the §5.1 gap rule).
    pub fn piece_for(&self, share: f64) -> usize {
        piece_index(&self.pieces, share)
    }

    fn inv_row(&self, alloc: Allocation) -> Vec<f64> {
        self.varied.iter().map(|r| 1.0 / alloc.get(*r)).collect()
    }

    fn piecewise_share(&self, alloc: Allocation) -> f64 {
        if self.varied.contains(&Resource::Memory) {
            alloc.memory()
        } else {
            0.5
        }
    }

    /// Model prediction at an allocation.
    pub fn predict(&self, alloc: Allocation) -> f64 {
        let piece = self.piece_for(self.piecewise_share(alloc));
        self.pieces[piece].predict_inv(&self.inv_row(alloc))
    }

    /// Absorb one actual observation at `alloc` (§5.1/§5.2 update
    /// rules):
    ///
    /// * first observation ever → scale **all** pieces by `act/est`;
    /// * piece has fewer than `M + 1` observations → scale **its**
    ///   coefficients by `act/est`;
    /// * otherwise → refit the piece by regression on its observations
    ///   alone, discarding the optimizer-derived model.
    ///
    /// The observed share is absorbed into the piece's interval
    /// (boundary arbitration for gap allocations).
    pub fn observe(&mut self, alloc: Allocation, actual: f64) {
        let est = self.predict(alloc).max(MIN_PREDICTION);
        let ratio = (actual / est).clamp(1e-3, 1e3);
        let share = self.piecewise_share(alloc);
        let idx = self.piece_for(share);
        let m = self.varied.len();

        if !self.refined_once {
            for p in &mut self.pieces {
                for a in &mut p.alphas {
                    *a *= ratio;
                }
                p.beta *= ratio;
            }
            self.refined_once = true;
        } else if self.pieces[idx].observations.len() < m {
            let p = &mut self.pieces[idx];
            for a in &mut p.alphas {
                *a *= ratio;
            }
            p.beta *= ratio;
        }

        let inv = self.inv_row(alloc);
        {
            let p = &mut self.pieces[idx];
            if share < p.lo {
                p.lo = share;
            } else if share > p.hi {
                p.hi = share;
            }
            p.observations.push((inv, actual));
        }

        // Enough observations: drop the optimizer model for this piece
        // and fit the observations directly.
        let p = &mut self.pieces[idx];
        if p.observations.len() > m {
            let rows: Vec<Vec<f64>> = p.observations.iter().map(|(r, _)| r.clone()).collect();
            let ys: Vec<f64> = p.observations.iter().map(|(_, y)| *y).collect();
            if let Ok(fit) = MultiLinearFit::fit(&rows, &ys) {
                p.alphas = fit.coefficients.clone();
                p.beta = fit.intercept;
            }
        }
    }
}

impl CostModel for RefinedModel {
    fn estimate(&self, alloc: Allocation) -> Estimate {
        let piece = self.piece_for(self.piecewise_share(alloc));
        Estimate {
            seconds: self.pieces[piece].predict_inv(&self.inv_row(alloc)),
            plan_regime: self.pieces[piece].plan_regime,
            avg_cost_per_statement: 0.0,
        }
    }
}

/// A refined model constrained by the §5.2 Δmax clamp: resources whose
/// refined models are not trusted globally may move at most `delta_max`
/// from the deployed allocation in one refinement round; clamped-out
/// allocations cost `+∞` so the greedy search never selects them.
struct ClampedModel<'a> {
    model: &'a RefinedModel,
    base: Allocation,
    clamp: Option<&'a (Vec<Resource>, f64)>,
}

impl CostModel for ClampedModel<'_> {
    fn estimate(&self, alloc: Allocation) -> Estimate {
        if let Some((resources, dmax)) = self.clamp {
            for r in resources {
                if (alloc.get(*r) - self.base.get(*r)).abs() > *dmax + 1e-9 {
                    return Estimate {
                        seconds: f64::INFINITY,
                        plan_regime: 0,
                        avg_cost_per_statement: 0.0,
                    };
                }
            }
        }
        self.model.estimate(alloc)
    }
}

fn piece_index(pieces: &[ModelPiece], share: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, p) in pieces.iter().enumerate() {
        let d = p.distance(share);
        if d == 0.0 {
            return i;
        }
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Options controlling the refinement loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefineOptions {
    /// Upper bound on refinement iterations (§5.1: "to prevent the
    /// renement process from continuing indefinitely").
    pub max_iterations: usize,
    /// Sample levels per resource for the initial model fit.
    pub sample_grid: usize,
    /// §5.2 Δmax clamp: resources whose refined models are *not*
    /// trusted globally may move at most this much from the current
    /// allocation in one refinement round.
    pub delta_max: Option<(Vec<Resource>, f64)>,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_iterations: 10,
            sample_grid: 8,
            delta_max: None,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefinementOutcome {
    /// Allocation per workload after refinement.
    pub final_allocations: Vec<Allocation>,
    /// Refinement iterations performed.
    pub iterations: usize,
    /// Whether the process converged (recommendation stabilized)
    /// before hitting the iteration cap.
    pub converged: bool,
    /// Per-iteration (estimated, actual) pairs per workload.
    pub history: Vec<Vec<(f64, f64)>>,
}

/// Run online refinement: observe actuals at the current
/// recommendation, update the models, re-run greedy search on the
/// refined models, repeat until the recommendation stabilizes.
///
/// `actuals[i]` is the ground-truth oracle for workload `i` (the
/// executor-backed
/// [`ActualCostModel`](crate::costmodel::model::ActualCostModel) in
/// production, synthetic models in tests).
pub fn refine<A: CostModel>(
    models: &mut [RefinedModel],
    space: &SearchSpace,
    qos: &[QoS],
    start: &[Allocation],
    actuals: &[A],
    opts: &RefineOptions,
) -> RefinementOutcome {
    let n = models.len();
    assert_eq!(qos.len(), n);
    assert_eq!(start.len(), n);
    assert_eq!(actuals.len(), n, "one ground-truth oracle per workload");
    let mut current: Vec<Allocation> = start.to_vec();
    let mut history: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut converged = false;
    let mut iterations = 0;
    // Keep the best *observed* configuration: refinement deploys each
    // intermediate recommendation and measures it, so if a later model
    // update wanders (e.g. a plan regime poorly served by the
    // reciprocal form), the advisor still ends on the best
    // configuration it actually saw.
    let mut best: Option<(f64, Vec<Allocation>)> = None;

    for _ in 0..opts.max_iterations {
        iterations += 1;
        // Observe and refine.
        let mut observed_total = 0.0;
        for i in 0..n {
            let est = models[i].predict(current[i]);
            let act = actuals[i].cost(current[i]);
            observed_total += qos[i].gain * act;
            history[i].push((est, act));
            models[i].observe(current[i], act);
        }
        if best.as_ref().is_none_or(|(t, _)| observed_total < *t) {
            best = Some((observed_total, current.clone()));
        }

        // Re-run the advisor on the refined models (no optimizer
        // calls, §7.2), with the §5.2 Δmax clamp applied per workload.
        // Refined predictions are a handful of FLOPs, so serial
        // evaluation beats paying per-batch threading overhead.
        let clamped: Vec<ClampedModel<'_>> = models
            .iter()
            .zip(&current)
            .map(|(model, &base)| ClampedModel {
                model,
                base,
                clamp: opts.delta_max.as_ref(),
            })
            .collect();
        let result = solve(
            space,
            qos,
            &clamped,
            &Strategy::Greedy,
            &SearchOptions::serial(),
        )
        .expect("refine needs at least one workload");

        let same = result.allocations.iter().zip(&current).all(|(a, b)| {
            space
                .varied
                .iter()
                .all(|r| (a.get(r) - b.get(r)).abs() < space.delta_for(r) / 2.0)
        });
        current = result.allocations;
        if same {
            converged = true;
            break;
        }
    }

    // Final guard: measure the last recommendation and fall back to the
    // best observed configuration if the models wandered.
    let final_total: f64 = (0..n)
        .map(|i| qos[i].gain * actuals[i].cost(current[i]))
        .sum();
    if let Some((best_total, best_alloc)) = best {
        if best_total < final_total {
            current = best_alloc;
        }
    }

    RefinementOutcome {
        final_allocations: current,
        iterations,
        converged,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::model::{FnCostModel, RegimeFnCostModel};

    /// A synthetic "truth" the optimizer misjudges by a constant
    /// factor: true cost = bias · (α/r_cpu) + β.
    fn make_model(space: &SearchSpace, alpha: f64, beta: f64) -> RefinedModel {
        let est = RegimeFnCostModel::new(move |a: Allocation| (alpha / a.cpu() + beta, 1));
        RefinedModel::fit_initial(space, 8, &est)
    }

    #[test]
    fn initial_fit_recovers_reciprocal_model() {
        let space = SearchSpace::cpu_only(0.5);
        let m = make_model(&space, 12.0, 3.0);
        for &c in &[0.1, 0.35, 0.9] {
            let a = Allocation::new(c, 0.5);
            let expect = 12.0 / c + 3.0;
            assert!(
                (m.predict(a) - expect).abs() / expect < 0.01,
                "at {c}: {} vs {expect}",
                m.predict(a)
            );
        }
    }

    #[test]
    fn first_observation_scales_whole_model() {
        let space = SearchSpace::cpu_only(0.5);
        let mut m = make_model(&space, 10.0, 0.0);
        // Actual is 2× the estimate everywhere.
        m.observe(Allocation::new(0.5, 0.5), 2.0 * (10.0 / 0.5));
        let at_other = m.predict(Allocation::new(0.25, 0.5));
        assert!(
            (at_other - 2.0 * 40.0).abs() / 80.0 < 0.01,
            "scaling must apply globally: {at_other}"
        );
    }

    #[test]
    fn observations_eventually_replace_optimizer_model() {
        let space = SearchSpace::cpu_only(0.5);
        // Optimizer thinks α=10; truth is α=30, β=1.
        let mut m = make_model(&space, 10.0, 0.0);
        for &c in &[0.5, 0.25, 0.75, 0.4] {
            let a = Allocation::new(c, 0.5);
            m.observe(a, 30.0 / c + 1.0);
        }
        let a = Allocation::new(0.6, 0.5);
        let expect = 30.0 / 0.6 + 1.0;
        assert!(
            (m.predict(a) - expect).abs() / expect < 0.02,
            "{} vs {expect}",
            m.predict(a)
        );
    }

    #[test]
    fn piecewise_fit_detects_plan_regimes() {
        let space = SearchSpace::memory_only(0.5);
        // Two regimes: spilling below 40 % memory (steep), in-memory
        // above (flat).
        let est = RegimeFnCostModel::new(|a: Allocation| {
            if a.memory() < 0.4 {
                (50.0 / a.memory() + 10.0, 111)
            } else {
                (5.0 / a.memory() + 20.0, 222)
            }
        });
        let m = RefinedModel::fit_initial(&space, 12, &est);
        assert_eq!(m.pieces.len(), 2, "{:?}", m.pieces.len());
        let lo = m.predict(Allocation::new(0.5, 0.2));
        let hi = m.predict(Allocation::new(0.5, 0.8));
        assert!((lo - (50.0 / 0.2 + 10.0)).abs() / lo < 0.05);
        assert!((hi - (5.0 / 0.8 + 20.0)).abs() / hi < 0.05);
    }

    #[test]
    fn later_observations_scale_only_their_piece() {
        let space = SearchSpace::memory_only(0.5);
        let est = RegimeFnCostModel::new(|a: Allocation| {
            if a.memory() < 0.4 {
                (50.0 / a.memory(), 111)
            } else {
                (5.0 / a.memory(), 222)
            }
        });
        let mut m = RefinedModel::fit_initial(&space, 12, &est);
        // First observation: global scale ×2 (both pieces move).
        m.observe(Allocation::new(0.5, 0.2), 2.0 * 50.0 / 0.2);
        let hi_before = m.predict(Allocation::new(0.5, 0.8));
        // Second observation in the low piece only.
        m.observe(Allocation::new(0.5, 0.3), 4.0 * 50.0 / 0.3);
        let hi_after = m.predict(Allocation::new(0.5, 0.8));
        assert!(
            (hi_before - hi_after).abs() / hi_before < 1e-9,
            "high piece must not move: {hi_before} vs {hi_after}"
        );
    }

    #[test]
    fn refinement_converges_on_biased_estimates() {
        // Two workloads; the optimizer underestimates workload 0 by
        // 5× (the TPC-C situation of §7.8). Truth: α₀=50, α₁=10.
        let space = SearchSpace::cpu_only(0.5);
        // Initial recommendation from the (wrong) models: even split.
        let start = vec![Allocation::new(0.5, 0.5), Allocation::new(0.5, 0.5)];
        let actuals: Vec<_> = [50.0, 10.0]
            .into_iter()
            .map(|alpha| FnCostModel::new(move |a: Allocation| alpha / a.cpu() + 1.0))
            .collect();
        let mut models = vec![make_model(&space, 10.0, 1.0), make_model(&space, 10.0, 1.0)];
        let out = refine(
            &mut models,
            &space,
            &[QoS::default(), QoS::default()],
            &start,
            &actuals,
            &RefineOptions::default(),
        );
        assert!(out.converged, "refinement should converge");
        // Workload 0 is really 5× hungrier: it must end with more CPU.
        assert!(
            out.final_allocations[0].cpu() > 0.6,
            "{:?}",
            out.final_allocations
        );
    }

    #[test]
    fn refinement_stops_at_iteration_cap() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let space = SearchSpace::cpu_only(0.5);
        let mut models = vec![make_model(&space, 10.0, 1.0), make_model(&space, 10.0, 1.0)];
        // Pathological oscillating "actual" that never stabilizes.
        let ticks = AtomicU64::new(0);
        let oscillating = move |a: Allocation| {
            let flip = ticks.fetch_add(1, Ordering::Relaxed) % 2 == 1;
            (10.0 + if flip { 40.0 } else { 0.0 }) / a.cpu()
        };
        let actuals = vec![
            FnCostModel::new(&oscillating),
            FnCostModel::new(&oscillating),
        ];
        let opts = RefineOptions {
            max_iterations: 3,
            ..RefineOptions::default()
        };
        let start = vec![Allocation::new(0.5, 0.5); 2];
        let out = refine(
            &mut models,
            &space,
            &[QoS::default(); 2],
            &start,
            &actuals,
            &opts,
        );
        assert!(out.iterations <= 3);
    }

    #[test]
    fn delta_max_clamps_untrusted_resource() {
        let space = SearchSpace::cpu_and_memory();
        let est = RegimeFnCostModel::new(|a: Allocation| (10.0 / a.cpu() + 10.0 / a.memory(), 1));
        let mut models = vec![
            RefinedModel::fit_initial(&space, 8, &est),
            RefinedModel::fit_initial(&space, 8, &est),
        ];
        // Truth wildly favors workload 0 on memory.
        let actuals: Vec<_> = [100.0, 1.0]
            .into_iter()
            .map(|mem_alpha| {
                FnCostModel::new(move |a: Allocation| 10.0 / a.cpu() + mem_alpha / a.memory())
            })
            .collect();
        let opts = RefineOptions {
            max_iterations: 1,
            delta_max: Some((vec![Resource::Memory], 0.1)),
            ..RefineOptions::default()
        };
        let start = vec![Allocation::new(0.5, 0.5); 2];
        let out = refine(
            &mut models,
            &space,
            &[QoS::default(); 2],
            &start,
            &actuals,
            &opts,
        );
        for (a, s) in out.final_allocations.iter().zip(&start) {
            assert!(
                (a.memory() - s.memory()).abs() <= 0.1 + 1e-9,
                "memory moved beyond delta_max: {a:?}"
            );
        }
    }

    #[test]
    fn history_records_est_and_actual() {
        let space = SearchSpace::cpu_only(0.5);
        let mut models = vec![make_model(&space, 10.0, 1.0)];
        let actuals = vec![FnCostModel::new(|a: Allocation| 20.0 / a.cpu() + 1.0)];
        let start = vec![Allocation::new(1.0, 0.5)];
        let out = refine(
            &mut models,
            &space,
            &[QoS::default()],
            &start,
            &actuals,
            &RefineOptions::default(),
        );
        assert!(!out.history[0].is_empty());
        let (est, act) = out.history[0][0];
        assert!(act > est, "first estimate underestimates by design");
    }
}
