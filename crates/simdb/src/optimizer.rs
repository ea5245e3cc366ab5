//! Cost-based query optimizer.
//!
//! A System-R-style optimizer shared by both simulated engines (they
//! differ in their [`CostFactors`], i.e. in the per-unit costs their
//! configuration parameters imply, not in the search):
//!
//! * access-path selection (sequential vs. B-tree index scan),
//! * exhaustive left-deep dynamic-programming join enumeration over
//!   hash join, sort-merge join, and index nested loops (at most
//!   [`MAX_JOIN_RELATIONS`] relations per query block),
//! * memory-aware operators: external sorts with multi-pass merging and
//!   hash joins/aggregations that spill in batches when the build side
//!   exceeds the operator memory budget. Plan shape therefore changes
//!   at discrete memory thresholds — producing the piecewise-linear
//!   cost-vs-memory behaviour the paper's §5.1 models,
//! * subquery planning (correlated subplans re-executed per outer row,
//!   uncorrelated subplans executed once).
//!
//! The join DP keeps one `Copy` cost record per relation set (counters,
//! rows, width, cached native cost, and a back-pointer to the smaller
//! set and the join step that extended it) and builds the [`PlanNode`]
//! tree once, for the winning full-set entry. Per-relation work (access
//! path, sort work, index probe, join-neighbour bitmask) is computed
//! once per plan. Candidates are priced with the same float operations
//! in the same order, and replace the incumbent only when strictly
//! cheaper, as in the clone-per-candidate DP this replaced; the tests
//! keep that DP as an oracle and require bit-identical plans.

use crate::bind::{BoundQuery, BoundRelation, Executions, WriteOp};
use crate::catalog::{Catalog, IndexDef, PAGE_BYTES};
use crate::plan::{miss_ratio, CostFactors, ModifyOp, PhysicalPlan, PlanCounters, PlanNode};

/// Most base relations one query block may join. The DP table has
/// `2^n` entries and relation sets are `u32` bitmasks; the binder
/// rejects larger blocks, so planning never sees one.
pub const MAX_JOIN_RELATIONS: usize = 16;

/// CPU operators charged per build-side tuple of a hash join.
const HASH_BUILD_OPS: f64 = 2.0;
/// CPU operators charged per probe-side tuple of a hash join.
const HASH_PROBE_OPS: f64 = 1.5;
/// CPU operators charged per input tuple of a merge join.
const MERGE_OPS: f64 = 1.0;
/// CPU operators charged per input row of hash aggregation.
const AGG_GROUP_OPS: f64 = 1.5;
/// Fraction of a full operator evaluation charged per sort comparison
/// (comparisons are tight loops, not expression evaluations).
const SORT_CMP_FACTOR: f64 = 0.3;
/// Cap on intermediate-result cardinality to keep cross joins finite.
const MAX_ROWS: f64 = 1e15;
/// Heap-page writes per modified row, before index maintenance.
const WRITE_PAGES_PER_ROW: f64 = 0.5;
/// Additional page writes per modified row per index.
const WRITE_PAGES_PER_INDEX: f64 = 0.5;

/// The optimizer: a catalog plus the engine's current cost factors.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    factors: CostFactors,
}

/// A partially-built plan during enumeration.
#[derive(Debug, Clone)]
struct Candidate {
    node: PlanNode,
    counters: PlanCounters,
    rows: f64,
    width: f64,
}

/// The join method a DP entry used to add its last relation.
#[derive(Debug, Clone, Copy)]
enum JoinStep {
    /// Hash join; `build_right` builds on the added relation.
    Hash { build_right: bool, batches: u32 },
    /// Sort-merge join with the external passes of each input's sort.
    Merge { left_passes: u32, right_passes: u32 },
    /// Index nested loops probing the added relation.
    IndexNestLoop,
}

/// Back-pointer of a DP entry: relation set `prev` joined with
/// relation `j` by `step`.
#[derive(Debug, Clone, Copy)]
struct JoinFrom {
    prev: u32,
    j: u8,
    step: JoinStep,
}

/// The cheapest left-deep plan found so far for one relation set, as a
/// cost record. `from` is `None` for a single relation's access path.
#[derive(Debug, Clone, Copy)]
struct DpEntry {
    counters: PlanCounters,
    rows: f64,
    width: f64,
    /// `native_cost(counters)`, cached for incumbent comparisons.
    cost: f64,
    from: Option<JoinFrom>,
}

/// What the join DP needs of one base relation, computed once per plan
/// rather than once per relation set it extends.
struct JoinRel<'a> {
    /// Best access path.
    scan: Candidate,
    /// Bits of the relations sharing a join edge with this one.
    neighbours: u32,
    /// `(bit of the other endpoint, selectivity)` of each join edge
    /// touching this relation, in `BoundQuery::joins` order.
    edges: Vec<(u32, f64)>,
    /// Scan output pages, sized as a hash-join input.
    pages: f64,
    /// Work and passes of sorting the scan output for a merge join.
    sort: PlanCounters,
    sort_passes: u32,
    /// Index nested loops with this relation as inner, if indexed.
    probe: Option<IndexProbe<'a>>,
}

/// One index probe into a join's inner relation.
struct IndexProbe<'a> {
    index: &'a IndexDef,
    per_probe: PlanCounters,
    /// Estimated rows the inner index scan emits per probe.
    inner_rows: f64,
}

/// A join enumerator: the relational core's join tree for a query.
type JoinEnumerator<'a> = fn(&Optimizer<'a>, &BoundQuery) -> Candidate;

impl<'a> Optimizer<'a> {
    /// Create an optimizer for `catalog` with the given per-unit costs.
    pub fn new(catalog: &'a Catalog, factors: CostFactors) -> Self {
        Optimizer { catalog, factors }
    }

    /// The cost factors in effect.
    pub fn factors(&self) -> &CostFactors {
        &self.factors
    }

    /// Plan a bound query, returning the cheapest plan found.
    pub fn plan(&self, q: &BoundQuery) -> PhysicalPlan {
        self.plan_with(q, Self::enumerate_joins)
    }

    /// [`Self::plan`] with the join tree chosen by `joins`.
    fn plan_with(&self, q: &BoundQuery, joins: JoinEnumerator<'a>) -> PhysicalPlan {
        let mut cand = self.plan_relational(q, joins);

        // Attach subplans (correlated ones re-execute per driving row).
        for sub in &q.subplans {
            let subplan = self.plan_with(&sub.query, joins);
            let executions = match &sub.executions {
                Executions::Once => 1.0,
                Executions::PerOuterRow { driving_rel } => q
                    .relations
                    .get(*driving_rel)
                    .map_or(1.0, BoundRelation::filtered_rows),
            };
            let mut sub_counters = subplan.counters.scaled(executions);
            // Subquery results feed the parent predicate, not the
            // client.
            sub_counters.rows_returned = 0.0;
            cand.counters.add(&sub_counters);
            cand.node = PlanNode::Subplan {
                input: Box::new(cand.node),
                plan: Box::new(subplan.root),
                executions,
            };
        }

        // DML sits on top of the scan that located the rows.
        if let Some(w) = &q.write {
            let pages =
                w.rows * (WRITE_PAGES_PER_ROW + WRITE_PAGES_PER_INDEX * w.index_count as f64);
            cand.counters.write_pages += pages;
            cand.counters.lock_requests += w.rows;
            cand.counters.rows_returned = 0.0;
            let op = match w.op {
                WriteOp::Insert => ModifyOp::Insert,
                WriteOp::Update => ModifyOp::Update,
                WriteOp::Delete => ModifyOp::Delete,
            };
            cand.node = PlanNode::Modify {
                input: if q.relations.is_empty() {
                    None
                } else {
                    Some(Box::new(cand.node))
                },
                table: w.table.clone(),
                op,
                rows: w.rows,
            };
            cand.rows = 0.0;
        } else {
            cand.counters.rows_returned = cand.rows;
        }

        let native_cost = self.factors.native_cost(&cand.counters);
        let signature = PhysicalPlan::signature_of(&cand.node);
        PhysicalPlan {
            root: cand.node,
            counters: cand.counters,
            native_cost,
            rows: cand.rows,
            signature,
        }
    }

    /// Plan the relational core: scans, joins, aggregation, ordering,
    /// limit. Subplans and DML are layered on by [`Self::plan`].
    fn plan_relational(&self, q: &BoundQuery, joins: JoinEnumerator<'a>) -> Candidate {
        let mut cand = if q.relations.is_empty() {
            // `SELECT <exprs>` without FROM (or a VALUES insert):
            // one row of pure computation.
            Candidate {
                node: PlanNode::SeqScan {
                    table: "<values>".into(),
                    rows: 1.0,
                },
                counters: PlanCounters {
                    cpu_operators: q.select_ops.max(1.0),
                    ..Default::default()
                },
                rows: 1.0,
                width: 16.0,
            }
        } else {
            joins(self, q)
        };

        // Projection arithmetic for non-aggregate queries (aggregate
        // ops are charged by the aggregation node).
        if q.agg.is_none() {
            cand.counters.cpu_operators += q.select_ops * cand.rows;
        }

        if let Some(agg) = &q.agg {
            let groups_raw = if agg.group_cols == 0 {
                1.0
            } else {
                agg.group_ndv.min(cand.rows / 2.0).max(1.0)
            };
            cand = self.add_aggregate(cand, groups_raw, agg.ops_per_row, agg.having_sel);
        }

        if q.distinct {
            // NDV of arbitrary projections is unknown; the classic
            // guess is half the input.
            let groups = (cand.rows / 2.0).max(1.0);
            cand = self.add_aggregate(cand, groups, 1.0, 1.0);
        }

        if q.sort.is_some() {
            let (delta, passes) = self.sort_work(cand.rows, cand.width);
            cand.counters.add(&delta);
            cand.node = PlanNode::Sort {
                input: Box::new(cand.node),
                passes,
                rows: cand.rows,
            };
        }

        if let Some(limit) = q.limit {
            if limit < cand.rows {
                cand.rows = limit;
                cand.node = PlanNode::Limit {
                    input: Box::new(cand.node),
                    rows: limit,
                };
            }
        }
        cand
    }

    // ---- scans ---------------------------------------------------------

    /// Best access path for one base relation.
    fn scan(&self, rel: &BoundRelation) -> Candidate {
        let seq = self.seq_scan(rel);
        match self.index_scan(rel) {
            Some(ix) if self.cost(&ix) < self.cost(&seq) => ix,
            _ => seq,
        }
    }

    fn cost(&self, c: &Candidate) -> f64 {
        self.factors.native_cost(&c.counters)
    }

    fn seq_scan(&self, rel: &BoundRelation) -> Candidate {
        let counters = PlanCounters {
            seq_pages: rel.pages * miss_ratio(rel.pages, self.factors.buffer_pages),
            cpu_tuples: rel.rows,
            cpu_operators: rel.rows * rel.filter_ops,
            ..Default::default()
        };
        let rows = rel.filtered_rows();
        Candidate {
            node: PlanNode::SeqScan {
                table: rel.table.clone(),
                rows,
            },
            counters,
            rows,
            width: rel.projected_width,
        }
    }

    fn index_scan(&self, rel: &BoundRelation) -> Option<Candidate> {
        let filter = rel.index_filter.as_ref()?;
        let idx = self.catalog.index_on(&rel.table, &filter.column)?;
        let entries = (rel.rows * filter.sel).max(1.0);
        let miss = miss_ratio(rel.pages, self.factors.buffer_pages);
        // Index pages: descent + the fraction of leaves the predicate
        // touches; heap fetches bounded by the table size
        // (Mackert–Lohman style clamping).
        let index_pages = idx.height(rel.rows) + idx.leaf_pages(rel.rows) * filter.sel;
        let heap_pages = entries.min(rel.pages);
        let counters = PlanCounters {
            rand_pages: (index_pages + heap_pages) * miss,
            cpu_index_tuples: entries,
            cpu_tuples: entries,
            cpu_operators: entries * rel.filter_ops,
            ..Default::default()
        };
        let rows = rel.filtered_rows();
        Some(Candidate {
            node: PlanNode::IndexScan {
                table: rel.table.clone(),
                index: idx.name.clone(),
                rows,
            },
            counters,
            rows,
            width: rel.projected_width,
        })
    }

    // ---- join enumeration ----------------------------------------------

    /// Exhaustive left-deep DP over join orders and methods.
    ///
    /// The table holds one [`DpEntry`] cost record per relation set;
    /// the operator tree is built once, for the full set, by
    /// [`Self::build_join_tree`].
    fn enumerate_joins(&self, q: &BoundQuery) -> Candidate {
        let n = q.relations.len();
        assert!(
            n <= MAX_JOIN_RELATIONS,
            "join enumeration supports at most {MAX_JOIN_RELATIONS} relations"
        );
        if n == 1 {
            return self.scan(&q.relations[0]);
        }
        let rels = self.join_rels(q);

        let mem = self.factors.work_mem_pages.max(1.0);
        let full = (1usize << n) - 1;
        let mut best: Vec<Option<DpEntry>> = vec![None; full + 1];
        for (i, r) in rels.iter().enumerate() {
            best[1 << i] = Some(DpEntry {
                counters: r.scan.counters,
                rows: r.scan.rows,
                width: r.scan.width,
                cost: self.cost(&r.scan),
                from: None,
            });
        }

        // Enumerate masks in increasing popcount order implicitly by
        // numeric order (any mask is larger than its strict subsets), so
        // `best[mask]` is final when read and back-pointers name final
        // entries. The full set extends nothing, so it is not visited.
        for mask in 1..full {
            let Some(left) = best[mask] else {
                continue;
            };
            let bits = mask as u32;
            let reach = rels
                .iter()
                .enumerate()
                .filter(|&(i, _)| bits & (1 << i) != 0)
                .fold(0, |acc, (_, r)| acc | r.neighbours);
            let extendable = reach & !bits != 0;
            let left_bytes = left.rows * left.width;
            let left_pages = (left_bytes / PAGE_BYTES).max(1.0);
            let (left_sort, left_passes) = self.sort_work(left.rows, left.width);

            for (j, r) in rels.iter().enumerate() {
                let bit = 1u32 << j;
                if bits & bit != 0 {
                    continue;
                }
                // Prefer edge-connected extensions; cross joins are
                // permitted (sel = 1) so star/snowflake corners and
                // predicate-free templates still plan.
                let connected = bits & r.neighbours != 0;
                if !connected && extendable {
                    continue;
                }
                let sel: f64 = r
                    .edges
                    .iter()
                    .filter(|&&(other, _)| bits & other != 0)
                    .map(|&(_, sel)| sel)
                    .product();
                let right = &r.scan;
                let out_rows = (left.rows * right.rows * sel).clamp(1.0, MAX_ROWS);
                let width = left.width + right.width;
                let slot = &mut best[mask | bit as usize];
                let from = |step| {
                    Some(JoinFrom {
                        prev: bits,
                        j: j as u8,
                        step,
                    })
                };

                let mut both = left.counters;
                both.add(&right.counters);

                // Hash join, building on the smaller input by bytes.
                let build_right = right.rows * right.width <= left_bytes;
                let (build_rows, probe_rows, build_pages, probe_pages) = if build_right {
                    (right.rows, left.rows, r.pages, left_pages)
                } else {
                    (left.rows, right.rows, left_pages, r.pages)
                };
                let mut counters = both;
                counters.cpu_operators += build_rows * HASH_BUILD_OPS + probe_rows * HASH_PROBE_OPS;
                counters.cpu_tuples += out_rows;
                let batches = if build_pages <= mem {
                    1
                } else {
                    let ratio = (build_pages / mem).ceil();
                    // Grace hash partitioning: power-of-two batch counts.
                    (ratio as u32).next_power_of_two().max(2)
                };
                if batches > 1 {
                    // Both inputs are written out and re-read once.
                    counters.spill_pages += 2.0 * (build_pages + probe_pages);
                }
                self.offer(
                    slot,
                    counters,
                    out_rows,
                    width,
                    from(JoinStep::Hash {
                        build_right,
                        batches,
                    }),
                );

                // Sort-merge join, sorting both inputs.
                let mut counters = both;
                counters.add(&left_sort);
                counters.add(&r.sort);
                counters.cpu_operators += (left.rows + right.rows) * MERGE_OPS;
                counters.cpu_tuples += out_rows;
                let step = JoinStep::Merge {
                    left_passes,
                    right_passes: r.sort_passes,
                };
                self.offer(slot, counters, out_rows, width, from(step));

                // Index nested loops, probing relation `j`'s index once
                // per outer row.
                if let Some(probe) = &r.probe {
                    let mut counters = left.counters;
                    counters.add(&probe.per_probe.scaled(left.rows));
                    counters.cpu_tuples += out_rows;
                    self.offer(
                        slot,
                        counters,
                        out_rows,
                        width,
                        from(JoinStep::IndexNestLoop),
                    );
                }
            }
        }

        let top = best[full].expect("DP always reaches the full relation set");
        Candidate {
            node: self.build_join_tree(q, &rels, &best, full),
            counters: top.counters,
            rows: top.rows,
            width: top.width,
        }
    }

    /// Replace `slot` with the given join if it is strictly cheaper
    /// (the first candidate wins ties).
    fn offer(
        &self,
        slot: &mut Option<DpEntry>,
        counters: PlanCounters,
        rows: f64,
        width: f64,
        from: Option<JoinFrom>,
    ) {
        let cost = self.factors.native_cost(&counters);
        if slot.is_none_or(|old| cost < old.cost) {
            *slot = Some(DpEntry {
                counters,
                rows,
                width,
                cost,
                from,
            });
        }
    }

    /// The per-relation inputs of the join DP.
    fn join_rels(&self, q: &BoundQuery) -> Vec<JoinRel<'a>> {
        q.relations
            .iter()
            .enumerate()
            .map(|(j, rel)| {
                let mut edges = Vec::new();
                let mut neighbours = 0;
                for e in &q.joins {
                    // `JoinEdge::connects(mask, j)` as one bit test.
                    let other = if e.a == j && e.b != j {
                        e.b
                    } else if e.b == j && e.a != j {
                        e.a
                    } else {
                        continue;
                    };
                    neighbours |= 1 << other;
                    edges.push((1 << other, e.sel));
                }
                let scan = self.scan(rel);
                let (sort, sort_passes) = self.sort_work(scan.rows, scan.width);
                JoinRel {
                    neighbours,
                    edges,
                    pages: (scan.rows * scan.width / PAGE_BYTES).max(1.0),
                    sort,
                    sort_passes,
                    probe: self.index_probe(q, j),
                    scan,
                }
            })
            .collect()
    }

    /// Index nested loops with relation `j` as inner: the index on
    /// `j`'s side of its first equi-join edge, and the work of one
    /// probe. Internal B-tree pages are hot after the first probe, so a
    /// probe costs one leaf page plus the heap fetches.
    fn index_probe(&self, q: &BoundQuery, j: usize) -> Option<IndexProbe<'a>> {
        let rel = &q.relations[j];
        // Any eq edge touching `j` works: left-deep DP only extends
        // connected sets.
        let (column, ndv) = q
            .joins
            .iter()
            .filter(|e| e.a == j || e.b == j)
            .find_map(|e| e.column_for(j))?;
        let catalog: &'a Catalog = self.catalog;
        let index = catalog.index_on(&rel.table, column)?;
        let entries_per_probe = (rel.rows / ndv.max(1.0)).max(1.0);
        let miss = miss_ratio(rel.pages, self.factors.buffer_pages);
        Some(IndexProbe {
            index,
            per_probe: PlanCounters {
                rand_pages: (1.0 + entries_per_probe.min(rel.pages)) * miss,
                cpu_index_tuples: index.height(rel.rows) + entries_per_probe,
                cpu_tuples: entries_per_probe,
                cpu_operators: entries_per_probe * rel.filter_ops,
                ..Default::default()
            },
            inner_rows: entries_per_probe * rel.filter_sel,
        })
    }

    /// The operator tree of DP entry `mask`, rebuilt from back-pointers.
    fn build_join_tree(
        &self,
        q: &BoundQuery,
        rels: &[JoinRel<'a>],
        best: &[Option<DpEntry>],
        mask: usize,
    ) -> PlanNode {
        let entry = best[mask].expect("back-pointers name reached sets");
        let Some(JoinFrom { prev, j, step }) = entry.from else {
            return rels[mask.trailing_zeros() as usize].scan.node.clone();
        };
        let left = Box::new(self.build_join_tree(q, rels, best, prev as usize));
        let r = &rels[j as usize];
        let right = Box::new(r.scan.node.clone());
        let rows = entry.rows;
        match step {
            JoinStep::Hash {
                build_right,
                batches,
            } => {
                let (build, probe) = if build_right {
                    (right, left)
                } else {
                    (left, right)
                };
                PlanNode::HashJoin {
                    build,
                    probe,
                    batches,
                    rows,
                }
            }
            JoinStep::Merge {
                left_passes,
                right_passes,
            } => PlanNode::MergeJoin {
                left: Box::new(PlanNode::Sort {
                    input: left,
                    passes: left_passes,
                    rows: best[prev as usize].expect("reached").rows,
                }),
                right: Box::new(PlanNode::Sort {
                    input: right,
                    passes: right_passes,
                    rows: r.scan.rows,
                }),
                rows,
            },
            JoinStep::IndexNestLoop => {
                let probe = r.probe.as_ref().expect("index step needs a probe");
                PlanNode::NestLoop {
                    outer: left,
                    inner: Box::new(PlanNode::IndexScan {
                        table: q.relations[j as usize].table.clone(),
                        index: probe.index.name.clone(),
                        rows: probe.inner_rows,
                    }),
                    indexed: true,
                    rows,
                }
            }
        }
    }

    // ---- memory-sensitive operators -------------------------------------

    /// Counters and pass count for sorting `rows` of `width` bytes
    /// under the operator memory budget.
    fn sort_work(&self, rows: f64, width: f64) -> (PlanCounters, u32) {
        let rows = rows.max(1.0);
        let mut counters = PlanCounters {
            cpu_operators: rows * rows.log2().max(1.0) * SORT_CMP_FACTOR,
            ..Default::default()
        };
        let pages = (rows * width / PAGE_BYTES).max(1.0);
        let mem = self.factors.work_mem_pages.max(1.0);
        if pages <= mem {
            return (counters, 0);
        }
        let runs = (pages / mem).ceil();
        let fanout = (mem - 1.0).max(2.0);
        let passes = (runs.ln() / fanout.ln()).ceil().max(1.0) as u32;
        counters.spill_pages = 2.0 * pages * passes as f64;
        (counters, passes)
    }

    /// Add an aggregation over `cand`, choosing hash aggregation when
    /// the group table fits the operator memory budget and falling
    /// back to sort-based aggregation otherwise (a discrete plan
    /// change, as in PostgreSQL 8.x).
    fn add_aggregate(
        &self,
        mut cand: Candidate,
        groups: f64,
        ops_per_row: f64,
        having_sel: f64,
    ) -> Candidate {
        let input_rows = cand.rows;
        cand.counters.cpu_operators += input_rows * ops_per_row;

        let hash_bytes = groups * cand.width;
        let fits = hash_bytes <= self.factors.work_mem_bytes();
        if fits {
            cand.counters.cpu_operators += input_rows * AGG_GROUP_OPS;
            cand.node = PlanNode::HashAgg {
                input: Box::new(cand.node),
                groups,
            };
        } else {
            let (sort, passes) = self.sort_work(input_rows, cand.width);
            cand.counters.add(&sort);
            cand.counters.cpu_operators += input_rows;
            let sorted = PlanNode::Sort {
                input: Box::new(cand.node),
                passes,
                rows: input_rows,
            };
            cand.node = PlanNode::SortAgg {
                input: Box::new(sorted),
                groups,
            };
        }
        cand.rows = (groups * having_sel).max(1.0);
        // Aggregated output rows are narrow.
        cand.width = 16.0_f64.max(cand.width * 0.25);
        cand
    }
}

/// The clone-per-candidate join DP [`Optimizer::enumerate_joins`]
/// replaced, kept as the oracle its plans must equal bit for bit.
#[cfg(test)]
mod clone_dp_oracle {
    use super::*;

    /// Exhaustive left-deep DP over join orders and methods, cloning
    /// every candidate's operator tree.
    pub(super) fn enumerate_joins(opt: &Optimizer<'_>, q: &BoundQuery) -> Candidate {
        let n = q.relations.len();
        assert!(n <= 16, "join enumeration supports at most 16 relations");
        let scans: Vec<Candidate> = q.relations.iter().map(|r| opt.scan(r)).collect();
        if n == 1 {
            return scans.into_iter().next().expect("n == 1");
        }

        let full: u64 = (1u64 << n) - 1;
        let mut best: Vec<Option<Candidate>> = vec![None; (full + 1) as usize];
        for (i, s) in scans.iter().enumerate() {
            best[1usize << i] = Some(s.clone());
        }

        // Enumerate masks in increasing popcount order implicitly by
        // numeric order (any mask is larger than its strict subsets).
        for mask in 1..=full {
            let Some(left) = best[mask as usize].clone() else {
                continue;
            };
            #[allow(clippy::needless_range_loop)] // DP over relation indexes, not a slice walk
            for j in 0..n {
                let bit = 1u64 << j;
                if mask & bit != 0 {
                    continue;
                }
                // Prefer edge-connected extensions; cross joins are
                // permitted (sel = 1) so star/snowflake corners and
                // predicate-free templates still plan.
                let sel: f64 = q
                    .joins
                    .iter()
                    .filter(|e| e.connects(mask, j))
                    .map(|e| e.sel)
                    .product();
                let connected = q.joins.iter().any(|e| e.connects(mask, j));
                if !connected && has_connected_extension(q, mask, n) {
                    continue;
                }
                let out_rows = (left.rows * scans[j].rows * sel).clamp(1.0, MAX_ROWS);

                for cand in join_candidates(opt, q, &left, j, &scans[j], out_rows) {
                    let slot = &mut best[(mask | bit) as usize];
                    let better = slot
                        .as_ref()
                        .is_none_or(|old| opt.cost(&cand) < opt.cost(old));
                    if better {
                        *slot = Some(cand);
                    }
                }
            }
        }

        best[full as usize]
            .clone()
            .expect("DP always reaches the full relation set")
    }

    /// Whether any relation outside `mask` is edge-connected to it.
    fn has_connected_extension(q: &BoundQuery, mask: u64, n: usize) -> bool {
        (0..n).any(|j| {
            let bit = 1u64 << j;
            mask & bit == 0 && q.joins.iter().any(|e| e.connects(mask, j))
        })
    }

    /// All join methods for extending `left` with base relation `j`.
    fn join_candidates(
        opt: &Optimizer<'_>,
        q: &BoundQuery,
        left: &Candidate,
        j: usize,
        right_scan: &Candidate,
        out_rows: f64,
    ) -> Vec<Candidate> {
        let rel = &q.relations[j];
        let width = left.width + rel.projected_width;
        let mut out = Vec::with_capacity(3);
        out.push(hash_join(opt, left, right_scan, out_rows, width));
        out.push(merge_join(opt, left, right_scan, out_rows, width));
        if let Some(inl) = index_nestloop(opt, q, left, j, out_rows, width) {
            out.push(inl);
        }
        out
    }

    fn hash_join(
        opt: &Optimizer<'_>,
        left: &Candidate,
        right: &Candidate,
        out_rows: f64,
        width: f64,
    ) -> Candidate {
        // Build on the smaller input by bytes.
        let left_bytes = left.rows * left.width;
        let right_bytes = right.rows * right.width;
        let (build, probe) = if right_bytes <= left_bytes {
            (right, left)
        } else {
            (left, right)
        };
        let build_pages = (build.rows * build.width / PAGE_BYTES).max(1.0);
        let probe_pages = (probe.rows * probe.width / PAGE_BYTES).max(1.0);
        let mem = opt.factors.work_mem_pages.max(1.0);

        let mut counters = left.counters;
        counters.add(&right.counters);
        counters.cpu_operators += build.rows * HASH_BUILD_OPS + probe.rows * HASH_PROBE_OPS;
        counters.cpu_tuples += out_rows;

        let batches = if build_pages <= mem {
            1
        } else {
            let ratio = (build_pages / mem).ceil();
            // Grace hash partitioning: power-of-two batch counts.
            (ratio as u32).next_power_of_two().max(2)
        };
        if batches > 1 {
            // Both inputs are written out and re-read once.
            counters.spill_pages += 2.0 * (build_pages + probe_pages);
        }

        Candidate {
            node: PlanNode::HashJoin {
                build: Box::new(build.node.clone()),
                probe: Box::new(probe.node.clone()),
                batches,
                rows: out_rows,
            },
            counters,
            rows: out_rows,
            width,
        }
    }

    fn merge_join(
        opt: &Optimizer<'_>,
        left: &Candidate,
        right: &Candidate,
        out_rows: f64,
        width: f64,
    ) -> Candidate {
        let mut counters = left.counters;
        counters.add(&right.counters);

        let (lsort, lpasses) = opt.sort_work(left.rows, left.width);
        let (rsort, rpasses) = opt.sort_work(right.rows, right.width);
        counters.add(&lsort);
        counters.add(&rsort);
        counters.cpu_operators += (left.rows + right.rows) * MERGE_OPS;
        counters.cpu_tuples += out_rows;

        let lnode = PlanNode::Sort {
            input: Box::new(left.node.clone()),
            passes: lpasses,
            rows: left.rows,
        };
        let rnode = PlanNode::Sort {
            input: Box::new(right.node.clone()),
            passes: rpasses,
            rows: right.rows,
        };
        Candidate {
            node: PlanNode::MergeJoin {
                left: Box::new(lnode),
                right: Box::new(rnode),
                rows: out_rows,
            },
            counters,
            rows: out_rows,
            width,
        }
    }

    /// Index nested loops: drive from `left`, probe an index on
    /// relation `j`'s join column. Requires an equi-join edge whose
    /// `j` side is indexed.
    fn index_nestloop(
        opt: &Optimizer<'_>,
        q: &BoundQuery,
        left: &Candidate,
        j: usize,
        out_rows: f64,
        width: f64,
    ) -> Option<Candidate> {
        let rel = &q.relations[j];
        // Find an equi-edge binding j to the current mask with an index
        // on j's column. (`connects` was already checked by the caller
        // via selectivity; here any eq edge touching j works because
        // left-deep DP only extends connected sets.)
        let (column, ndv) = q
            .joins
            .iter()
            .filter(|e| e.a == j || e.b == j)
            .find_map(|e| e.column_for(j))?;
        let idx = opt.catalog.index_on(&rel.table, column)?;

        let entries_per_probe = (rel.rows / ndv.max(1.0)).max(1.0);
        let miss = miss_ratio(rel.pages, opt.factors.buffer_pages);
        // Internal B-tree pages are hot after the first probe; charge
        // one leaf page plus the heap fetches per probe.
        let per_probe = PlanCounters {
            rand_pages: (1.0 + entries_per_probe.min(rel.pages)) * miss,
            cpu_index_tuples: idx.height(rel.rows) + entries_per_probe,
            cpu_tuples: entries_per_probe,
            cpu_operators: entries_per_probe * rel.filter_ops,
            ..Default::default()
        };

        let mut counters = left.counters;
        counters.add(&per_probe.scaled(left.rows));
        counters.cpu_tuples += out_rows;

        let inner = PlanNode::IndexScan {
            table: rel.table.clone(),
            index: idx.name.clone(),
            rows: entries_per_probe * rel.filter_sel,
        };
        Some(Candidate {
            node: PlanNode::NestLoop {
                outer: Box::new(left.node.clone()),
                inner: Box::new(inner),
                indexed: true,
                rows: out_rows,
            },
            counters,
            rows: out_rows,
            width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_statement;
    use crate::catalog::{table, Catalog, IndexDef};

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(table(
            "orders",
            1_500_000.0,
            120.0,
            &[
                ("o_orderkey", 1_500_000.0, 8.0),
                ("o_custkey", 100_000.0, 8.0),
                ("o_totalprice", 1_000_000.0, 8.0),
            ],
        ));
        c.add_table(table(
            "lineitem",
            6_000_000.0,
            140.0,
            &[
                ("l_orderkey", 1_500_000.0, 8.0),
                ("l_partkey", 200_000.0, 8.0),
                ("l_quantity", 50.0, 8.0),
            ],
        ));
        c.add_table(table(
            "customer",
            150_000.0,
            180.0,
            &[("c_custkey", 150_000.0, 8.0), ("c_name", 150_000.0, 24.0)],
        ));
        for (name, tbl, col) in [
            ("orders_pk", "orders", "o_orderkey"),
            ("lineitem_ok", "lineitem", "l_orderkey"),
            ("customer_pk", "customer", "c_custkey"),
        ] {
            c.add_index(IndexDef {
                name: name.into(),
                table: tbl.into(),
                column: col.into(),
            })
            .unwrap();
        }
        c
    }

    fn factors(work_mem_pages: f64, buffer_pages: f64) -> CostFactors {
        CostFactors {
            seq_page: 1.0,
            rand_page: 4.0,
            cpu_tuple: 0.01,
            cpu_operator: 0.0025,
            cpu_index_tuple: 0.005,
            work_mem_pages,
            buffer_pages,
        }
    }

    fn plan(sql: &str, f: CostFactors) -> PhysicalPlan {
        let c = cat();
        let q = bind_statement(sql, &c).unwrap();
        Optimizer::new(&c, f).plan(&q)
    }

    #[test]
    fn selective_predicate_uses_index() {
        let p = plan(
            "SELECT * FROM orders WHERE o_orderkey = 1",
            factors(640.0, 1000.0),
        );
        assert!(
            matches!(p.root, PlanNode::IndexScan { .. }),
            "{}",
            p.explain()
        );
        assert!(p.counters.rand_pages < 10.0);
    }

    #[test]
    fn unselective_predicate_uses_seqscan() {
        let p = plan(
            "SELECT * FROM lineitem WHERE l_quantity < 45 /*+ sel 0.9 */",
            factors(640.0, 1000.0),
        );
        assert!(
            matches!(p.root, PlanNode::SeqScan { .. }),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn join_produces_reasonable_method() {
        let p = plan(
            "SELECT o.o_totalprice FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND o.o_custkey = 17",
            factors(640.0, 1000.0),
        );
        // A 15-row outer driving an indexed inner should win.
        fn has_inl(n: &PlanNode) -> bool {
            match n {
                PlanNode::NestLoop { indexed: true, .. } => true,
                PlanNode::NestLoop { outer, inner, .. } => has_inl(outer) || has_inl(inner),
                PlanNode::HashJoin { build, probe, .. } => has_inl(build) || has_inl(probe),
                PlanNode::MergeJoin { left, right, .. } => has_inl(left) || has_inl(right),
                PlanNode::Sort { input, .. }
                | PlanNode::HashAgg { input, .. }
                | PlanNode::SortAgg { input, .. }
                | PlanNode::Limit { input, .. } => has_inl(input),
                _ => false,
            }
        }
        assert!(has_inl(&p.root), "{}", p.explain());
    }

    #[test]
    fn three_way_join_plans() {
        let p = plan(
            "SELECT c.c_name FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey",
            factors(640.0, 1000.0),
        );
        assert!(p.native_cost > 0.0);
        assert!(p.rows >= 1.0);
    }

    #[test]
    fn more_memory_never_increases_cost() {
        let sql = "SELECT l_partkey, count(*) FROM lineitem GROUP BY l_partkey \
                   ORDER BY l_partkey";
        let costs: Vec<f64> = [64.0, 256.0, 1024.0, 4096.0, 65536.0]
            .iter()
            .map(|&m| plan(sql, factors(m, 1000.0)).native_cost)
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "cost increased with memory: {costs:?}");
        }
    }

    #[test]
    fn memory_threshold_changes_plan_signature() {
        // Group table of ~200k groups × width; small work_mem forces
        // sort-based aggregation, large allows hash aggregation.
        let sql = "SELECT l_partkey, count(*) FROM lineitem GROUP BY l_partkey";
        let small = plan(sql, factors(32.0, 1000.0));
        let large = plan(sql, factors(65536.0, 1000.0));
        assert_ne!(small.signature, large.signature);
        fn top_is_sortagg(n: &PlanNode) -> bool {
            matches!(n, PlanNode::SortAgg { .. })
        }
        assert!(top_is_sortagg(&small.root), "{}", small.explain());
        assert!(
            matches!(large.root, PlanNode::HashAgg { .. }),
            "{}",
            large.explain()
        );
    }

    #[test]
    fn buffer_pool_reduces_io() {
        let sql = "SELECT count(*) FROM lineitem";
        let cold = plan(sql, factors(640.0, 100.0));
        let warm = plan(sql, factors(640.0, 200_000.0));
        assert!(warm.counters.seq_pages < cold.counters.seq_pages);
        assert!(warm.native_cost < cold.native_cost);
    }

    #[test]
    fn correlated_subquery_scales_with_driving_rows() {
        let narrow = plan(
            "SELECT * FROM orders o WHERE o_custkey = 1 AND o_totalprice > \
             (SELECT avg(l_quantity) FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            factors(640.0, 1000.0),
        );
        let wide = plan(
            "SELECT * FROM orders o WHERE o_totalprice > \
             (SELECT avg(l_quantity) FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            factors(640.0, 1000.0),
        );
        assert!(wide.native_cost > narrow.native_cost * 10.0);
    }

    #[test]
    fn update_plan_carries_write_counters() {
        let p = plan(
            "UPDATE orders SET o_totalprice = 0 WHERE o_orderkey = 3",
            factors(640.0, 1000.0),
        );
        assert!(matches!(
            p.root,
            PlanNode::Modify {
                op: ModifyOp::Update,
                ..
            }
        ));
        assert!(p.counters.write_pages > 0.0);
        assert!(p.counters.lock_requests >= 1.0);
        assert_eq!(p.counters.rows_returned, 0.0);
    }

    #[test]
    fn insert_plans_without_scan() {
        let p = plan(
            "INSERT INTO orders VALUES (1, 2, 3)",
            factors(640.0, 1000.0),
        );
        match &p.root {
            PlanNode::Modify {
                input,
                op: ModifyOp::Insert,
                ..
            } => assert!(input.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_caps_returned_rows() {
        let p = plan("SELECT * FROM lineitem LIMIT 10", factors(640.0, 1000.0));
        assert_eq!(p.counters.rows_returned, 10.0);
    }

    #[test]
    fn rows_returned_not_in_estimate() {
        // Identical scans, wildly different result sizes: native cost
        // must not see the difference in returned rows.
        let all = plan("SELECT * FROM lineitem", factors(640.0, 1000.0));
        let one = plan("SELECT count(*) FROM lineitem", factors(640.0, 1000.0));
        assert!(all.counters.rows_returned > 1e6);
        assert!((one.counters.rows_returned - 1.0).abs() < 1e-9);
        // count(*) actually costs *more* (aggregation work), proving
        // the returned rows are free in the model.
        assert!(one.native_cost >= all.native_cost);
    }

    #[test]
    fn select_without_from_plans() {
        let p = plan("SELECT 1 + 2", factors(640.0, 1000.0));
        assert_eq!(p.rows, 1.0);
        assert!(p.native_cost >= 0.0);
    }

    #[test]
    fn cross_join_is_planned_when_no_edges() {
        let p = plan(
            "SELECT * FROM customer c, orders o LIMIT 5",
            factors(640.0, 1000.0),
        );
        assert!(p.rows <= 5.0);
        assert!(p.native_cost > 0.0);
    }

    #[test]
    fn plans_are_deterministic() {
        let sql = "SELECT c.c_name, sum(l.l_quantity) FROM customer c, orders o, lineitem l \
                   WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey \
                   GROUP BY c.c_name ORDER BY c.c_name";
        let a = plan(sql, factors(640.0, 1000.0));
        let b = plan(sql, factors(640.0, 1000.0));
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.native_cost, b.native_cost);
    }

    /// The record-based DP against the clone-per-candidate oracle over
    /// random join graphs.
    mod dp_oracle {
        use super::*;
        use crate::bind::{AggregateSpec, IndexFilter, JoinEdge, SortSpec};
        use proptest::prelude::*;

        // Statistics come from small grids, so relations with equal
        // statistics and equal-cost join orders are common: the cases
        // the strict `<` tie-break decides.
        const ROWS: [f64; 6] = [1.0, 25.0, 1_000.0, 150_000.0, 1_500_000.0, 6_000_000.0];
        const WIDTHS: [f64; 4] = [8.0, 32.0, 120.0, 140.0];
        const EDGE_SELS: [f64; 5] = [1e-6, 0.04, 1.0 / 150_000.0, 0.01, 0.5];

        /// Relation `i` scans table `t{i}` with columns `c0` (unique)
        /// and `c1` (1% distinct). `flags`: bit 0 indexes `c0`, bit 1
        /// indexes `c1`, bit 2 adds a local filter of selectivity
        /// `sel`, bit 3 offers that filter to an index on `c0`.
        fn catalog_and_relations(
            rels: &[(usize, usize, u32, f64)],
        ) -> (Catalog, Vec<BoundRelation>) {
            let mut cat = Catalog::new();
            let mut out = Vec::new();
            for (i, &(r, w, flags, sel)) in rels.iter().enumerate() {
                let name = format!("t{i}");
                let rows = ROWS[r];
                let def = table(
                    &name,
                    rows,
                    WIDTHS[w],
                    &[("c0", rows, 8.0), ("c1", (rows / 100.0).max(1.0), 8.0)],
                );
                let pages = def.pages();
                cat.add_table(def);
                for (bit, column) in [(1, "c0"), (2, "c1")] {
                    if flags & bit != 0 {
                        cat.add_index(IndexDef {
                            name: format!("{name}_{column}"),
                            table: name.clone(),
                            column: column.into(),
                        })
                        .unwrap();
                    }
                }
                let filtered = flags & 4 != 0;
                out.push(BoundRelation {
                    table: name.clone(),
                    alias: name.clone(),
                    rows,
                    pages,
                    row_width: WIDTHS[w],
                    projected_width: WIDTHS[w],
                    filter_sel: if filtered { sel } else { 1.0 },
                    filter_ops: if filtered { 1.0 } else { 0.0 },
                    index_filter: (filtered && flags & 8 != 0).then(|| IndexFilter {
                        index: format!("{name}_c0"),
                        column: "c0".into(),
                        sel,
                    }),
                });
            }
            (cat, out)
        }

        /// Edge `(a, step, sel, cols)` joins `a` to `a + step` (mod
        /// n); `cols` picks each side's equi-join column (none, `c0`
        /// or `c1`).
        fn edges(n: usize, raw: &[(usize, usize, usize, u32)]) -> Vec<JoinEdge> {
            let column = |c: u32| match c % 3 {
                0 => None,
                1 => Some("c0".to_string()),
                _ => Some("c1".to_string()),
            };
            raw.iter()
                .map(|&(a, step, sel, cols)| {
                    let a = a % n;
                    let b = (a + 1 + step % (n - 1)) % n;
                    JoinEdge {
                        a,
                        b,
                        sel: EDGE_SELS[sel],
                        a_column: column(cols & 3),
                        a_ndv: ROWS[(a + sel) % ROWS.len()],
                        b_column: column(cols >> 2),
                        b_ndv: ROWS[(b + sel) % ROWS.len()] / 100.0,
                    }
                })
                .collect()
        }

        fn assert_same_plan(a: &PhysicalPlan, b: &PhysicalPlan) {
            assert_eq!(a.root, b.root);
            assert_eq!(format!("{:?}", a.root), format!("{:?}", b.root));
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.rows.to_bits(), b.rows.to_bits());
            assert_eq!(a.native_cost.to_bits(), b.native_cost.to_bits());
            let bits = |c: &PlanCounters| {
                [
                    c.seq_pages,
                    c.rand_pages,
                    c.spill_pages,
                    c.cpu_tuples,
                    c.cpu_operators,
                    c.cpu_index_tuples,
                    c.rows_returned,
                    c.write_pages,
                    c.lock_requests,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&a.counters), bits(&b.counters));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Plans, counters and costs equal the clone-based DP's bit
            /// for bit, for 2-8 relations with and without connecting
            /// edges, indexed and unindexed join columns and filters,
            /// and work-memory budgets small enough to spill.
            #[test]
            fn record_dp_matches_the_clone_dp(
                rels in proptest::collection::vec((0usize..6, 0usize..4, 0u32..16, 0.0001f64..1.0), 2..9),
                raw_edges in proptest::collection::vec((0usize..8, 0usize..8, 0usize..5, 0u32..16), 0..12),
                shape in 0u32..8,
                units in (0.1f64..4.0, 0.5f64..50.0, 0.0005f64..0.05, 0.0001f64..0.01, 0.0001f64..0.01),
                memory in (0.0f64..17.0, 0.0f64..21.0),
            ) {
                let (cat, relations) = catalog_and_relations(&rels);
                let q = BoundQuery {
                    id: 0,
                    joins: edges(relations.len(), &raw_edges),
                    relations,
                    agg: (shape & 1 != 0).then_some(AggregateSpec {
                        group_ndv: 5_000.0,
                        ops_per_row: 2.0,
                        having_sel: 1.0,
                        group_cols: 1,
                    }),
                    distinct: false,
                    sort: (shape & 2 != 0).then_some(SortSpec { keys: 1 }),
                    limit: (shape & 4 != 0).then_some(100.0),
                    select_ops: 1.0,
                    subplans: Vec::new(),
                    write: None,
                };
                let f = CostFactors {
                    seq_page: units.0,
                    rand_page: units.1,
                    cpu_tuple: units.2,
                    cpu_operator: units.3,
                    cpu_index_tuple: units.4,
                    work_mem_pages: memory.0.exp2().floor(),
                    buffer_pages: memory.1.exp2().floor(),
                };
                let opt = Optimizer::new(&cat, f);
                assert_same_plan(
                    &opt.plan(&q),
                    &opt.plan_with(&q, clone_dp_oracle::enumerate_joins),
                );
            }
        }
    }
}
