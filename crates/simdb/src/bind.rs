//! Binding: name resolution and selectivity estimation.
//!
//! The binder turns a parsed [`Statement`] plus a [`Catalog`] into a
//! [`BoundQuery`] — the relational skeleton the optimizer consumes:
//! base relations with combined local-filter selectivities, join edges
//! with join selectivities, aggregate/sort/limit specs, subplans, and
//! DML write specs.
//!
//! Selectivity estimation uses the classic System-R magic constants
//! that 2008-era PostgreSQL and DB2 actually shipped (equality `1/NDV`,
//! range `1/3`, `LIKE` `1/10`, …). Workload templates can pin any
//! predicate's selectivity with a `/*+ sel p */` hint where the
//! heuristic would misrepresent the intended workload profile.

use crate::catalog::Catalog;
use crate::hash::fnv1a;
use crate::optimizer::MAX_JOIN_RELATIONS;
use crate::sql::{parse_statement, BinOp, ColRef, Expr, SelectItem, SelectStmt, Statement};
use crate::{DbError, Result};

/// Default selectivity of a range comparison (`<`, `<=`, `>`, `>=`).
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of `BETWEEN`.
pub const DEFAULT_BETWEEN_SEL: f64 = 0.25;
/// Default selectivity of `LIKE`.
pub const DEFAULT_LIKE_SEL: f64 = 0.1;
/// Default selectivity of `IN (subquery)` / `EXISTS (subquery)`.
pub const DEFAULT_SUBQUERY_SEL: f64 = 0.5;
/// Default selectivity of `HAVING` over groups.
pub const DEFAULT_HAVING_SEL: f64 = 0.5;
/// CPU operator count charged per `LIKE` evaluation (pattern matching
/// is costlier than a comparison).
const LIKE_OPS: f64 = 4.0;
/// Minimum projected width in bytes.
const MIN_WIDTH: f64 = 8.0;

/// One base relation of a bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRelation {
    /// Catalog table name.
    pub table: String,
    /// Effective alias in the query.
    pub alias: String,
    /// Base row count from the catalog.
    pub rows: f64,
    /// Heap pages from the catalog.
    pub pages: f64,
    /// Full row width in bytes.
    pub row_width: f64,
    /// Width of the columns this query actually projects from this
    /// relation (used for sort/hash sizing).
    pub projected_width: f64,
    /// Combined selectivity of all local predicates.
    pub filter_sel: f64,
    /// CPU operators evaluated per scanned row.
    pub filter_ops: f64,
    /// The most selective index-usable local predicate, if any.
    pub index_filter: Option<IndexFilter>,
}

impl BoundRelation {
    /// Rows surviving the local filters.
    pub fn filtered_rows(&self) -> f64 {
        (self.rows * self.filter_sel).max(1.0)
    }
}

/// An index-usable predicate: `column op constant` over an indexed
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexFilter {
    /// Name of the usable index.
    pub index: String,
    /// Indexed column.
    pub column: String,
    /// Selectivity of the predicate the index can satisfy.
    pub sel: f64,
}

/// An equi-join (or filtered join) edge between two relations.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// Index of one endpoint in [`BoundQuery::relations`].
    pub a: usize,
    /// Index of the other endpoint.
    pub b: usize,
    /// Join selectivity applied to the Cartesian product.
    pub sel: f64,
    /// Join column on side `a` for a plain `a.col = b.col` equi-join
    /// (enables index nested loops with `a` as inner).
    pub a_column: Option<String>,
    /// NDV of the side-`a` join column.
    pub a_ndv: f64,
    /// Join column on side `b` (enables index nested loops with `b` as
    /// inner).
    pub b_column: Option<String>,
    /// NDV of the side-`b` join column.
    pub b_ndv: f64,
}

impl JoinEdge {
    /// The join column and NDV for the given endpoint, if this is an
    /// equi-join.
    pub fn column_for(&self, rel: usize) -> Option<(&str, f64)> {
        if rel == self.a {
            self.a_column.as_deref().map(|c| (c, self.a_ndv))
        } else if rel == self.b {
            self.b_column.as_deref().map(|c| (c, self.b_ndv))
        } else {
            None
        }
    }

    /// Whether this edge connects `rel` to any relation in `mask`
    /// (bitmask over relation indexes).
    pub fn connects(&self, mask: u64, rel: usize) -> bool {
        (self.a == rel && mask & (1 << self.b) != 0) || (self.b == rel && mask & (1 << self.a) != 0)
    }
}

/// Grouping/aggregation description.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Estimated number of groups before applying `rows/2` clamping
    /// (product of group-column NDVs; `1` for a full-table aggregate).
    pub group_ndv: f64,
    /// Aggregate/scalar operators evaluated per input row.
    pub ops_per_row: f64,
    /// Selectivity of the `HAVING` clause over groups.
    pub having_sel: f64,
    /// Number of grouping columns (0 for plain aggregates).
    pub group_cols: usize,
}

/// `ORDER BY` description.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Number of sort keys.
    pub keys: usize,
}

/// How often a subplan executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Executions {
    /// Uncorrelated: hashed/materialized once.
    Once,
    /// Correlated: re-executed for every qualifying row of the driving
    /// relation.
    PerOuterRow {
        /// Index of the driving relation in the outer query.
        driving_rel: usize,
    },
}

/// A bound subquery attached to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPlan {
    /// The subquery, bound with correlation predicates folded in as
    /// constant filters.
    pub query: BoundQuery,
    /// Execution multiplicity.
    pub executions: Executions,
}

/// Kind of DML write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// `INSERT`
    Insert,
    /// `UPDATE`
    Update,
    /// `DELETE`
    Delete,
}

/// DML effects of a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteSpec {
    /// Target table.
    pub table: String,
    /// Estimated modified rows.
    pub rows: f64,
    /// Number of indexes needing maintenance.
    pub index_count: usize,
    /// Operation kind.
    pub op: WriteOp,
}

/// The bound form of one SQL statement: everything the optimizer and
/// executor need, with names resolved and selectivities estimated.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Stable identity (FNV-1a of the SQL text; `0` for synthesized
    /// subqueries).
    pub id: u64,
    /// Base relations.
    pub relations: Vec<BoundRelation>,
    /// Join edges between relations.
    pub joins: Vec<JoinEdge>,
    /// Aggregation, if any.
    pub agg: Option<AggregateSpec>,
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Ordering, if any.
    pub sort: Option<SortSpec>,
    /// Row limit, if any.
    pub limit: Option<f64>,
    /// Scalar operators per emitted row (projection arithmetic).
    pub select_ops: f64,
    /// Subplans (correlated and uncorrelated subqueries).
    pub subplans: Vec<SubPlan>,
    /// DML effects, if this is a write statement.
    pub write: Option<WriteSpec>,
}

impl BoundQuery {
    /// Whether this statement modifies data.
    pub fn is_write(&self) -> bool {
        self.write.is_some()
    }
}

/// Parse and bind one SQL statement against `catalog`.
pub fn bind_statement(sql: &str, catalog: &Catalog) -> Result<BoundQuery> {
    let stmt = parse_statement(sql)?;
    let mut bq = bind_parsed(&stmt, catalog)?;
    bq.id = fnv1a(sql);
    Ok(bq)
}

/// Bind an already-parsed statement.
pub fn bind_parsed(stmt: &Statement, catalog: &Catalog) -> Result<BoundQuery> {
    match stmt {
        Statement::Select(s) => Binder::new(catalog).bind_select(s, &[]),
        Statement::Insert(i) => {
            let table = catalog
                .table(&i.table)
                .ok_or_else(|| DbError::Bind(format!("unknown table {}", i.table)))?;
            Ok(BoundQuery {
                id: 0,
                relations: Vec::new(),
                joins: Vec::new(),
                agg: None,
                distinct: false,
                sort: None,
                limit: None,
                select_ops: 0.0,
                subplans: Vec::new(),
                write: Some(WriteSpec {
                    table: table.name.clone(),
                    rows: i.rows.len() as f64,
                    index_count: catalog.indexes_for(&table.name).count(),
                    op: WriteOp::Insert,
                }),
            })
        }
        Statement::Update(u) => {
            let mut select = SelectStmt {
                items: vec![SelectItem::Star],
                from: vec![crate::sql::TableRef {
                    table: u.table.clone(),
                    alias: u.table.clone(),
                }],
                where_clause: u.where_clause.clone(),
                ..SelectStmt::default()
            };
            // Assignment right-hand sides cost operators per row.
            select
                .items
                .extend(u.set.iter().map(|(_, e)| SelectItem::Expr {
                    expr: e.clone(),
                    alias: None,
                }));
            let mut bq = Binder::new(catalog).bind_select(&select, &[])?;
            let rows = bq.relations[0].filtered_rows();
            bq.write = Some(WriteSpec {
                table: bq.relations[0].table.clone(),
                rows,
                index_count: catalog.indexes_for(&bq.relations[0].table).count(),
                op: WriteOp::Update,
            });
            Ok(bq)
        }
        Statement::Delete(d) => {
            let select = SelectStmt {
                items: vec![SelectItem::Star],
                from: vec![crate::sql::TableRef {
                    table: d.table.clone(),
                    alias: d.table.clone(),
                }],
                where_clause: d.where_clause.clone(),
                ..SelectStmt::default()
            };
            let mut bq = Binder::new(catalog).bind_select(&select, &[])?;
            let rows = bq.relations[0].filtered_rows();
            bq.write = Some(WriteSpec {
                table: bq.relations[0].table.clone(),
                rows,
                index_count: catalog.indexes_for(&bq.relations[0].table).count(),
                op: WriteOp::Delete,
            });
            Ok(bq)
        }
    }
}

/// Scope entry for correlation resolution: an alias visible from an
/// enclosing query.
#[derive(Debug, Clone)]
struct OuterAlias {
    alias: String,
    table: String,
}

struct Binder<'a> {
    catalog: &'a Catalog,
}

/// Working state for one SELECT scope.
struct Scope {
    relations: Vec<BoundRelation>,
    joins: Vec<JoinEdge>,
    subplans: Vec<SubPlan>,
    /// Columns referenced in the projection/grouping/ordering, per
    /// relation, for width estimation.
    referenced: Vec<Vec<String>>,
    star: bool,
}

impl Scope {
    fn rel_by_alias(&self, alias: &str) -> Option<usize> {
        self.relations.iter().position(|r| r.alias == alias)
    }
}

/// Where a column resolved to.
enum Resolved {
    /// A relation of the current scope.
    Local {
        rel: usize,
        ndv: f64,
        width: f64,
        column: String,
    },
    /// A relation of an enclosing scope (correlation).
    Outer,
}

impl<'a> Binder<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog }
    }

    fn bind_select(&self, stmt: &SelectStmt, outer: &[OuterAlias]) -> Result<BoundQuery> {
        if stmt.from.len() > MAX_JOIN_RELATIONS {
            return Err(DbError::Bind(format!(
                "a query block joins {} relations; at most {MAX_JOIN_RELATIONS} are supported",
                stmt.from.len()
            )));
        }
        let mut scope = Scope {
            relations: Vec::new(),
            joins: Vec::new(),
            subplans: Vec::new(),
            referenced: Vec::new(),
            star: false,
        };

        for tref in &stmt.from {
            let table = self
                .catalog
                .table(&tref.table)
                .ok_or_else(|| DbError::Bind(format!("unknown table {}", tref.table)))?;
            let alias = tref.alias.to_ascii_lowercase();
            if scope.rel_by_alias(&alias).is_some() {
                return Err(DbError::Bind(format!("duplicate alias {alias}")));
            }
            scope.relations.push(BoundRelation {
                table: table.name.clone(),
                alias,
                rows: table.rows,
                pages: table.pages(),
                row_width: table.row_width,
                projected_width: 0.0,
                filter_sel: 1.0,
                filter_ops: 0.0,
                index_filter: None,
            });
            scope.referenced.push(Vec::new());
        }

        // Visible outer scope for subqueries of *this* scope: our
        // relations shadow, then the enclosing chain.
        let mut visible: Vec<OuterAlias> = scope
            .relations
            .iter()
            .map(|r| OuterAlias {
                alias: r.alias.clone(),
                table: r.table.clone(),
            })
            .collect();
        visible.extend(outer.iter().cloned());

        if let Some(pred) = &stmt.where_clause {
            self.bind_predicate(pred, &mut scope, outer, &visible)?;
        }

        // Projection: operator counts and referenced-column tracking.
        let mut select_ops = 0.0;
        let mut has_agg = false;
        for item in &stmt.items {
            match item {
                SelectItem::Star => scope.star = true,
                SelectItem::Expr { expr, .. } => {
                    select_ops += self.expr_ops(expr);
                    if expr.contains_aggregate() {
                        has_agg = true;
                    }
                    self.track_referenced(expr, &mut scope, outer)?;
                }
            }
        }

        // Aggregation.
        let mut agg = None;
        if has_agg || !stmt.group_by.is_empty() {
            let mut group_ndv = 1.0;
            for col in &stmt.group_by {
                if let Resolved::Local {
                    ndv,
                    rel,
                    column,
                    width,
                } = self.resolve_col(col, &scope, outer)?
                {
                    group_ndv *= ndv.max(1.0);
                    note_referenced(&mut scope, rel, &column, width);
                }
            }
            let having_sel = match &stmt.having {
                Some(h) => {
                    select_ops += self.expr_ops(h);
                    // HAVING inputs flow through the aggregation, so
                    // they contribute to the grouped row width.
                    self.track_referenced(h, &mut scope, outer)?;
                    DEFAULT_HAVING_SEL
                }
                None => 1.0,
            };
            agg = Some(AggregateSpec {
                group_ndv,
                ops_per_row: select_ops.max(1.0),
                having_sel,
                group_cols: stmt.group_by.len(),
            });
        }

        for (col, _) in &stmt.order_by {
            if let Resolved::Local {
                rel, column, width, ..
            } = self.resolve_col(col, &scope, outer)?
            {
                note_referenced(&mut scope, rel, &column, width);
            }
        }

        // Projected widths per relation.
        for (i, rel) in scope.relations.iter_mut().enumerate() {
            rel.projected_width = if scope.star {
                rel.row_width
            } else {
                let table = self
                    .catalog
                    .table(&rel.table)
                    .expect("bound table must exist");
                let mut w = 0.0;
                let mut seen: Vec<&str> = Vec::new();
                for c in &scope.referenced[i] {
                    if !seen.contains(&c.as_str()) {
                        seen.push(c);
                        w += table.column(c).map_or(MIN_WIDTH, |cd| cd.avg_width);
                    }
                }
                w.max(MIN_WIDTH)
            };
        }

        Ok(BoundQuery {
            id: 0,
            relations: scope.relations,
            joins: scope.joins,
            agg,
            distinct: stmt.distinct,
            sort: if stmt.order_by.is_empty() {
                None
            } else {
                Some(SortSpec {
                    keys: stmt.order_by.len(),
                })
            },
            limit: stmt.limit.map(|l| l as f64),
            select_ops,
            subplans: scope.subplans,
            write: None,
        })
    }

    /// Bind a predicate tree, attributing selectivity and operator
    /// counts to relations and join edges.
    fn bind_predicate(
        &self,
        pred: &Expr,
        scope: &mut Scope,
        outer: &[OuterAlias],
        visible: &[OuterAlias],
    ) -> Result<()> {
        match pred {
            Expr::And(parts) => {
                for p in parts {
                    self.bind_predicate(p, scope, outer, visible)?;
                }
                Ok(())
            }
            other => self.bind_conjunct(other, scope, outer, visible),
        }
    }

    fn bind_conjunct(
        &self,
        pred: &Expr,
        scope: &mut Scope,
        outer: &[OuterAlias],
        visible: &[OuterAlias],
    ) -> Result<()> {
        match pred {
            Expr::Binary {
                op,
                left,
                right,
                hint_sel,
            } if op.is_comparison() => {
                self.bind_comparison(*op, left, right, *hint_sel, scope, outer, visible)
            }
            Expr::Between { expr, hint_sel, .. } => {
                let sel = hint_sel.unwrap_or(DEFAULT_BETWEEN_SEL);
                self.apply_local_filter(expr, sel, 2.0, None, scope, outer)
            }
            Expr::Like {
                expr,
                negated,
                hint_sel,
                ..
            } => {
                let mut sel = hint_sel.unwrap_or(DEFAULT_LIKE_SEL);
                if *negated {
                    sel = 1.0 - sel;
                }
                self.apply_local_filter(expr, sel, LIKE_OPS, None, scope, outer)
            }
            Expr::InList {
                expr,
                list,
                negated,
                hint_sel,
            } => {
                let sel = match hint_sel {
                    Some(s) => *s,
                    None => match self.resolve_expr_col(expr, scope, outer)? {
                        Some(Resolved::Local { ndv, .. }) => {
                            (list.len() as f64 / ndv.max(1.0)).min(1.0)
                        }
                        _ => DEFAULT_SUBQUERY_SEL,
                    },
                };
                let sel = if *negated { 1.0 - sel } else { sel };
                self.apply_local_filter(expr, sel, list.len() as f64, None, scope, outer)
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
                hint_sel,
            } => {
                let sub = self.bind_subquery(query, scope, outer, visible)?;
                scope.subplans.push(sub);
                let sel = hint_sel.unwrap_or(DEFAULT_SUBQUERY_SEL);
                let sel = if *negated { 1.0 - sel } else { sel };
                self.apply_local_filter(expr, sel, 1.0, None, scope, outer)
            }
            Expr::Exists {
                query,
                negated,
                hint_sel,
            } => {
                let sub = self.bind_subquery(query, scope, outer, visible)?;
                let driving = match &sub.executions {
                    Executions::PerOuterRow { driving_rel } => Some(*driving_rel),
                    Executions::Once => None,
                };
                scope.subplans.push(sub);
                let sel = hint_sel.unwrap_or(DEFAULT_SUBQUERY_SEL);
                let sel = if *negated { 1.0 - sel } else { sel };
                // EXISTS has no tested column; attribute its selectivity
                // to the driving relation (or the first).
                let rel = driving.unwrap_or(0);
                if !scope.relations.is_empty() {
                    apply_to_relation(scope, rel, sel, 1.0, None);
                }
                Ok(())
            }
            Expr::Or(parts) => {
                // Combined OR selectivity: 1 - Π(1 - sᵢ), attributed to
                // the first local column mentioned.
                let mut combined = 1.0;
                let mut ops = 0.0;
                for p in parts {
                    combined *= 1.0 - self.simple_selectivity(p, scope, outer)?;
                    ops += self.expr_ops(p).max(1.0);
                }
                let sel = 1.0 - combined;
                if let Some(col) = first_column(pred) {
                    if let Resolved::Local { rel, .. } = self.resolve_col(&col, scope, outer)? {
                        apply_to_relation(scope, rel, sel, ops, None);
                        return Ok(());
                    }
                }
                if !scope.relations.is_empty() {
                    apply_to_relation(scope, 0, sel, ops, None);
                }
                Ok(())
            }
            Expr::Not(inner) => {
                let sel = 1.0 - self.simple_selectivity(inner, scope, outer)?;
                if let Some(col) = first_column(inner) {
                    if let Resolved::Local { rel, .. } = self.resolve_col(&col, scope, outer)? {
                        apply_to_relation(scope, rel, sel, 1.0, None);
                        return Ok(());
                    }
                }
                Ok(())
            }
            // A bare boolean-ish expression: charge an operator, no
            // selectivity change.
            other => {
                if let Some(col) = first_column(other) {
                    if let Resolved::Local { rel, .. } = self.resolve_col(&col, scope, outer)? {
                        apply_to_relation(scope, rel, 1.0, 1.0, None);
                    }
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_comparison(
        &self,
        op: BinOp,
        left: &Expr,
        right: &Expr,
        hint_sel: Option<f64>,
        scope: &mut Scope,
        outer: &[OuterAlias],
        visible: &[OuterAlias],
    ) -> Result<()> {
        // Scalar-subquery comparisons: bind the subquery, then treat
        // the comparison as a local filter on the column side.
        if let Expr::ScalarSubquery(q) = right {
            let sub = self.bind_subquery(q, scope, outer, visible)?;
            scope.subplans.push(sub);
            let sel = hint_sel.unwrap_or(DEFAULT_RANGE_SEL);
            return self.apply_local_filter(left, sel, 1.0, None, scope, outer);
        }
        if let Expr::ScalarSubquery(q) = left {
            let sub = self.bind_subquery(q, scope, outer, visible)?;
            scope.subplans.push(sub);
            let sel = hint_sel.unwrap_or(DEFAULT_RANGE_SEL);
            return self.apply_local_filter(right, sel, 1.0, None, scope, outer);
        }

        let lcol = self.resolve_expr_col(left, scope, outer)?;
        let rcol = self.resolve_expr_col(right, scope, outer)?;

        match (lcol, rcol) {
            // column-op-column across two local relations: join edge.
            (
                Some(Resolved::Local {
                    rel: ra,
                    ndv: nda,
                    column: ca,
                    ..
                }),
                Some(Resolved::Local {
                    rel: rb,
                    ndv: ndb,
                    column: cb,
                    ..
                }),
            ) if ra != rb => {
                let sel = match (hint_sel, op) {
                    (Some(s), _) => s,
                    (None, BinOp::Eq) => 1.0 / nda.max(ndb).max(1.0),
                    (None, _) => DEFAULT_RANGE_SEL,
                };
                let eq = op == BinOp::Eq;
                scope.joins.push(JoinEdge {
                    a: ra,
                    b: rb,
                    sel,
                    a_column: eq.then_some(ca),
                    a_ndv: nda,
                    b_column: eq.then_some(cb),
                    b_ndv: ndb,
                });
                Ok(())
            }
            // column-op-constant (or outer correlation treated as a
            // constant): local filter.
            (
                Some(Resolved::Local {
                    rel, ndv, column, ..
                }),
                other,
            ) => {
                let is_plain_const = other.is_none()
                    && matches!(right, Expr::Number(_) | Expr::Str(_))
                    || matches!(other, Some(Resolved::Outer));
                let sel = match (hint_sel, op) {
                    (Some(s), _) => s,
                    (None, BinOp::Eq) => 1.0 / ndv.max(1.0),
                    (None, BinOp::Ne) => 1.0 - 1.0 / ndv.max(1.0),
                    (None, _) => DEFAULT_RANGE_SEL,
                };
                // Equality on an indexed column is index-usable; so are
                // ranges, at their estimated selectivity.
                let index = if is_plain_const || matches!(other, Some(Resolved::Outer)) {
                    self.catalog
                        .index_on(&scope.relations[rel].table, &column)
                        .map(|ix| IndexFilter {
                            index: ix.name.clone(),
                            column: column.clone(),
                            sel,
                        })
                } else {
                    None
                };
                apply_to_relation(scope, rel, sel, 1.0, index);
                Ok(())
            }
            (
                None,
                Some(Resolved::Local {
                    rel, ndv, column, ..
                }),
            ) => {
                let sel = match (hint_sel, op) {
                    (Some(s), _) => s,
                    (None, BinOp::Eq) => 1.0 / ndv.max(1.0),
                    (None, BinOp::Ne) => 1.0 - 1.0 / ndv.max(1.0),
                    (None, _) => DEFAULT_RANGE_SEL,
                };
                let index = if matches!(left, Expr::Number(_) | Expr::Str(_)) {
                    self.catalog
                        .index_on(&scope.relations[rel].table, &column)
                        .map(|ix| IndexFilter {
                            index: ix.name.clone(),
                            column: column.clone(),
                            sel,
                        })
                } else {
                    None
                };
                apply_to_relation(scope, rel, sel, 1.0, index);
                Ok(())
            }
            // Pure outer/constant comparisons: no local effect.
            _ => Ok(()),
        }
    }

    /// Apply a local filter to the relation owning the first column of
    /// `expr`.
    fn apply_local_filter(
        &self,
        expr: &Expr,
        sel: f64,
        ops: f64,
        index: Option<IndexFilter>,
        scope: &mut Scope,
        outer: &[OuterAlias],
    ) -> Result<()> {
        if let Some(col) = first_column(expr) {
            if let Resolved::Local { rel, .. } = self.resolve_col(&col, scope, outer)? {
                apply_to_relation(scope, rel, sel, ops, index);
                return Ok(());
            }
        }
        // Constant or purely-outer expression: nothing local to filter.
        Ok(())
    }

    /// Selectivity of a predicate considered in isolation (used for OR
    /// combination).
    fn simple_selectivity(&self, pred: &Expr, scope: &Scope, outer: &[OuterAlias]) -> Result<f64> {
        Ok(match pred {
            Expr::Binary {
                op,
                left,
                right,
                hint_sel,
            } if op.is_comparison() => {
                if let Some(s) = hint_sel {
                    *s
                } else {
                    match op {
                        BinOp::Eq => {
                            let ndv = match self.resolve_expr_col(left, scope, outer)? {
                                Some(Resolved::Local { ndv, .. }) => ndv,
                                _ => match self.resolve_expr_col(right, scope, outer)? {
                                    Some(Resolved::Local { ndv, .. }) => ndv,
                                    _ => 10.0,
                                },
                            };
                            1.0 / ndv.max(1.0)
                        }
                        BinOp::Ne => 0.9,
                        _ => DEFAULT_RANGE_SEL,
                    }
                }
            }
            Expr::Between { hint_sel, .. } => hint_sel.unwrap_or(DEFAULT_BETWEEN_SEL),
            Expr::Like {
                hint_sel, negated, ..
            } => {
                let s = hint_sel.unwrap_or(DEFAULT_LIKE_SEL);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::InList { hint_sel, list, .. } => {
                hint_sel.unwrap_or((list.len() as f64 * 0.05).min(1.0))
            }
            Expr::And(parts) => {
                let mut s = 1.0;
                for p in parts {
                    s *= self.simple_selectivity(p, scope, outer)?;
                }
                s
            }
            Expr::Or(parts) => {
                let mut c = 1.0;
                for p in parts {
                    c *= 1.0 - self.simple_selectivity(p, scope, outer)?;
                }
                1.0 - c
            }
            Expr::Not(inner) => 1.0 - self.simple_selectivity(inner, scope, outer)?,
            _ => DEFAULT_RANGE_SEL,
        })
    }

    fn bind_subquery(
        &self,
        query: &SelectStmt,
        scope: &Scope,
        _outer: &[OuterAlias],
        visible: &[OuterAlias],
    ) -> Result<SubPlan> {
        let bound = self.bind_select(query, visible)?;
        // Correlated if the subquery references any alias of *this*
        // scope: detect by re-walking its column refs against our
        // relations minus its own.
        let mut driving: Option<usize> = None;
        let mut check = |col: &ColRef| {
            if let Some(q) = &col.qualifier {
                if bound.relations.iter().any(|r| &r.alias == q) {
                    return;
                }
                if let Some(idx) = scope.rel_by_alias(q) {
                    driving.get_or_insert(idx);
                }
            } else {
                // Unqualified: correlated only if no inner relation has
                // the column but an outer one does.
                let inner_has = bound.relations.iter().any(|r| {
                    self.catalog
                        .table(&r.table)
                        .is_some_and(|t| t.column(&col.column).is_some())
                });
                if !inner_has {
                    for (idx, r) in scope.relations.iter().enumerate() {
                        if self
                            .catalog
                            .table(&r.table)
                            .is_some_and(|t| t.column(&col.column).is_some())
                        {
                            driving.get_or_insert(idx);
                            break;
                        }
                    }
                }
            }
        };
        walk_select_columns(query, &mut check);
        Ok(SubPlan {
            query: bound,
            executions: match driving {
                Some(driving_rel) => Executions::PerOuterRow { driving_rel },
                None => Executions::Once,
            },
        })
    }

    /// Resolve a column reference against local relations, then outer
    /// scopes.
    fn resolve_col(&self, col: &ColRef, scope: &Scope, outer: &[OuterAlias]) -> Result<Resolved> {
        if let Some(q) = &col.qualifier {
            let q = q.to_ascii_lowercase();
            if let Some(rel) = scope.rel_by_alias(&q) {
                let table = self
                    .catalog
                    .table(&scope.relations[rel].table)
                    .expect("bound table must exist");
                let cd = table
                    .column(&col.column.to_ascii_lowercase())
                    .ok_or_else(|| DbError::Bind(format!("unknown column {q}.{}", col.column)))?;
                return Ok(Resolved::Local {
                    rel,
                    ndv: cd.ndv,
                    width: cd.avg_width,
                    column: cd.name.clone(),
                });
            }
            if outer.iter().any(|o| o.alias == q) {
                return Ok(Resolved::Outer);
            }
            return Err(DbError::Bind(format!("unknown alias {q}")));
        }
        // Unqualified: first local relation owning the column wins.
        let name = col.column.to_ascii_lowercase();
        for (rel, r) in scope.relations.iter().enumerate() {
            if let Some(cd) = self.catalog.table(&r.table).and_then(|t| t.column(&name)) {
                return Ok(Resolved::Local {
                    rel,
                    ndv: cd.ndv,
                    width: cd.avg_width,
                    column: cd.name.clone(),
                });
            }
        }
        for o in outer {
            if self
                .catalog
                .table(&o.table)
                .is_some_and(|t| t.column(&name).is_some())
            {
                return Ok(Resolved::Outer);
            }
        }
        Err(DbError::Bind(format!("unknown column {}", col.column)))
    }

    /// Resolve the column underlying an expression, if the expression
    /// is column-rooted (a bare column or arithmetic over one column).
    fn resolve_expr_col(
        &self,
        expr: &Expr,
        scope: &Scope,
        outer: &[OuterAlias],
    ) -> Result<Option<Resolved>> {
        match first_column(expr) {
            Some(col) => self.resolve_col(&col, scope, outer).map(Some),
            None => Ok(None),
        }
    }

    /// Count scalar operators an expression evaluates per row.
    fn expr_ops(&self, expr: &Expr) -> f64 {
        let mut n = 0.0;
        expr.visit(&mut |e| match e {
            Expr::Binary { .. } | Expr::Agg { .. } => n += 1.0,
            Expr::Func { args, .. } => n += 1.0 + args.len() as f64,
            Expr::Like { .. } => n += LIKE_OPS,
            Expr::Between { .. } => n += 2.0,
            _ => {}
        });
        n
    }

    fn track_referenced(&self, expr: &Expr, scope: &mut Scope, outer: &[OuterAlias]) -> Result<()> {
        let mut cols = Vec::new();
        expr.visit(&mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c.clone());
            }
        });
        for c in cols {
            if let Resolved::Local {
                rel, column, width, ..
            } = self.resolve_col(&c, scope, outer)?
            {
                note_referenced(scope, rel, &column, width);
            }
        }
        Ok(())
    }
}

fn note_referenced(scope: &mut Scope, rel: usize, column: &str, _width: f64) {
    let list = &mut scope.referenced[rel];
    if !list.iter().any(|c| c == column) {
        list.push(column.to_string());
    }
}

fn apply_to_relation(
    scope: &mut Scope,
    rel: usize,
    sel: f64,
    ops: f64,
    index: Option<IndexFilter>,
) {
    let r = &mut scope.relations[rel];
    r.filter_sel = (r.filter_sel * sel).clamp(0.0, 1.0);
    r.filter_ops += ops;
    if let Some(ix) = index {
        let better = r.index_filter.as_ref().is_none_or(|old| ix.sel < old.sel);
        if better {
            r.index_filter = Some(ix);
        }
    }
}

/// First column reference in an expression, in visit order.
fn first_column(expr: &Expr) -> Option<ColRef> {
    let mut found = None;
    expr.visit(&mut |e| {
        if found.is_none() {
            if let Expr::Column(c) = e {
                found = Some(c.clone());
            }
        }
    });
    found
}

/// Walk all column references in a select statement (without entering
/// nested subqueries — their correlation is handled when they are bound
/// themselves).
fn walk_select_columns(stmt: &SelectStmt, f: &mut impl FnMut(&ColRef)) {
    let visit_expr = |e: &Expr, f: &mut dyn FnMut(&ColRef)| {
        e.visit(&mut |x| {
            if let Expr::Column(c) = x {
                f(c);
            }
        });
    };
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit_expr(expr, f);
        }
    }
    if let Some(w) = &stmt.where_clause {
        visit_expr(w, f);
    }
    for c in &stmt.group_by {
        f(c);
    }
    if let Some(h) = &stmt.having {
        visit_expr(h, f);
    }
    for (c, _) in &stmt.order_by {
        f(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{table, IndexDef};

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
                ("o_orderdate", 2_400.0, 8.0),
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
                ("l_extendedprice", 1_000_000.0, 8.0),
            ],
        ));
        c.add_index(IndexDef {
            name: "orders_pk".into(),
            table: "orders".into(),
            column: "o_orderkey".into(),
        })
        .unwrap();
        c.add_index(IndexDef {
            name: "lineitem_ok".into(),
            table: "lineitem".into(),
            column: "l_orderkey".into(),
        })
        .unwrap();
        c
    }

    #[test]
    fn binds_single_table_with_eq_filter() {
        let q = bind_statement(
            "SELECT o_totalprice FROM orders WHERE o_custkey = 42",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.relations.len(), 1);
        let r = &q.relations[0];
        assert!((r.filter_sel - 1.0 / 100_000.0).abs() < 1e-12);
        assert!(r.index_filter.is_none()); // o_custkey is not indexed
    }

    #[test]
    fn equality_on_indexed_column_is_index_usable() {
        let q = bind_statement("SELECT * FROM orders WHERE o_orderkey = 7", &cat()).unwrap();
        let ix = q.relations[0].index_filter.as_ref().unwrap();
        assert_eq!(ix.index, "orders_pk");
        assert!((ix.sel - 1.0 / 1_500_000.0).abs() < 1e-12);
    }

    #[test]
    fn join_edge_with_classic_selectivity() {
        let q = bind_statement(
            "SELECT * FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        let e = &q.joins[0];
        assert!((e.sel - 1.0 / 1_500_000.0).abs() < 1e-18);
        assert_eq!(e.b_column.as_deref(), Some("l_orderkey"));
    }

    #[test]
    fn hint_overrides_selectivity() {
        let q = bind_statement(
            "SELECT * FROM lineitem WHERE l_quantity < 24 /*+ sel 0.45 */",
            &cat(),
        )
        .unwrap();
        assert!((q.relations[0].filter_sel - 0.45).abs() < 1e-12);
    }

    #[test]
    fn group_by_produces_aggregate_spec() {
        let q = bind_statement(
            "SELECT o_custkey, sum(o_totalprice) FROM orders GROUP BY o_custkey",
            &cat(),
        )
        .unwrap();
        let agg = q.agg.as_ref().unwrap();
        assert!((agg.group_ndv - 100_000.0).abs() < 1e-9);
        assert_eq!(agg.group_cols, 1);
    }

    #[test]
    fn plain_aggregate_has_single_group() {
        let q = bind_statement("SELECT count(*) FROM lineitem", &cat()).unwrap();
        let agg = q.agg.as_ref().unwrap();
        assert_eq!(agg.group_ndv, 1.0);
        assert_eq!(agg.group_cols, 0);
    }

    #[test]
    fn correlated_subquery_detected() {
        let q = bind_statement(
            "SELECT * FROM orders o WHERE o_totalprice > \
             (SELECT avg(l_extendedprice) FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.subplans.len(), 1);
        assert!(matches!(
            q.subplans[0].executions,
            Executions::PerOuterRow { driving_rel: 0 }
        ));
        // Correlation predicate acts as an indexed equality filter in
        // the subquery.
        let inner = &q.subplans[0].query.relations[0];
        assert!(inner.index_filter.is_some());
        assert!(inner.filter_sel < 1e-5);
    }

    #[test]
    fn uncorrelated_subquery_runs_once() {
        let q = bind_statement(
            "SELECT * FROM orders WHERE o_custkey IN (SELECT l_partkey FROM lineitem)",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.subplans.len(), 1);
        assert!(matches!(q.subplans[0].executions, Executions::Once));
    }

    #[test]
    fn update_produces_write_spec() {
        let q = bind_statement(
            "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey = 5",
            &cat(),
        )
        .unwrap();
        let w = q.write.as_ref().unwrap();
        assert_eq!(w.op, WriteOp::Update);
        assert_eq!(w.index_count, 1);
        assert!((w.rows - 1.0).abs() < 1e-9);
    }

    #[test]
    fn insert_counts_rows() {
        let q = bind_statement(
            "INSERT INTO orders VALUES (1, 2, 3, 4), (5, 6, 7, 8)",
            &cat(),
        )
        .unwrap();
        let w = q.write.as_ref().unwrap();
        assert_eq!(w.op, WriteOp::Insert);
        assert_eq!(w.rows, 2.0);
    }

    #[test]
    fn delete_estimates_affected_rows() {
        let q = bind_statement("DELETE FROM lineitem WHERE l_partkey = 9", &cat()).unwrap();
        let w = q.write.as_ref().unwrap();
        assert_eq!(w.op, WriteOp::Delete);
        assert!((w.rows - 6_000_000.0 / 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(bind_statement("SELECT * FROM nope", &cat()).is_err());
        assert!(bind_statement("SELECT bogus FROM orders", &cat()).is_err());
        assert!(bind_statement("SELECT o.bogus FROM orders o", &cat()).is_err());
        assert!(bind_statement("SELECT x.o_orderkey FROM orders o", &cat()).is_err());
    }

    #[test]
    fn duplicate_alias_is_an_error() {
        assert!(bind_statement("SELECT * FROM orders o, lineitem o", &cat()).is_err());
    }

    #[test]
    fn projected_width_tracks_referenced_columns() {
        let narrow = bind_statement("SELECT o_orderkey FROM orders", &cat()).unwrap();
        let wide = bind_statement("SELECT * FROM orders", &cat()).unwrap();
        assert!(narrow.relations[0].projected_width < wide.relations[0].projected_width);
        assert_eq!(wide.relations[0].projected_width, 120.0);
    }

    #[test]
    fn or_predicates_combine_disjunctively() {
        let q = bind_statement(
            "SELECT * FROM lineitem WHERE l_quantity = 1 OR l_quantity = 2",
            &cat(),
        )
        .unwrap();
        let expect = 1.0 - (1.0 - 0.02) * (1.0 - 0.02);
        assert!((q.relations[0].filter_sel - expect).abs() < 1e-9);
    }

    #[test]
    fn query_id_is_stable_hash_of_text() {
        let a = bind_statement("SELECT count(*) FROM orders", &cat()).unwrap();
        let b = bind_statement("SELECT count(*) FROM orders", &cat()).unwrap();
        let c = bind_statement("SELECT count(*) FROM lineitem", &cat()).unwrap();
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    /// `FROM orders o0, orders o1, …` over `n` aliases.
    fn orders_from(n: usize) -> String {
        (0..n)
            .map(|i| format!("orders o{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    #[test]
    fn query_blocks_over_the_join_limit_are_rejected() {
        let limit = MAX_JOIN_RELATIONS;
        let at_limit = format!("SELECT count(*) FROM {}", orders_from(limit));
        assert_eq!(
            bind_statement(&at_limit, &cat()).unwrap().relations.len(),
            limit
        );

        let over = format!("SELECT count(*) FROM {}", orders_from(limit + 1));
        assert!(matches!(
            bind_statement(&over, &cat()),
            Err(DbError::Bind(_))
        ));

        // A subquery block is held to the same limit.
        let nested = format!(
            "SELECT count(*) FROM lineitem l WHERE l.l_orderkey IN \
             (SELECT o0.o_orderkey FROM {})",
            orders_from(limit + 1)
        );
        assert!(matches!(
            bind_statement(&nested, &cat()),
            Err(DbError::Bind(_))
        ));
    }
}
