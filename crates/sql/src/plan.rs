//! Logical plans and name resolution.
//!
//! [`plan_select`] turns a parsed [`SelectStmt`] into a small logical
//! [`Plan`] tree: scans with pushed-down predicates, a left-deep tree
//! of hash equi-joins ordered by estimated input cardinality (smallest
//! first), residual filters, aggregation, sorting, projection, and
//! limit. Cardinality estimates come from a [`SelectivityEstimator`]
//! hook (histograms, when the caller has them) with a predicate-shape
//! heuristic fallback; estimates never consult secondary indices, so
//! the join order — and therefore the result row sequence — is
//! identical with and without indices present. The physical layer in
//! [`crate::phys`] lowers this tree to access paths; the executor in
//! [`crate::exec`] runs it.

use std::borrow::Cow;

use bestpeer_common::{Error, Result, Row, SharedRow, Value};
use bestpeer_storage::Database;

use crate::ast::{AggFunc, ArithOp, CmpOp, ColumnRef, Expr, SelectItem, SelectStmt};

/// The output "schema" of a plan node: for each column position, its
/// optional table qualifier and its name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Binding {
    cols: Vec<(Option<String>, String)>,
}

impl Binding {
    /// An empty binding.
    pub fn new() -> Self {
        Binding::default()
    }

    /// Build from `(qualifier, name)` pairs.
    pub fn from_cols(cols: Vec<(Option<String>, String)>) -> Self {
        Binding { cols }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Concatenate two bindings (join output).
    pub fn concat(&self, other: &Binding) -> Binding {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Binding { cols }
    }

    /// The `(qualifier, name)` pair at position `i`.
    pub fn col(&self, i: usize) -> &(Option<String>, String) {
        &self.cols[i]
    }

    /// Resolve a column reference to a position. Unqualified references
    /// must be unambiguous across the binding.
    pub fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        let mut found = None;
        for (i, (tbl, name)) in self.cols.iter().enumerate() {
            let table_ok = match (&c.table, tbl) {
                (Some(want), Some(have)) => want == have,
                (Some(_), None) => false,
                (None, _) => true,
            };
            if table_ok && *name == c.column {
                if found.is_some() {
                    return Err(Error::Plan(format!("ambiguous column reference `{c}`")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| Error::Plan(format!("unresolved column `{c}`")))
    }

    /// Whether every column referenced by `e` resolves in this binding.
    pub fn covers(&self, e: &Expr) -> bool {
        e.referenced_columns()
            .iter()
            .all(|c| self.resolve(c).is_ok())
    }

    /// The binding as a SELECT list: one column reference per position,
    /// aliased to its bare name. `SELECT *` expands to this, and a
    /// pushed-down subquery projects its pruned columns with it.
    pub fn select_items(&self) -> Vec<SelectItem> {
        self.cols
            .iter()
            .map(|(t, n)| SelectItem {
                expr: Expr::Column(match t {
                    Some(t) => ColumnRef::qualified(t.clone(), n.clone()),
                    None => ColumnRef::new(n.clone()),
                }),
                alias: Some(n.clone()),
            })
            .collect()
    }
}

/// Cardinality-estimation hook for the planner.
///
/// `selectivity` returns the estimated fraction (0..=1) of `table`'s
/// rows that satisfy *all* of `predicates`, or `None` when the source
/// has no information about the table — the planner then falls back to
/// a predicate-shape heuristic. Implementations must not consult
/// secondary indices: the estimate drives join ordering, which must be
/// invariant under index creation/drop so that access-path choice never
/// changes the visible row sequence. `bestpeer-core` implements this
/// over its §5.1 MHIST histograms.
pub trait SelectivityEstimator {
    /// Estimated fraction of `table`'s rows satisfying every predicate.
    fn selectivity(&self, table: &str, predicates: &[Expr]) -> Option<f64>;
}

/// The no-information estimator: every query falls back to the
/// predicate-shape heuristic. Used by [`plan_select`] and by peers
/// executing subqueries without global statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoStats;

impl SelectivityEstimator for NoStats {
    fn selectivity(&self, _table: &str, _predicates: &[Expr]) -> Option<f64> {
        None
    }
}

/// Predicate-shape selectivity heuristic, used when no estimator covers
/// a table: equality keeps ~1/10 of rows, a one-sided range ~1/3, and
/// anything else (inequality, complex boolean) is assumed unselective.
/// The product over conjuncts is clamped away from zero so empty-looking
/// tables still order deterministically.
fn heuristic_selectivity(filters: &[Expr]) -> f64 {
    let mut sel = 1.0f64;
    for f in filters {
        sel *= match f.as_column_literal() {
            Some((_, CmpOp::Eq, _)) => 0.1,
            Some((_, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, _)) => 1.0 / 3.0,
            _ => 1.0,
        };
    }
    sel.max(1e-4)
}

/// Estimated output rows of a scan of `table` under `filters`, for join
/// ordering. Uses the estimator when it covers the table, else the
/// shape heuristic. Index-independent by construction.
pub(crate) fn estimated_scan_rows(
    est: &dyn SelectivityEstimator,
    table: &str,
    table_rows: usize,
    filters: &[Expr],
) -> f64 {
    let sel = est
        .selectivity(table, filters)
        .unwrap_or_else(|| heuristic_selectivity(filters))
        .clamp(0.0, 1.0);
    table_rows as f64 * sel
}

/// Positional access to one input row's values: a stored [`Row`], or
/// a joined tuple the submitter's join stage ([`crate::join`]) never
/// materializes. Bound expressions evaluate over either.
pub trait Columns {
    /// The value at position `i` of the row's binding.
    fn column(&self, i: usize) -> &Value;
}

impl Columns for Row {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        self.get(i)
    }
}

impl Columns for SharedRow {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        self.get(i)
    }
}

/// A scalar [`Expr`] bound to a [`Binding`]: every column reference is
/// a row position, so evaluating it never looks up a name. Operators
/// bind their expressions once per execution and evaluate the bound
/// form on every row.
///
/// Binding never fails. A reference that does not resolve, and an
/// aggregate call outside an aggregation, bind to a [`ResolvedExpr::Fail`]
/// node that raises the error only when a row evaluates it. An operator
/// over zero rows, or a conjunct that an earlier one short-circuits,
/// therefore succeeds exactly as name-by-name evaluation would.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedExpr {
    /// The value at this position of the row.
    Column(usize),
    /// A literal constant.
    Literal(Value),
    /// Comparison producing a boolean.
    Cmp(Box<ResolvedExpr>, CmpOp, Box<ResolvedExpr>),
    /// Arithmetic over numerics.
    Arith(Box<ResolvedExpr>, ArithOp, Box<ResolvedExpr>),
    /// Conjunction.
    And(Box<ResolvedExpr>, Box<ResolvedExpr>),
    /// Disjunction.
    Or(Box<ResolvedExpr>, Box<ResolvedExpr>),
    /// Raises this error whenever a row evaluates it.
    Fail(Error),
}

impl ResolvedExpr {
    /// Bind `e` to the rows described by `b`.
    pub fn bind(e: &Expr, b: &Binding) -> ResolvedExpr {
        let pair = |l: &Expr, r: &Expr| (Box::new(Self::bind(l, b)), Box::new(Self::bind(r, b)));
        match e {
            Expr::Column(c) => b.resolve(c).map_or_else(Self::Fail, Self::Column),
            Expr::Literal(v) => Self::Literal(v.clone()),
            Expr::Cmp { left, op, right } => {
                let (l, r) = pair(left, right);
                Self::Cmp(l, *op, r)
            }
            Expr::Arith { left, op, right } => {
                let (l, r) = pair(left, right);
                Self::Arith(l, *op, r)
            }
            Expr::And(x, y) => {
                let (l, r) = pair(x, y);
                Self::And(l, r)
            }
            Expr::Or(x, y) => {
                let (l, r) = pair(x, y);
                Self::Or(l, r)
            }
            Expr::Agg { .. } => Self::Fail(Error::Plan(format!(
                "aggregate `{e}` evaluated outside an aggregation context"
            ))),
        }
    }

    /// Bind each of `exprs` to `b`.
    pub fn bind_all(exprs: &[Expr], b: &Binding) -> Vec<ResolvedExpr> {
        exprs.iter().map(|e| Self::bind(e, b)).collect()
    }

    /// Evaluate over one row of the bound binding. Columns and literals
    /// are borrowed, never cloned; booleans are `Int(1)` / `Int(0)`.
    pub fn value<'a, R: Columns + ?Sized>(&'a self, row: &'a R) -> Result<Cow<'a, Value>> {
        Ok(match self {
            Self::Column(i) => Cow::Borrowed(row.column(*i)),
            Self::Literal(v) => Cow::Borrowed(v),
            Self::Cmp(..) | Self::And(..) | Self::Or(..) => {
                Cow::Owned(Value::Int(self.holds(row)? as i64))
            }
            Self::Arith(l, op, r) => {
                let (l, r) = (l.value(row)?, r.value(row)?);
                Cow::Owned(match op {
                    ArithOp::Add => l.checked_add(&r)?,
                    ArithOp::Sub => l.checked_sub(&r)?,
                    ArithOp::Mul => l.checked_mul(&r)?,
                    ArithOp::Div if l.is_null() || r.is_null() => Value::Null,
                    ArithOp::Div => {
                        let d = r.as_f64()?;
                        if d == 0.0 {
                            Value::Null
                        } else {
                            Value::Float(l.as_f64()? / d)
                        }
                    }
                })
            }
            Self::Fail(err) => return Err(err.clone()),
        })
    }

    /// Evaluate as a predicate: NULL is false, and a value that is not
    /// a boolean is a type error.
    pub fn holds<R: Columns + ?Sized>(&self, row: &R) -> Result<bool> {
        match self {
            Self::Cmp(l, op, r) => Ok(op.eval(&*l.value(row)?, &*r.value(row)?)),
            Self::And(x, y) => Ok(x.holds(row)? && y.holds(row)?),
            Self::Or(x, y) => Ok(x.holds(row)? || y.holds(row)?),
            _ => match &*self.value(row)? {
                Value::Int(v) => Ok(*v != 0),
                Value::Null => Ok(false),
                other => Err(Error::Type(format!(
                    "predicate evaluated to non-boolean {other:?}"
                ))),
            },
        }
    }
}

/// One aggregate computed by an [`Plan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument (None = `COUNT(*)`).
    pub arg: Option<Expr>,
    /// The output column name (display form of the original call).
    pub name: String,
}

/// What a statement outputs, decided once for every planner: the local
/// planner's Aggregate and Project nodes, the partial/final aggregate
/// split, ParallelP2P's group-by and root levels, and the MapReduce
/// compiler's reducers all read it from here.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputStage {
    /// The distinct aggregate calls the statement computes, by display
    /// form, in first-appearance order over the projections and then
    /// ORDER BY; empty for a non-aggregate statement.
    pub aggs: Vec<AggItem>,
    /// What `exprs` evaluate against: the aggregate output (group
    /// displays, then aggregate names) for an aggregate statement, the
    /// input binding otherwise.
    pub binding: Binding,
    /// The output expressions, with `SELECT *` expanded and, for an
    /// aggregate statement, rewritten by [`rewrite_post_agg`].
    pub exprs: Vec<Expr>,
    /// The output column names.
    pub columns: Vec<String>,
    /// `exprs` bound to `binding`, for [`OutputStage::project`].
    resolved: Vec<ResolvedExpr>,
}

impl OutputStage {
    /// The output stage of `stmt` over rows bound by `input`.
    pub fn new(stmt: &SelectStmt, input: &Binding) -> OutputStage {
        let star;
        let items = if stmt.projections.is_empty() {
            star = input.select_items();
            &star
        } else {
            &stmt.projections
        };
        let columns = items.iter().map(SelectItem::output_name).collect();
        let (aggs, binding, exprs) = if stmt.is_aggregate() {
            let mut aggs = Vec::new();
            let order_keys = stmt.order_by.iter().map(|k| &k.expr);
            for e in items.iter().map(|it| &it.expr).chain(order_keys) {
                collect_aggs(e, &mut aggs);
            }
            let groups = stmt.group_by.iter().map(|g| g.to_string());
            let names = groups.chain(aggs.iter().map(|a| a.name.clone()));
            let binding = Binding::from_cols(names.map(|n| (None, n)).collect());
            let exprs = items
                .iter()
                .map(|it| rewrite_post_agg(&it.expr, &stmt.group_by));
            (aggs, binding, exprs.collect())
        } else {
            let exprs = items.iter().map(|it| it.expr.clone());
            (Vec::new(), input.clone(), exprs.collect::<Vec<_>>())
        };
        OutputStage {
            resolved: ResolvedExpr::bind_all(&exprs, &binding),
            aggs,
            binding,
            exprs,
            columns,
        }
    }

    /// Evaluate the output expressions over one row bound by
    /// [`OutputStage::binding`].
    pub fn project<R: Columns + ?Sized>(&self, row: &R) -> Result<Row> {
        let vals = self.resolved.iter().map(|e| Ok(e.value(row)?.into_owned()));
        Ok(Row::new(vals.collect::<Result<_>>()?))
    }
}

/// A logical plan node. Every node carries its output [`Binding`].
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan one table; `filters` are the predicates pushed to the scan
    /// (the executor chooses an index when one applies).
    Scan {
        /// Table name.
        table: String,
        /// Pushed-down single-table predicates.
        filters: Vec<Expr>,
        /// Output binding (the table's columns, qualified).
        binding: Binding,
    },
    /// Hash equi-join of two inputs.
    HashJoin {
        /// Build side.
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Join key position in the left binding.
        left_key: usize,
        /// Join key position in the right binding.
        right_key: usize,
        /// Output binding (left ++ right).
        binding: Binding,
    },
    /// Cartesian product (fallback when no equi-join predicate links the
    /// inputs; residual predicates are applied by a `Filter` above).
    CrossJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Output binding (left ++ right).
        binding: Binding,
    },
    /// Residual predicate filter.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Conjuncts to apply.
        predicates: Vec<Expr>,
        /// Output binding (same as input).
        binding: Binding,
    },
    /// Grouped aggregation. Output columns: the group expressions (by
    /// display name) followed by the aggregates.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by expressions (empty = single global group).
        group: Vec<Expr>,
        /// Aggregates to compute.
        aggs: Vec<AggItem>,
        /// Output binding.
        binding: Binding,
    },
    /// Sort by keys (expression, descending?).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<(Expr, bool)>,
        /// Output binding (same as input).
        binding: Binding,
    },
    /// Final projection.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Expressions to output.
        exprs: Vec<Expr>,
        /// Output column names.
        names: Vec<String>,
        /// Output binding.
        binding: Binding,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum number of rows.
        n: usize,
        /// Output binding (same as input).
        binding: Binding,
    },
}

impl Plan {
    /// This node's output binding.
    pub fn binding(&self) -> &Binding {
        match self {
            Plan::Scan { binding, .. }
            | Plan::HashJoin { binding, .. }
            | Plan::CrossJoin { binding, .. }
            | Plan::Filter { binding, .. }
            | Plan::Aggregate { binding, .. }
            | Plan::Sort { binding, .. }
            | Plan::Project { binding, .. }
            | Plan::Limit { binding, .. } => binding,
        }
    }

    /// Names of the output columns.
    pub fn output_names(&self) -> Vec<String> {
        self.binding().cols.iter().map(|(_, n)| n.clone()).collect()
    }
}

impl Plan {
    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table, filters, .. } => {
                out.push_str(&format!("{pad}Scan {table}"));
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                    out.push_str(&format!(" [{}]", fs.join(" AND ")));
                }
                out.push('\n');
            }
            Plan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                binding,
            } => {
                let (_, lname) = binding.col(*left_key);
                let (_, rname) = binding.col(left.binding().arity() + *right_key);
                out.push_str(&format!("{pad}HashJoin on {lname} = {rname}\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::CrossJoin { left, right, .. } => {
                out.push_str(&format!("{pad}CrossJoin\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::Filter {
                input, predicates, ..
            } => {
                let fs: Vec<String> = predicates.iter().map(|f| f.to_string()).collect();
                out.push_str(&format!("{pad}Filter [{}]\n", fs.join(" AND ")));
                input.explain_into(depth + 1, out);
            }
            Plan::Aggregate {
                input, group, aggs, ..
            } => {
                let gs: Vec<String> = group.iter().map(|g| g.to_string()).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.name.clone()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate group=[{}] aggs=[{}]\n",
                    gs.join(", "),
                    as_.join(", ")
                ));
                input.explain_into(depth + 1, out);
            }
            Plan::Sort { input, keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort [{}]\n", ks.join(", ")));
                input.explain_into(depth + 1, out);
            }
            Plan::Project { input, names, .. } => {
                out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                input.explain_into(depth + 1, out);
            }
            Plan::Limit { input, n, .. } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

impl std::fmt::Display for Plan {
    /// EXPLAIN-style rendering of the operator tree, one operator per
    /// line, children indented.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        f.write_str(out.trim_end())
    }
}

/// Build a logical plan for `stmt` against the catalog in `db`, with no
/// external statistics (join ordering uses the shape heuristic).
pub fn plan_select(stmt: &SelectStmt, db: &Database) -> Result<Plan> {
    plan_select_with(stmt, db, &NoStats)
}

/// Build a logical plan for `stmt`, ordering the join tree by estimated
/// input cardinality from `est` (smallest estimated input first; ties
/// break on FROM order).
pub fn plan_select_with(
    stmt: &SelectStmt,
    db: &Database,
    est: &dyn SelectivityEstimator,
) -> Result<Plan> {
    if stmt.from.is_empty() {
        return Err(Error::Plan("FROM clause is empty".into()));
    }
    // Substitute SELECT-list aliases into ORDER BY before planning.
    let order_by: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .map(|k| (substitute_aliases(&k.expr, &stmt.projections), k.desc))
        .collect();

    // 1. Per-table scans with single-table predicate pushdown. A
    //    predicate referencing an unqualified column that exists in
    //    more than one FROM table must fail resolution (as it would
    //    against the joined binding) rather than silently binding to
    //    the first table in FROM order.
    let mut bindings: Vec<Binding> = Vec::with_capacity(stmt.from.len());
    for table in &stmt.from {
        let schema = db.table(table)?.schema().clone();
        bindings.push(Binding::from_cols(
            schema
                .columns
                .iter()
                .map(|c| (Some(table.clone()), c.name.clone()))
                .collect(),
        ));
    }
    for p in &stmt.predicates {
        if p.as_equi_join().is_some() {
            continue;
        }
        for cref in p.referenced_columns() {
            if cref.table.is_some() {
                continue;
            }
            let homes = bindings.iter().filter(|b| b.resolve(cref).is_ok()).count();
            if homes > 1 {
                return Err(Error::Plan(format!("ambiguous column reference `{cref}`")));
            }
        }
    }
    let mut scans: Vec<Plan> = Vec::with_capacity(stmt.from.len());
    let mut remaining: Vec<Expr> = Vec::new();
    let mut pushed = vec![false; stmt.predicates.len()];
    for (table, binding) in stmt.from.iter().zip(bindings) {
        let mut filters = Vec::new();
        for (i, p) in stmt.predicates.iter().enumerate() {
            if !pushed[i] && p.as_equi_join().is_none() && binding.covers(p) {
                filters.push(p.clone());
                pushed[i] = true;
            }
        }
        scans.push(Plan::Scan {
            table: table.clone(),
            filters,
            binding,
        });
    }
    for (i, p) in stmt.predicates.iter().enumerate() {
        if !pushed[i] {
            remaining.push(p.clone());
        }
    }

    // 2. Left-deep join tree ordered by estimated cardinality: start
    //    from the smallest estimated scan, then repeatedly join in the
    //    smallest pending scan connected to the prefix by an equi-join
    //    conjunct (cross join with the smallest pending scan when none
    //    connects). Ties break on FROM order, and estimates never look
    //    at indices, so the tree shape is stable under index changes.
    let scan_estimate = |scan: &Plan| -> Result<f64> {
        let Plan::Scan { table, filters, .. } = scan else {
            return Err(Error::Internal("join ordering over non-scan".into()));
        };
        Ok(estimated_scan_rows(
            est,
            table,
            db.table(table)?.len(),
            filters,
        ))
    };
    let mut pending: Vec<(Plan, f64)> = Vec::with_capacity(scans.len());
    for scan in scans {
        let e = scan_estimate(&scan)?;
        pending.push((scan, e));
    }
    let mut start = 0;
    for i in 1..pending.len() {
        if pending[i].1 < pending[start].1 {
            start = i;
        }
    }
    let mut plan = pending.remove(start).0;
    while !pending.is_empty() {
        // The first predicate connecting each pending scan to the prefix.
        let connection = |scan: &Plan| -> Option<(usize, usize, usize)> {
            let (lb, rb) = (plan.binding(), scan.binding());
            for (pi, p) in remaining.iter().enumerate() {
                if let Some((a, b)) = p.as_equi_join() {
                    if let (Ok(lk), Ok(rk)) = (lb.resolve(a), rb.resolve(b)) {
                        return Some((pi, lk, rk));
                    }
                    if let (Ok(lk), Ok(rk)) = (lb.resolve(b), rb.resolve(a)) {
                        return Some((pi, lk, rk));
                    }
                }
            }
            None
        };
        // (scan idx, pred idx, lkey, rkey) of the smallest connected scan.
        let mut chosen: Option<(usize, usize, usize, usize)> = None;
        let mut chosen_est = f64::INFINITY;
        for (si, (scan, e)) in pending.iter().enumerate() {
            if let Some((pi, lk, rk)) = connection(scan) {
                if chosen.is_none() || *e < chosen_est {
                    chosen = Some((si, pi, lk, rk));
                    chosen_est = *e;
                }
            }
        }
        match chosen {
            Some((si, pi, left_key, right_key)) => {
                let (right, _) = pending.remove(si);
                remaining.remove(pi);
                let binding = plan.binding().concat(right.binding());
                plan = Plan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    left_key,
                    right_key,
                    binding,
                };
            }
            None => {
                let mut smallest = 0;
                for i in 1..pending.len() {
                    if pending[i].1 < pending[smallest].1 {
                        smallest = i;
                    }
                }
                let (right, _) = pending.remove(smallest);
                let binding = plan.binding().concat(right.binding());
                plan = Plan::CrossJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    binding,
                };
            }
        }
        // Any remaining predicate now covered becomes an eager filter.
        let covered: Vec<Expr> = {
            let b = plan.binding();
            let mut cov = Vec::new();
            remaining.retain(|p| {
                if b.covers(p) {
                    cov.push(p.clone());
                    false
                } else {
                    true
                }
            });
            cov
        };
        if !covered.is_empty() {
            let binding = plan.binding().clone();
            plan = Plan::Filter {
                input: Box::new(plan),
                predicates: covered,
                binding,
            };
        }
    }
    if !remaining.is_empty() {
        return Err(Error::Plan(format!(
            "unresolvable predicate(s): {}",
            remaining
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }

    // 3. Aggregation, ordering, projection, limit.
    let out = OutputStage::new(stmt, plan.binding());
    let keys = if stmt.is_aggregate() {
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group: stmt.group_by.clone(),
            aggs: out.aggs,
            binding: out.binding,
        };
        // Order keys reference the aggregate output, like the projections.
        order_by
            .iter()
            .map(|(e, d)| (rewrite_post_agg(e, &stmt.group_by), *d))
            .collect()
    } else {
        order_by
    };
    if !keys.is_empty() {
        let binding = plan.binding().clone();
        plan = Plan::Sort {
            input: Box::new(plan),
            keys,
            binding,
        };
    }
    let binding = Binding::from_cols(out.columns.iter().map(|n| (None, n.clone())).collect());
    plan = Plan::Project {
        input: Box::new(plan),
        exprs: out.exprs,
        names: out.columns,
        binding,
    };

    if let Some(n) = stmt.limit {
        let binding = plan.binding().clone();
        plan = Plan::Limit {
            input: Box::new(plan),
            n,
            binding,
        };
    }
    Ok(plan)
}

/// Replace references to SELECT-list aliases with the aliased expression
/// (so `ORDER BY revenue` works).
pub(crate) fn substitute_aliases(e: &Expr, items: &[SelectItem]) -> Expr {
    if let Expr::Column(c) = e {
        if c.table.is_none() {
            for it in items {
                if it.alias.as_deref() == Some(c.column.as_str()) {
                    return it.expr.clone();
                }
            }
        }
    }
    match e {
        Expr::Cmp { left, op, right } => Expr::Cmp {
            left: Box::new(substitute_aliases(left, items)),
            op: *op,
            right: Box::new(substitute_aliases(right, items)),
        },
        Expr::Arith { left, op, right } => Expr::Arith {
            left: Box::new(substitute_aliases(left, items)),
            op: *op,
            right: Box::new(substitute_aliases(right, items)),
        },
        Expr::And(a, b) => Expr::And(
            Box::new(substitute_aliases(a, items)),
            Box::new(substitute_aliases(b, items)),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(substitute_aliases(a, items)),
            Box::new(substitute_aliases(b, items)),
        ),
        other => other.clone(),
    }
}

/// Append the aggregate calls within `e` not already in `out` (by
/// display form), in first-appearance order.
fn collect_aggs(e: &Expr, out: &mut Vec<AggItem>) {
    match e {
        Expr::Agg { func, arg } => {
            let name = e.to_string();
            if !out.iter().any(|a| a.name == name) {
                out.push(AggItem {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    name,
                });
            }
        }
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_aggs(a, out);
            collect_aggs(b, out);
        }
        Expr::Column(_) | Expr::Literal(_) => {}
    }
}

/// Rewrite an expression for evaluation *above* an Aggregate node:
/// aggregate calls and group expressions become references to the
/// aggregate's output columns (named by display form). Public for the
/// distributed engines, which evaluate final projections over
/// aggregate output assembled outside a plan tree.
pub fn rewrite_post_agg(e: &Expr, group: &[Expr]) -> Expr {
    if group.iter().any(|g| g == e) {
        return Expr::Column(ColumnRef::new(e.to_string()));
    }
    match e {
        Expr::Agg { .. } => Expr::Column(ColumnRef::new(e.to_string())),
        Expr::Cmp { left, op, right } => Expr::Cmp {
            left: Box::new(rewrite_post_agg(left, group)),
            op: *op,
            right: Box::new(rewrite_post_agg(right, group)),
        },
        Expr::Arith { left, op, right } => Expr::Arith {
            left: Box::new(rewrite_post_agg(left, group)),
            op: *op,
            right: Box::new(rewrite_post_agg(right, group)),
        },
        Expr::And(a, b) => Expr::And(
            Box::new(rewrite_post_agg(a, group)),
            Box::new(rewrite_post_agg(b, group)),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(rewrite_post_agg(a, group)),
            Box::new(rewrite_post_agg(b, group)),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use bestpeer_common::{ColumnDef, ColumnType, TableSchema};

    fn test_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "lineitem",
                vec![
                    ColumnDef::new("l_orderkey", ColumnType::Int),
                    ColumnDef::new("l_quantity", ColumnType::Int),
                    ColumnDef::new("l_shipdate", ColumnType::Date),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("o_orderkey", ColumnType::Int),
                    ColumnDef::new("o_totalprice", ColumnType::Float),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn binding_resolution() {
        let b = Binding::from_cols(vec![
            (Some("a".into()), "x".into()),
            (Some("b".into()), "y".into()),
            (Some("b".into()), "x".into()),
        ]);
        assert_eq!(b.resolve(&ColumnRef::qualified("a", "x")).unwrap(), 0);
        assert_eq!(b.resolve(&ColumnRef::new("y")).unwrap(), 1);
        assert!(b.resolve(&ColumnRef::new("x")).is_err(), "ambiguous");
        assert!(b.resolve(&ColumnRef::new("zzz")).is_err());
    }

    #[test]
    fn single_table_predicates_are_pushed() {
        let db = test_db();
        let stmt = parse_select(
            "SELECT l_orderkey FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity > 5 AND o_totalprice < 100.0",
        )
        .unwrap();
        let plan = plan_select(&stmt, &db).unwrap();
        // Expect: Project(HashJoin(Scan(lineitem f=1), Scan(orders f=1)))
        fn find_scans(p: &Plan, out: &mut Vec<(String, usize)>) {
            match p {
                Plan::Scan { table, filters, .. } => out.push((table.clone(), filters.len())),
                Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
                    find_scans(left, out);
                    find_scans(right, out);
                }
                Plan::Filter { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Project { input, .. }
                | Plan::Limit { input, .. } => find_scans(input, out),
            }
        }
        let mut scans = Vec::new();
        find_scans(&plan, &mut scans);
        scans.sort();
        assert_eq!(scans, vec![("lineitem".into(), 1), ("orders".into(), 1)]);
        assert!(matches!(plan, Plan::Project { .. }));
    }

    #[test]
    fn join_becomes_hash_join() {
        let db = test_db();
        let stmt =
            parse_select("SELECT l_quantity FROM lineitem, orders WHERE l_orderkey = o_orderkey")
                .unwrap();
        let plan = plan_select(&stmt, &db).unwrap();
        fn has_hash_join(p: &Plan) -> bool {
            match p {
                Plan::HashJoin { .. } => true,
                Plan::Scan { .. } => false,
                Plan::CrossJoin { left, right, .. } => has_hash_join(left) || has_hash_join(right),
                Plan::Filter { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Project { input, .. }
                | Plan::Limit { input, .. } => has_hash_join(input),
            }
        }
        assert!(has_hash_join(&plan));
    }

    #[test]
    fn missing_table_is_a_plan_error() {
        let db = test_db();
        let stmt = parse_select("SELECT x FROM nosuch").unwrap();
        assert!(plan_select(&stmt, &db).is_err());
    }

    #[test]
    fn aggregate_plan_has_aggregate_node() {
        let db = test_db();
        let stmt = parse_select(
            "SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey ORDER BY q DESC",
        )
        .unwrap();
        let plan = plan_select(&stmt, &db).unwrap();
        fn has_agg(p: &Plan) -> bool {
            match p {
                Plan::Aggregate { .. } => true,
                Plan::Scan { .. } => false,
                Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
                    has_agg(left) || has_agg(right)
                }
                Plan::Filter { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Project { input, .. }
                | Plan::Limit { input, .. } => has_agg(input),
            }
        }
        assert!(has_agg(&plan));
        assert_eq!(plan.output_names(), vec!["l_orderkey", "q"]);
    }

    #[test]
    fn explain_renders_the_operator_tree() {
        let db = test_db();
        let stmt = parse_select(
            "SELECT o_orderkey, SUM(l_quantity) AS q FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_totalprice > 10.0 \
             GROUP BY o_orderkey ORDER BY q DESC LIMIT 3",
        )
        .unwrap();
        let plan = plan_select(&stmt, &db).unwrap();
        let text = plan.to_string();
        assert!(text.starts_with("Limit 3"), "{text}");
        assert!(text.contains("Project [o_orderkey, q]"), "{text}");
        assert!(text.contains("Sort [SUM(l_quantity) DESC]"), "{text}");
        assert!(text.contains("Aggregate group=[o_orderkey]"), "{text}");
        assert!(
            text.contains("HashJoin on l_orderkey = o_orderkey"),
            "{text}"
        );
        assert!(text.contains("Scan orders [o_totalprice > 10"), "{text}");
        assert!(text.contains("Scan lineitem"), "{text}");
    }

    #[test]
    fn eval_arithmetic_and_booleans() {
        let b = Binding::from_cols(vec![(None, "x".into()), (None, "y".into())]);
        let row = Row::new(vec![Value::Int(4), Value::Float(0.5)]);
        let e = parse_select("SELECT x * (1 - y) FROM t")
            .unwrap()
            .projections[0]
            .expr
            .clone();
        let e = ResolvedExpr::bind(&e, &b);
        assert_eq!(e.value(&row).unwrap().into_owned(), Value::Float(2.0));
        let p = parse_select("SELECT a FROM t WHERE x >= 4 AND y < 1")
            .unwrap()
            .predicates[0]
            .clone();
        assert!(ResolvedExpr::bind(&p, &b).holds(&row).unwrap());
        // Columns and literals are borrowed, never cloned.
        let x = ResolvedExpr::bind(&Expr::col("x"), &b);
        assert!(matches!(
            x.value(&row).unwrap(),
            Cow::Borrowed(Value::Int(4))
        ));
    }

    #[test]
    fn binding_defers_errors_to_the_rows_that_evaluate_them() {
        let b = Binding::from_cols(vec![(None, "x".into())]);
        let row = Row::new(vec![Value::Int(1)]);
        let stmt = parse_select("SELECT zzz, SUM(x) FROM t WHERE x > 5 AND zzz = 1").unwrap();
        // Binding succeeds; each failing node raises its error per row.
        let unresolved = ResolvedExpr::bind(&stmt.projections[0].expr, &b);
        assert_eq!(unresolved.value(&row).unwrap_err().kind(), "plan");
        let agg = ResolvedExpr::bind(&stmt.projections[1].expr, &b);
        let err = agg.value(&row).unwrap_err();
        assert!(err.to_string().contains("outside an aggregation"), "{err}");
        // A false left conjunct never reaches the failing right one.
        let p = ResolvedExpr::bind(&stmt.predicates[0], &b);
        let q = ResolvedExpr::bind(&stmt.predicates[1], &b);
        assert!(!p.holds(&row).unwrap());
        let both = ResolvedExpr::And(Box::new(p), Box::new(q.clone()));
        assert!(!both.holds(&row).unwrap());
        assert_eq!(q.holds(&row).unwrap_err().kind(), "plan");
        // A non-boolean predicate is a type error; NULL is false.
        let lit = |v| ResolvedExpr::Literal(v);
        assert_eq!(lit(Value::str("x")).holds(&row).unwrap_err().kind(), "type");
        assert!(!lit(Value::Null).holds(&row).unwrap());
    }

    fn unqualified(names: &[&str]) -> Binding {
        Binding::from_cols(names.iter().map(|n| (None, n.to_string())).collect())
    }

    #[test]
    fn output_stage_collects_each_aggregate_once_in_order() {
        let stmt = parse_select(
            "SELECT l_orderkey, SUM(l_quantity) AS q, SUM(l_quantity) + COUNT(*) AS m \
             FROM lineitem GROUP BY l_orderkey ORDER BY q DESC, MAX(l_quantity), COUNT(*)",
        )
        .unwrap();
        let out = OutputStage::new(&stmt, &Binding::new());
        // The repeated SUM collapses; projections come before ORDER BY;
        // `ORDER BY q` names an alias and adds nothing.
        let names: Vec<&str> = out.aggs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["SUM(l_quantity)", "COUNT(*)", "MAX(l_quantity)"]);
        // Aggregate output: group displays, then aggregate names.
        assert_eq!(
            out.binding,
            unqualified(&[
                "l_orderkey",
                "SUM(l_quantity)",
                "COUNT(*)",
                "MAX(l_quantity)"
            ])
        );
        assert_eq!(out.columns, ["l_orderkey", "q", "m"]);
        let agg_row = Row::new(vec![
            Value::Int(7),
            Value::Int(30),
            Value::Int(4),
            Value::Int(9),
        ]);
        assert_eq!(
            out.project(&agg_row).unwrap(),
            Row::new(vec![Value::Int(7), Value::Int(30), Value::Int(34)])
        );
    }

    #[test]
    fn output_stage_expands_select_star_over_the_input() {
        let input = Binding::from_cols(vec![
            (Some("lineitem".into()), "l_orderkey".into()),
            (Some("orders".into()), "o_totalprice".into()),
        ]);
        let stmt = parse_select("SELECT * FROM lineitem, orders").unwrap();
        let out = OutputStage::new(&stmt, &input);
        assert!(out.aggs.is_empty());
        assert_eq!(out.binding, input);
        assert_eq!(out.columns, ["l_orderkey", "o_totalprice"]);
        assert_eq!(
            out.exprs,
            [
                Expr::Column(ColumnRef::qualified("lineitem", "l_orderkey")),
                Expr::Column(ColumnRef::qualified("orders", "o_totalprice")),
            ]
        );
        let row = Row::new(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(out.project(&row).unwrap(), row);
    }

    fn ambiguous_db() -> Database {
        let mut db = Database::new();
        for name in ["t1", "t2"] {
            db.create_table(
                TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new("x", ColumnType::Int),
                        ColumnDef::new(format!("{name}_only"), ColumnType::Int),
                    ],
                    vec![],
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ambiguous_unqualified_pushdown_column_is_an_error() {
        let db = ambiguous_db();
        let stmt =
            parse_select("SELECT t1_only FROM t1, t2 WHERE t1_only = t2_only AND x > 1").unwrap();
        let err = plan_select(&stmt, &db).unwrap_err();
        assert!(
            err.to_string().contains("ambiguous column reference `x`"),
            "{err}"
        );
    }

    #[test]
    fn qualified_column_disambiguates_pushdown() {
        let db = ambiguous_db();
        let stmt = parse_select("SELECT t1_only FROM t1, t2 WHERE t1_only = t2_only AND t1.x > 1")
            .unwrap();
        assert!(plan_select(&stmt, &db).is_ok());
    }

    /// Join order is chosen by estimated input size, not FROM order: the
    /// smaller estimated input leads the left-deep tree.
    #[test]
    fn join_order_follows_row_counts_not_from_order() {
        let mut db = test_db();
        for i in 0..20 {
            db.insert(
                "lineitem",
                Row::new(vec![Value::Int(i), Value::Int(1), Value::Date(i as i32)]),
            )
            .unwrap();
        }
        db.insert("orders", Row::new(vec![Value::Int(1), Value::Float(9.0)]))
            .unwrap();
        let stmt =
            parse_select("SELECT o_orderkey FROM lineitem, orders WHERE l_orderkey = o_orderkey")
                .unwrap();
        let plan = plan_select(&stmt, &db).unwrap();
        // orders (1 row) must be the leftmost leaf even though lineitem
        // (20 rows) is named first in FROM.
        fn leftmost(p: &Plan) -> &str {
            match p {
                Plan::Scan { table, .. } => table,
                Plan::HashJoin { left, .. } | Plan::CrossJoin { left, .. } => leftmost(left),
                Plan::Filter { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Project { input, .. }
                | Plan::Limit { input, .. } => leftmost(input),
            }
        }
        assert_eq!(leftmost(&plan), "orders");
    }
}
