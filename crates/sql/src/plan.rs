//! Name resolution, bound expressions, and the output stage.
//!
//! A [`Binding`] names the columns of a row stream; [`ResolvedExpr`]
//! binds an expression to one so operators evaluate by position;
//! [`OutputStage`] decides what a statement outputs (its aggregate
//! calls, their layout and the final projection) for every planner.
//! Cardinality estimates for join ordering come from a
//! [`SelectivityEstimator`] hook (histograms, when the caller has them)
//! with a predicate-shape heuristic fallback; estimates never consult
//! secondary indices, so the join order — and therefore the result row
//! sequence — is identical with and without indices present. The one
//! local planner is [`crate::phys::plan_physical`]; the executor in
//! [`crate::exec`] runs its plans.

use std::borrow::Cow;

use bestpeer_common::{Error, Result, Row, SharedRow, Value};

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
/// predicate-shape heuristic. Used by `execute_select` and by peers
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

/// One aggregate computed by a [`crate::phys::PhysPlan::Aggregate`] node.
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
}
