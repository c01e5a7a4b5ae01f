//! Physical plans: the one local planner.
//!
//! [`plan_physical`] builds a [`PhysPlan`] tree for a statement in
//! which every base-table access is an explicit operator:
//!
//! - [`PhysPlan::SeqScan`] reads the whole table in RowId order and
//!   applies the pushed predicates;
//! - [`PhysPlan::IndexScan`] probes one secondary index with explicit
//!   [`IndexBounds`], fetches the matching row ids **sorted ascending**
//!   (so the visible row sequence equals the sequential scan's), and
//!   applies the residual predicates.
//!
//! Which table each conjunct is pushed to and the order tables are
//! joined in come from the routines [`crate::decompose`] shares with
//! the distributed engines; the local planner ranks tables by their
//! estimated scan output (smallest first, ties in FROM order), which
//! never consults an index.
//!
//! The access-path choice is cost-based: for each sargable predicate
//! over an indexed column the planner estimates the matching fraction —
//! from the caller's [`SelectivityEstimator`] (histograms) when it
//! covers the table, else from index statistics (`distinct_keys`,
//! min/max key interpolation) — and drives off the most selective
//! candidate only when its fraction is at most
//! [`INDEX_SELECTIVITY_THRESHOLD`]; low-selectivity ranges fall back to
//! the sequential scan rather than materializing most of the table
//! through the index.
//!
//! For multi-table plans each scan is topped by a [`PhysPlan::Prune`]
//! that drops columns nothing above the scan references, shrinking the
//! tuples flowing through joins. Single-table plans keep the zero-copy
//! scan pipeline untouched.
//!
//! Access-path choice and projection pruning never change the result:
//! digests are byte-identical with and without indices present, at any
//! thread count.

use std::fmt;
use std::mem::take;
use std::ops::Bound;
use std::slice;

use bestpeer_common::{Error, Result, Value};
use bestpeer_storage::{Database, RowId, Table};

use crate::ast::{CmpOp, ColumnRef, Expr, SelectStmt};
use crate::decompose;
use crate::plan::{
    estimated_scan_rows, rewrite_post_agg, substitute_aliases, AggItem, Binding, OutputStage,
    SelectivityEstimator,
};

/// Maximum estimated selectivity at which an index scan is chosen over
/// a sequential scan. Above it, driving the scan through the index
/// would fetch most of the table row-by-row (random order, per-row
/// dereference) and lose to the sequential scan.
pub const INDEX_SELECTIVITY_THRESHOLD: f64 = 0.25;

/// Key bounds driving a [`PhysPlan::IndexScan`].
#[derive(Debug, Clone, PartialEq)]
pub enum IndexBounds {
    /// Point probe `column = value`.
    Eq(Value),
    /// Range probe over inclusive/exclusive/unbounded endpoints.
    Range {
        /// Lower key bound.
        lo: Bound<Value>,
        /// Upper key bound.
        hi: Bound<Value>,
    },
}

impl IndexBounds {
    /// The bounds implied by `column op literal`. `None` for `<>`,
    /// which is not index-friendly.
    pub fn from_cmp(op: CmpOp, lit: &Value) -> Option<IndexBounds> {
        Some(match op {
            CmpOp::Eq => IndexBounds::Eq(lit.clone()),
            CmpOp::Lt => IndexBounds::Range {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(lit.clone()),
            },
            CmpOp::Le => IndexBounds::Range {
                lo: Bound::Unbounded,
                hi: Bound::Included(lit.clone()),
            },
            CmpOp::Gt => IndexBounds::Range {
                lo: Bound::Excluded(lit.clone()),
                hi: Bound::Unbounded,
            },
            CmpOp::Ge => IndexBounds::Range {
                lo: Bound::Included(lit.clone()),
                hi: Bound::Unbounded,
            },
            CmpOp::Ne => return None,
        })
    }

    /// Estimated fraction of `table`'s rows within these bounds, from
    /// index statistics alone (no posting lists are touched). `None`
    /// when `column` carries no index.
    pub fn estimated_fraction(&self, table: &Table, column: &str) -> Option<f64> {
        match self {
            IndexBounds::Eq(_) => table.index_eq_selectivity(column),
            IndexBounds::Range { lo, hi } => {
                table.index_range_selectivity(column, lo.as_ref(), hi.as_ref())
            }
        }
    }

    /// Materialize the matching row ids through the index. `None` when
    /// `column` carries no index.
    pub fn lookup(&self, table: &Table, column: &str) -> Option<Vec<RowId>> {
        match self {
            IndexBounds::Eq(v) => table.index_lookup_eq(column, v),
            IndexBounds::Range { lo, hi } => {
                table.index_lookup_range(column, lo.as_ref(), hi.as_ref())
            }
        }
    }
}

/// A physical plan node. Every node carries its output [`Binding`];
/// base-table accesses carry their chosen access path and cost
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Full-table scan in RowId order with pushed-down predicates.
    SeqScan {
        /// Table name.
        table: String,
        /// Pushed-down single-table predicates.
        filters: Vec<Expr>,
        /// Estimated output rows (for EXPLAIN / cost visibility).
        est_rows: u64,
        /// Live rows in the table at planning time.
        table_rows: u64,
        /// Output binding (the table's columns, qualified).
        binding: Binding,
    },
    /// Secondary-index scan: probe `column`'s index with `bounds`,
    /// fetch matching row ids sorted ascending, apply the residual
    /// predicates (every filter except the driving one).
    IndexScan {
        /// Table name.
        table: String,
        /// Indexed column driving the scan.
        column: String,
        /// Key bounds to probe.
        bounds: IndexBounds,
        /// Position of the driving predicate within `filters`.
        driving: usize,
        /// All pushed-down predicates (driving + residual).
        filters: Vec<Expr>,
        /// Estimated output rows of the index probe.
        est_rows: u64,
        /// Live rows in the table at planning time.
        table_rows: u64,
        /// Output binding (the table's columns, qualified).
        binding: Binding,
    },
    /// Keep only the columns at positions `cols` of the input (columns
    /// nothing above references are dropped before join shuffling).
    Prune {
        /// Input plan (a scan).
        input: Box<PhysPlan>,
        /// Input column positions to keep, ascending.
        cols: Vec<usize>,
        /// Output binding (the kept columns).
        binding: Binding,
    },
    /// Hash equi-join of two inputs.
    HashJoin {
        /// Build side.
        left: Box<PhysPlan>,
        /// Probe side.
        right: Box<PhysPlan>,
        /// Join key position in the left binding.
        left_key: usize,
        /// Join key position in the right binding.
        right_key: usize,
        /// Output binding (left ++ right).
        binding: Binding,
    },
    /// Cartesian product fallback.
    CrossJoin {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
        /// Output binding (left ++ right).
        binding: Binding,
    },
    /// Residual predicate filter.
    Filter {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Conjuncts to apply.
        predicates: Vec<Expr>,
        /// Output binding (same as input).
        binding: Binding,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysPlan>,
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
        input: Box<PhysPlan>,
        /// Sort keys.
        keys: Vec<(Expr, bool)>,
        /// Output binding (same as input).
        binding: Binding,
    },
    /// Final projection.
    Project {
        /// Input plan.
        input: Box<PhysPlan>,
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
        input: Box<PhysPlan>,
        /// Maximum number of rows.
        n: usize,
        /// Output binding (same as input).
        binding: Binding,
    },
}

/// Summary of one base-table access in a physical plan, surfaced to
/// `bestpeer-core`'s engines and cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// Table scanned.
    pub table: String,
    /// Index column driving the scan; `None` = sequential scan.
    pub index_column: Option<String>,
    /// Estimated output rows of the access.
    pub est_rows: u64,
    /// Live rows in the table at planning time.
    pub table_rows: u64,
}

impl PhysPlan {
    /// This node's output binding.
    pub fn binding(&self) -> &Binding {
        match self {
            PhysPlan::SeqScan { binding, .. }
            | PhysPlan::IndexScan { binding, .. }
            | PhysPlan::Prune { binding, .. }
            | PhysPlan::HashJoin { binding, .. }
            | PhysPlan::CrossJoin { binding, .. }
            | PhysPlan::Filter { binding, .. }
            | PhysPlan::Aggregate { binding, .. }
            | PhysPlan::Sort { binding, .. }
            | PhysPlan::Project { binding, .. }
            | PhysPlan::Limit { binding, .. } => binding,
        }
    }

    /// Names of the output columns.
    pub fn output_names(&self) -> Vec<String> {
        (0..self.binding().arity())
            .map(|i| self.binding().col(i).1.clone())
            .collect()
    }

    /// The chosen base-table access paths, left-to-right.
    pub fn access_paths(&self) -> Vec<AccessPath> {
        let mut out = Vec::new();
        self.collect_access_paths(&mut out);
        out
    }

    fn collect_access_paths(&self, out: &mut Vec<AccessPath>) {
        match self {
            PhysPlan::SeqScan {
                table,
                est_rows,
                table_rows,
                ..
            } => out.push(AccessPath {
                table: table.clone(),
                index_column: None,
                est_rows: *est_rows,
                table_rows: *table_rows,
            }),
            PhysPlan::IndexScan {
                table,
                column,
                est_rows,
                table_rows,
                ..
            } => out.push(AccessPath {
                table: table.clone(),
                index_column: Some(column.clone()),
                est_rows: *est_rows,
                table_rows: *table_rows,
            }),
            PhysPlan::HashJoin { left, right, .. } | PhysPlan::CrossJoin { left, right, .. } => {
                left.collect_access_paths(out);
                right.collect_access_paths(out);
            }
            PhysPlan::Prune { input, .. }
            | PhysPlan::Filter { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Limit { input, .. } => input.collect_access_paths(out),
        }
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::SeqScan {
                table,
                filters,
                est_rows,
                table_rows,
                ..
            } => {
                out.push_str(&format!("{pad}SeqScan {table}"));
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                    out.push_str(&format!(" [{}]", fs.join(" AND ")));
                }
                out.push_str(&format!(" (~{est_rows} of {table_rows} rows)\n"));
            }
            PhysPlan::IndexScan {
                table,
                column,
                driving,
                filters,
                est_rows,
                table_rows,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}IndexScan {table}.{column} [{}]",
                    filters[*driving]
                ));
                let residual: Vec<String> = filters
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i != driving)
                    .map(|(_, f)| f.to_string())
                    .collect();
                if !residual.is_empty() {
                    out.push_str(&format!(" residual [{}]", residual.join(" AND ")));
                }
                out.push_str(&format!(" (~{est_rows} of {table_rows} rows)\n"));
            }
            PhysPlan::Prune { input, binding, .. } => {
                let names: Vec<String> = (0..binding.arity())
                    .map(|i| binding.col(i).1.clone())
                    .collect();
                out.push_str(&format!("{pad}Prune [{}]\n", names.join(", ")));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::HashJoin {
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
            PhysPlan::CrossJoin { left, right, .. } => {
                out.push_str(&format!("{pad}CrossJoin\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PhysPlan::Filter {
                input, predicates, ..
            } => {
                let fs: Vec<String> = predicates.iter().map(|f| f.to_string()).collect();
                out.push_str(&format!("{pad}Filter [{}]\n", fs.join(" AND ")));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Aggregate {
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
            PhysPlan::Sort { input, keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort [{}]\n", ks.join(", ")));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Project { input, names, .. } => {
                out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                input.explain_into(depth + 1, out);
            }
            PhysPlan::Limit { input, n, .. } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

impl fmt::Display for PhysPlan {
    /// EXPLAIN-style rendering of the physical operator tree, one
    /// operator per line, children indented.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        f.write_str(out.trim_end())
    }
}

/// Plan `stmt` and render the physical operator tree (`EXPLAIN`
/// convenience for callers outside the crate).
pub fn explain_physical(
    stmt: &SelectStmt,
    db: &Database,
    est: &dyn SelectivityEstimator,
) -> Result<String> {
    Ok(plan_physical(stmt, db, est)?.to_string())
}

/// Build the cost-based physical plan for `stmt` directly: each FROM
/// table's pushed selections (`decompose::push_down`) scanned by its
/// cheapest access path, the scans joined left-deep in order of
/// estimated output, smallest first (`decompose::join_order`), each
/// join's newly covered residuals filtered right above it, and the
/// statement's output stage on top: aggregation, ordering, projection
/// and limit. In a multi-table plan a [`PhysPlan::Prune`] above each
/// scan drops the columns nothing above it reads.
pub fn plan_physical(
    stmt: &SelectStmt,
    db: &Database,
    est: &dyn SelectivityEstimator,
) -> Result<PhysPlan> {
    if stmt.from.is_empty() {
        return Err(Error::Plan("FROM clause is empty".into()));
    }
    let mut tables = Vec::with_capacity(stmt.from.len());
    let mut bindings = Vec::with_capacity(stmt.from.len());
    for name in &stmt.from {
        let table = db.table(name)?;
        let cols = table.schema().columns.iter();
        bindings.push(Binding::from_cols(
            cols.map(|c| (Some(name.clone()), c.name.clone())).collect(),
        ));
        tables.push(table);
    }
    let (mut filters, rest) = decompose::push_down(stmt, &bindings)?;
    let rank: Vec<f64> = (0..tables.len())
        .map(|i| estimated_scan_rows(est, &stmt.from[i], tables[i].len(), &filters[i]))
        .collect();
    let (start, joins) = decompose::join_order(&bindings, &rank, rest)?;

    // Each join's keys as qualified references, which still resolve
    // once the scans below are pruned.
    let mut prefix = &bindings[start];
    let mut key_refs = Vec::with_capacity(joins.len());
    for j in &joins {
        let refs = j
            .keys
            .map(|(l, r)| (ref_for(prefix, l), ref_for(&bindings[j.part], r)));
        key_refs.push(refs);
        prefix = &j.out_binding;
    }
    let out = OutputStage::new(stmt, prefix);
    let aggregate = stmt.is_aggregate();
    let keys: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .map(|k| {
            let e = substitute_aliases(&k.expr, &stmt.projections);
            // Over an aggregation, keys read its output like the projections.
            let e = if aggregate {
                rewrite_post_agg(&e, &stmt.group_by)
            } else {
                e
            };
            (e, k.desc)
        })
        .collect();

    // What the operators above the scans read: join keys, residuals,
    // group keys, aggregate arguments, order keys and projections.
    let needed: Option<Vec<ColumnRef>> = (stmt.from.len() > 1).then(|| {
        let mut refs: Vec<ColumnRef> = key_refs
            .iter()
            .flatten()
            .flat_map(|(l, r)| [l.clone(), r.clone()])
            .collect();
        let exprs = (joins.iter().flat_map(|j| &j.residuals))
            .chain(&stmt.group_by)
            .chain(out.aggs.iter().filter_map(|a| a.arg.as_ref()))
            .chain(keys.iter().map(|(e, _)| e))
            .chain(&out.exprs);
        for e in exprs {
            refs.extend(e.referenced_columns().into_iter().cloned());
        }
        refs
    });
    // Each table is scanned once, so its scan takes its filters and
    // binding.
    let mut scan = |i: usize| {
        let (filters, binding) = (take(&mut filters[i]), take(&mut bindings[i]));
        let scan = choose_access_path(tables[i], &stmt.from[i], filters, binding, rank[i], est);
        match &needed {
            Some(refs) => prune_scan(scan, refs),
            None => scan,
        }
    };

    let mut plan = scan(start);
    for (j, refs) in joins.into_iter().zip(&key_refs) {
        let right = scan(j.part);
        let binding = plan.binding().concat(right.binding());
        plan = match refs {
            Some((l, r)) => PhysPlan::HashJoin {
                left_key: plan.binding().resolve(l)?,
                right_key: right.binding().resolve(r)?,
                left: Box::new(plan),
                right: Box::new(right),
                binding,
            },
            None => PhysPlan::CrossJoin {
                left: Box::new(plan),
                right: Box::new(right),
                binding,
            },
        };
        if !j.residuals.is_empty() {
            let binding = plan.binding().clone();
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicates: j.residuals,
                binding,
            };
        }
    }
    if aggregate {
        plan = PhysPlan::Aggregate {
            input: Box::new(plan),
            group: stmt.group_by.clone(),
            aggs: out.aggs,
            binding: out.binding,
        };
    }
    if !keys.is_empty() {
        let binding = plan.binding().clone();
        plan = PhysPlan::Sort {
            input: Box::new(plan),
            keys,
            binding,
        };
    }
    let binding = Binding::from_cols(out.columns.iter().map(|n| (None, n.clone())).collect());
    plan = PhysPlan::Project {
        input: Box::new(plan),
        exprs: out.exprs,
        names: out.columns,
        binding,
    };
    if let Some(n) = stmt.limit {
        let binding = plan.binding().clone();
        plan = PhysPlan::Limit {
            input: Box::new(plan),
            n,
            binding,
        };
    }
    Ok(plan)
}

/// The column reference naming position `i` of binding `b`.
fn ref_for(b: &Binding, i: usize) -> ColumnRef {
    let (q, n) = b.col(i);
    match q {
        Some(t) => ColumnRef::qualified(t.clone(), n.clone()),
        None => ColumnRef::new(n.clone()),
    }
}

/// Wrap `scan` in a [`PhysPlan::Prune`] keeping only columns some
/// upper reference could resolve to. No-op when nothing is dropped.
fn prune_scan(scan: PhysPlan, refs: &[ColumnRef]) -> PhysPlan {
    let (keep, pruned) = {
        let binding = scan.binding();
        let keep: Vec<usize> = (0..binding.arity())
            .filter(|&i| {
                let (q, n) = binding.col(i);
                refs.iter().any(|c| {
                    c.column == *n
                        && match (&c.table, q) {
                            (None, _) => true,
                            (Some(want), Some(have)) => want == have,
                            (Some(_), None) => false,
                        }
                })
            })
            .collect();
        if keep.len() == binding.arity() {
            return scan;
        }
        let pruned = Binding::from_cols(keep.iter().map(|&i| binding.col(i).clone()).collect());
        (keep, pruned)
    };
    PhysPlan::Prune {
        input: Box::new(scan),
        cols: keep,
        binding: pruned,
    }
}

/// The most selective sargable indexed predicate among `filters`, as
/// `(driving filter index, column, bounds, estimated fraction)`.
/// Fractions come from `est` when it covers the single predicate, else
/// from index statistics; candidates are compared without materializing
/// any row ids. `None` when no filter can drive an index.
fn best_index_candidate(
    table: &Table,
    name: &str,
    filters: &[Expr],
    est: &dyn SelectivityEstimator,
) -> Option<(usize, String, IndexBounds, f64)> {
    if table.is_empty() {
        return None;
    }
    let mut best: Option<(usize, String, IndexBounds, f64)> = None;
    for (i, p) in filters.iter().enumerate() {
        let Some((cref, op, lit)) = p.as_column_literal() else {
            continue;
        };
        if table.index_on(&cref.column).is_none() {
            continue;
        }
        let Some(bounds) = IndexBounds::from_cmp(op, lit) else {
            continue;
        };
        let frac = est
            .selectivity(name, slice::from_ref(p))
            .or_else(|| bounds.estimated_fraction(table, &cref.column))
            .unwrap_or(1.0)
            .clamp(0.0, 1.0);
        if best.as_ref().is_none_or(|(_, _, _, bf)| frac < *bf) {
            best = Some((i, cref.column.clone(), bounds, frac));
        }
    }
    best
}

/// Choose the access path for one scan: the most selective index
/// candidate if its estimated fraction clears the threshold, else a
/// sequential scan expected to yield `scan_rows` rows.
fn choose_access_path(
    table: &Table,
    name: &str,
    filters: Vec<Expr>,
    binding: Binding,
    scan_rows: f64,
    est: &dyn SelectivityEstimator,
) -> PhysPlan {
    let table_rows = table.len() as u64;
    match best_index_candidate(table, name, &filters, est) {
        Some((driving, column, bounds, frac)) if frac <= INDEX_SELECTIVITY_THRESHOLD => {
            PhysPlan::IndexScan {
                table: name.to_owned(),
                column,
                bounds,
                driving,
                filters,
                est_rows: (frac * table_rows as f64).round() as u64,
                table_rows,
                binding,
            }
        }
        _ => PhysPlan::SeqScan {
            table: name.to_owned(),
            filters,
            est_rows: scan_rows.round() as u64,
            table_rows,
            binding,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::plan::NoStats;
    use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema};
    use std::collections::BTreeMap;

    fn plan(sql: &str, db: &Database) -> PhysPlan {
        let stmt = parse_select(sql).unwrap();
        plan_physical(&stmt, db, &NoStats).unwrap()
    }

    /// lineitem (4 rows, days 100..400, index on l_shipdate) and orders
    /// (3 rows) — the exec-test fixture with an index.
    fn tpch_db() -> Database {
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
        db.table_mut("lineitem")
            .unwrap()
            .create_index("l_shipdate")
            .unwrap();
        for (ok, qty, day) in [(1, 5, 100), (1, 3, 200), (2, 7, 300), (3, 1, 400)] {
            db.insert(
                "lineitem",
                Row::new(vec![Value::Int(ok), Value::Int(qty), Value::Date(day)]),
            )
            .unwrap();
        }
        for (ok, price) in [(1, 20.0), (2, 5.0), (3, 30.0)] {
            db.insert(
                "orders",
                Row::new(vec![Value::Int(ok), Value::Float(price)]),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn selective_equality_chooses_index_scan() {
        let db = tpch_db();
        let p = plan(
            "SELECT l_orderkey FROM lineitem WHERE l_shipdate = DATE '1970-04-11'",
            &db,
        );
        let paths = p.access_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].index_column.as_deref(), Some("l_shipdate"));
        assert_eq!(paths[0].est_rows, 1);
        assert_eq!(paths[0].table_rows, 4);
    }

    #[test]
    fn wide_range_chooses_seq_scan() {
        let db = tpch_db();
        // Day 181 of domain 100..400 → fraction ~0.73 > threshold.
        let p = plan(
            "SELECT l_orderkey FROM lineitem WHERE l_shipdate > DATE '1970-07-01'",
            &db,
        );
        let paths = p.access_paths();
        assert_eq!(paths[0].index_column, None);
    }

    #[test]
    fn unindexed_predicates_always_seq_scan() {
        let db = tpch_db();
        let p = plan("SELECT l_orderkey FROM lineitem WHERE l_quantity = 5", &db);
        assert_eq!(p.access_paths()[0].index_column, None);
    }

    #[test]
    fn explain_golden_selective_index_scan() {
        let db = tpch_db();
        let p = plan(
            "SELECT l_orderkey FROM lineitem \
             WHERE l_shipdate > DATE '1970-12-17' AND l_quantity > 2",
            &db,
        );
        assert_eq!(
            p.to_string(),
            "Project [l_orderkey]\n\
             \x20\x20IndexScan lineitem.l_shipdate [l_shipdate > DATE '1970-12-17'] \
             residual [l_quantity > 2] (~1 of 4 rows)"
        );
    }

    #[test]
    fn explain_golden_join_with_pruning() {
        let db = tpch_db();
        let p = plan(
            "SELECT o_orderkey, SUM(l_quantity) AS q FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_totalprice > 10.0 \
             GROUP BY o_orderkey ORDER BY q DESC LIMIT 3",
            &db,
        );
        // orders (est 1 of 3 under the range heuristic) is smaller than
        // lineitem (est 4), so it leads the left-deep tree despite
        // appearing second in FROM; o_totalprice and l_shipdate are
        // pruned because nothing above the scans reads them.
        assert_eq!(
            p.to_string(),
            "Limit 3\n\
             \x20\x20Project [o_orderkey, q]\n\
             \x20\x20\x20\x20Sort [SUM(l_quantity) DESC]\n\
             \x20\x20\x20\x20\x20\x20Aggregate group=[o_orderkey] aggs=[SUM(l_quantity)]\n\
             \x20\x20\x20\x20\x20\x20\x20\x20HashJoin on o_orderkey = l_orderkey\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20Prune [o_orderkey]\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20SeqScan orders [o_totalprice > 10] (~1 of 3 rows)\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20Prune [l_orderkey, l_quantity]\n\
             \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20SeqScan lineitem (~4 of 4 rows)"
        );
    }

    #[test]
    fn selections_are_pushed_and_joins_hash() {
        let db = tpch_db();
        let p = plan(
            "SELECT l_orderkey FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity > 5 AND o_totalprice < 100.0",
            &db,
        );
        assert_eq!(
            p.to_string(),
            "Project [l_orderkey]\n\
             \x20\x20HashJoin on o_orderkey = l_orderkey\n\
             \x20\x20\x20\x20Prune [o_orderkey]\n\
             \x20\x20\x20\x20\x20\x20SeqScan orders [o_totalprice < 100] (~1 of 3 rows)\n\
             \x20\x20\x20\x20Prune [l_orderkey]\n\
             \x20\x20\x20\x20\x20\x20SeqScan lineitem [l_quantity > 5] (~1 of 4 rows)"
        );
    }

    #[test]
    fn aggregate_sorts_its_output_by_alias() {
        let db = tpch_db();
        let p = plan(
            "SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem \
             GROUP BY l_orderkey ORDER BY q DESC",
            &db,
        );
        assert_eq!(
            p.to_string(),
            "Project [l_orderkey, q]\n\
             \x20\x20Sort [SUM(l_quantity) DESC]\n\
             \x20\x20\x20\x20Aggregate group=[l_orderkey] aggs=[SUM(l_quantity)]\n\
             \x20\x20\x20\x20\x20\x20SeqScan lineitem (~4 of 4 rows)"
        );
        assert_eq!(p.output_names(), ["l_orderkey", "q"]);
    }

    #[test]
    fn missing_table_is_a_catalog_error() {
        let stmt = parse_select("SELECT x FROM nosuch").unwrap();
        let err = plan_physical(&stmt, &tpch_db(), &NoStats).unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    /// Join order is chosen by estimated input size, not FROM order: the
    /// smaller estimated input leads the left-deep tree.
    #[test]
    fn join_order_follows_row_counts_not_from_order() {
        let db = tpch_db();
        let p = plan(
            "SELECT o_orderkey FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            &db,
        );
        // orders (3 rows) leads although lineitem (4 rows) comes first.
        let tables: Vec<String> = p.access_paths().into_iter().map(|a| a.table).collect();
        assert_eq!(tables, ["orders", "lineitem"]);
    }

    /// A column equality within one table is a selection on it, alone
    /// or beside a join.
    #[test]
    fn column_equality_within_one_table_is_pushed_to_it() {
        let db = tpch_db();
        let p = plan(
            "SELECT COUNT(*) FROM lineitem WHERE l_orderkey = l_quantity",
            &db,
        );
        assert!(
            p.to_string()
                .contains("SeqScan lineitem [l_orderkey = l_quantity]"),
            "{p}"
        );
        let p = plan(
            "SELECT o_orderkey FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_orderkey = l_quantity",
            &db,
        );
        let text = p.to_string();
        assert!(
            text.contains("SeqScan lineitem [l_orderkey = l_quantity]"),
            "{text}"
        );
        assert!(!text.contains("Filter"), "{text}");
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
        let err = plan_physical(&stmt, &db, &NoStats).unwrap_err();
        assert!(
            err.to_string().contains("ambiguous column reference `x`"),
            "{err}"
        );
        let ok = "SELECT t1_only FROM t1, t2 WHERE t1_only = t2_only AND t1.x > 1";
        plan_physical(&parse_select(ok).unwrap(), &db, &NoStats).unwrap();
    }

    /// Estimator returning a fixed selectivity per table.
    struct Fixed(BTreeMap<String, f64>);

    impl SelectivityEstimator for Fixed {
        fn selectivity(&self, table: &str, predicates: &[Expr]) -> Option<f64> {
            if predicates.is_empty() {
                return Some(1.0);
            }
            self.0.get(table).copied()
        }
    }

    fn two_table_db() -> Database {
        let mut db = Database::new();
        for (name, key, val) in [("r", "r_key", "r_val"), ("s", "s_key", "s_val")] {
            db.create_table(
                TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new(key, ColumnType::Int),
                        ColumnDef::new(val, ColumnType::Int),
                    ],
                    vec![],
                )
                .unwrap(),
            )
            .unwrap();
            for i in 0..50 {
                db.insert(name, Row::new(vec![Value::Int(i), Value::Int(i * 2)]))
                    .unwrap();
            }
        }
        db
    }

    #[test]
    fn join_order_flips_when_histogram_sizes_flip() {
        let db = two_table_db();
        let stmt =
            parse_select("SELECT r_val FROM r, s WHERE r_key = s_key AND r_val > 1 AND s_val > 1")
                .unwrap();
        let r_small = Fixed(BTreeMap::from([("r".into(), 0.01), ("s".into(), 0.9)]));
        let s_small = Fixed(BTreeMap::from([("r".into(), 0.9), ("s".into(), 0.01)]));
        let first = |est: &dyn SelectivityEstimator| -> String {
            plan_physical(&stmt, &db, est).unwrap().access_paths()[0]
                .table
                .clone()
        };
        assert_eq!(first(&r_small), "r");
        assert_eq!(first(&s_small), "s");
    }

    #[test]
    fn estimator_can_override_index_statistics() {
        let mut db = tpch_db();
        db.table_mut("orders")
            .unwrap()
            .create_index("o_totalprice")
            .unwrap();
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_totalprice > 25.0").unwrap();
        // Index interpolation alone would estimate (30-25)/(30-5) = 0.2
        // and choose the index; a histogram claiming 90% overrides it.
        let hist = Fixed(BTreeMap::from([("orders".into(), 0.9)]));
        let p = plan_physical(&stmt, &db, &hist).unwrap();
        assert_eq!(p.access_paths()[0].index_column, None);
        let p = plan_physical(&stmt, &db, &NoStats).unwrap();
        assert_eq!(
            p.access_paths()[0].index_column.as_deref(),
            Some("o_totalprice")
        );
    }
}
