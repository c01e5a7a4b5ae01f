//! The SMS-style planner: SQL → MapReduce job chain.
//!
//! Mirrors HadoopDB's SMS planner as the paper describes it per query
//! class:
//!
//! - selection/projection queries compile to a single **map-only** job
//!   whose map tasks run the SQL on the local database (Q1, §6.1.6);
//! - aggregation without joins compiles to **one job**: map tasks run
//!   the partial aggregate locally and shuffle partials to reducers for
//!   final aggregation (Q2, §6.1.7);
//! - each join compiles to a **repartition-join job**: map tasks read
//!   qualified tuples of both sides (from local DBs or the previous
//!   job's HDFS output), tag them, and shuffle by join key; reducers
//!   join per key (Q3, §6.1.8);
//! - a trailing **aggregation job** evaluates GROUP BY over the joined
//!   tuples (Q4 = 2 jobs, Q5 = 4 jobs — §6.1.9, §6.1.10).

use bestpeer_common::{Error, PeerId, Result, Row, TableSchema, Value};
use bestpeer_simnet::Trace;
use bestpeer_sql::ast::{ColumnRef, Expr, SelectStmt};
use bestpeer_sql::dist::split_aggregate;
use bestpeer_sql::exec::{aggregate_rows, ResultSet};
use bestpeer_sql::parse_select;
use bestpeer_sql::plan::{eval, eval_bool, rewrite_post_agg, AggItem, Binding};

use crate::engine::MapReduceEngine;
use crate::hdfs::Hdfs;
use crate::job::{JobInput, MapReduceJob};

/// Where the compiled jobs read base-table tuples: any collection of
/// nodes that can evaluate a single-table SQL statement locally.
/// HadoopDB implements this over its workers' local databases;
/// BestPeer++'s MapReduce engine implements it over the normal peers
/// (applying access control in `run_local`).
pub trait LocalSource {
    /// The participating node ids.
    fn peers(&self) -> Vec<PeerId>;
    /// Evaluate `stmt` (single-table, no aggregation beyond partials)
    /// on each of `peers`' local data, returning one `(result, disk
    /// bytes the scan touched)` pair per peer, in peer order. Sources
    /// may fan the work out, provided results, errors, and side effects
    /// stay order-identical to a one-peer-at-a-time loop.
    fn run_local(&self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>>;
    /// The schema of a base table (shared across nodes).
    fn table_schema(&self, table: &str) -> Result<TableSchema>;
}

/// Compile `sql` and run the resulting job chain on the cluster.
pub fn compile_and_run(
    sql: &str,
    workers: &dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let stmt = parse_select(sql)?;
    run_stmt(&stmt, workers, engine, hdfs)
}

/// Compile an already-parsed statement and run the job chain.
pub fn run_stmt(
    stmt: &SelectStmt,
    workers: &dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    if stmt.from.is_empty() {
        return Err(Error::Plan("empty FROM".into()));
    }
    let (mut rs, trace) = if stmt.join_count() == 0 && !stmt.is_aggregate() {
        map_only_query(stmt, workers, engine, hdfs)?
    } else if stmt.join_count() == 0 {
        single_job_aggregate(stmt, workers, engine, hdfs)?
    } else {
        join_pipeline(stmt, workers, engine, hdfs)?
    };
    bestpeer_sql::apply_order_limit(stmt, &mut rs);
    Ok((rs, trace))
}

/// One node's contribution to a job: `(peer, rows, disk bytes scanned)`.
type LocalPart = (PeerId, Vec<Row>, u64);

/// Run `stmt` against every node's local data, returning
/// `(peer, rows, disk bytes scanned)` per node plus the column names.
fn local_results(
    stmt: &SelectStmt,
    workers: &dyn LocalSource,
) -> Result<(Vec<LocalPart>, Vec<String>)> {
    let peers = workers.peers();
    let mut parts = Vec::with_capacity(peers.len());
    let mut columns = Vec::new();
    for (peer, (rs, scanned)) in peers.iter().zip(workers.run_local(&peers, stmt)?) {
        columns = rs.columns;
        parts.push((*peer, rs.rows, scanned));
    }
    Ok((parts, columns))
}

/// Q1 class: one map-only job; map tasks run the full SQL locally.
fn map_only_query(
    stmt: &SelectStmt,
    workers: &dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let (parts, columns) = local_results(stmt, workers)?;
    let job = MapReduceJob {
        name: "select".into(),
        map: Box::new(|row, out| out.push((Value::Int(0), row.clone()))),
        reduce: None,
        input: JobInput::LocalWithCost(parts),
        reducers: workers.peers().len(),
    };
    let (rows, trace) = engine.run_chain(std::slice::from_ref(&job), hdfs)?;
    Ok((ResultSet { columns, rows }, trace))
}

/// Q2 class: one job; map tasks run the partial aggregate locally and
/// shuffle partial rows by group key; reducers combine.
fn single_job_aggregate(
    stmt: &SelectStmt,
    workers: &dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let dist = split_aggregate(stmt)?;
    let (parts, partial_cols) = local_results(&dist.partial, workers)?;
    let k = dist.combine.group_cols.len();
    let combine = dist.combine.clone();
    let partial_cols_for_reduce = partial_cols.clone();
    let columns: Vec<String> = combine.final_projs.iter().map(|(_, n)| n.clone()).collect();
    let job = MapReduceJob {
        name: "aggregate".into(),
        map: Box::new(move |row, out| out.push((group_key_of(row, k), row.clone()))),
        reduce: Some(Box::new(move |_key, rows, out| {
            // Combine partials for this one group.
            if let Ok(rs) = combine.apply(&partial_cols_for_reduce, rows) {
                out.extend(rs.rows);
            }
        })),
        input: JobInput::LocalWithCost(parts),
        reducers: workers.peers().len(),
    };
    let (mut rows, trace) = engine.run_chain(std::slice::from_ref(&job), hdfs)?;
    // A global aggregate over an entirely-empty cluster still returns
    // one row (SQL semantics); partials always exist per worker, so the
    // only truly-empty case is zero workers, which the constructor
    // forbids. Guard anyway.
    if rows.is_empty() && k == 0 {
        rows = dist.combine.apply(&partial_cols, &[])?.rows;
    }
    Ok((ResultSet { columns, rows }, trace))
}

/// One step of the join pipeline.
struct JoinStep {
    /// Index into `stmt.from` of the table joined in at this step.
    table_idx: usize,
    /// `(left key position, right key position)` — positions within the
    /// untagged row of each side; `None` = cross join.
    keys: Option<(usize, usize)>,
    /// Residual predicates applicable once this step's output exists.
    residuals: Vec<Expr>,
    /// Binding of this step's output rows.
    out_binding: Binding,
}

/// Q3/Q4/Q5 class: one repartition-join job per join, then (when the
/// query aggregates) one aggregation job.
fn join_pipeline(
    stmt: &SelectStmt,
    workers: &dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    // Per-table subqueries with selection/projection pushdown.
    let mut table_stmts = Vec::with_capacity(stmt.from.len());
    let mut table_bindings = Vec::with_capacity(stmt.from.len());
    let mut pushed = vec![false; stmt.predicates.len()];
    for t in &stmt.from {
        let schema = workers.table_schema(t)?;
        let binding = Binding::from_cols(
            needed_columns(stmt, &schema)
                .into_iter()
                .map(|c| (Some(t.clone()), c))
                .collect(),
        );
        let mut preds = Vec::new();
        for (i, p) in stmt.predicates.iter().enumerate() {
            if !pushed[i] && p.as_equi_join().is_none() && binding.covers(p) {
                preds.push(p.clone());
                pushed[i] = true;
            }
        }
        let projections = (0..binding.arity())
            .map(|i| {
                let (tbl, name) = binding.col(i).clone();
                bestpeer_sql::ast::SelectItem {
                    expr: Expr::Column(match tbl {
                        Some(t) => ColumnRef::qualified(t, name.clone()),
                        None => ColumnRef::new(name.clone()),
                    }),
                    alias: Some(name),
                }
            })
            .collect();
        table_stmts.push(SelectStmt {
            projections,
            from: vec![t.clone()],
            predicates: preds,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        });
        table_bindings.push(binding);
    }
    let mut residual: Vec<Expr> = stmt
        .predicates
        .iter()
        .enumerate()
        .filter(|(i, _)| !pushed[*i])
        .map(|(_, p)| p.clone())
        .collect();

    // Greedy left-deep join order over the table bindings.
    let mut current = table_bindings[0].clone();
    let mut remaining: Vec<usize> = (1..stmt.from.len()).collect();
    let mut steps: Vec<JoinStep> = Vec::new();
    while !remaining.is_empty() {
        let mut chosen: Option<(usize, usize, usize, usize)> = None; // (rem idx, pred idx, lpos, rpos)
        'outer: for (ri, &ti) in remaining.iter().enumerate() {
            for (pi, p) in residual.iter().enumerate() {
                if let Some((a, b)) = p.as_equi_join() {
                    if let (Ok(l), Ok(r)) = (current.resolve(a), table_bindings[ti].resolve(b)) {
                        chosen = Some((ri, pi, l, r));
                        break 'outer;
                    }
                    if let (Ok(l), Ok(r)) = (current.resolve(b), table_bindings[ti].resolve(a)) {
                        chosen = Some((ri, pi, l, r));
                        break 'outer;
                    }
                }
            }
        }
        let (ri, keys) = match chosen {
            Some((ri, pi, l, r)) => {
                residual.remove(pi);
                (ri, Some((l, r)))
            }
            None => (0, None),
        };
        let ti = remaining.remove(ri);
        let out_binding = current.concat(&table_bindings[ti]);
        // Residuals that become evaluable at this level.
        let mut level_residuals = Vec::new();
        residual.retain(|p| {
            if out_binding.covers(p) {
                level_residuals.push(p.clone());
                false
            } else {
                true
            }
        });
        current = out_binding.clone();
        steps.push(JoinStep {
            table_idx: ti,
            keys,
            residuals: level_residuals,
            out_binding,
        });
    }
    if !residual.is_empty() {
        return Err(Error::Plan(format!(
            "unresolvable predicates: {}",
            residual
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }

    // Build and run one repartition-join job per step.
    let mut trace = Trace::new();
    let mut prev_path: Option<String> = None;
    let mut left_binding = table_bindings[0].clone();
    let n_workers = workers.peers().len();
    let final_step = steps.len() - 1;
    for (k, step) in steps.iter().enumerate() {
        // Assemble tagged input: left side (base table or previous HDFS
        // output) tagged 0, right side (base table) tagged 1.
        let mut parts: Vec<(PeerId, Vec<Row>, u64)> = Vec::new();
        match &prev_path {
            None => {
                let (base, _) = local_results(&table_stmts[0], workers)?;
                for (peer, rows, scanned) in base {
                    parts.push((peer, tag_rows(rows, 0), scanned));
                }
            }
            Some(path) => {
                for (peer, rows) in hdfs.parts(path)? {
                    let bytes = bestpeer_common::codec::batch_encoded_size(&rows);
                    parts.push((peer, tag_rows(rows, 0), bytes));
                }
            }
        }
        let (right, _) = local_results(&table_stmts[step.table_idx], workers)?;
        for (peer, rows, scanned) in right {
            parts.push((peer, tag_rows(rows, 1), scanned));
        }

        let left_arity = left_binding.arity();
        let keys = step.keys;
        let map: crate::job::MapFn = Box::new(move |row, out| {
            let key = match keys {
                Some((l, r)) => {
                    let tag = row.get(0).as_int().unwrap_or(0);
                    let idx = 1 + if tag == 0 { l } else { r };
                    row.get(idx).clone()
                }
                None => Value::Int(0),
            };
            out.push((key, row.clone()));
        });
        let residuals = step.residuals.clone();
        let out_binding = step.out_binding.clone();
        // The last join of a non-aggregate query projects in the reducer.
        let project: Option<(Vec<Expr>, Binding)> = if k == final_step && !stmt.is_aggregate() {
            let exprs: Vec<Expr> = final_projections(stmt, &out_binding)?
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            Some((exprs, out_binding.clone()))
        } else {
            None
        };
        let reduce: crate::job::ReduceFn = Box::new(move |_key, rows, out| {
            let mut left = Vec::new();
            let mut right = Vec::new();
            for r in rows {
                let tag = r.get(0).as_int().unwrap_or(0);
                let stripped = Row::new(r.values()[1..].to_vec());
                if tag == 0 {
                    left.push(stripped);
                } else {
                    right.push(stripped);
                }
            }
            for a in &left {
                for b in &right {
                    let joined = a.concat(b);
                    let keep = residuals
                        .iter()
                        .all(|p| eval_bool(p, &joined, &out_binding).unwrap_or(false));
                    if !keep {
                        continue;
                    }
                    match &project {
                        Some((exprs, binding)) => {
                            if let Ok(vals) = exprs
                                .iter()
                                .map(|e| eval(e, &joined, binding))
                                .collect::<Result<Vec<_>>>()
                            {
                                out.push(Row::new(vals));
                            }
                        }
                        None => out.push(joined),
                    }
                }
            }
        });
        let _ = left_arity;
        let job = MapReduceJob {
            name: format!("join{k}"),
            map,
            reduce: Some(reduce),
            input: JobInput::LocalWithCost(parts),
            reducers: n_workers,
        };
        // Jobs run one at a time so each job's HDFS output exists
        // before the next job reads it.
        let outcome = engine.run_job(&job, hdfs)?;
        prev_path = Some(outcome.output_path);
        left_binding = step.out_binding.clone();
        for p in outcome.phases {
            trace.push(p);
        }
    }

    let final_binding = steps[final_step].out_binding.clone();
    let last_path = prev_path.expect("at least one join job ran");

    if stmt.is_aggregate() {
        // Final aggregation job over the joined tuples.
        let group = stmt.group_by.clone();
        let aggs = collect_agg_items(stmt);
        let map_binding = final_binding.clone();
        let map_group = group.clone();
        let map: crate::job::MapFn = Box::new(move |row, out| {
            let key = composite_group_key(&map_group, row, &map_binding);
            out.push((key, row.clone()));
        });
        let red_binding = final_binding.clone();
        let red_group = group.clone();
        let red_aggs = aggs.clone();
        let projs = final_agg_projections(stmt, &group, &aggs);
        let reduce: crate::job::ReduceFn = Box::new(move |_key, rows, out| {
            if let Ok(agg_rows) = aggregate_rows(rows, &red_binding, &red_group, &red_aggs) {
                // Binding of aggregate output: group displays + agg names.
                let mut cols: Vec<(Option<String>, String)> =
                    red_group.iter().map(|g| (None, g.to_string())).collect();
                cols.extend(red_aggs.iter().map(|a| (None, a.name.clone())));
                let b = Binding::from_cols(cols);
                for r in agg_rows {
                    if let Ok(vals) = projs
                        .iter()
                        .map(|(e, _)| eval(e, &r, &b))
                        .collect::<Result<Vec<_>>>()
                    {
                        out.push(Row::new(vals));
                    }
                }
            }
        });
        let agg_job = MapReduceJob {
            name: "final-agg".into(),
            map,
            reduce: Some(reduce),
            input: JobInput::HdfsFile(last_path),
            reducers: n_workers,
        };
        let outcome = engine.run_job(&agg_job, hdfs)?;
        for p in outcome.phases {
            trace.push(p);
        }
        let mut rows = outcome.output;
        if rows.is_empty() && stmt.group_by.is_empty() {
            // SQL semantics: a global aggregate over an empty join still
            // yields one row (COUNT = 0, SUM = NULL, ...). No tuple ever
            // reached a reducer, so synthesize it here.
            let agg_rows = aggregate_rows(&[], &final_binding, &group, &aggs)?;
            let mut cols: Vec<(Option<String>, String)> = Vec::new();
            cols.extend(aggs.iter().map(|a| (None, a.name.clone())));
            let b = Binding::from_cols(cols);
            let projs = final_agg_projections(stmt, &group, &aggs);
            for r in agg_rows {
                let vals: Result<Vec<Value>> = projs.iter().map(|(e, _)| eval(e, &r, &b)).collect();
                rows.push(Row::new(vals?));
            }
        }
        let columns = final_agg_projections(stmt, &group, &aggs)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        Ok((ResultSet { columns, rows }, trace))
    } else {
        let columns = final_projections(stmt, &final_binding)?
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        let rows = hdfs.read(&last_path)?;
        Ok((ResultSet { columns, rows }, trace))
    }
}

// --- small helpers ------------------------------------------------------

/// Columns of `schema` referenced anywhere in the query, in schema
/// order; the first column when nothing is referenced.
fn needed_columns(stmt: &SelectStmt, schema: &bestpeer_common::TableSchema) -> Vec<String> {
    let refs = stmt.all_referenced_columns();
    let mut out: Vec<String> = schema
        .columns
        .iter()
        .filter(|c| {
            refs.iter()
                .any(|r| r.column == c.name && r.table.as_deref().is_none_or(|t| t == schema.name))
        })
        .map(|c| c.name.clone())
        .collect();
    if out.is_empty() {
        out.push(schema.columns[0].name.clone());
    }
    out
}

fn tag_rows(rows: Vec<Row>, tag: i64) -> Vec<Row> {
    rows.into_iter()
        .map(|r| {
            let mut vals = Vec::with_capacity(r.arity() + 1);
            vals.push(Value::Int(tag));
            vals.extend(r.into_values());
            Row::new(vals)
        })
        .collect()
}

/// The first `k` columns of a partial row, packed into one shuffle key.
fn group_key_of(row: &Row, k: usize) -> Value {
    match k {
        0 => Value::Int(0),
        1 => row.get(0).clone(),
        _ => {
            let mut s = String::new();
            for i in 0..k {
                s.push_str(&row.get(i).to_string());
                s.push('\u{1}');
            }
            Value::Str(s)
        }
    }
}

/// Evaluate group expressions and pack them into one shuffle key.
fn composite_group_key(group: &[Expr], row: &Row, b: &Binding) -> Value {
    match group.len() {
        0 => Value::Int(0),
        1 => eval(&group[0], row, b).unwrap_or(Value::Null),
        _ => {
            let mut s = String::new();
            for g in group {
                s.push_str(&eval(g, row, b).unwrap_or(Value::Null).to_string());
                s.push('\u{1}');
            }
            Value::Str(s)
        }
    }
}

/// The final projection expressions and names for a non-aggregate query
/// against the joined binding (`SELECT *` expands).
fn final_projections(stmt: &SelectStmt, binding: &Binding) -> Result<Vec<(Expr, String)>> {
    if stmt.projections.is_empty() {
        Ok((0..binding.arity())
            .map(|i| {
                let (tbl, name) = binding.col(i).clone();
                let e = Expr::Column(match tbl {
                    Some(t) => ColumnRef::qualified(t, name.clone()),
                    None => ColumnRef::new(name.clone()),
                });
                (e, name)
            })
            .collect())
    } else {
        Ok(stmt
            .projections
            .iter()
            .map(|it| (it.expr.clone(), it.output_name()))
            .collect())
    }
}

/// Distinct aggregate calls across the statement, as executor AggItems.
fn collect_agg_items(stmt: &SelectStmt) -> Vec<AggItem> {
    fn walk(e: &Expr, out: &mut Vec<AggItem>) {
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
                walk(left, out);
                walk(right, out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Column(_) | Expr::Literal(_) => {}
        }
    }
    let mut out = Vec::new();
    for it in &stmt.projections {
        walk(&it.expr, &mut out);
    }
    for k in &stmt.order_by {
        walk(&k.expr, &mut out);
    }
    out
}

/// Projections of an aggregate query, rewritten to reference the
/// aggregate output columns.
fn final_agg_projections(
    stmt: &SelectStmt,
    group: &[Expr],
    _aggs: &[AggItem],
) -> Vec<(Expr, String)> {
    stmt.projections
        .iter()
        .map(|it| (rewrite_post_agg(&it.expr, group), it.output_name()))
        .collect()
}
