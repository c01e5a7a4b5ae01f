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
//!
//! The per-table pushdown and the left-deep join order come from
//! [`bestpeer_sql::decompose`] in FROM order, and the aggregate calls and
//! output projection from [`OutputStage`], the same decisions the P2P
//! engines and the local planner use. A map or reduce error fails the
//! job and so the query.

use bestpeer_common::{Error, PeerId, Result, Row, TableSchema, Value};
use bestpeer_simnet::Trace;
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::dist::split_aggregate;
use bestpeer_sql::exec::{aggregate_rows, ResultSet};
use bestpeer_sql::plan::{OutputStage, ResolvedExpr};
use bestpeer_sql::{apply_order_limit, expose_order_keys, parse_select};

use crate::engine::MapReduceEngine;
use crate::hdfs::Hdfs;
use crate::job::{JobInput, MapFn, MapReduceJob, ReduceFn};

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
    fn run_local(&mut self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>>;
    /// The schema of a base table (shared across nodes).
    fn table_schema(&self, table: &str) -> Result<TableSchema>;
}

/// Compile `sql`, run the resulting job chain on the cluster, and apply
/// its ORDER BY / LIMIT to the output; a key the query does not project
/// rides along as a hidden column until then ([`expose_order_keys`]).
pub fn compile_and_run(
    sql: &str,
    workers: &mut dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let (stmt, hidden) = expose_order_keys(parse_select(sql)?);
    let (mut rs, trace) = run_stmt(&stmt, workers, engine, hdfs)?;
    apply_order_limit(&stmt, &mut rs);
    rs.drop_trailing_columns(hidden);
    Ok((rs, trace))
}

/// Compile an already-parsed statement and run the job chain. The rows
/// come back unordered and untruncated: the caller applies ORDER BY /
/// LIMIT once, with [`apply_order_limit`].
pub fn run_stmt(
    stmt: &SelectStmt,
    workers: &mut dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    if stmt.from.is_empty() {
        return Err(Error::Plan("empty FROM".into()));
    }
    if stmt.join_count() == 0 && !stmt.is_aggregate() {
        map_only_query(stmt, workers, engine, hdfs)
    } else if stmt.join_count() == 0 {
        single_job_aggregate(stmt, workers, engine, hdfs)
    } else {
        join_pipeline(stmt, workers, engine, hdfs)
    }
}

/// One node's contribution to a job: `(peer, rows, disk bytes scanned)`.
type LocalPart = (PeerId, Vec<Row>, u64);

/// Run `stmt` against every node's local data, returning
/// `(peer, rows, disk bytes scanned)` per node plus the column names.
fn local_results(
    stmt: &SelectStmt,
    workers: &mut dyn LocalSource,
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
    workers: &mut dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let (parts, columns) = local_results(stmt, workers)?;
    let job = MapReduceJob {
        name: "select".into(),
        map: Box::new(|_| Ok(Some(Value::Int(0)))),
        reduce: None,
        input: JobInput::Local(parts),
        reducers: workers.peers().len(),
    };
    let (rows, trace) = engine.run_chain(vec![job], hdfs)?;
    Ok((ResultSet { columns, rows }, trace))
}

/// Q2 class: one job; map tasks run the partial aggregate locally and
/// shuffle partial rows by group key; reducers combine.
fn single_job_aggregate(
    stmt: &SelectStmt,
    workers: &mut dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    let dist = split_aggregate(stmt)?;
    let (parts, _) = local_results(&dist.partial, workers)?;
    let k = dist.combine.group_keys;
    let combine = dist.combine.clone();
    let columns = combine.output.columns.clone();
    let job = MapReduceJob {
        name: "aggregate".into(),
        map: Box::new(move |row| Ok(Some(group_key_of(row, k)))),
        reduce: Some(Box::new(move |_key, rows, out| {
            // Combine partials for this one group.
            out.extend(combine.apply(rows)?.rows);
            Ok(())
        })),
        input: JobInput::Local(parts),
        reducers: workers.peers().len(),
    };
    let (mut rows, trace) = engine.run_chain(vec![job], hdfs)?;
    // A global aggregate over an entirely-empty cluster still returns
    // one row (SQL semantics); partials always exist per worker, so the
    // only truly-empty case is zero workers, which the constructor
    // forbids. Guard anyway.
    if rows.is_empty() && k == 0 {
        rows = dist.combine.apply(&[])?.rows;
    }
    Ok((ResultSet { columns, rows }, trace))
}

/// Q3/Q4/Q5 class: one repartition-join job per join, then (when the
/// query aggregates) one aggregation job.
fn join_pipeline(
    stmt: &SelectStmt,
    workers: &mut dyn LocalSource,
    engine: &MapReduceEngine,
    hdfs: &mut Hdfs,
) -> Result<(ResultSet, Trace)> {
    // Per-table subqueries with selection/projection pushdown, and the
    // left-deep join order with per-level residuals, in FROM order.
    let schemas = stmt
        .from
        .iter()
        .map(|t| workers.table_schema(t))
        .collect::<Result<Vec<_>>>()?;
    let decomp = decompose(stmt, &schemas)?;
    let final_binding = decomp.final_binding();
    let output = OutputStage::new(stmt, final_binding);

    // Build and run one repartition-join job per step.
    let mut trace = Trace::new();
    let mut prev_path: Option<String> = None;
    let n_workers = workers.peers().len();
    for (k, step) in decomp.joins.iter().enumerate() {
        // Assemble tagged input: left side (base table or previous HDFS
        // output) tagged 0, right side (base table) tagged 1.
        let mut parts: Vec<LocalPart> = Vec::new();
        match &prev_path {
            None => {
                let (base, _) = local_results(&decomp.parts[0].subquery, workers)?;
                for (peer, rows, scanned) in base {
                    parts.push((peer, tag_rows(rows, 0), scanned));
                }
            }
            Some(path) => {
                for (peer, rows) in hdfs.parts(path)? {
                    let bytes = bestpeer_common::codec::batch_encoded_size(rows);
                    let tagged = rows.iter().map(|r| tagged(0, r.values().iter().cloned()));
                    parts.push((peer, tagged.collect(), bytes));
                }
            }
        }
        let (right, _) = local_results(&decomp.parts[step.part].subquery, workers)?;
        for (peer, rows, scanned) in right {
            parts.push((peer, tag_rows(rows, 1), scanned));
        }

        // A NULL join key matches nothing, so its row is never shuffled.
        let keys = step.keys;
        let map: MapFn = Box::new(move |row| {
            Ok(match keys {
                Some((l, r)) => {
                    let side = if row.get(0).as_int()? == 0 { l } else { r };
                    Some(row.get(1 + side)).filter(|k| !k.is_null()).cloned()
                }
                None => Some(Value::Int(0)),
            })
        });
        let residuals = ResolvedExpr::bind_all(&step.residuals, &step.out_binding);
        // The last join of a non-aggregate query projects in the reducer.
        let project = (k + 1 == decomp.joins.len() && !stmt.is_aggregate()).then(|| output.clone());
        let reduce: ReduceFn = Box::new(move |_key, rows, out| {
            // Each side's values, past the tag.
            let mut left = Vec::new();
            let mut right = Vec::new();
            for r in rows {
                let values = &r.values()[1..];
                if r.get(0).as_int()? == 0 {
                    left.push(values);
                } else {
                    right.push(values);
                }
            }
            for a in &left {
                'pairs: for b in &right {
                    let joined = Row::new([*a, *b].concat());
                    for p in &residuals {
                        if !p.holds(&joined)? {
                            continue 'pairs;
                        }
                    }
                    out.push(match &project {
                        Some(stage) => stage.project(&joined)?,
                        None => joined,
                    });
                }
            }
            Ok(())
        });
        let job = MapReduceJob {
            name: format!("join{k}"),
            map,
            reduce: Some(reduce),
            input: JobInput::Local(parts),
            reducers: n_workers,
        };
        // Jobs run one at a time so each job's HDFS output exists
        // before the next job reads it.
        let outcome = engine.run_job(job, hdfs)?;
        prev_path = Some(outcome.output_path);
        for p in outcome.phases {
            trace.push(p);
        }
    }
    let last_path = prev_path.expect("at least one join job ran");
    if !stmt.is_aggregate() {
        let rows = hdfs.read(&last_path)?;
        return Ok((
            ResultSet {
                columns: output.columns,
                rows,
            },
            trace,
        ));
    }

    // Final aggregation job over the joined tuples.
    let map_group = ResolvedExpr::bind_all(&stmt.group_by, final_binding);
    let map: MapFn = Box::new(move |row| composite_group_key(&map_group, row).map(Some));
    let red_group = stmt.group_by.clone();
    let red_binding = final_binding.clone();
    let stage = output.clone();
    let reduce: ReduceFn = Box::new(move |_key, rows, out| {
        for r in aggregate_rows(rows, &red_binding, &red_group, &stage.aggs)? {
            out.push(stage.project(&r)?);
        }
        Ok(())
    });
    let agg_job = MapReduceJob {
        name: "final-agg".into(),
        map,
        reduce: Some(reduce),
        input: JobInput::HdfsFile(last_path),
        reducers: n_workers,
    };
    let outcome = engine.run_job(agg_job, hdfs)?;
    for p in outcome.phases {
        trace.push(p);
    }
    let mut rows = hdfs.read(&outcome.output_path)?;
    if rows.is_empty() && stmt.group_by.is_empty() {
        // SQL semantics: a global aggregate over an empty join still
        // yields one row (COUNT = 0, SUM = NULL, ...). No tuple ever
        // reached a reducer, so synthesize it here.
        for r in aggregate_rows::<Row>(&[], final_binding, &[], &output.aggs)? {
            rows.push(output.project(&r)?);
        }
    }
    Ok((
        ResultSet {
            columns: output.columns,
            rows,
        },
        trace,
    ))
}

// --- small helpers ------------------------------------------------------

fn tag_rows(rows: Vec<Row>, tag: i64) -> Vec<Row> {
    rows.into_iter()
        .map(|r| tagged(tag, r.into_values().into_iter()))
        .collect()
}

/// A row of `values` prefixed with a join-side tag, in one allocation.
fn tagged(tag: i64, values: impl ExactSizeIterator<Item = Value>) -> Row {
    let mut vals = Vec::with_capacity(values.len() + 1);
    vals.push(Value::Int(tag));
    vals.extend(values);
    Row::new(vals)
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

/// Evaluate bound group expressions and pack them into one shuffle key.
fn composite_group_key(group: &[ResolvedExpr], row: &Row) -> Result<Value> {
    Ok(match group {
        [] => Value::Int(0),
        [g] => g.value(row)?.into_owned(),
        _ => {
            let mut s = String::new();
            for g in group {
                s.push_str(&g.value(row)?.to_string());
                s.push('\u{1}');
            }
            Value::Str(s)
        }
    })
}
