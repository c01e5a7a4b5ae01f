//! The basic fetch-and-process strategy (paper §5.2).
//!
//! A query submitted to peer `P` runs in two steps. In the *fetching*
//! step the query is decomposed into per-table subqueries sent to the
//! peers holding the data (found via the BATON indices); each owner
//! evaluates its subquery locally and ships the qualified tuples back to
//! `P`, which stages them in MemTables and bulk-inserts them into its
//! local database. In the *processing* step `P` evaluates the original
//! query over the staged data.
//!
//! Three optimizations from the paper:
//! - **single-peer optimization** (§6.2.3): when one peer holds all the
//!   required data, the entire SQL statement is shipped to it and the
//!   processing step is skipped — this is what makes the throughput
//!   benchmark scale linearly;
//! - **partial aggregation** (§6.1.7): aggregate queries without joins
//!   send the whole (partially-aggregated) query to each owner and only
//!   combine small partial results at `P`;
//! - **bloom join** (§5.2): for equi-joins, `P` builds a Bloom filter
//!   over the already-fetched side's join keys and ships it to the other
//!   side's owners, which drop non-matching tuples before transmission.

use std::collections::HashSet;

use bestpeer_common::{codec, Error, PeerId, Result, TableSchema, Value};
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::bloom::BloomFilter;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::dist::split_aggregate;
use bestpeer_sql::exec::execute_select;
use bestpeer_storage::{Database, MemTable};

use super::{EngineCtx, EngineOutput};

/// Execute `stmt` with the basic strategy on behalf of `submitter`.
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<EngineOutput> {
    let mut trace = Trace::new();
    let located = ctx.locate(submitter, stmt, &mut trace)?;

    // ---- single-peer optimization -------------------------------
    if ctx.config.single_peer_opt {
        let all: HashSet<PeerId> = located.values().flatten().copied().collect();
        if all.len() == 1 {
            let owner = *all.iter().next().expect("non-empty");
            let (rs, stats, warm) = ctx.serve_batch(&[owner], stmt)?.remove(0);
            let out_bytes = codec::batch_encoded_size(&rs.rows);
            // A warm hit replays the result from the submitter's cache:
            // no owner disk scan, no tuple shipping — just local CPU.
            trace.push(Phase::new("single-peer-exec").task(if warm {
                Task::on(submitter).cpu(out_bytes)
            } else {
                Task::on(owner)
                    .disk(stats.bytes_scanned)
                    .cpu(stats.bytes_scanned + out_bytes)
                    .send(submitter, out_bytes)
            }));
            return Ok((rs, trace));
        }
    }

    // ---- partial aggregation (no joins) --------------------------
    if stmt.is_aggregate() && stmt.join_count() == 0 {
        let dist = split_aggregate(stmt)?;
        let table = &stmt.from[0];
        let owners = located.get(table).cloned().unwrap_or_default();
        let mut fetch = Phase::new("fetch-partials");
        let mut partial_rows = Vec::new();
        let mut partial_cols = Vec::new();
        let mut total_bytes = 0u64;
        // One batched serve: preamble and merge stay in owner order, so
        // the trace is identical to the old per-owner loop; only the
        // cache-miss executions run concurrently.
        let served = ctx.serve_batch(&owners, &dist.partial)?;
        for (&owner, (rs, stats, warm)) in owners.iter().zip(served) {
            let out_bytes = codec::batch_encoded_size(&rs.rows);
            total_bytes += out_bytes;
            fetch.push(if warm {
                Task::on(submitter).cpu(out_bytes)
            } else {
                Task::on(owner)
                    .disk(stats.bytes_scanned)
                    .cpu(stats.bytes_scanned + out_bytes)
                    .send(submitter, out_bytes)
            });
            partial_cols = rs.columns;
            partial_rows.extend(rs.rows);
        }
        trace.push(fetch);
        let rs = dist.combine.apply(&partial_cols, &partial_rows)?;
        trace.push(Phase::new("combine").task(Task::on(submitter).cpu(total_bytes * 2)));
        let mut rs = rs;
        if bestpeer_sql::apply_order_limit(stmt, &mut rs) {
            ctx.note_topk();
        }
        return Ok((rs, trace));
    }

    // ---- fetch-and-process ---------------------------------------
    // Fetch the most selective table first so the Bloom filter built
    // from it prunes the bigger sides before they cross the network.
    let schemas = ctx.from_schemas(stmt)?;
    let (stmt_ord, schemas) = bestpeer_sql::decompose::reorder_for_selectivity(stmt, &schemas);
    let stmt = &stmt_ord;
    let decomp = decompose(stmt, &schemas)?;
    let mut temp = Database::new();
    for part in &decomp.parts {
        temp.create_table(temp_schema(part.binding.arity(), &part.binding, &schemas)?)?;
    }

    // Fetch order: parts[0], then tables in join order (so Bloom filters
    // can be built from already-fetched sides).
    let mut order = vec![0usize];
    order.extend(decomp.joins.iter().map(|j| j.part));
    let mut fetched_bytes = 0u64;
    let mut current_binding = decomp.parts[0].binding.clone();
    for (pos, &pi) in order.iter().enumerate() {
        let part = &decomp.parts[pi];
        let owners = located.get(&part.table).cloned().unwrap_or_default();
        // Bloom filter over the already-fetched join key, when enabled.
        let bloom: Option<(BloomFilter, usize)> = if ctx.config.bloom_join && pos > 0 {
            let step = &decomp.joins[pos - 1];
            match step.keys {
                Some((l, r)) => {
                    let (ltable, lcol) = current_binding.col(l).clone();
                    let ltable = ltable.expect("qualified binding");
                    let values = column_values(&temp, &ltable, &lcol)?;
                    let mut f = BloomFilter::new(values.len().max(16), 0.01);
                    for v in &values {
                        if !v.is_null() {
                            f.insert(v);
                        }
                    }
                    let mut ship = Phase::new(format!("bloom-ship:{}", part.table));
                    let mut build = Task::on(submitter).cpu(values.len() as u64 * 8);
                    for owner in &owners {
                        build = build.send(*owner, f.byte_size());
                    }
                    ship.push(build);
                    trace.push(ship);
                    Some((f, r))
                }
                None => None,
            }
        } else {
            None
        };

        let mut fetch = Phase::new(format!("fetch:{}", part.table));
        let mut memtable = MemTable::new(part.table.clone(), ctx.config.memtable_budget);
        let served = ctx.serve_batch(&owners, &part.subquery)?;
        for (&owner, (mut rs, stats, warm)) in owners.iter().zip(served) {
            // The cache stores the owner's pre-bloom result; the bloom
            // prune below runs at the submitter either way, so warm and
            // cold fetches stage byte-identical rows.
            if let Some((filter, key_pos)) = &bloom {
                rs.rows.retain(|row| {
                    let v = row.get(*key_pos);
                    !v.is_null() && filter.contains(v)
                });
            }
            let out_bytes = codec::batch_encoded_size(&rs.rows);
            fetched_bytes += out_bytes;
            fetch.push(if warm {
                Task::on(submitter).cpu(out_bytes)
            } else {
                Task::on(owner)
                    .disk(stats.bytes_scanned)
                    .cpu(stats.bytes_scanned + out_bytes)
                    .send(submitter, out_bytes)
            });
            for row in rs.rows {
                memtable.push(&mut temp, row)?;
            }
        }
        memtable.flush(&mut temp)?;
        trace.push(fetch);
        if pos > 0 {
            current_binding = decomp.joins[pos - 1].out_binding.clone();
        }
    }

    // Processing step at the submitting peer.
    // The staging tables carry the original names and (pruned) columns,
    // so the original statement evaluates directly.
    let (rs, pstats) = execute_select(stmt, &temp)?;
    ctx.note_exec(&pstats);
    let out_bytes = codec::batch_encoded_size(&rs.rows);
    trace.push(
        Phase::new("process").task(
            Task::on(submitter)
                // MemTable bulk inserts + reading them back for the join.
                .disk(fetched_bytes)
                .cpu(2 * fetched_bytes + out_bytes),
        ),
    );
    Ok((rs, trace))
}

/// Schema of the staging table for one fetched part: the part's columns
/// with their global types and *no* primary key (masked values may be
/// NULL, and uniqueness was already enforced at the owners).
fn temp_schema(
    arity: usize,
    binding: &bestpeer_sql::plan::Binding,
    schemas: &[TableSchema],
) -> Result<TableSchema> {
    let (table, _) = binding.col(0);
    let table = table
        .clone()
        .ok_or_else(|| Error::Internal("unqualified binding".into()))?;
    let global = schemas
        .iter()
        .find(|s| s.name == table)
        .ok_or_else(|| Error::Catalog(format!("no schema for `{table}`")))?;
    let mut cols = Vec::with_capacity(arity);
    for i in 0..arity {
        let (_, name) = binding.col(i);
        let ty = global.columns[global.column_index(name)?].ty;
        cols.push(bestpeer_common::ColumnDef::new(name.clone(), ty));
    }
    TableSchema::new(table, cols, vec![])
}

/// All values of one column of a staged table.
fn column_values(db: &Database, table: &str, column: &str) -> Result<Vec<Value>> {
    let t = db.table(table)?;
    let idx = t.schema().column_index(column)?;
    Ok(t.scan().map(|r| r.get(idx).clone()).collect())
}
