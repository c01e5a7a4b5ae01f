//! The basic fetch-and-process strategy (paper §5.2).
//!
//! A query submitted to peer `P` runs in two steps. In the *fetching*
//! step the query is decomposed into per-table subqueries sent to the
//! peers holding the data (found via the BATON indices); each owner
//! evaluates its subquery locally and ships the qualified tuples back to
//! `P`. In the *processing* step `P` evaluates the original query over
//! the fetched tuples. The paper stages them in MemTables and
//! bulk-inserts them into `P`'s local MySQL first; the trace charges
//! that staging, while the tuples join where they landed, through the
//! join-and-aggregate stage ([`bestpeer_sql::join`]) ParallelP2P also
//! runs.
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

use bestpeer_common::{codec, PeerId, Result, Row};
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::bloom::BloomFilter;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::dist::split_aggregate;
use bestpeer_sql::exec::ResultSet;
use bestpeer_sql::join::JoinStage;
use bestpeer_sql::plan::OutputStage;

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
            partial_rows.extend(rs.rows);
        }
        trace.push(fetch);
        let rs = dist.combine.apply(&partial_rows)?;
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

    // Fetch order: parts[0], then tables in join order (so Bloom filters
    // can be built from already-fetched sides).
    let mut order = vec![0usize];
    order.extend(decomp.joins.iter().map(|j| j.part));
    let mut fetched: Vec<Vec<Vec<Row>>> = Vec::with_capacity(order.len());
    let mut fetched_bytes = 0u64;
    for (pos, &pi) in order.iter().enumerate() {
        let part = &decomp.parts[pi];
        let owners = located.get(&part.table).cloned().unwrap_or_default();
        // Bloom filter over the already-fetched join key, when enabled.
        let bloom: Option<(BloomFilter, usize)> = match (pos, ctx.config.bloom_join) {
            (1.., true) => decomp.joins[pos - 1].keys.map(|(l, r)| {
                // The left key's part: walk the fetched parts' arities.
                let (mut slot, mut col) = (0, l);
                while col >= decomp.parts[order[slot]].binding.arity() {
                    col -= decomp.parts[order[slot]].binding.arity();
                    slot += 1;
                }
                let keys = fetched[slot].iter().flatten().map(|row| row.get(col));
                let count = keys.clone().count();
                let mut f = BloomFilter::new(count.max(16), 0.01);
                for v in keys.filter(|v| !v.is_null()) {
                    f.insert(v);
                }
                let mut build = Task::on(submitter).cpu(count as u64 * 8);
                for owner in &owners {
                    build = build.send(*owner, f.byte_size());
                }
                trace.push(Phase::new(format!("bloom-ship:{}", part.table)).task(build));
                (f, r)
            }),
            _ => None,
        };

        let mut fetch = Phase::new(format!("fetch:{}", part.table));
        let served = ctx.serve_batch(&owners, &part.subquery)?;
        let mut batches = Vec::with_capacity(served.len());
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
            batches.push(rs.rows);
        }
        trace.push(fetch);
        fetched.push(batches);
    }

    // Processing step at the submitting peer: the fetched parts join in
    // place, then aggregate and project.
    let mut stage = JoinStage::new(&decomp);
    for batches in fetched {
        stage.push(batches)?;
    }
    let out = OutputStage::new(stmt, decomp.final_binding());
    let rows = if stmt.is_aggregate() {
        let groups = stage.aggregate(&stmt.group_by, &out.aggs, 1)?;
        let groups = groups.into_iter().flatten().flat_map(|(_, g)| g);
        groups.map(|g| out.project(&g)).collect::<Result<_>>()?
    } else {
        stage.project(&out)?
    };
    let out_bytes = codec::batch_encoded_size(&rows);
    trace.push(
        Phase::new("process").task(
            Task::on(submitter)
                // The paper's §5.2 staging: MemTable bulk inserts into
                // the submitter's database, read back for the join. The
                // simulated clock models the paper's system, so it is
                // charged although the stage joins the rows in place.
                .disk(fetched_bytes)
                .cpu(2 * fetched_bytes + out_bytes),
        ),
    );
    let mut rs = ResultSet {
        columns: out.columns,
        rows,
    };
    if bestpeer_sql::apply_order_limit(stmt, &mut rs) {
        ctx.note_topk();
    }
    Ok((rs, trace))
}
