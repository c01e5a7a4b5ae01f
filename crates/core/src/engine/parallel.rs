//! The parallel P2P strategy: replicated joins (paper §5.3).
//!
//! "For each join, instead of forwarding all tuples into a single
//! processing node, we disseminate them into a set of nodes, which will
//! process the join in parallel. We adopt the conventional replicated
//! join approach: the small table will be replicated to all processing
//! nodes and joined with a partition of the large table."
//!
//! The query's processing graph (Definition 3) has one level per join
//! plus one for GROUP BY; level `L` (the deepest) reads from storage,
//! each level's output is broadcast to the next level's nodes, and the
//! root (the submitting peer) collects the final result. The broadcast
//! is the trade-off the cost model (Eq. 8) prices: every level-`i`
//! intermediate is shipped to all `t(T_i)` partitions of the next table.

use bestpeer_common::{codec, PeerId, Result, Row};
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::exec::{ExecStats, ResultSet};
use bestpeer_sql::join::JoinStage;
use bestpeer_sql::plan::OutputStage;

use super::{EngineCtx, EngineOutput};

/// Execute `stmt` with the parallel P2P strategy.
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<EngineOutput> {
    let mut trace = Trace::new();
    let located = ctx.locate(submitter, stmt, &mut trace)?;
    // The replicated-join pipeline starts from the most selective
    // table — the "small table" of the replicated join (§5.3).
    let schemas = ctx.from_schemas(stmt)?;
    let (stmt_ord, schemas) = bestpeer_sql::decompose::reorder_for_selectivity(stmt, &schemas);
    let stmt = &stmt_ord;
    let decomp = decompose(stmt, &schemas)?;
    // Every level's tuples join in place at the submitter: the trace
    // charges each level's broadcast and per-owner joins from tuple
    // sizes, which equal the encoded sizes of the joined rows.
    let mut stage = JoinStage::new(&decomp);

    // ---- level L: read the driving table from storage -------------
    let part0 = &decomp.parts[0];
    let owners0 = located.get(&part0.table).cloned().unwrap_or_default();
    let next_nodes: Vec<PeerId> = match decomp.joins.first() {
        Some(j) => located
            .get(&decomp.parts[j.part].table)
            .cloned()
            .unwrap_or_default(),
        None => vec![submitter],
    };
    let mut phase = Phase::new(format!("scan:{}", part0.table));
    // Batched serve: preamble and merge stay in owner order (identical
    // traces); only the cache-miss partition scans run concurrently.
    let (served, rows) = split(ctx.serve_batch(&owners0, &part0.subquery)?);
    let scanned = stage.push(rows)?;
    for ((&owner, (stats, warm)), out_bytes) in owners0.iter().zip(served).zip(scanned) {
        // In this engine the pushed-down partition scan is consumed at
        // the owner itself (its output feeds the owner's broadcast), so
        // a warm hit memoizes the scan *at the owner*: the disk read
        // and scan CPU vanish, while placement, broadcast, and the
        // parallel structure stay exactly as cold — a hit can only
        // shorten every queue's timeline, never re-serialize the level
        // through a single peer.
        let mut task = if warm {
            Task::on(owner).cpu(out_bytes)
        } else {
            Task::on(owner)
                .disk(stats.bytes_scanned)
                .cpu(stats.bytes_scanned + out_bytes)
        };
        // Replicated to every node of the next level.
        for n in &next_nodes {
            task = task.send(*n, out_bytes);
        }
        phase.push(task);
    }
    trace.push(phase);

    // ---- join levels ----------------------------------------------
    for (k, step) in decomp.joins.iter().enumerate() {
        let part = &decomp.parts[step.part];
        let owners = located.get(&part.table).cloned().unwrap_or_default();
        let nodes_after: Vec<PeerId> = match decomp.joins.get(k + 1) {
            Some(j) => located
                .get(&decomp.parts[j.part].table)
                .cloned()
                .unwrap_or_default(),
            None if stmt.is_aggregate() => owners.clone(), // GROUP BY level reuses these nodes
            None => vec![submitter],
        };
        let inter_bytes = stage.bytes();
        let mut phase = Phase::new(format!("join:{}", part.table));
        // Each owner's probe of the broadcast intermediate against its
        // partition is independent CPU work: the stage probes the
        // owners' partitions on pool workers and merges in owner order.
        let (served, rows) = split(ctx.serve_batch(&owners, &part.subquery)?);
        let joined = stage.push(rows)?;
        for ((&owner, (stats, warm)), out_bytes) in owners.iter().zip(served).zip(joined) {
            // Warm: the owner's partition scan is memoized, so its join
            // task probes the broadcast intermediate against the cached
            // partition — no disk, no scan CPU, same placement.
            let mut task = if warm {
                Task::on(owner).cpu(inter_bytes + out_bytes)
            } else {
                Task::on(owner)
                    .disk(stats.bytes_scanned)
                    .cpu(inter_bytes + stats.bytes_scanned + out_bytes)
            };
            if stmt.is_aggregate() && k + 1 == decomp.joins.len() {
                // Last join feeds the GROUP BY level hash-partitioned:
                // each node receives ~1/n of the output, not a replica.
                // The remainder of the integer division is spread over
                // the first nodes so the shares sum to out_bytes
                // exactly — the trace must account for every byte sent.
                let n = nodes_after.len().max(1) as u64;
                let (share, rem) = (out_bytes / n, out_bytes % n);
                for (i, node) in nodes_after.iter().enumerate() {
                    let extra = u64::from((i as u64) < rem);
                    task = task.send(*node, share + extra);
                }
            } else {
                for n in &nodes_after {
                    task = task.send(*n, out_bytes);
                }
            }
            phase.push(task);
        }
        trace.push(phase);
    }

    // ---- GROUP BY level + root ------------------------------------
    let out = OutputStage::new(stmt, decomp.final_binding());
    let rows: Vec<Row> = if stmt.is_aggregate() {
        let group_nodes: Vec<PeerId> = match decomp.joins.last() {
            Some(j) => located
                .get(&decomp.parts[j.part].table)
                .cloned()
                .unwrap_or_default(),
            None => vec![submitter],
        };
        // The tuples are hash-partitioned by group key across the
        // group-level nodes; each node aggregates disjoint groups.
        let n = group_nodes.len().max(1);
        let mut phase = Phase::new("group-by");
        let mut agg_out = Vec::new();
        for (slot, agg) in stage
            .aggregate(&stmt.group_by, &out.aggs, n)?
            .into_iter()
            .enumerate()
        {
            let Some((in_bytes, groups)) = agg else {
                continue;
            };
            let out_bytes = codec::batch_encoded_size(&groups);
            phase.push(
                Task::on(group_nodes[slot % n])
                    .cpu(2 * in_bytes + out_bytes)
                    .send(submitter, out_bytes),
            );
            agg_out.extend(groups);
        }
        trace.push(phase);
        // Root: the output projection at the submitter.
        agg_out
            .iter()
            .map(|r| out.project(r))
            .collect::<Result<_>>()?
    } else {
        stage.project(&out)?
    };
    let out_bytes = codec::batch_encoded_size(&rows);
    trace.push(Phase::new("root").task(Task::on(submitter).cpu(out_bytes)));
    let mut rs = ResultSet {
        columns: out.columns,
        rows,
    };
    if bestpeer_sql::apply_order_limit(stmt, &mut rs) {
        ctx.note_topk();
    }
    Ok((rs, trace))
}

/// Split served owner results into their `(stats, warm)` and their rows.
fn split(served: Vec<(ResultSet, ExecStats, bool)>) -> (Vec<(ExecStats, bool)>, Vec<Vec<Row>>) {
    served
        .into_iter()
        .map(|(rs, stats, warm)| ((stats, warm), rs.rows))
        .unzip()
}
