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

use std::collections::HashMap;

use bestpeer_common::{codec, PeerId, Result, Row, Value};
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::exec::{aggregate_rows, ResultSet};
use bestpeer_sql::plan::{Binding, OutputStage, ResolvedExpr};

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
    let mut inter_rows: Vec<Row> = Vec::new();
    let mut inter_binding: Binding = part0.binding.clone();
    let mut phase = Phase::new(format!("scan:{}", part0.table));
    // Batched serve: preamble and merge stay in owner order (identical
    // traces); only the cache-miss partition scans run concurrently.
    let served = ctx.serve_batch(&owners0, &part0.subquery)?;
    for (&owner, (rs, stats, warm)) in owners0.iter().zip(served) {
        let out_bytes = codec::batch_encoded_size(&rs.rows);
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
        inter_rows.extend(rs.rows);
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
        let inter_bytes = codec::batch_encoded_size(&inter_rows);
        let mut phase = Phase::new(format!("join:{}", part.table));
        let mut next_rows = Vec::new();
        let served = ctx.serve_batch(&owners, &part.subquery)?;
        // Each owner's probe of the broadcast intermediate against its
        // partition is independent CPU work — fan the joins out to pool
        // workers and merge their outputs back in owner order.
        let residuals = ResolvedExpr::bind_all(&step.residuals, &step.out_binding);
        let joined_parts = bestpeer_common::pool::run_tasks(&served, |_, (rs, _, _)| {
            local_join(&inter_rows, &rs.rows, step.keys, &residuals)
        });
        for ((&owner, (_, stats, warm)), joined) in
            owners.iter().zip(served.iter()).zip(joined_parts)
        {
            let joined = joined?;
            let out_bytes = codec::batch_encoded_size(&joined);
            // Warm: the owner's partition scan is memoized, so its join
            // task probes the broadcast intermediate against the cached
            // partition — no disk, no scan CPU, same placement.
            let mut task = if *warm {
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
            next_rows.extend(joined);
        }
        trace.push(phase);
        inter_rows = next_rows;
        inter_binding = step.out_binding.clone();
    }

    // ---- GROUP BY level + root ------------------------------------
    let out = OutputStage::new(stmt, &inter_binding);
    let final_rows = if stmt.is_aggregate() {
        let group = &stmt.group_by;
        let group_nodes: Vec<PeerId> = match decomp.joins.last() {
            Some(j) => located
                .get(&decomp.parts[j.part].table)
                .cloned()
                .unwrap_or_default(),
            None => vec![submitter],
        };
        let n = group_nodes.len().max(1);
        // Hash-partition the joined tuples by group key across the
        // group-level nodes; each node aggregates disjoint groups.
        let mut partitions: Vec<Vec<Row>> = vec![Vec::new(); n];
        let first_key = group.first().map(|g| ResolvedExpr::bind(g, &inter_binding));
        for row in inter_rows {
            let slot = match &first_key {
                Some(g) => (hash_of(&*g.value(&row)?) % n as u64) as usize,
                None => 0,
            };
            partitions[slot].push(row);
        }
        let mut phase = Phase::new("group-by");
        let mut agg_out = Vec::new();
        // Slots aggregate disjoint groups, so they fan out to pool
        // workers; tasks and output merge back in slot order. Empty
        // partitions contribute nothing — except that a *global*
        // aggregate must still produce its single row, so slot 0 always
        // runs when there is no GROUP BY.
        let aggregated = bestpeer_common::pool::run_tasks(&partitions, |slot, rows| {
            if rows.is_empty() && (!group.is_empty() || slot != 0) {
                return Ok(None);
            }
            aggregate_rows(rows, &inter_binding, group, &out.aggs).map(Some)
        });
        for (slot, (rows, agg)) in partitions.iter().zip(aggregated).enumerate() {
            let Some(groups) = agg? else { continue };
            let node = group_nodes[slot % n];
            let in_bytes = codec::batch_encoded_size(rows);
            let out_bytes = codec::batch_encoded_size(&groups);
            phase.push(
                Task::on(node)
                    .cpu(2 * in_bytes + out_bytes)
                    .send(submitter, out_bytes),
            );
            agg_out.extend(groups);
        }
        trace.push(phase);
        agg_out
    } else {
        inter_rows
    };

    // Root: the output projection at the submitter.
    let rows: Vec<Row> = final_rows
        .iter()
        .map(|r| out.project(r))
        .collect::<Result<_>>()?;
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

/// Hash join of the broadcast intermediate against one local partition.
/// `residuals` are bound to the joined rows.
fn local_join(
    left: &[Row],
    right: &[Row],
    keys: Option<(usize, usize)>,
    residuals: &[ResolvedExpr],
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    match keys {
        Some((lk, rk)) => {
            let mut ht: HashMap<&Value, Vec<&Row>> = HashMap::with_capacity(left.len());
            for row in left {
                if !row.get(lk).is_null() {
                    ht.entry(row.get(lk)).or_default().push(row);
                }
            }
            for r in right {
                if let Some(matches) = ht.get(r.get(rk)) {
                    for l in matches {
                        push_if_residuals(l.concat(r), residuals, &mut out)?;
                    }
                }
            }
        }
        None => {
            for l in left {
                for r in right {
                    push_if_residuals(l.concat(r), residuals, &mut out)?;
                }
            }
        }
    }
    Ok(out)
}

fn push_if_residuals(row: Row, residuals: &[ResolvedExpr], out: &mut Vec<Row>) -> Result<()> {
    for p in residuals {
        if !p.holds(&row)? {
            return Ok(());
        }
    }
    out.push(row);
    Ok(())
}

/// Group-key → partition hash. Must be the workspace's stable hash:
/// std's `DefaultHasher` is "not guaranteed stable across releases",
/// which would let a toolchain upgrade silently re-route the shuffle
/// and change every trace (breaking chaos-replay determinism).
fn hash_of(v: &Value) -> u64 {
    bestpeer_common::stable_hash(v)
}
