//! The MapReduce engine inside BestPeer++ (paper §5.4).
//!
//! "Besides its native processing strategy, we also implement a
//! MapReduce-style engine for BestPeer++. ... the mappers read data
//! directly from the BestPeer++ instances and the output of reducers are
//! written back to HDFS. ... instead of doing replicate joins, the
//! symmetric-hash join approach is adopted: each tuple only needs to be
//! shuffled once on each level", at the price of the per-job start-up
//! overhead `φ`.
//!
//! The compiler is shared with the HadoopDB baseline
//! ([`bestpeer_mapreduce::sqlcompile`]); what differs here is the
//! [`LocalSource`]: map tasks read from the normal peers through
//! [`EngineCtx::serve_batch`], the serve path every engine shares.

use bestpeer_common::{PeerId, Result, TableSchema};
use bestpeer_mapreduce::sqlcompile::{run_stmt, LocalSource};
use bestpeer_mapreduce::{Hdfs, MapReduceEngine};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::ResultSet;

use super::{EngineCtx, EngineOutput};

/// HDFS replication factor of the file system mounted for MapReduce
/// jobs and HadoopDB exports.
pub(crate) const HDFS_REPLICATION: usize = 3;

/// [`LocalSource`] over the normal peers. Map tasks are owner serves, so
/// the fault clock ticks per map task (injected crashes land mid-job),
/// and admission, access control, Definition 2's snapshot check, the
/// result cache, and exec-stat folding apply exactly as in the native
/// engines.
struct PeerSource<'c, 'a>(&'c mut EngineCtx<'a>);

impl LocalSource for PeerSource<'_, '_> {
    fn peers(&self) -> Vec<PeerId> {
        self.0.peers.keys().copied().collect()
    }

    fn run_local(&mut self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>> {
        Ok(self
            .0
            .serve_batch(peers, stmt)?
            .into_iter()
            .map(|(rs, stats, _)| (rs, stats.bytes_scanned))
            .collect())
    }

    fn table_schema(&self, table: &str) -> Result<TableSchema> {
        self.0.schema(table).cloned()
    }
}

/// Execute `stmt` with the MapReduce engine. An HDFS instance is
/// mounted over the normal peers for the job chain ("a Hadoop
/// distributed file system is mounted at system start time to serve as
/// the temporal storage media for MapReduce jobs").
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    _submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<EngineOutput> {
    let workers: Vec<PeerId> = ctx.peers.keys().copied().collect();
    let engine = MapReduceEngine::new(workers.clone(), ctx.config.mr);
    let mut hdfs = Hdfs::new(workers, HDFS_REPLICATION);
    let (mut rs, trace) = run_stmt(stmt, &mut PeerSource(ctx), &engine, &mut hdfs)?;
    // `run_stmt` leaves ordering and truncation to its caller, so they
    // run once, here, like every engine's coordinator step.
    if bestpeer_sql::apply_order_limit(stmt, &mut rs) {
        ctx.note_topk();
    }
    Ok((rs, trace))
}
