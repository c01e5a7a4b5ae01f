//! One network process exposed over a wire transport.
//!
//! [`NodeService`] implements [`bestpeer_transport::Handler`]: it owns a
//! [`BestPeerNetwork`] (behind a mutex, which serialises the requests
//! that need `&mut` access to it on the multi-threaded transport
//! server) plus the id of the local data peer this process hosts, and
//! answers the [`Request`] vocabulary —
//! pushed-down subqueries, full queries, inventory exchanges, remote
//! registration, data loading, role definition, and statistics probes.
//! The `bestpeer-node` binary wraps this in a
//! [`bestpeer_transport::TcpServer`]; tests also drive it through
//! [`bestpeer_transport::LocalTransport`] to exercise the full
//! encode/decode round trip without sockets.

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use bestpeer_common::{PeerId, Result};
use bestpeer_sql::exec::ExecStats;
use bestpeer_sql::parse_select;
use bestpeer_transport::{Handler, Request, Response};

use crate::access::Role;
use crate::indexer;
use crate::network::{BestPeerNetwork, EngineChoice};

/// `ExecStats` as self-describing named counters for the wire. The
/// transport layer stays ignorant of the SQL crate; unknown counter
/// names are ignored on decode, so the set can grow without a protocol
/// rev.
pub fn stats_to_counters(s: &ExecStats) -> Vec<(String, u64)> {
    vec![
        ("rows_scanned".into(), s.rows_scanned),
        ("bytes_scanned".into(), s.bytes_scanned),
        ("rows_output".into(), s.rows_output),
        ("index_scans".into(), s.index_scans),
        ("full_scans".into(), s.full_scans),
        ("rows_shared".into(), s.rows_shared),
        ("rows_cloned".into(), s.rows_cloned),
        ("topk_short_circuits".into(), s.topk_short_circuits),
    ]
}

/// Inverse of [`stats_to_counters`]; unrecognized names are skipped.
pub fn counters_to_stats(counters: &[(String, u64)]) -> ExecStats {
    let mut s = ExecStats::default();
    for (name, v) in counters {
        match name.as_str() {
            "rows_scanned" => s.rows_scanned = *v,
            "bytes_scanned" => s.bytes_scanned = *v,
            "rows_output" => s.rows_output = *v,
            "index_scans" => s.index_scans = *v,
            "full_scans" => s.full_scans = *v,
            "rows_shared" => s.rows_shared = *v,
            "rows_cloned" => s.rows_cloned = *v,
            "topk_short_circuits" => s.topk_short_circuits = *v,
            _ => {}
        }
    }
    s
}

/// A process-local BestPeer++ node: one network, one hosted data peer,
/// served over any [`bestpeer_transport::Transport`].
pub struct NodeService {
    net: Mutex<BestPeerNetwork>,
    local: PeerId,
}

impl NodeService {
    /// Wrap a network whose data peer `local` this process hosts.
    pub fn new(net: BestPeerNetwork, local: PeerId) -> Self {
        NodeService {
            net: Mutex::new(net),
            local,
        }
    }

    /// Lock the underlying network (the binary and tests administer
    /// the node through this — loading, linking, local queries).
    pub fn network(&self) -> MutexGuard<'_, BestPeerNetwork> {
        // A panic while holding the lock poisons it; the network's
        // state is still structurally sound (no unsafe, no partial
        // writes survive a &mut method unwind observably here), so
        // serving continues rather than wedging the whole node.
        self.net.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// This node's inventory: the hosted peer's load timestamp and its
    /// current BATON index entries, ready to ship in an
    /// [`Response::Inventory`] / [`Request::AddRemote`] exchange.
    pub fn inventory(&self) -> Result<(u64, Vec<u8>)> {
        let net = self.network();
        let range_cols = net.config().range_index_columns.clone();
        let peer = net.peer(self.local)?;
        let entries = indexer::peer_entries(self.local, &peer.db, &range_cols)?;
        Ok((peer.db.load_timestamp(), indexer::encode_entries(&entries)))
    }

    fn serve_subquery(&self, sql: &str, role: &[u8], query_ts: u64) -> Result<Response> {
        let stmt = parse_select(sql)?;
        let role = Role::decode(role)?;
        let net = self.network();
        let (rs, stats) = net
            .peer(self.local)?
            .serve_subquery(&stmt, &role, query_ts)?;
        Ok(Response::Rows {
            columns: rs.columns,
            rows: rs.rows,
            stats: stats_to_counters(&stats),
        })
    }

    fn serve_query(&self, sql: &str, role: &str) -> Result<Response> {
        let mut net = self.network();
        let out = net.submit_query(self.local, sql, role, EngineChoice::Basic, 0)?;
        Ok(Response::Rows {
            columns: out.result.columns,
            rows: out.result.rows,
            stats: Vec::new(),
        })
    }

    fn add_remote(
        &self,
        peer: u64,
        addr: String,
        load_ts: u64,
        entries: &[u8],
    ) -> Result<Response> {
        let entries = indexer::decode_entries(entries)?;
        let mut net = self.network();
        net.register_remote_peer(PeerId::new(peer), addr, load_ts, entries)?;
        Ok(Response::Ok)
    }

    fn load(
        &self,
        table: &str,
        timestamp: u64,
        rows: Vec<bestpeer_common::Row>,
    ) -> Result<Response> {
        let mut net = self.network();
        {
            let peer = net.peer_mut(self.local)?;
            peer.db.bulk_insert(table, rows)?;
            peer.db.set_load_timestamp(timestamp)?;
        }
        net.publish_indices(self.local)?;
        Ok(Response::Ok)
    }

    fn stats(&self) -> Result<Response> {
        let net = self.network();
        let peer = net.peer(self.local)?;
        let tables = peer
            .db
            .non_empty_tables()
            .map(|t| (t.schema().name.clone(), t.len() as u64, t.byte_size()))
            .collect();
        Ok(Response::Stats {
            load_ts: peer.db.load_timestamp(),
            tables,
        })
    }
}

impl fmt::Debug for NodeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeService")
            .field("local", &self.local)
            .finish_non_exhaustive()
    }
}

impl Handler for NodeService {
    fn handle(&self, req: Request) -> Response {
        let out = match req {
            Request::Ping => Ok(Response::Pong),
            Request::Subquery {
                sql,
                role,
                query_ts,
            } => self.serve_subquery(&sql, &role, query_ts),
            Request::Query { sql, role } => self.serve_query(&sql, &role),
            Request::Inventory => self
                .inventory()
                .map(|(load_ts, entries)| Response::Inventory {
                    peer: self.local.raw(),
                    load_ts,
                    entries,
                }),
            Request::AddRemote {
                peer,
                addr,
                load_ts,
                entries,
            } => self.add_remote(peer, addr, load_ts, &entries),
            Request::Load {
                table,
                timestamp,
                rows,
            } => self.load(&table, timestamp, rows),
            Request::DefineRole { role } => Role::decode(&role).map(|r| {
                self.network().define_role(r);
                Response::Ok
            }),
            Request::Stats => self.stats(),
            // The TCP server intercepts `Shutdown` before the handler;
            // answering `Ok` here keeps in-process transports total.
            Request::Shutdown => Ok(Response::Ok),
        };
        out.unwrap_or_else(|e| Response::from_error(&e))
    }
}

#[allow(dead_code)]
fn _assert_send_sync(s: NodeService) -> impl Send + Sync {
    s
}

#[allow(dead_code)]
fn _assert_network_send_sync(net: BestPeerNetwork) -> impl Send + Sync {
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_counters_round_trip() {
        let s = ExecStats {
            rows_scanned: 1,
            bytes_scanned: 2,
            rows_output: 3,
            index_scans: 4,
            full_scans: 5,
            rows_shared: 6,
            rows_cloned: 7,
            topk_short_circuits: 8,
        };
        assert_eq!(counters_to_stats(&stats_to_counters(&s)), s);
        // Unknown counters are ignored, not fatal — the counter set may
        // grow on newer peers, and older peers still send
        // `parallel_morsels`.
        let mut c = stats_to_counters(&s);
        c.push(("parallel_morsels".into(), 9));
        assert_eq!(counters_to_stats(&c), s);
    }
}
