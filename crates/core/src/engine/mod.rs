//! The pay-as-you-go query engines (paper §5).
//!
//! - [`basic`] — the default fetch-and-process strategy (§5.2) with the
//!   bloom-join and single-peer optimizations; used for the frequent,
//!   low-overhead corporate-network queries (Figures 6–10).
//! - [`parallel`] — the parallel P2P strategy with replicated joins
//!   (§5.3, processing graph of Definition 3).
//! - [`mr`] — the MapReduce engine (§5.4), sharing the SMS-style
//!   compiler with the HadoopDB baseline but reading from BestPeer++
//!   instances with access control applied.
//! - [`adaptive`] — Algorithm 2: estimate `C_BP` and `C_MR` from the
//!   histograms and runtime parameters and run the cheaper engine.
//! - [`online`] — distributed online aggregation (reference \[25\]):
//!   progressive estimates with confidence intervals for long-running
//!   aggregates.

pub mod adaptive;
pub mod basic;
pub mod mr;
pub mod online;
pub mod parallel;

use std::collections::BTreeMap;

use bestpeer_common::{Error, PeerId, Result, TableSchema};
use bestpeer_simnet::{Phase, SimTime, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::{ExecStats, ResultSet};
use bestpeer_transport::{Request, Response, Transport};

use crate::access::Role;
use crate::admission::AdmissionState;
use crate::engine::adaptive::GlobalStats;
use crate::fault::FaultState;
use crate::indexer::{IndexOverlay, PeerLocator};
use crate::network::{NetworkConfig, RemotePeer};
use crate::peer::NormalPeer;
use crate::rescache::ResultCache;
use crate::router::{QueryFingerprint, RoutingAdvisor};

/// Simulated latency of one BATON routing hop.
const HOP_LATENCY: SimTime = SimTime::from_micros(500);

/// Everything an engine needs to process one query.
pub struct EngineCtx<'a> {
    /// The network's normal peers (engines only read their data).
    pub peers: &'a BTreeMap<PeerId, NormalPeer>,
    /// Data peers living in other processes, reachable over
    /// `transport`. Engines treat them exactly like local owners —
    /// [`EngineCtx::serve_batch`] dispatches on membership in this map.
    pub remotes: &'a BTreeMap<PeerId, RemotePeer>,
    /// The wire transport for `remotes` (`None` in pure in-process
    /// networks, where `remotes` is necessarily empty).
    pub transport: Option<&'a dyn Transport>,
    /// The BATON overlay holding the indices.
    pub overlay: &'a mut IndexOverlay,
    /// The submitting peer's index cache.
    pub locator: &'a mut PeerLocator,
    /// Network configuration (optimization toggles, MR overheads).
    pub config: &'a NetworkConfig,
    /// The global shared schema.
    pub schemas: &'a [TableSchema],
    /// The querying user's role (applied by every data owner).
    pub role: &'a Role,
    /// The collected global statistics the adaptive planner costs
    /// plans from (`None` until collected).
    pub stats: Option<&'a GlobalStats>,
    /// The query's snapshot timestamp (Definition 2).
    pub query_ts: u64,
    /// The network's fault-injection state; every subquery served ticks
    /// its virtual clock, so scheduled faults land mid-query.
    pub faults: &'a mut FaultState,
    /// The network's admission-control state: each serve claims a slot
    /// in the owner's bounded queue or is shed with
    /// [`Error::Overloaded`]. Disabled (zero-cost) by default.
    pub admission: &'a mut AdmissionState,
    /// Execution counters accumulated across every subquery this query
    /// touches (rows shared vs cloned, top-K short-circuits, …). The
    /// network folds these into the telemetry registry after the engine
    /// runs.
    pub exec: ExecStats,
    /// The submitting peer's remote-fetch result cache (level 2 of the
    /// caching subsystem; consulted by [`EngineCtx::serve_batch`]).
    pub rescache: &'a mut ResultCache,
    /// The network's learned routing advisor: confirmed query templates
    /// short-circuit [`EngineCtx::locate`] to their remembered owner
    /// maps (zero overlay hops); misses fall through to BATON and are
    /// observed.
    pub advisor: &'a mut RoutingAdvisor,
}

impl<'a> EngineCtx<'a> {
    /// Look up a normal peer.
    pub fn peer(&self, id: PeerId) -> Result<&'a NormalPeer> {
        self.peers
            .get(&id)
            .ok_or_else(|| Error::Network(format!("{id} is not a live peer")))
    }

    /// Serve one pushed-down statement at each of `owners` — the one
    /// owner-serve path every engine shares; a single-owner serve is a
    /// batch of one. Returns, per owner and in owner order, the result,
    /// the owner's exec stats, and `true` when the submitter's result
    /// cache answered.
    ///
    /// Three phases:
    ///
    /// 1. **Preamble, sequential, in owner order** — fault-clock tick,
    ///    crash check, slow-link charge, and admission. A remote owner is
    ///    then always a miss: its own snapshot and access checks are
    ///    authoritative, and the submitter cannot tell whether another
    ///    process's data changed without asking it, so remote results
    ///    are never cached. A local owner lacking a FROM table
    ///    contributes an empty partition (MapReduce asks every peer;
    ///    BATON-routed owners always hold the table); any other local
    ///    owner gets the snapshot check, the cache probe, and on a miss
    ///    the access check. The first failure stops the phase: owners
    ///    after it never tick, exactly as if a one-at-a-time loop had
    ///    returned early.
    /// 2. **Execution, parallel** — each cache miss runs on a pool
    ///    worker: [`NormalPeer::execute_subquery`] (pure `&self`) for a
    ///    local owner, a wire round trip for a remote one.
    /// 3. **Merge, sequential, in owner order** — exec stats fold in,
    ///    local misses enter the cache, and results come back in owner
    ///    order. A preamble failure from phase 1 surfaces only after the
    ///    earlier owners' misses have executed and been cached.
    ///
    /// Because phase 1 is order-identical to a one-at-a-time loop and
    /// phase 3 merges in owner order, results, traces, fault landings,
    /// and stats are byte-identical at any thread count. A cache hit
    /// still runs the full fault preamble and the owner's snapshot
    /// check, so crashes, retries, and stale-snapshot rejections land
    /// identically to a cold serve — only the data movement differs.
    pub fn serve_batch(
        &mut self,
        owners: &[PeerId],
        stmt: &SelectStmt,
    ) -> Result<Vec<(ResultSet, ExecStats, bool)>> {
        let fp = self
            .rescache
            .enabled()
            .then(|| ResultCache::fingerprint(stmt, &self.role.name));
        let mut prepared: Vec<Prepared> = Vec::with_capacity(owners.len());
        let mut preamble_err: Option<Error> = None;
        for &owner in owners {
            match self.prepare(owner, stmt, fp) {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    preamble_err = Some(e);
                    break;
                }
            }
        }
        let misses: Vec<&MissTarget> = prepared
            .iter()
            .filter_map(|p| match p {
                Prepared::Miss { target, .. } => Some(target),
                Prepared::Empty | Prepared::Hit(_) => None,
            })
            .collect();
        // The closure captures only shared `Sync` state (the transport
        // is `Sync` by trait bound), never `self`.
        let role = self.role;
        let query_ts = self.query_ts;
        let transport = self.transport;
        let executed = bestpeer_common::pool::run_tasks(&misses, |_, target| match target {
            MissTarget::Local(peer) => peer.execute_subquery(stmt, role),
            MissTarget::Remote(remote) => remote_execute(transport, remote, stmt, role, query_ts),
        });
        let mut out = Vec::with_capacity(prepared.len());
        let mut executed = executed.into_iter();
        for (p, &owner) in prepared.into_iter().zip(owners) {
            out.push(match p {
                Prepared::Empty => (ResultSet::default(), ExecStats::default(), false),
                Prepared::Hit(rs) => (rs, ExecStats::default(), true),
                Prepared::Miss { cache_key, .. } => {
                    let (rs, stats) = executed.next().expect("one result per miss")?;
                    self.note_exec(&stats);
                    if let Some((fp, load_ts)) = cache_key {
                        self.rescache
                            .insert(owner, fp, stmt.from.clone(), &rs, load_ts);
                    }
                    (rs, stats, false)
                }
            });
        }
        match preamble_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// One owner's serve preamble (phase 1 of
    /// [`EngineCtx::serve_batch`]). The fault clock ticks first, so a
    /// crash scheduled for this instant fires *before* the owner
    /// answers. The owner's snapshot check (Definition 2) runs before
    /// the cache probe, so a hit cannot outrun the loader. `fp` is the
    /// statement's cache fingerprint, `None` when the cache is disabled.
    fn prepare(
        &mut self,
        owner: PeerId,
        stmt: &SelectStmt,
        fp: Option<u64>,
    ) -> Result<Prepared<'a>> {
        self.faults.tick();
        if self.faults.is_down(owner) {
            return Err(Error::Unavailable(format!(
                "data peer {owner} is down (crashed mid-query)"
            )));
        }
        self.faults.note_serve(owner);
        self.admission.admit(owner)?;
        if let Some(remote) = self.remotes.get(&owner) {
            return Ok(Prepared::Miss {
                target: MissTarget::Remote(remote),
                cache_key: None,
            });
        }
        let peer = self.peer(owner)?;
        if !stmt.from.iter().all(|t| peer.db.has_table(t)) {
            return Ok(Prepared::Empty);
        }
        let load_ts = peer.db.load_timestamp();
        if load_ts < self.query_ts {
            return Err(Error::StaleSnapshot(format!(
                "peer {owner} data timestamp {load_ts} is older than query timestamp {}",
                self.query_ts
            )));
        }
        if let Some(fp) = fp {
            if let Some(rs) = self.rescache.get(owner, fp, load_ts) {
                return Ok(Prepared::Hit(rs));
            }
        }
        peer.check_access(stmt, self.role)?;
        Ok(Prepared::Miss {
            target: MissTarget::Local(peer),
            cache_key: fp.map(|fp| (fp, load_ts)),
        })
    }

    /// Fold one execution's stats into the query-wide counters.
    pub fn note_exec(&mut self, stats: &ExecStats) {
        self.exec.merge(stats);
    }

    /// Record one coordinator-side top-K short-circuit (an engine's
    /// [`bestpeer_sql::apply_order_limit`] answered `ORDER BY … LIMIT`
    /// with the bounded heap instead of a full sort).
    pub fn note_topk(&mut self) {
        self.exec.topk_short_circuits += 1;
    }

    /// The schema of one global table.
    pub fn schema(&self, table: &str) -> Result<&'a TableSchema> {
        self.schemas
            .iter()
            .find(|s| s.name == table)
            .ok_or_else(|| Error::Catalog(format!("no global table `{table}`")))
    }

    /// Schemas for each FROM table of a statement, in order.
    pub fn from_schemas(&self, stmt: &SelectStmt) -> Result<Vec<&'a TableSchema>> {
        stmt.from.iter().map(|t| self.schema(t)).collect()
    }

    /// Locate the owner peers per table and charge the BATON routing
    /// hops as a "locate" phase on the submitter.
    ///
    /// The routing advisor is consulted first: a confirmed, fresh
    /// template answers from its remembered owner map with zero overlay
    /// hops. Misses fall through to the BATON lookup within the same
    /// call and the answer is observed, so the advisor only ever
    /// replays maps a fresh lookup produced — it changes who is asked,
    /// never what is returned.
    pub fn locate(
        &mut self,
        submitter: PeerId,
        stmt: &SelectStmt,
        trace: &mut Trace,
    ) -> Result<BTreeMap<String, Vec<PeerId>>> {
        let fp = if self.advisor.enabled() {
            let fp = QueryFingerprint::of(stmt);
            if let Some(routed) = self.advisor.route(&fp) {
                return Ok(routed);
            }
            Some(fp)
        } else {
            None
        };
        let hops_before = self.locator.stats().hops;
        let located = self
            .locator
            .peers_for_query_from(self.overlay, Some(submitter), stmt)?;
        let hops = self.locator.stats().hops - hops_before;
        if hops > 0 {
            trace.push(Phase::new("locate").task(
                Task::on(submitter).fixed(SimTime::from_micros(hops * HOP_LATENCY.as_micros())),
            ));
        }
        let located: BTreeMap<String, Vec<PeerId>> = located.into_iter().collect();
        if let Some(fp) = fp {
            self.advisor.observe(&fp, &located, stmt);
        }
        Ok(located)
    }
}

/// One owner's outcome of the [`EngineCtx::serve_batch`] preamble.
enum Prepared<'p> {
    /// The owner lacks a FROM table: it contributes an empty partition.
    Empty,
    /// Answered from the submitter's result cache.
    Hit(ResultSet),
    /// A miss to execute; `cache_key` is `(fingerprint, load_ts)` when
    /// the result should be admitted to the cache.
    Miss {
        target: MissTarget<'p>,
        cache_key: Option<(u64, u64)>,
    },
}

/// Where a cache miss executes in the parallel phase: on a local peer's
/// database, or over the wire at a remote peer.
enum MissTarget<'p> {
    Local(&'p NormalPeer),
    Remote(&'p RemotePeer),
}

/// Execute one pushed-down subquery at a remote peer over the wire.
/// Pure with respect to the engine context (callers fold the returned
/// stats via [`EngineCtx::note_exec`]), so it can run on pool workers.
/// The role travels as its opaque core encoding; the statement travels
/// as SQL text and is re-parsed at the owner. Wire-level failures are
/// already mapped onto [`Error::Unavailable`] / [`Error::Timeout`] by
/// the transport, so the network's retry loop treats a dead remote
/// exactly like a crashed local peer.
fn remote_execute(
    transport: Option<&dyn Transport>,
    remote: &RemotePeer,
    stmt: &SelectStmt,
    role: &Role,
    query_ts: u64,
) -> Result<(ResultSet, ExecStats)> {
    let transport = transport.ok_or_else(|| {
        Error::Network(format!(
            "remote peer {} registered without a transport",
            remote.id
        ))
    })?;
    let req = Request::Subquery {
        sql: stmt.to_string(),
        role: role.encode(),
        query_ts,
    };
    match transport.call(&remote.addr, &req)? {
        Response::Rows {
            columns,
            rows,
            stats,
        } => Ok((
            ResultSet { columns, rows },
            crate::node::counters_to_stats(&stats),
        )),
        Response::Err { kind, message } => Err(Error::from_kind(&kind, message)),
        other => Err(Error::Network(format!(
            "unexpected response to subquery from {}: {other:?}",
            remote.addr
        ))),
    }
}

/// Every engine returns the materialized result plus its cost trace.
pub type EngineOutput = (ResultSet, Trace);
