//! The assembled corporate network and its client API.
//!
//! `BestPeerNetwork` wires the pieces together the way Figure 1 draws
//! them: one bootstrap peer (service provider), one simulated cloud
//! region, the normal peers (one per business), and the BATON overlay
//! carrying the indices. Queries enter through [`BestPeerNetwork::submit_query`],
//! which runs one of the four engines and returns both the real result
//! and the cost trace for the simulator.

use std::collections::BTreeMap;
use std::sync::Arc;

use bestpeer_baton::Key;
use bestpeer_cloud::{CloudProvider, SimCloud};
use bestpeer_common::{mix64, Error, PeerId, Result, Row, TableSchema, UserId};
use bestpeer_mapreduce::MrConfig;
use bestpeer_simnet::{Cluster, Phase, ResourceConfig, SimTime, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::ResultSet;
use bestpeer_sql::parse_select;
use bestpeer_storage::{CrashOutcome, Database, MemDevice, Wal};
use bestpeer_telemetry::{EngineSelection, MetricsRegistry, QueryReport};
use bestpeer_transport::{Request, Response, Transport};

use crate::access::Role;
use crate::admission::{AdmissionConfig, AdmissionState};
use crate::bootstrap::{BootstrapPeer, MaintenanceEvent, PeerLoad};
use crate::cost::{CostParams, EngineDecision};
use crate::engine::adaptive::{self, GlobalStats};
use crate::engine::{basic, mr, parallel, EngineCtx};
use crate::fault::{FaultAction, FaultRecord, FaultState, ScheduledFault};
use crate::histogram::Histogram;
use crate::indexer::{self, IndexEntry, IndexOverlay, LocatorStats, PeerLocator};
use crate::loader::RefreshReport;
use crate::peer::NormalPeer;
use crate::rescache::{CacheStats, ResultCache};
use crate::retry::RetryPolicy;
use crate::router::{QueryFingerprint, RouterConfig, RouterStats, RoutingAdvisor};
use crate::schema_mapping::SchemaMapping;

/// Log bytes that trigger an automatic checkpoint of an enlisted
/// peer's WAL.
const WAL_CHECKPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// Byte budget of each submitter's result cache (LRU beyond it).
const RESULT_CACHE_BUDGET: u64 = 32 * 1024 * 1024;

/// A fresh in-memory redo log committing every `group_window` records.
fn new_wal(group_window: u64) -> Wal {
    Wal::new(
        Box::new(MemDevice::new()),
        group_window,
        WAL_CHECKPOINT_BYTES,
    )
}

/// Network-wide configuration: optimization toggles (each has an
/// ablation benchmark), engine overheads, and index policy.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Replicate BATON index entries to adjacent nodes (§4.3).
    pub replication: bool,
    /// Cache index entries at the submitting peer (§5.2).
    pub index_cache: bool,
    /// Use bloom joins for equi-joins (§5.2).
    pub bloom_join: bool,
    /// Ship the whole statement when one peer owns all data (§6.2.3).
    pub single_peer_opt: bool,
    /// MapReduce overheads for the built-in MR engine.
    pub mr: MrConfig,
    /// `(table, column)` pairs to build range indices on (§6.2.2 builds
    /// them on the nation keys).
    pub range_index_columns: Vec<(String, String)>,
    /// Cost-model parameters for the adaptive engine.
    pub cost: CostParams,
    /// Certificate-authority secret.
    pub ca_secret: u64,
    /// Query-path retry policy (bounded attempts, exponential backoff,
    /// stale-snapshot resubmit budget).
    pub retry: RetryPolicy,
    /// Simulated testbed rates used to time traces when assembling
    /// per-query telemetry reports.
    pub resources: ResourceConfig,
    /// Cache remote-fetch results at the processing peer (level 2 of
    /// the caching subsystem; level 1 is `index_cache`). Repeated
    /// pushed-down subqueries against unchanged owners are answered
    /// from memory; invalidation rides the delta-index notifications.
    pub result_cache: bool,
    /// WAL group-commit window: records per fsync. 1 (the default)
    /// syncs every logical operation — strict durability, and the mode
    /// under which crash replay is byte-identical to pre-crash state.
    pub wal_group_window: u64,
    /// Admission control: bounded per-peer request queues with load
    /// shedding (`queue_depth` 0 — the default — disables it).
    pub admission: AdmissionConfig,
    /// Per-query latency SLO target. When non-zero, queries whose
    /// end-to-end virtual latency exceeds it are flagged in
    /// `QueryReport::slo_violation` and counted under `slo.violations`.
    /// Zero (the default) disables SLO tracking.
    pub slo_latency: SimTime,
    /// The learned routing advisor: recurring query templates mined
    /// from the locate history short-circuit BATON lookups to their
    /// remembered owner maps (demoted back to BATON by the same
    /// invalidation fabric the caches ride). Enabled by default — the
    /// advisor changes who is asked, never what is returned.
    pub router: RouterConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            replication: true,
            index_cache: true,
            bloom_join: true,
            single_peer_opt: true,
            mr: MrConfig::default(),
            range_index_columns: Vec::new(),
            cost: CostParams::default(),
            ca_secret: 0xBE57_FEE8,
            retry: RetryPolicy::default(),
            resources: ResourceConfig::default(),
            result_cache: true,
            wal_group_window: 1,
            admission: AdmissionConfig::default(),
            slo_latency: SimTime::ZERO,
            router: RouterConfig::default(),
        }
    }
}

/// Which engine to run a query with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The basic fetch-and-process strategy (§5.2) — the default.
    Basic,
    /// The parallel P2P strategy with replicated joins (§5.3).
    ParallelP2P,
    /// The MapReduce engine (§5.4).
    MapReduce,
    /// Algorithm 2: pick ParallelP2P or MapReduce by predicted cost.
    Adaptive,
}

/// The stable name an engine goes by in metrics and query reports.
fn engine_label(e: EngineChoice) -> &'static str {
    match e {
        EngineChoice::Basic => "basic",
        EngineChoice::ParallelP2P => "parallel-p2p",
        EngineChoice::MapReduce => "mapreduce",
        EngineChoice::Adaptive => "adaptive",
    }
}

/// A completed query: result, cost trace, and planner diagnostics.
#[derive(Debug)]
pub struct QueryOutput {
    /// The materialized result.
    pub result: ResultSet,
    /// The physical cost trace (feed it to `bestpeer_simnet::Cluster`).
    /// Includes any retry backoff and fault-slowdown phases.
    pub trace: Trace,
    /// Which engine actually executed.
    pub engine: EngineChoice,
    /// The adaptive planner's cost comparison, when it ran.
    pub decision: Option<EngineDecision>,
    /// How many times the engine ran end to end (1 = fault-free path).
    pub attempts: u32,
    /// Automatic stale-snapshot resubmissions consumed.
    pub resubmits: u32,
    /// Set when the result is a partial answer (currently only online
    /// aggregation degrades; exact engines retry until identical-result
    /// success or error out).
    pub degraded: bool,
    /// The query's telemetry record: per-phase simulated latency and
    /// byte totals (reconciling exactly with `trace`), retry/backoff
    /// accounting, and the adaptive planner's prediction.
    pub report: QueryReport,
}

/// A peer served by another process, reachable only through the
/// transport. Registered via
/// [`BestPeerNetwork::register_remote_peer`]; its BATON index entries
/// live in this network's overlay like any local peer's, so the
/// planner routes subqueries to it transparently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemotePeer {
    /// The peer's network-wide id (allocated by its own process's
    /// bootstrap; processes partition the id space via
    /// [`crate::bootstrap::BootstrapPeer::set_next_peer_id`]).
    pub id: PeerId,
    /// `host:port` its `bestpeer-node` listens on.
    pub addr: String,
    /// Its data load timestamp as of registration, which bounds
    /// [`BestPeerNetwork::consistent_timestamp`]. The owner enforces
    /// the authoritative Definition 2 check per subquery, and its
    /// results are never cached, since this copy goes stale as soon as
    /// the remote loads new data.
    pub load_timestamp: u64,
}

/// The whole corporate network.
#[derive(Debug)]
pub struct BestPeerNetwork {
    config: NetworkConfig,
    /// The service provider's bootstrap peer.
    pub bootstrap: BootstrapPeer,
    /// The simulated cloud region everything runs in.
    pub cloud: SimCloud<Database>,
    /// The local peers (database, loader, role assignments). Where each
    /// runs, and whether it is down, live only in the bootstrap's peer
    /// list and in `faults`.
    peers: BTreeMap<PeerId, NormalPeer>,
    overlay: IndexOverlay,
    /// The network's one record of what each peer published: its last
    /// published entry set. `publish_indices` diffs the current entries
    /// against it and only touches the overlay for the difference;
    /// `retire` withdraws it. Faults never drop a set, they mark it
    /// stale (see [`Published`]).
    published: BTreeMap<PeerId, Published>,
    locators: BTreeMap<PeerId, PeerLocator>,
    /// Per-submitter remote-fetch result caches (level 2).
    rescaches: BTreeMap<PeerId, ResultCache>,
    stats: Option<GlobalStats>,
    /// Peers served by other processes, keyed by id. Empty in the
    /// classic in-process configuration — every query path is then
    /// bit-identical to the pre-transport code.
    remotes: BTreeMap<PeerId, RemotePeer>,
    /// The channel used to reach [`RemotePeer`]s. `None` until
    /// [`BestPeerNetwork::set_transport`]; required only when remotes
    /// are registered.
    transport: Option<Arc<dyn Transport>>,
    /// The one record of which peers are down: the query path and the
    /// bootstrap's failure detector both read it.
    faults: FaultState,
    /// How much of the fault log has been synchronised into the overlay
    /// and the databases.
    fault_sync_cursor: usize,
    /// Admission control: bounded per-peer virtual-time request queues
    /// (load shedding and the elasticity loop's utilization signal).
    admission: AdmissionState,
    /// When the current overload episode began (some peer's utilization
    /// first crossed the scale-out threshold) — cleared when load falls
    /// back under it or when a scale-out lands, which records the
    /// elapsed span as `scale.reaction_us`.
    overload_since: Option<SimTime>,
    /// Network-wide metrics (query counts, byte totals, latency
    /// histograms, bootstrap health). Virtual-time only.
    metrics: MetricsRegistry,
    /// The learned routing advisor (see [`crate::router`]).
    advisor: RoutingAdvisor,
    /// The advisor counters already mirrored into the registry
    /// (monotone; [`BestPeerNetwork::publish_router_metrics`] emits the
    /// delta since this snapshot).
    router_published: RouterStats,
}

impl BestPeerNetwork {
    /// Create a network with the shared global schema.
    pub fn new(global_schemas: Vec<TableSchema>, config: NetworkConfig) -> Self {
        let bootstrap = BootstrapPeer::new(global_schemas, config.ca_secret);
        let overlay = IndexOverlay::new(config.replication);
        let config_admission = config.admission;
        let config_router = config.router;
        BestPeerNetwork {
            config,
            bootstrap,
            cloud: SimCloud::new(),
            peers: BTreeMap::new(),
            overlay,
            published: BTreeMap::new(),
            locators: BTreeMap::new(),
            rescaches: BTreeMap::new(),
            stats: None,
            remotes: BTreeMap::new(),
            transport: None,
            faults: FaultState::new(),
            fault_sync_cursor: 0,
            admission: AdmissionState::new(config_admission),
            overload_since: None,
            metrics: MetricsRegistry::new(),
            advisor: RoutingAdvisor::new(config_router),
            router_published: RouterStats::default(),
        }
    }

    /// The routing advisor (inspection: communities, templates, stats).
    pub fn advisor(&self) -> &RoutingAdvisor {
        &self.advisor
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Mutable access to the cost-model runtime parameters, so the
    /// statistics module's feedback loop (§5.5) can fold measured values
    /// back into the planner.
    pub fn cost_params_mut(&mut self) -> &mut CostParams {
        &mut self.config.cost
    }

    /// The network-wide metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Fold one query's measured `(μ, φ)` into the cost parameters with
    /// smoothing factor `w` — the §5.5 feedback loop, driven by the
    /// telemetry report instead of a guess. Returns false (and changes
    /// nothing) when the report carries no timed work to measure.
    pub fn apply_cost_feedback(&mut self, report: &QueryReport, w: f64) -> bool {
        match (report.measured_mu(), report.measured_phi()) {
            (Some(mu), Some(phi)) => {
                self.config.cost.feedback(mu, phi, w);
                self.metrics.inc("cost.feedback_applied");
                true
            }
            _ => false,
        }
    }

    /// Live peer ids, ascending.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// Borrow a peer.
    pub fn peer(&self, id: PeerId) -> Result<&NormalPeer> {
        self.peers
            .get(&id)
            .ok_or_else(|| Error::Network(format!("no peer {id}")))
    }

    /// Mutably borrow a peer (loading, local administration).
    pub fn peer_mut(&mut self, id: PeerId) -> Result<&mut NormalPeer> {
        self.peers
            .get_mut(&id)
            .ok_or_else(|| Error::Network(format!("no peer {id}")))
    }

    /// The BATON overlay (inspection / fault injection in tests).
    pub fn overlay_mut(&mut self) -> &mut IndexOverlay {
        &mut self.overlay
    }

    /// The bootstrap peer (inspection).
    pub fn bootstrap(&self) -> &BootstrapPeer {
        &self.bootstrap
    }

    /// The bootstrap peer, mutably — multi-process deployments
    /// partition the peer-id space through
    /// [`BootstrapPeer::set_next_peer_id`] before admitting anyone.
    pub fn bootstrap_mut(&mut self) -> &mut BootstrapPeer {
        &mut self.bootstrap
    }

    /// A business joins: the bootstrap admits it (§3.1), the cloud
    /// launches its instance, and the new peer enters the BATON overlay.
    pub fn join(&mut self, business: &str) -> Result<PeerId> {
        let id = self.bootstrap.admit(business, &mut self.cloud)?;
        self.enlist(id)?;
        Ok(id)
    }

    /// Enlist a peer the bootstrap just admitted (a joining business or
    /// a scaled-out elastic peer): build it on the global schema's empty
    /// tables under a fresh redo log, give it an overlay position, and
    /// drop the global statistics.
    fn enlist(&mut self, id: PeerId) -> Result<()> {
        let mut peer = NormalPeer::new(id);
        peer.db = self.bootstrap.schema_database()?;
        // Attachment writes a baseline checkpoint covering the
        // global-schema tables.
        peer.db.attach_wal(new_wal(self.config.wal_group_window))?;
        self.peers.insert(id, peer);
        self.overlay.join(id)?;
        // A newcomer changes no index entries (it publishes on load), so
        // cached lookups stay valid; only the global statistics must be
        // regathered.
        self.stats = None;
        Ok(())
    }

    /// Install the transport used to reach remote peers.
    pub fn set_transport(&mut self, transport: Arc<dyn Transport>) {
        self.transport = Some(transport);
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<&Arc<dyn Transport>> {
        self.transport.as_ref()
    }

    /// Register a peer served by another process: it takes a position
    /// in this network's BATON overlay and publishes the index entries
    /// its own process reported (via an `Inventory` exchange), so the
    /// planner routes subqueries to it over the transport. Requires a
    /// transport to be installed first.
    pub fn register_remote_peer(
        &mut self,
        id: PeerId,
        addr: impl Into<String>,
        load_timestamp: u64,
        entries: Vec<(Key, IndexEntry)>,
    ) -> Result<()> {
        if self.transport.is_none() {
            return Err(Error::Network(
                "register_remote_peer requires a transport (set_transport first)".into(),
            ));
        }
        if self.peers.contains_key(&id) || self.remotes.contains_key(&id) {
            return Err(Error::Membership(format!("peer {id} already registered")));
        }
        self.overlay.join(id)?;
        indexer::publish_entries(&mut self.overlay, &entries)?;
        self.published.insert(
            id,
            Published {
                entries,
                stale: false,
            },
        );
        self.remotes.insert(
            id,
            RemotePeer {
                id,
                addr: addr.into(),
                load_timestamp,
            },
        );
        self.invalidate_caches();
        Ok(())
    }

    /// A business departs: a local peer's certificate is revoked and
    /// its instance blacklisted; then, local or remote, its indices are
    /// withdrawn, its overlay position vacated, and its caches, queue
    /// and routes dropped (a remote peer's pooled connections too).
    pub fn leave(&mut self, id: PeerId) -> Result<()> {
        if !self.remotes.contains_key(&id) {
            self.peer(id)?;
            self.bootstrap.depart(id)?;
        }
        self.retire(id)
    }

    /// Every departure's network side: local `leave`, remote `leave`,
    /// and elastic scale-in (whose record the bootstrap already
    /// retired).
    /// The remembered entry set goes first, since it lists entries of
    /// tables since emptied or dropped, which a probe misses. A local
    /// peer's database is then probe-swept for entries no remembered set
    /// lists (one an overlay recovery restored from a replica after a
    /// delta removed it). A remote peer's pooled connections are evicted,
    /// so later queries re-resolve instead of hanging on dead sockets.
    fn retire(&mut self, id: PeerId) -> Result<()> {
        let mut changed_keys: Vec<Key> = Vec::new();
        if let Some(prev) = self.published.remove(&id) {
            changed_keys.extend(prev.entries.iter().map(|(k, _)| *k));
            indexer::remove_entries(&mut self.overlay, id, &prev.entries)?;
        }
        if let Some(peer) = self.peers.remove(&id) {
            let range_cols = &self.config.range_index_columns;
            let probed = indexer::peer_entries(id, &peer.db, range_cols)?;
            changed_keys.extend(probed.iter().map(|(k, _)| *k));
            indexer::unpublish_peer(&mut self.overlay, id, &peer.db)?;
        }
        self.overlay.leave(id)?;
        if let (Some(remote), Some(t)) = (self.remotes.remove(&id), &self.transport) {
            t.evict(&remote.addr);
        }
        self.locators.remove(&id);
        self.rescaches.remove(&id);
        self.admission.remove_peer(id);
        self.advisor.remove_peer(id);
        // Fine-grained notification: only lookups under the departed
        // peer's index keys are stale, and only results fetched *from*
        // it can no longer be trusted.
        self.invalidate_changed(id, &changed_keys);
        Ok(())
    }

    /// Full cache invalidation — the fallback for crash/recovery and
    /// lossy-insert windows, where the set of changed index keys is
    /// unknown. Routine refreshes and membership changes use
    /// [`BestPeerNetwork::invalidate_changed`] instead.
    fn invalidate_caches(&mut self) {
        for l in self.locators.values_mut() {
            l.invalidate();
        }
        for c in self.rescaches.values_mut() {
            c.purge_all();
        }
        // The advisor's verification tail: an unknown set of index keys
        // changed, so every learned route is demoted back to BATON.
        self.advisor.demote_all();
        self.stats = None;
    }

    /// Fine-grained notification after `peer`'s entries changed under
    /// `keys`: every submitter drops exactly those index-cache lines,
    /// plus any cached results fetched from `peer` (a data change can
    /// leave the index delta empty — e.g. inserts within the published
    /// min–max — so result invalidation keys on the peer, not the
    /// delta).
    fn invalidate_changed(&mut self, peer: PeerId, keys: &[Key]) {
        for l in self.locators.values_mut() {
            l.invalidate_keys(keys);
        }
        for c in self.rescaches.values_mut() {
            c.invalidate_peer(peer);
        }
        // The advisor's verification tail: any template depending on a
        // changed key, or answered by the mutated peer, is demoted —
        // a superset of the locator lines dropped above, so a learned
        // route can never outlive the cache lines it was built from.
        self.advisor.invalidate(peer, keys);
        self.stats = None;
    }

    /// Bulk-load data into a peer and publish its index entries. When
    /// `with_indices` is set, the secondary indices the schema benchmark
    /// uses (paper Table 4) should already have been created by the
    /// caller via [`BestPeerNetwork::peer_mut`]; this method only
    /// handles the BATON-side publication.
    pub fn load_peer(
        &mut self,
        id: PeerId,
        data: BTreeMap<String, Vec<Row>>,
        timestamp: u64,
    ) -> Result<()> {
        {
            let peer = self.peer_mut(id)?;
            for (table, rows) in data {
                peer.db.bulk_insert(&table, rows)?;
            }
            peer.db.set_load_timestamp(timestamp)?;
        }
        self.publish_indices(id)?;
        Ok(())
    }

    /// (Re-)publish one peer's BATON index entries.
    ///
    /// Delta maintenance: when the peer's previously published entry set
    /// is remembered, not stale, and the overlay is delivering inserts
    /// reliably, only the difference between the old and new sets
    /// touches the overlay — a refresh that changes one table no longer
    /// sweeps every index key. Entries for tables that became empty or
    /// were dropped are in the remembered set, so they are withdrawn
    /// correctly (a probe of the current database misses them and left
    /// dead peers routable). Otherwise the publish is a full one: the
    /// remembered set is withdrawn, the current database probe-swept,
    /// and every entry inserted. That covers a first publish, a stale
    /// set (after a crash or a recovery), and an open lossy-insert fault
    /// window (a diff would silently skip entries the fault already
    /// ate). If any of this publish's inserts were dropped, the new set
    /// is remembered stale, so the next publish heals with a full one.
    pub fn publish_indices(&mut self, id: PeerId) -> Result<u32> {
        let db = &self
            .peers
            .get(&id)
            .ok_or_else(|| Error::Network(format!("no peer {id}")))?
            .db;
        let target = indexer::peer_entries(id, db, &self.config.range_index_columns)?;
        let dropped_before = self.overlay.stats().dropped_inserts;
        let lossy = self.overlay.pending_insert_drops() > 0;
        let prev = self.published.get(&id);
        // `Some(keys)` = delta publish touching exactly those BATON
        // keys (fine-grained invalidation); `None` = full sweep (full
        // invalidation fallback).
        let mut delta_keys = None;
        let hops = match prev {
            Some(prev) if !prev.stale && !lossy => {
                let (to_remove, to_insert) = diff_entries(&prev.entries, &target);
                let mut keys: Vec<Key> = to_remove
                    .iter()
                    .chain(to_insert.iter())
                    .map(|(k, _)| *k)
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let mut hops = indexer::remove_entries(&mut self.overlay, id, &to_remove)?;
                hops += indexer::publish_entries(&mut self.overlay, &to_insert)?;
                self.metrics.inc("index.delta_publishes");
                self.metrics
                    .inc_by("index.delta_inserts", to_insert.len() as u64);
                self.metrics
                    .inc_by("index.delta_removes", to_remove.len() as u64);
                delta_keys = Some(keys);
                hops
            }
            _ => {
                if let Some(prev) = prev {
                    indexer::remove_entries(&mut self.overlay, id, &prev.entries)?;
                }
                indexer::unpublish_peer(&mut self.overlay, id, db)?;
                let hops = indexer::publish_entries(&mut self.overlay, &target)?;
                self.metrics.inc("index.full_publishes");
                hops
            }
        };
        let lost_inserts = self.overlay.stats().dropped_inserts > dropped_before;
        self.published.insert(
            id,
            Published {
                entries: target,
                stale: lost_inserts,
            },
        );
        // Inserts the fault ate leave the caches' view arbitrarily
        // stale: fall back to full invalidation.
        match delta_keys.filter(|_| !lost_inserts) {
            Some(keys) => self.invalidate_changed(id, &keys),
            None => self.invalidate_caches(),
        }
        Ok(hops)
    }

    /// Run a loader refresh from the business's production database and
    /// republish indices (§4.2's periodic extraction).
    pub fn refresh_from_production(
        &mut self,
        id: PeerId,
        production: &Database,
        mapping: SchemaMapping,
    ) -> Result<RefreshReport> {
        let report = {
            let peer = self
                .peers
                .get_mut(&id)
                .ok_or_else(|| Error::Network(format!("no peer {id}")))?;
            let loader = peer.loader.get_or_insert_with(|| {
                let schemas = self.bootstrap.global_schemas().to_vec();
                crate::loader::DataLoader::new(mapping, schemas)
            });
            loader.refresh(production, &mut peer.db)?
        };
        self.publish_indices(id)?;
        Ok(report)
    }

    /// Define a standard role at the bootstrap peer.
    pub fn define_role(&mut self, role: Role) {
        self.bootstrap.define_role(role);
        // Roles don't touch index entries, so routing caches stay
        // valid — but cached results were masked under the old
        // definition (the cache key carries only the role *name*), so
        // every result cache is purged.
        for c in self.rescaches.values_mut() {
            c.purge_all();
        }
        self.stats = None;
    }

    /// Register a user (broadcast through the bootstrap peer) and assign
    /// it a role at its home peer.
    pub fn create_user(&mut self, name: &str, home: PeerId, role: &str) -> Result<UserId> {
        self.bootstrap.role(role)?; // must exist
        let user = self.bootstrap.register_user(name, home)?;
        self.peer_mut(home)?.assign_role(user, role);
        Ok(user)
    }

    /// The latest timestamp at which *every* peer's data is loaded — the
    /// highest query timestamp that will not be rejected under
    /// Definition 2.
    pub fn consistent_timestamp(&self) -> u64 {
        self.peers
            .values()
            .map(|p| p.db.load_timestamp())
            .chain(self.remotes.values().map(|r| r.load_timestamp))
            .min()
            .unwrap_or(0)
    }

    /// Gather global statistics (per-table sizes + optional histograms
    /// over the named columns) for the adaptive planner.
    pub fn collect_statistics(
        &mut self,
        histogram_columns: &[(String, Vec<String>)],
    ) -> Result<()> {
        let mut stats = GlobalStats::default();
        for peer in self.peers.values() {
            for table in peer.db.non_empty_tables() {
                let e = stats
                    .tables
                    .entry(table.schema().name.clone())
                    .or_insert((0, 0, 0));
                e.0 += table.len() as u64;
                e.1 += table.byte_size();
                e.2 += 1;
            }
        }
        stats.versions = self.table_version_fingerprints();
        // Remote peers report their table sizes over the transport
        // (histograms stay local: shipping MHIST buckets is future
        // work, and the estimator degrades gracefully without them).
        // An unreachable remote degrades statistics rather than
        // failing collection — it may be mid-crash, and the retry
        // loop, not the statistics gatherer, owns that failure.
        if let Some(transport) = self.transport.clone() {
            for remote in self.remotes.values() {
                let resp = transport.call(&remote.addr, &Request::Stats);
                if let Ok(Response::Stats { tables, .. }) = resp {
                    for (name, rows, bytes) in tables {
                        let e = stats.tables.entry(name).or_insert((0, 0, 0));
                        e.0 += rows;
                        e.1 += bytes;
                        e.2 += 1;
                    }
                }
            }
        }
        for (table, cols) in histogram_columns {
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let mut merged: Option<Histogram> = None;
            for peer in self.peers.values() {
                if !peer.db.has_table(table) || peer.db.table(table)?.is_empty() {
                    continue;
                }
                let h = Histogram::build(peer.db.table(table)?, &col_refs, 32)?;
                merged = Some(match merged {
                    None => h,
                    Some(mut m) => {
                        m.buckets.extend(h.buckets);
                        m
                    }
                });
            }
            if let Some(h) = merged {
                stats.histograms.insert(table.clone(), h);
            }
        }
        self.stats = Some(stats);
        Ok(())
    }

    /// A deterministic fingerprint of every local table's mutation
    /// version, folded across owning peers in `PeerId` order. The
    /// adaptive planner compares these against the fingerprints
    /// recorded at [`BestPeerNetwork::collect_statistics`] time to
    /// detect histograms that have gone stale.
    fn table_version_fingerprints(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (id, peer) in &self.peers {
            for table in peer.db.non_empty_tables() {
                let v = out.entry(table.schema().name.clone()).or_insert(0);
                *v = mix64(*v ^ mix64(id.raw()) ^ table.version());
            }
        }
        out
    }

    /// Drop planner histograms whose underlying tables have mutated
    /// since [`BestPeerNetwork::collect_statistics`] ran. Sizes are
    /// left in place (coarse but monotone inputs to the cost model);
    /// dropped histograms make the planner fall back to live index
    /// cardinalities until the next collection refreshes them. This is
    /// the fix for the stale-statistics planner bug: without it a bulk
    /// delete after collection left the old MHIST selectivity driving
    /// access-path choice indefinitely.
    fn validate_statistics(&mut self) {
        let Some(stats) = &self.stats else { return };
        if stats.histograms.is_empty() {
            return;
        }
        let current = self.table_version_fingerprints();
        let stats = self.stats.as_mut().expect("checked above");
        let versions = &stats.versions;
        stats.histograms.retain(|table, _| {
            versions.contains_key(table) && current.get(table) == versions.get(table)
        });
    }

    /// EXPLAIN the physical plan the submitter's local executor would
    /// run for `sql`: per-table access paths (SeqScan vs IndexScan with
    /// bounds), cardinality-ordered join tree, and projection pruning.
    /// When global statistics have been collected
    /// ([`BestPeerNetwork::collect_statistics`]), the plan is costed
    /// with the network's MHIST histograms; otherwise the planner falls
    /// back to local index cardinalities and the shape heuristic.
    /// Stale histograms (tables mutated since collection) are dropped
    /// first so the explained plan matches what would actually run.
    /// The final `Route:` line shows how the submitter would be routed:
    /// `advisor(community=N)` when a confirmed learned template would
    /// short-circuit the BATON lookup, `baton` otherwise.
    pub fn explain_query(&mut self, submitter: PeerId, sql: &str) -> Result<String> {
        self.validate_statistics();
        let stmt = parse_select(sql)?;
        let db = &self.peer(submitter)?.db;
        let mut plan = match &self.stats {
            Some(stats) => bestpeer_sql::explain_physical(&stmt, db, &stats.estimator()),
            None => bestpeer_sql::explain_physical(&stmt, db, &bestpeer_sql::NoStats),
        }?;
        let route = match self.advisor.route_preview(&QueryFingerprint::of(&stmt)) {
            Some(community) => format!("advisor(community={community})"),
            None => "baton".to_string(),
        };
        plan.push_str(&format!("\nRoute: {route}"));
        Ok(plan)
    }

    /// The fault-injection state (chaos harnesses inject faults here).
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// Install a schedule of faults against the virtual operation clock.
    pub fn install_faults(&mut self, events: impl IntoIterator<Item = ScheduledFault>) {
        self.faults.schedule(events);
    }

    /// The applied fault trace (deterministic for a given schedule and
    /// workload — the chaos suite's reproducibility witness).
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.faults.log()
    }

    /// Crash a data peer immediately (it stops serving subqueries and
    /// answering heartbeats, and its BATON node fails). For
    /// a remote peer, its pooled transport connections are evicted so
    /// retries reconnect instead of timing out on dead sockets.
    pub fn crash_data_peer(&mut self, id: PeerId) -> Result<()> {
        if let Some(remote) = self.remotes.get(&id) {
            if let Some(t) = &self.transport {
                t.evict(&remote.addr);
            }
        } else {
            self.peer(id)?;
        }
        self.faults.inject_now(FaultAction::Crash(id));
        self.sync_faults()
    }

    /// Crash a data peer with a torn final write: the first `keep`
    /// bytes of its unsynced WAL buffer reach the durable log before
    /// the process dies (the classic partial-fsync failure).
    pub fn torn_crash_data_peer(&mut self, id: PeerId, keep: u32) -> Result<()> {
        self.peer(id)?;
        self.faults
            .inject_now(FaultAction::TornCrash { peer: id, keep });
        self.sync_faults()
    }

    /// Recover a crashed data peer in place (process restart: WAL
    /// replay or replica restore per the recovery decision tree,
    /// overlay node restored from replicas, indices republished).
    pub fn recover_data_peer(&mut self, id: PeerId) -> Result<()> {
        self.peer(id)?;
        self.faults.inject_now(FaultAction::Recover(id));
        self.sync_faults()
    }

    /// Push the side effects of newly applied fault events into the
    /// BATON overlay (node crash/recover) and the peer databases (the
    /// kill-9, recovery, load advances). Runs before every query attempt
    /// and at the end of every maintenance epoch.
    fn sync_faults(&mut self) -> Result<()> {
        let drops = self.faults.take_pending_drops();
        if drops > 0 {
            self.overlay.drop_next_inserts(drops);
        }
        self.drain_wal_metrics();
        let new = self.faults.log()[self.fault_sync_cursor..].to_vec();
        self.fault_sync_cursor += new.len();
        if new.is_empty() {
            return Ok(());
        }
        for rec in &new {
            match rec.action {
                FaultAction::Crash(p) | FaultAction::TornCrash { peer: p, .. } => {
                    // A node crash can take other peers' entries stored
                    // at it down too; every remembered set is now
                    // suspect, so each peer's next publish is a full one.
                    // The sets are kept: a departure still withdraws them.
                    for set in self.published.values_mut() {
                        set.stale = true;
                    }
                    if self.overlay.contains(p) {
                        self.overlay.crash(p)?;
                    }
                    // The kill-9 itself: volatile state is dropped and
                    // the durable checkpoint + log replay back in. A
                    // torn crash persists a prefix of the unsynced
                    // buffer first — the torn final record.
                    let keep = match rec.action {
                        FaultAction::TornCrash { keep, .. } => keep as usize,
                        _ => 0,
                    };
                    if let Some(peer) = self.peers.get_mut(&p) {
                        match peer.db.crash(keep) {
                            CrashOutcome::Replayed { records, torn_tail } => {
                                self.metrics.inc_by("wal.replayed_records", records);
                                if torn_tail {
                                    self.metrics.inc("wal.torn_tails");
                                }
                            }
                            CrashOutcome::Corrupt => {
                                self.metrics.inc("wal.corrupt_logs");
                            }
                            CrashOutcome::NoWal => {}
                        }
                    }
                }
                FaultAction::Recover(p) => self.restart_peer(p)?,
                FaultAction::AdvanceLoad { peer, ts } => {
                    if let Some(p) = self.peers.get_mut(&peer) {
                        if p.db.load_timestamp() < ts {
                            p.db.set_load_timestamp(ts)?;
                        }
                    }
                }
                FaultAction::SlowLink { .. }
                | FaultAction::FastLink(_)
                | FaultAction::DropIndexInserts(_) => {}
            }
        }
        self.invalidate_caches();
        Ok(())
    }

    /// A crashed or failed-over peer comes back: its overlay node
    /// recovers from adjacent replicas,
    /// [`BestPeerNetwork::recover_peer_storage`] decides its database,
    /// and its indices are republished. The republish is a full one: the
    /// crash may have lost entries the remembered set still claims are
    /// present.
    fn restart_peer(&mut self, p: PeerId) -> Result<()> {
        if self.overlay.contains(p) {
            self.overlay.recover(p)?;
        }
        if !self.peers.contains_key(&p) {
            return Ok(());
        }
        self.recover_peer_storage(p)?;
        if let Some(set) = self.published.get_mut(&p) {
            set.stale = true;
        }
        self.publish_indices(p)?;
        Ok(())
    }

    /// The one recovery decision (see DESIGN.md §14), for an in-place
    /// restart and a fail-over alike: the peer runs on the fresher of
    /// its local WAL and its latest cloud backup, whichever instance
    /// took that backup. Ties go to the WAL, which is byte-identical and
    /// avoids a restore:
    ///
    /// 1. WAL replays cleanly, no backup → WAL.
    /// 2. WAL replays cleanly, backup exists → whichever `last_lsn` is
    ///    higher (a stale replica must never clobber fresher log state,
    ///    and a torn log must never clobber a fresher replica).
    /// 3. WAL corrupt or missing, backup exists → backup; the log is
    ///    superseded by a fresh checkpoint.
    /// 4. WAL corrupt or missing, no backup → empty database with the
    ///    global schemas (the bootstrap-join baseline).
    ///
    /// A missing log is a wiped disk (a database replaced through
    /// [`BestPeerNetwork::peer_mut`]); the peer leaves recovery with a
    /// fresh log numbered after the installed image.
    fn recover_peer_storage(&mut self, p: PeerId) -> Result<()> {
        let replayed = self.peer(p)?.db.replay_attached().ok();
        let backup = self
            .bootstrap
            .record(p)
            .and_then(|r| r.backup)
            .and_then(|b| self.cloud.restore(b).ok());
        let (image, source, records) = match (replayed, backup) {
            (Some((db, _)), Some(replica)) if replica.last_lsn() > db.last_lsn() => {
                (replica, "replica", 0)
            }
            (Some((db, records)), _) => (db, "wal", records),
            (None, Some(replica)) => (replica, "replica", 0),
            (None, None) => (self.bootstrap.schema_database()?, "schema", 0),
        };
        let db = &mut self.peers.get_mut(&p).expect("checked above").db;
        db.install_recovered(image, source != "wal")?;
        if !db.has_wal() {
            db.attach_wal(new_wal(self.config.wal_group_window))?;
        }
        self.metrics.inc_by("wal.replayed_records", records);
        self.metrics.inc(&format!("recovery.source.{source}"));
        Ok(())
    }

    /// Fold every peer's WAL counters into the registry (`wal.appends`,
    /// `wal.fsyncs`, `wal.checkpoints`, `wal.bytes`).
    fn drain_wal_metrics(&mut self) {
        let mut total = bestpeer_storage::WalStats::default();
        for peer in self.peers.values_mut() {
            if let Some(s) = peer.db.drain_wal_stats() {
                total.appends += s.appends;
                total.fsyncs += s.fsyncs;
                total.checkpoints += s.checkpoints;
                total.bytes += s.bytes;
            }
        }
        if total != bestpeer_storage::WalStats::default() {
            self.metrics.inc_by("wal.appends", total.appends);
            self.metrics.inc_by("wal.fsyncs", total.fsyncs);
            self.metrics.inc_by("wal.checkpoints", total.checkpoints);
            self.metrics.inc_by("wal.bytes", total.bytes);
        }
    }

    /// One engine execution (a single attempt of the retry loop).
    fn run_engine_once(
        &mut self,
        submitter: PeerId,
        stmt: &SelectStmt,
        role: &str,
        engine: EngineChoice,
        query_ts: u64,
    ) -> Result<(ResultSet, Trace, EngineChoice, Option<EngineDecision>)> {
        self.with_engine_ctx(submitter, role, query_ts, true, |ctx| {
            Ok(match engine {
                EngineChoice::Basic => {
                    let (rs, tr) = basic::execute(ctx, submitter, stmt)?;
                    (rs, tr, EngineChoice::Basic, None)
                }
                EngineChoice::ParallelP2P => {
                    let (rs, tr) = parallel::execute(ctx, submitter, stmt)?;
                    (rs, tr, EngineChoice::ParallelP2P, None)
                }
                EngineChoice::MapReduce => {
                    let (rs, tr) = mr::execute(ctx, submitter, stmt)?;
                    (rs, tr, EngineChoice::MapReduce, None)
                }
                EngineChoice::Adaptive => {
                    let ((rs, tr), report) = adaptive::execute(ctx, submitter, stmt)?;
                    let used = match report.ran {
                        adaptive::ChosenEngine::ParallelP2P => EngineChoice::ParallelP2P,
                        adaptive::ChosenEngine::MapReduce => EngineChoice::MapReduce,
                    };
                    (rs, tr, used, Some(report.decision))
                }
            })
        })
    }

    /// Run one engine inside the [`EngineCtx`] both query entry points
    /// build here: the submitter's locator and, when `cached`, its
    /// result cache (the online engine streams progressive estimates
    /// from fresh owner serves, so it runs with a disabled one), with
    /// the role and the global schemas borrowed from the bootstrap. A
    /// successful run's execution counters fold into the registry.
    fn with_engine_ctx<T>(
        &mut self,
        submitter: PeerId,
        role: &str,
        query_ts: u64,
        cached: bool,
        run: impl FnOnce(&mut EngineCtx<'_>) -> Result<T>,
    ) -> Result<T> {
        let locator = self
            .locators
            .entry(submitter)
            .or_insert_with(|| PeerLocator::new(self.config.index_cache));
        let mut uncached;
        let rescache = if cached {
            self.rescaches
                .entry(submitter)
                .or_insert_with(|| ResultCache::new(self.config.result_cache, RESULT_CACHE_BUDGET))
        } else {
            uncached = ResultCache::new(false, 0);
            &mut uncached
        };
        let mut ctx = EngineCtx {
            peers: &self.peers,
            remotes: &self.remotes,
            transport: self.transport.as_deref(),
            overlay: &mut self.overlay,
            locator,
            config: &self.config,
            schemas: self.bootstrap.global_schemas(),
            role: self.bootstrap.role(role)?,
            stats: self.stats.as_ref(),
            query_ts,
            faults: &mut self.faults,
            admission: &mut self.admission,
            exec: Default::default(),
            rescache,
            advisor: &mut self.advisor,
        };
        let out = run(&mut ctx)?;
        let exec = ctx.exec;
        self.record_exec_metrics(&exec);
        Ok(out)
    }

    /// Fold one attempt's execution counters into the registry.
    fn record_exec_metrics(&mut self, exec: &bestpeer_sql::ExecStats) {
        let m = &mut self.metrics;
        m.inc_by("exec.rows_shared", exec.rows_shared);
        m.inc_by("exec.rows_cloned", exec.rows_cloned);
        m.inc_by("exec.topk_short_circuits", exec.topk_short_circuits);
        // Pool counters are wall-clock (worker-thread busy time), so
        // they live only in the registry — never in a QueryReport,
        // whose fields must be deterministic at any thread count.
        let (tasks, busy_ns) = bestpeer_common::pool::drain_counters();
        m.inc_by("pool.tasks", tasks);
        m.inc_by("pool.busy_ns", busy_ns);
        m.set_gauge("pool.workers", bestpeer_common::pool::thread_count() as f64);
    }

    /// Submit a SQL query from `submitter` under `role`, stamped with
    /// snapshot timestamp `query_ts` (Definition 2; pass 0 to accept any
    /// data version), on the chosen engine.
    ///
    /// The query path is fault tolerant within the configured
    /// [`RetryPolicy`]: when a participating data peer is down
    /// ([`Error::Unavailable`]) the submitter backs off (charged to the
    /// trace), lets one bootstrap maintenance epoch elapse — so the
    /// heartbeat failure detector makes progress toward fail-over — and
    /// re-attempts with refreshed peer locations; stale-snapshot
    /// rejections are automatically resubmitted within their own budget.
    /// Exhausting the retry budget yields [`Error::Timeout`]; exhausting
    /// the resubmit budget surfaces the original stale-snapshot error.
    pub fn submit_query(
        &mut self,
        submitter: PeerId,
        sql: &str,
        role: &str,
        engine: EngineChoice,
        query_ts: u64,
    ) -> Result<QueryOutput> {
        let stmt = self.query_front(sql, role)?;
        // ORDER BY keys the output lacks ride along as hidden columns,
        // dropped once the engine has ordered and truncated its answer.
        let (stmt, hidden) = bestpeer_sql::expose_order_keys(stmt);
        if !self.remotes.is_empty()
            && matches!(engine, EngineChoice::MapReduce | EngineChoice::Adaptive)
        {
            return Err(Error::Plan(
                "MapReduce and Adaptive engines require all data peers \
                 in-process; remote peers support Basic and ParallelP2P"
                    .into(),
            ));
        }
        self.validate_statistics();
        let policy = self.config.retry.clone();
        let (loc0, res0) = self.cache_counters(submitter);
        let adv0 = self.advisor.stats();
        let mut pre = Trace::new(); // backoff/slowdown phases across attempts
        let mut attempts = 0u32;
        let mut down_retries = 0u32;
        let mut resubmits = 0u32;
        let mut sheds = 0u32;
        loop {
            self.sync_faults()?;
            // A fault synced here drops the statistics; the adaptive
            // planner collects them again before each attempt.
            if engine == EngineChoice::Adaptive && self.stats.is_none() {
                self.collect_statistics(&[])?;
            }
            attempts += 1;
            let outcome = self.run_engine_once(submitter, &stmt, role, engine, query_ts);
            // Latency accrued at slowed links is charged either way.
            let slow = self.faults.take_slow_latency();
            if slow > SimTime::ZERO {
                pre.push(Phase::new("fault-slowdown").task(Task::on(submitter).fixed(slow)));
            }
            match outcome {
                Ok((mut result, trace, used, decision)) => {
                    result.drop_trailing_columns(hidden);
                    let mut full = pre;
                    full.phases.extend(trace.phases);
                    let mut report = QueryReport::from_trace(
                        engine_label(used),
                        &full,
                        &Cluster::new(self.config.resources),
                    );
                    report.attempts = attempts;
                    report.resubmits = resubmits;
                    report.sheds = sheds;
                    report.slo_violation = self.config.slo_latency > SimTime::ZERO
                        && report.total_latency > self.config.slo_latency;
                    report.selection = decision.map(|d| EngineSelection {
                        predicted_p2p_secs: d.p2p_cost,
                        predicted_mr_secs: d.mr_cost,
                        chose_p2p: d.choose_p2p,
                    });
                    // Cache accounting across every attempt of this
                    // query (counters are monotone, so end − start).
                    let (loc1, res1) = self.cache_counters(submitter);
                    report.index_cache_hits = loc1.cache_hits - loc0.cache_hits;
                    report.index_cache_misses = loc1.cache_misses - loc0.cache_misses;
                    report.cache_hits = res1.hits - res0.hits;
                    report.cache_misses = res1.misses - res0.misses;
                    report.overlay_hops = loc1.hops - loc0.hops;
                    report.advisor_hit = self.advisor.stats().hits > adv0.hits;
                    self.metrics
                        .inc_by("cache.result.evictions", res1.evictions - res0.evictions);
                    let resident: u64 = self.rescaches.values().map(|c| c.stats().bytes).sum();
                    self.metrics
                        .set_gauge("cache.result.bytes", resident as f64);
                    self.record_query_metrics(&report);
                    return Ok(QueryOutput {
                        result,
                        trace: full,
                        engine: used,
                        decision,
                        attempts,
                        resubmits,
                        degraded: false,
                        report,
                    });
                }
                Err(e) if e.kind() == "unavailable" => {
                    down_retries += 1;
                    if down_retries >= policy.max_attempts {
                        self.metrics.inc("queries.failed");
                        self.metrics.inc("queries.failed.timeout");
                        return Err(Error::Timeout(format!(
                            "retry budget exhausted after {attempts} attempts: {e}"
                        )));
                    }
                    pre.push(
                        Phase::new(format!("retry-backoff-{down_retries}"))
                            .task(Task::on(submitter).fixed(policy.backoff(down_retries + 1))),
                    );
                    // One maintenance epoch elapses per backoff period:
                    // the failure detector counts the missed heartbeat
                    // and eventually fails the dead peer over.
                    self.maintenance_tick()?;
                }
                Err(e) if e.kind() == "overloaded" => {
                    // Load shedding: a bounded admission queue bounced
                    // the attempt. Shares the unavailable-retry budget,
                    // but instead of a maintenance epoch the backoff
                    // advances the admission clock — waiting is exactly
                    // what lets the shedding peer's queue drain.
                    down_retries += 1;
                    sheds += 1;
                    if down_retries >= policy.max_attempts {
                        self.metrics.inc("queries.failed");
                        self.metrics.inc("queries.failed.overloaded");
                        return Err(Error::Timeout(format!(
                            "retry budget exhausted after {attempts} attempts: {e}"
                        )));
                    }
                    let wait = policy.backoff(down_retries + 1);
                    pre.push(
                        Phase::new(format!("shed-backoff-{sheds}"))
                            .task(Task::on(submitter).fixed(wait)),
                    );
                    self.admission.advance(wait);
                }
                Err(e) if e.kind() == "stale-snapshot" => {
                    if resubmits >= policy.max_resubmits {
                        self.metrics.inc("queries.failed");
                        self.metrics.inc("queries.failed.stale_snapshot");
                        return Err(e);
                    }
                    resubmits += 1;
                    pre.push(
                        Phase::new(format!("resubmit-{resubmits}"))
                            .task(Task::on(submitter).fixed(policy.base_backoff)),
                    );
                }
                Err(e) => {
                    self.metrics.inc("queries.failed");
                    return Err(e);
                }
            }
        }
    }

    /// The front both query entry points share: parse `sql`, check
    /// that `role` exists, fail any name that resolves nowhere (an
    /// unknown FROM table or column) before a peer is asked, and let the
    /// admission queues drain in registry time since the last query.
    fn query_front(&mut self, sql: &str, role: &str) -> Result<SelectStmt> {
        let stmt = parse_select(sql)?;
        self.bootstrap.role(role)?;
        bestpeer_sql::decompose::check_columns(&stmt, self.bootstrap.global_schemas())?;
        self.admission.set_now(self.metrics.now());
        Ok(stmt)
    }

    /// The submitter's cache counters (level 1 locator + level 2 result
    /// cache), zero if the submitter has no cache state yet.
    fn cache_counters(&self, submitter: PeerId) -> (LocatorStats, CacheStats) {
        let loc = self
            .locators
            .get(&submitter)
            .map(|l| l.stats())
            .unwrap_or_default();
        let res = self
            .rescaches
            .get(&submitter)
            .map(|c| c.stats())
            .unwrap_or_default();
        (loc, res)
    }

    /// Fold one completed query's report into the registry: totals,
    /// per-engine counts, retry/resubmit accounting, cache accounting,
    /// latency histogram, and the adaptive planner's prediction
    /// accuracy.
    fn record_query_metrics(&mut self, report: &QueryReport) {
        let m = &mut self.metrics;
        m.inc("queries.total");
        m.inc_by("cache.result.hits", report.cache_hits);
        m.inc_by("cache.result.misses", report.cache_misses);
        m.inc_by("cache.index.hits", report.index_cache_hits);
        m.inc_by("cache.index.misses", report.index_cache_misses);
        m.inc(if report.is_warm() {
            "queries.warm"
        } else {
            "queries.cold"
        });
        m.inc(&format!("engine.{}.queries", report.engine));
        m.inc_by(
            "queries.retries",
            u64::from(report.attempts.saturating_sub(1)),
        );
        m.inc_by("queries.resubmits", u64::from(report.resubmits));
        m.inc_by("queries.degraded_peers", u64::from(report.degraded_peers));
        m.inc_by("bytes.network", report.network_bytes());
        m.inc_by("bytes.disk", report.disk_bytes());
        m.inc_by("bytes.cpu", report.cpu_bytes());
        m.observe("query.latency_secs", report.total_latency.as_secs_f64());
        m.observe("query.backoff_secs", report.backoff().as_secs_f64());
        if let Some(sel) = &report.selection {
            m.inc(if sel.chose_p2p {
                "adaptive.chose_p2p"
            } else {
                "adaptive.chose_mr"
            });
            let predicted = if sel.chose_p2p {
                sel.predicted_p2p_secs
            } else {
                sel.predicted_mr_secs
            };
            m.observe(
                "adaptive.prediction_error_secs",
                (predicted - report.total_latency.as_secs_f64()).abs(),
            );
        }
        m.inc_by("queries.shed_retries", u64::from(report.sheds));
        if self.config.slo_latency > SimTime::ZERO {
            m.inc("slo.queries");
            if report.slo_violation {
                m.inc("slo.violations");
            }
        }
        m.inc_by("route.overlay_hops", report.overlay_hops);
        // Virtual time advances by the simulated latency of each query.
        m.tick(report.total_latency);
        self.publish_admission_metrics();
        self.publish_router_metrics();
    }

    /// Publish the routing advisor's counters into the registry
    /// (`route.advisor.{hits,misses,demotions,shed_reroutes}` plus the
    /// `route.advisor.communities` gauge). The advisor's counters are
    /// monotone; `router_published` remembers what was already mirrored
    /// so each call emits only the delta. A no-op when the advisor is
    /// disabled, so advisor-off networks export exactly the metric set
    /// they always did.
    fn publish_router_metrics(&mut self) {
        if !self.advisor.enabled() {
            return;
        }
        let s = self.advisor.stats();
        let p = self.router_published;
        let m = &mut self.metrics;
        m.inc_by("route.advisor.hits", s.hits - p.hits);
        m.inc_by("route.advisor.misses", s.misses - p.misses);
        m.inc_by("route.advisor.demotions", s.demotions - p.demotions);
        m.inc_by(
            "route.advisor.shed_reroutes",
            s.shed_reroutes - p.shed_reroutes,
        );
        m.set_gauge(
            "route.advisor.communities",
            self.advisor.communities() as f64,
        );
        self.router_published = s;
    }

    /// One Algorithm 1 maintenance epoch (fail-over, auto-scaling,
    /// resource release), with cache invalidation as the "notify
    /// participants" step. The bootstrap's failure detector reads the
    /// fault state and moves a failed-over peer's record to a fresh
    /// instance; the network then logs the peer's `Recover`, which
    /// restarts it exactly once, as a scheduled `Recover` would (overlay
    /// node, recovery decision, republish).
    pub fn maintenance_tick(&mut self) -> Result<Vec<MaintenanceEvent>> {
        let events = self
            .bootstrap
            .maintenance_tick(&mut self.cloud, &self.faults)?;
        for e in &events {
            if let MaintenanceEvent::FailOver { peer, .. } = e {
                self.faults.inject_now(FaultAction::Recover(*peer));
            }
        }
        self.sync_faults()?;
        if !events.is_empty() {
            self.invalidate_caches();
        }
        // Publish the failure detector's health after every epoch.
        let health = self.bootstrap.health();
        self.metrics.inc("bootstrap.epochs");
        self.metrics
            .set_gauge("bootstrap.heartbeat_misses", health.heartbeat_misses as f64);
        self.metrics
            .set_gauge("bootstrap.suspected_peers", health.suspected_peers as f64);
        self.metrics
            .set_gauge("bootstrap.blacklist_size", health.blacklist_size as f64);
        self.metrics
            .set_gauge("bootstrap.failovers", health.failovers as f64);
        Ok(events)
    }

    /// Back every peer up (the periodic EBS cycle).
    pub fn backup_all(&mut self) -> Result<usize> {
        self.bootstrap.backup_all(&mut self.cloud, &self.peers)
    }

    /// The admission-control state (queue depths, utilization gauges).
    pub fn admission(&self) -> &AdmissionState {
        &self.admission
    }

    /// Offer one client request to `peer`'s admission queue at virtual
    /// time `at` without running a full query — the entry point the
    /// open-loop saturation harness drives at 10⁵+ sessions. Returns
    /// the request's virtual completion time, or [`Error::Overloaded`]
    /// when the bounded queue sheds it. Admitted requests' queueing
    /// latencies feed the `admission.latency_secs` histogram.
    pub fn offer_request(&mut self, peer: PeerId, at: SimTime) -> Result<SimTime> {
        if !self.peers.contains_key(&peer) {
            return Err(Error::Network(format!("{peer} is not a live peer")));
        }
        self.metrics.advance_clock(at);
        self.admission.set_now(at);
        let outcome = self.admission.admit(peer);
        if let Ok(done) = &outcome {
            self.metrics.observe(
                "admission.latency_secs",
                done.saturating_sub(at).as_secs_f64(),
            );
        }
        outcome
    }

    /// Like [`BestPeerNetwork::offer_request`], but a shed request is
    /// rerouted to a community alternate instead of bouncing back to
    /// the client: when the routing advisor has fresh community
    /// knowledge about the overloaded peer, each alternate (ascending)
    /// is offered the request until one's bounded queue admits it.
    /// Returns the peer that actually admitted and the completion time;
    /// the original [`Error::Overloaded`] surfaces when no alternate
    /// has headroom either. Only the admission queues move — data
    /// owners for real queries are determined by placement, so this
    /// entry point serves the open-loop session harness, where any
    /// community member can absorb the session.
    pub fn offer_request_routed(&mut self, peer: PeerId, at: SimTime) -> Result<(PeerId, SimTime)> {
        match self.offer_request(peer, at) {
            Ok(done) => Ok((peer, done)),
            Err(e) if e.kind() == "overloaded" => {
                let alternates = self.advisor.shed_alternates(peer);
                for alt in alternates {
                    if !self.peers.contains_key(&alt) || self.faults.is_down(alt) {
                        continue;
                    }
                    if let Ok(done) = self.admission.admit(alt) {
                        self.advisor.note_shed_reroute();
                        self.metrics.observe(
                            "admission.latency_secs",
                            done.saturating_sub(at).as_secs_f64(),
                        );
                        self.publish_router_metrics();
                        return Ok((alt, done));
                    }
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// One epoch of the closed elasticity loop: sample every peer's
    /// admission queue, mirror the observed utilization into the
    /// cloud's instance metrics (the CloudWatch feed Algorithm 1's
    /// daemon reads), and let the bootstrap peer scale elastic peers
    /// out or back in with hysteresis
    /// ([`BootstrapPeer::elastic_tick`]). `now` stamps the epoch in
    /// virtual time; `window` is the span utilization is measured
    /// against (typically the epoch length).
    ///
    /// Scaled-out peers are enlisted like a joining business; scaled-in
    /// peers are retired like a departing one. The span from the first
    /// over-threshold observation to the scale-out answering it lands in
    /// the `scale.reaction_us` gauge; `scale.out` / `scale.in` count
    /// events.
    pub fn scale_tick(&mut self, now: SimTime, window: SimTime) -> Result<Vec<MaintenanceEvent>> {
        self.metrics.advance_clock(now);
        self.admission.set_now(now);
        let now = self.admission.now();
        let mut loads = BTreeMap::new();
        let mut any_over = false;
        for &id in self.peers.keys() {
            let load = PeerLoad {
                utilization: self.admission.utilization(id, window),
                queue_depth: self.admission.queue_depth(id),
            };
            any_over |= load.utilization > self.bootstrap.scale_cpu_threshold;
            if let Some(record) = self.bootstrap.record(id) {
                if let Ok(mut m) = self.cloud.metrics(record.instance) {
                    m.cpu_utilization = load.utilization;
                    let _ = self.cloud.set_metrics(record.instance, m);
                }
            }
            loads.insert(id, load);
        }
        if any_over && self.overload_since.is_none() {
            self.overload_since = Some(now);
        }
        let events = self.bootstrap.elastic_tick(&mut self.cloud, &loads)?;
        for e in &events {
            match e {
                MaintenanceEvent::ScaleOut { peer, .. } => {
                    self.enlist(*peer)?;
                    self.metrics.inc("scale.out");
                    if let Some(t0) = self.overload_since.take() {
                        self.metrics.set_gauge(
                            "scale.reaction_us",
                            now.saturating_sub(t0).as_micros() as f64,
                        );
                    }
                }
                MaintenanceEvent::ScaleIn { peer, .. } => {
                    self.retire(*peer)?;
                    self.metrics.inc("scale.in");
                }
                _ => {}
            }
        }
        if !events.is_empty() {
            self.invalidate_caches();
        }
        if !any_over {
            self.overload_since = None;
        }
        self.publish_admission_metrics();
        self.publish_router_metrics();
        Ok(events)
    }

    /// Publish the admission counters and aggregate queue depth into
    /// the registry (`admission.{admitted,shed,queue_depth}`). A no-op
    /// when admission control is disabled, so default-configured
    /// networks export exactly the metric set they always did.
    pub fn publish_admission_metrics(&mut self) {
        if !self.admission.enabled() {
            return;
        }
        let (admitted, shed) = self.admission.take_counters();
        self.metrics.inc_by("admission.admitted", admitted);
        self.metrics.inc_by("admission.shed", shed);
        self.metrics
            .set_gauge("admission.queue_depth", self.admission.total_depth() as f64);
    }

    /// Run a single-aggregate query with distributed online aggregation
    /// (reference \[25\]): progressive estimates with confidence
    /// intervals arrive as each peer reports; the exact result follows.
    pub fn submit_online_aggregate(
        &mut self,
        submitter: PeerId,
        sql: &str,
        role: &str,
        query_ts: u64,
    ) -> Result<crate::engine::online::OnlineOutput> {
        let stmt = self.query_front(sql, role)?;
        self.sync_faults()?;
        let mut out = self.with_engine_ctx(submitter, role, query_ts, false, |ctx| {
            crate::engine::online::execute(ctx, submitter, &stmt)
        })?;
        let slow = self.faults.take_slow_latency();
        if slow > SimTime::ZERO {
            out.trace
                .push(Phase::new("fault-slowdown").task(Task::on(submitter).fixed(slow)));
        }
        let mut report =
            QueryReport::from_trace("online", &out.trace, &Cluster::new(self.config.resources));
        report.degraded_peers = out.skipped_peers;
        self.record_query_metrics(&report);
        out.report = report;
        Ok(out)
    }

    /// Export tables to a freshly mounted HDFS for offline MapReduce
    /// analysis (paper §1), applying `role`'s access control at every
    /// owner. Returns the populated file system and the export report.
    pub fn export_to_hadoop(
        &self,
        tables: &[&str],
        role: &str,
        query_ts: u64,
    ) -> Result<(bestpeer_mapreduce::Hdfs, crate::export::ExportReport)> {
        let role = self.bootstrap.role(role)?;
        let mut hdfs = bestpeer_mapreduce::Hdfs::new(self.peer_ids(), mr::HDFS_REPLICATION);
        let report = crate::export::export_tables(&self.peers, tables, role, query_ts, &mut hdfs)?;
        Ok((hdfs, report))
    }
}

/// A peer's published index entries, keyed by overlay position.
type EntrySet = Vec<(Key, IndexEntry)>;

/// One peer's remembered index publication.
#[derive(Debug)]
struct Published {
    /// The entries the peer last published.
    entries: EntrySet,
    /// Set when a crash, a recovery or a publish that lost inserts may
    /// have made the overlay diverge from `entries`: the next publish is
    /// then a full one.
    stale: bool,
}

/// Multiset difference between a peer's previously published entry set
/// and its current one: `(to_remove, to_insert)`. Matched pairs are
/// consumed one-for-one so duplicate entries (e.g. two range entries
/// under the same per-table key) diff correctly.
fn diff_entries(prev: &[(Key, IndexEntry)], next: &[(Key, IndexEntry)]) -> (EntrySet, EntrySet) {
    let mut matched = vec![false; next.len()];
    let mut to_remove = Vec::new();
    for p in prev {
        match next
            .iter()
            .enumerate()
            .find(|(j, n)| !matched[*j] && *n == p)
        {
            Some((j, _)) => matched[j] = true,
            None => to_remove.push(p.clone()),
        }
    }
    let to_insert = next
        .iter()
        .zip(&matched)
        .filter(|(_, m)| !**m)
        .map(|(n, _)| n.clone())
        .collect();
    (to_remove, to_insert)
}
