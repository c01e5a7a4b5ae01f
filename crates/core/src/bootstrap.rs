//! The bootstrap peer (paper §3).
//!
//! Run by the BestPeer++ service provider; a network has exactly one.
//! It is the entry point (join/departure, §3.1), the central metadata
//! repository (global schema, peer list, role definitions, broadcast
//! user registry, §2.2), the certificate authority, and the daemon that
//! monitors normal peers and schedules auto fail-over and auto-scaling
//! events (Algorithm 1, §3.2).

use std::collections::{BTreeMap, BTreeSet};

use bestpeer_cloud::{BackupId, CloudProvider, InstanceType};
use bestpeer_common::{Error, InstanceId, PeerId, Result, TableSchema, UserId};
use bestpeer_storage::Database;

use crate::access::Role;
use crate::ca::{Certificate, CertificateAuthority};
use crate::fault::FaultState;
use crate::peer::NormalPeer;

/// Peer-list record kept by the bootstrap peer: the one record of where
/// a peer runs, whose it is, its certificate and its latest backup.
#[derive(Debug, Clone)]
pub struct PeerRecord {
    /// The peer id.
    pub peer: PeerId,
    /// The owning business.
    pub business: String,
    /// The instance currently hosting the peer.
    pub instance: InstanceId,
    /// The issued certificate.
    pub cert: Certificate,
    /// The peer's latest cloud backup, whichever instance took it.
    pub backup: Option<BackupId>,
}

/// Why an instance landed on the blacklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlacklistReason {
    /// The peer departed voluntarily.
    Departed,
    /// The instance crashed and was failed-over.
    FailedOver,
    /// The elasticity loop retired this elastic peer after sustained
    /// underload.
    ScaledIn,
}

/// A maintenance event produced by Algorithm 1 (observable log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceEvent {
    /// A crashed peer was failed over to a fresh instance.
    FailOver {
        /// The affected peer.
        peer: PeerId,
        /// The dead instance.
        old_instance: InstanceId,
        /// Its replacement.
        new_instance: InstanceId,
    },
    /// An overloaded peer was upgraded to a larger instance.
    AutoScale {
        /// The affected peer.
        peer: PeerId,
        /// The new shape.
        shape: InstanceType,
    },
    /// Blacklisted resources were released.
    Released {
        /// How many instances were terminated.
        instances: usize,
    },
    /// The elasticity loop launched a fresh elastic peer in response to
    /// sustained overload.
    ScaleOut {
        /// The new peer.
        peer: PeerId,
        /// The instance launched for it.
        instance: InstanceId,
    },
    /// The elasticity loop retired an idle elastic peer (its instance
    /// is blacklisted for release at the next maintenance epoch).
    ScaleIn {
        /// The retired peer.
        peer: PeerId,
        /// The instance it ran on.
        instance: InstanceId,
    },
}

/// One peer's observed load, sampled from the admission queues and fed
/// to [`BootstrapPeer::elastic_tick`] each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerLoad {
    /// Queue backlog as a fraction of the observation window, in
    /// `[0, 1]` — the elasticity loop's CPU-utilization analog.
    pub utilization: f64,
    /// Requests queued and not yet completed. A non-zero depth vetoes
    /// scale-in: a peer with queued work is never evicted.
    pub queue_depth: u32,
}

/// User-registry entry: created at one peer, broadcast everywhere
/// (paper §4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRecord {
    /// The user id.
    pub user: UserId,
    /// Login name.
    pub name: String,
    /// The peer whose local administrator created the account.
    pub home_peer: PeerId,
}

/// Health counters of the bootstrap peer's failure detector
/// (heartbeat misses, fail-overs, pending blacklist releases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootstrapHealth {
    /// Sum of all peers' current consecutive-miss counters.
    pub heartbeat_misses: u64,
    /// Peers with at least one consecutive miss (suspected, not yet
    /// failed over).
    pub suspected_peers: usize,
    /// Instances awaiting resource release at the next epoch.
    pub blacklist_size: usize,
    /// Fail-overs performed since the network started.
    pub failovers: u64,
}

/// The bootstrap peer state.
#[derive(Debug)]
pub struct BootstrapPeer {
    ca: CertificateAuthority,
    global_schemas: Vec<TableSchema>,
    roles: BTreeMap<String, Role>,
    peer_list: BTreeMap<PeerId, PeerRecord>,
    blacklist: Vec<(PeerId, InstanceId, BlacklistReason)>,
    users: BTreeMap<UserId, UserRecord>,
    next_peer: u64,
    next_user: u64,
    /// CPU-utilization threshold that triggers auto-scaling.
    pub scale_cpu_threshold: f64,
    /// Storage-utilization threshold that triggers auto-scaling.
    pub scale_storage_threshold: f64,
    /// Consecutive missed heartbeat epochs before a peer is declared
    /// dead and failed over. One epoch = one
    /// [`BootstrapPeer::maintenance_tick`]. A threshold above 1 keeps a
    /// transient hiccup (one unanswered heartbeat) from triggering a
    /// fail-over that would discard unreplicated local state.
    pub fail_threshold: u32,
    /// Consecutive over- (or under-) threshold epochs a peer must
    /// accumulate before a scale decision fires — the hysteresis that
    /// keeps transient spikes from thrashing auto-scaling, mirroring
    /// [`fail_threshold`](BootstrapPeer::fail_threshold) on the failure
    /// side. Applies to instance upgrades in
    /// [`BootstrapPeer::maintenance_tick`] and to scale-out/in in
    /// [`BootstrapPeer::elastic_tick`].
    pub scale_threshold: u32,
    /// Utilization below which an *elastic* peer counts as idle; after
    /// [`scale_threshold`](BootstrapPeer::scale_threshold) consecutive
    /// idle epochs (and an empty queue) it is scaled back in. The gap
    /// between this and
    /// [`scale_cpu_threshold`](BootstrapPeer::scale_cpu_threshold) is
    /// the hysteresis band.
    pub scale_in_threshold: f64,
    /// Maximum elastic peers [`BootstrapPeer::elastic_tick`] may have
    /// live at once. 0 (the default) disables scale-out entirely.
    pub elastic_limit: usize,
    /// Cap on the retained [`MaintenanceEvent`] history (older events
    /// are discarded first); keeps a long-running daemon's memory flat.
    pub max_event_history: usize,
    /// Per-peer consecutive missed-heartbeat counters.
    heartbeat_misses: BTreeMap<PeerId, u32>,
    /// Per-peer consecutive over-threshold epochs (instance-upgrade
    /// debounce in `maintenance_tick`).
    upgrade_streaks: BTreeMap<PeerId, u32>,
    /// Per-peer consecutive over-threshold epochs (scale-out side of
    /// `elastic_tick`).
    out_streaks: BTreeMap<PeerId, u32>,
    /// Per-elastic-peer consecutive under-threshold epochs (scale-in
    /// side of `elastic_tick`).
    idle_streaks: BTreeMap<PeerId, u32>,
    /// Peers added by scale-out (only these are eligible for scale-in).
    elastic: BTreeSet<PeerId>,
    /// Name allocator for elastic peers (`elastic-0`, `elastic-1`, …).
    elastic_seq: u64,
    events: Vec<MaintenanceEvent>,
    /// Fail-overs performed since the network started (cumulative; the
    /// telemetry layer exports it as `bootstrap.failovers`).
    failovers: u64,
}

impl BootstrapPeer {
    /// Create the network's bootstrap peer with the shared global
    /// schema and a CA secret.
    pub fn new(global_schemas: Vec<TableSchema>, ca_secret: u64) -> Self {
        BootstrapPeer {
            ca: CertificateAuthority::new(ca_secret),
            global_schemas,
            roles: BTreeMap::new(),
            peer_list: BTreeMap::new(),
            blacklist: Vec::new(),
            users: BTreeMap::new(),
            next_peer: 0,
            next_user: 0,
            scale_cpu_threshold: 0.85,
            scale_storage_threshold: 0.85,
            fail_threshold: 3,
            scale_threshold: 3,
            scale_in_threshold: 0.30,
            elastic_limit: 0,
            max_event_history: 1024,
            heartbeat_misses: BTreeMap::new(),
            upgrade_streaks: BTreeMap::new(),
            out_streaks: BTreeMap::new(),
            idle_streaks: BTreeMap::new(),
            elastic: BTreeSet::new(),
            elastic_seq: 0,
            events: Vec::new(),
            failovers: 0,
        }
    }

    /// The shared global schema.
    pub fn global_schemas(&self) -> &[TableSchema] {
        &self.global_schemas
    }

    /// An empty database holding the global schema's tables: a joining
    /// peer's first image, and recovery's last resort.
    pub fn schema_database(&self) -> Result<Database> {
        let mut db = Database::new();
        for schema in &self.global_schemas {
            db.create_table(schema.clone())?;
        }
        Ok(db)
    }

    /// `peer`'s record, if it is a participant admitted here.
    pub fn record(&self, peer: PeerId) -> Option<&PeerRecord> {
        self.peer_list.get(&peer)
    }

    /// Move the peer-id allocator to `raw` (ids only move forward).
    /// Multi-process deployments partition the id space this way —
    /// each `bestpeer-node` process starts its allocator at a distinct
    /// base so locally admitted peers never collide with ids minted by
    /// other processes and registered here as remotes.
    pub fn set_next_peer_id(&mut self, raw: u64) {
        self.next_peer = self.next_peer.max(raw);
    }

    /// Define (or replace) a standard role. "When setting up a new
    /// corporate network, the service provider defines a standard set of
    /// roles" (§4.4).
    pub fn define_role(&mut self, role: Role) {
        self.roles.insert(role.name.clone(), role);
    }

    /// Look up a role definition.
    pub fn role(&self, name: &str) -> Result<&Role> {
        self.roles
            .get(name)
            .ok_or_else(|| Error::AccessDenied(format!("no role `{name}` defined")))
    }

    /// Current peer list.
    pub fn peers(&self) -> impl Iterator<Item = &PeerRecord> {
        self.peer_list.values()
    }

    /// Number of admitted peers.
    pub fn peer_count(&self) -> usize {
        self.peer_list.len()
    }

    /// Maintenance event log (Algorithm 1 activity), capped at
    /// [`max_event_history`](BootstrapPeer::max_event_history) entries
    /// (most recent kept).
    pub fn events(&self) -> &[MaintenanceEvent] {
        &self.events
    }

    /// Consecutive missed heartbeats currently recorded against `peer`.
    pub fn heartbeat_misses(&self, peer: PeerId) -> u32 {
        self.heartbeat_misses.get(&peer).copied().unwrap_or(0)
    }

    /// A snapshot of the failure detector's health counters, for the
    /// telemetry layer.
    pub fn health(&self) -> BootstrapHealth {
        BootstrapHealth {
            heartbeat_misses: self.heartbeat_misses.values().map(|m| u64::from(*m)).sum(),
            suspected_peers: self.heartbeat_misses.len(),
            blacklist_size: self.blacklist.len(),
            failovers: self.failovers,
        }
    }

    /// Blacklist an instance, skipping duplicates (a peer can be both
    /// departed and failed-over before the next release epoch; releasing
    /// the same instance twice would error).
    fn blacklist_instance(&mut self, peer: PeerId, instance: InstanceId, reason: BlacklistReason) {
        if !self.blacklist.iter().any(|(_, i, _)| *i == instance) {
            self.blacklist.push((peer, instance, reason));
        }
    }

    /// Admit a new business: launch its dedicated instance, issue a
    /// certificate, and enter it into the peer list (§3.1). Returns the
    /// new peer's id. The joined peer receives "the current
    /// participants, global schema, role definitions, and an issued
    /// certificate": the network builds it on
    /// [`BootstrapPeer::schema_database`], and the certificate stays on
    /// its record.
    pub fn admit<C: CloudProvider>(&mut self, business: &str, cloud: &mut C) -> Result<PeerId> {
        if self.peer_list.values().any(|r| r.business == business) {
            return Err(Error::Membership(format!(
                "business `{business}` already participates"
            )));
        }
        let peer = PeerId::new(self.next_peer);
        self.next_peer += 1;
        let instance = cloud.launch_instance(InstanceType::M1_SMALL)?;
        let cert = self.ca.issue(peer);
        self.peer_list.insert(
            peer,
            PeerRecord {
                peer,
                business: business.to_owned(),
                instance,
                cert,
                backup: None,
            },
        );
        Ok(peer)
    }

    /// Handle a voluntary departure (§3.1): blacklist the peer,
    /// invalidate its certificate, and drop it from the peer list.
    /// Resources are reclaimed at the end of the next maintenance epoch.
    pub fn depart(&mut self, peer: PeerId) -> Result<()> {
        self.retire_record(peer, BlacklistReason::Departed)?;
        Ok(())
    }

    /// Every departure's record retirement (a voluntary departure or a
    /// scale-in): drop the peer-list record, revoke its certificate,
    /// clear its failure-detector and scaling streaks, and blacklist its
    /// instance for `reason`. Returns the instance.
    fn retire_record(&mut self, peer: PeerId, reason: BlacklistReason) -> Result<InstanceId> {
        let record = self
            .peer_list
            .remove(&peer)
            .ok_or_else(|| Error::Membership(format!("{peer} is not a participant")))?;
        self.ca.revoke(&record.cert);
        self.heartbeat_misses.remove(&peer);
        self.upgrade_streaks.remove(&peer);
        self.out_streaks.remove(&peer);
        self.idle_streaks.remove(&peer);
        self.elastic.remove(&peer);
        self.blacklist_instance(peer, record.instance, reason);
        Ok(record.instance)
    }

    /// Verify that a certificate was issued here and remains valid.
    pub fn verify(&self, cert: &Certificate) -> Result<()> {
        self.ca.verify(cert)
    }

    /// Register a user account created by a local administrator; the
    /// record is "forwarded to the bootstrap peer and then broadcasted
    /// to other normal peers" (§4.4).
    pub fn register_user(&mut self, name: &str, home_peer: PeerId) -> Result<UserId> {
        if !self.peer_list.contains_key(&home_peer) {
            return Err(Error::Membership(format!(
                "{home_peer} is not a participant"
            )));
        }
        let user = UserId::new(self.next_user);
        self.next_user += 1;
        self.users.insert(
            user,
            UserRecord {
                user,
                name: name.to_owned(),
                home_peer,
            },
        );
        Ok(user)
    }

    /// The broadcast user registry.
    pub fn users(&self) -> impl Iterator<Item = &UserRecord> {
        self.users.values()
    }

    /// One epoch of the Algorithm 1 daemon: probe every normal peer
    /// (one heartbeat per epoch, which a peer `faults` has down misses),
    /// fail over peers that have missed
    /// [`fail_threshold`](BootstrapPeer::fail_threshold) consecutive
    /// heartbeats, auto-scale the instances of overloaded ones (read
    /// from the cloud's metrics), then release blacklisted resources. A
    /// fail-over only moves the peer's record to a fresh instance; the
    /// network logs the peer's `Recover`, and its recovery decides the
    /// image the peer runs on. Returns the events of this epoch; the
    /// network layer relays them to participants (the "notify" step).
    pub fn maintenance_tick<C: CloudProvider>(
        &mut self,
        cloud: &mut C,
        faults: &FaultState,
    ) -> Result<Vec<MaintenanceEvent>> {
        let mut epoch_events = Vec::new();
        let ids: Vec<PeerId> = self.peer_list.keys().copied().collect();
        for pid in ids {
            let instance = self.peer_list[&pid].instance;
            if faults.is_down(pid) {
                // --- failure detection: heartbeat miss epochs --------
                let misses = self.heartbeat_misses.entry(pid).or_insert(0);
                *misses += 1;
                if *misses < self.fail_threshold {
                    continue; // not yet declared dead
                }
                self.heartbeat_misses.remove(&pid);
                // --- auto fail-over (Algorithm 1 lines 6–10) ---------
                let new_instance = cloud.launch_instance(cloud.shape(instance)?)?;
                self.blacklist_instance(pid, instance, BlacklistReason::FailedOver);
                self.peer_list.get_mut(&pid).expect("listed").instance = new_instance;
                self.failovers += 1;
                epoch_events.push(MaintenanceEvent::FailOver {
                    peer: pid,
                    old_instance: instance,
                    new_instance,
                });
            } else {
                // An answered heartbeat resets the miss streak.
                self.heartbeat_misses.remove(&pid);
                let metrics = cloud.metrics(instance)?;
                if metrics.cpu_utilization > self.scale_cpu_threshold
                    || metrics.storage_used > self.scale_storage_threshold
                {
                    // --- auto-scaling (Algorithm 1 lines 12–17) ------
                    // Debounced: a single hot sample is not a trend.
                    // Only `scale_threshold` consecutive over-threshold
                    // epochs trigger an upgrade (the streak then re-arms,
                    // so a still-overloaded peer upgrades again only
                    // after another full streak).
                    let streak = self.upgrade_streaks.entry(pid).or_insert(0);
                    *streak += 1;
                    if *streak >= self.scale_threshold {
                        self.upgrade_streaks.remove(&pid);
                        if let Some(bigger) = cloud.shape(instance)?.upgrade() {
                            cloud.upgrade_instance(instance, bigger)?;
                            epoch_events.push(MaintenanceEvent::AutoScale {
                                peer: pid,
                                shape: bigger,
                            });
                        }
                    }
                } else {
                    self.upgrade_streaks.remove(&pid);
                }
            }
        }
        // --- release blacklisted resources (line 18) -----------------
        if !self.blacklist.is_empty() {
            let n = self.blacklist.len();
            for (_, instance, _) in self.blacklist.drain(..) {
                // Terminations of already-dead instances are best-effort.
                let _ = cloud.terminate_instance(instance);
            }
            epoch_events.push(MaintenanceEvent::Released { instances: n });
        }
        self.log_events(&epoch_events);
        Ok(epoch_events)
    }

    /// Append an epoch's events to the capped history log.
    fn log_events(&mut self, epoch_events: &[MaintenanceEvent]) {
        self.events.extend(epoch_events.iter().cloned());
        if self.events.len() > self.max_event_history {
            let excess = self.events.len() - self.max_event_history;
            self.events.drain(..excess);
        }
    }

    /// Peers added by the elasticity loop and still live.
    pub fn elastic_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.elastic.iter().copied()
    }

    /// True when `peer` was added by scale-out (and may be scaled in).
    pub fn is_elastic(&self, peer: PeerId) -> bool {
        self.elastic.contains(&peer)
    }

    /// One epoch of the closed elasticity loop — the scale-out/in side
    /// of Algorithm 1, driven by observed load instead of cloud metrics.
    /// `loads` carries each live peer's admission-queue utilization and
    /// depth for this epoch (the network layer samples them).
    ///
    /// **Scale-out:** every peer that has been over
    /// [`scale_cpu_threshold`](BootstrapPeer::scale_cpu_threshold) for
    /// [`scale_threshold`](BootstrapPeer::scale_threshold) consecutive
    /// epochs buys one fresh elastic peer (admitted exactly like a
    /// joining business), capped so at most
    /// [`elastic_limit`](BootstrapPeer::elastic_limit) elastic peers are
    /// live. Fired streaks re-arm, so a still-overloaded peer
    /// requests the next peer only after another full streak.
    ///
    /// **Scale-in:** an elastic peer under
    /// [`scale_in_threshold`](BootstrapPeer::scale_in_threshold) for
    /// `scale_threshold` consecutive epochs is retired — *unless its
    /// queue is non-empty*: a peer holding queued work is never evicted
    /// (the idle streak simply holds until the queue drains). Retirement
    /// is a departure's (revoked certificate, cleared streaks, instance
    /// blacklisted for release at the next maintenance epoch) with
    /// reason [`BlacklistReason::ScaledIn`].
    ///
    /// Only the peer list changes here. The caller (the network layer)
    /// enlists each scaled-out peer and retires each scaled-in one on
    /// its side (database, WAL, overlay membership, index and cache
    /// cleanup) from the returned [`MaintenanceEvent::ScaleOut`] /
    /// [`MaintenanceEvent::ScaleIn`] events.
    pub fn elastic_tick<C: CloudProvider>(
        &mut self,
        cloud: &mut C,
        loads: &BTreeMap<PeerId, PeerLoad>,
    ) -> Result<Vec<MaintenanceEvent>> {
        let mut epoch_events = Vec::new();
        // Hysteresis streaks track consecutive epochs; a peer absent
        // from this epoch's sample (departed, failed over) starts fresh.
        self.out_streaks.retain(|p, _| loads.contains_key(p));
        self.idle_streaks.retain(|p, _| loads.contains_key(p));
        for (&pid, load) in loads {
            if load.utilization > self.scale_cpu_threshold {
                *self.out_streaks.entry(pid).or_insert(0) += 1;
            } else {
                self.out_streaks.remove(&pid);
            }
            if self.elastic.contains(&pid) && load.utilization < self.scale_in_threshold {
                *self.idle_streaks.entry(pid).or_insert(0) += 1;
            } else {
                self.idle_streaks.remove(&pid);
            }
        }
        // --- scale out -----------------------------------------------
        let over: Vec<PeerId> = self
            .out_streaks
            .iter()
            .filter(|(_, s)| **s >= self.scale_threshold)
            .map(|(p, _)| *p)
            .collect();
        if !over.is_empty() && self.elastic_limit > 0 {
            let budget = self.elastic_limit.saturating_sub(self.elastic.len());
            for _ in 0..over.len().min(budget) {
                let name = format!("elastic-{}", self.elastic_seq);
                self.elastic_seq += 1;
                let pid = self.admit(&name, cloud)?;
                self.elastic.insert(pid);
                epoch_events.push(MaintenanceEvent::ScaleOut {
                    peer: pid,
                    instance: self.peer_list[&pid].instance,
                });
            }
            for pid in over {
                self.out_streaks.remove(&pid);
            }
        }
        // --- scale in ------------------------------------------------
        let idle: Vec<PeerId> = self
            .idle_streaks
            .iter()
            .filter(|(_, s)| **s >= self.scale_threshold)
            .map(|(p, _)| *p)
            .collect();
        for pid in idle {
            let queued = loads.get(&pid).map(|l| l.queue_depth).unwrap_or(0);
            if queued > 0 {
                // Never evict a peer with queued work; the streak holds
                // and retirement retries once the queue drains.
                continue;
            }
            let instance = self.retire_record(pid, BlacklistReason::ScaledIn)?;
            epoch_events.push(MaintenanceEvent::ScaleIn {
                peer: pid,
                instance,
            });
        }
        self.log_events(&epoch_events);
        Ok(epoch_events)
    }

    /// Back every peer's database up through the cloud adapter (the
    /// RDS/EBS "four-minute window" cycle of §2.1), and record each
    /// backup as its peer's latest.
    pub fn backup_all<C>(
        &mut self,
        cloud: &mut C,
        peers: &BTreeMap<PeerId, NormalPeer>,
    ) -> Result<usize>
    where
        C: CloudProvider<Snapshot = Database>,
    {
        let mut n = 0;
        for record in self.peer_list.values_mut() {
            if let Some(peer) = peers.get(&record.peer) {
                record.backup = Some(cloud.backup(record.instance, peer.db.clone())?);
                n += 1;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultAction;
    use bestpeer_cloud::{InstanceMetrics, SimCloud};
    use bestpeer_common::{ColumnDef, ColumnType, Row, Value};

    fn schemas() -> Vec<TableSchema> {
        vec![TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], vec![0]).unwrap()]
    }

    /// A bootstrap with two admitted peers, the cloud they run in, and a
    /// fault-free fault state (every peer answers its heartbeats).
    fn setup() -> (BootstrapPeer, SimCloud<Database>, FaultState, Vec<PeerId>) {
        let mut boot = BootstrapPeer::new(schemas(), 0xB00);
        let mut cloud: SimCloud<Database> = SimCloud::new();
        let ids = ["acme", "globex"]
            .iter()
            .map(|name| boot.admit(name, &mut cloud).unwrap())
            .collect();
        (boot, cloud, FaultState::new(), ids)
    }

    /// The instance `pid`'s record says it runs on.
    fn instance(boot: &BootstrapPeer, pid: PeerId) -> InstanceId {
        boot.record(pid).unwrap().instance
    }

    fn failed_over(events: &[MaintenanceEvent]) -> bool {
        events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::FailOver { .. }))
    }

    #[test]
    fn admit_issues_cert_and_schema() {
        let (boot, cloud, _, ids) = setup();
        assert_eq!(boot.peer_count(), 2);
        for (pid, business) in ids.into_iter().zip(["acme", "globex"]) {
            let record = boot.record(pid).unwrap();
            assert_eq!(record.business, business);
            boot.verify(&record.cert).unwrap();
            assert!(cloud.shape(record.instance).is_ok(), "instance launched");
        }
        let db = boot.schema_database().unwrap();
        assert!(db.has_table("t"), "global schema provisioned");
    }

    #[test]
    fn duplicate_business_rejected() {
        let (mut boot, mut cloud, _, _) = setup();
        assert!(boot.admit("acme", &mut cloud).is_err());
    }

    #[test]
    fn departure_revokes_and_blacklists() {
        let (mut boot, mut cloud, faults, ids) = setup();
        let pid = ids[0];
        let cert = boot.record(pid).unwrap().cert;
        boot.depart(pid).unwrap();
        assert_eq!(boot.peer_count(), 1);
        assert!(boot.record(pid).is_none());
        assert!(boot.verify(&cert).is_err(), "certificate invalidated");
        // Resources reclaimed at the next epoch.
        let before = cloud.running_count();
        let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { instances: 1 })));
        assert_eq!(cloud.running_count(), before - 1);
    }

    #[test]
    fn failover_moves_the_peer_after_the_miss_threshold() {
        let (mut boot, mut cloud, mut faults, ids) = setup();
        let pid = ids[0];
        let mut peer = NormalPeer::new(pid);
        peer.db = boot.schema_database().unwrap();
        peer.db.insert("t", Row::new(vec![Value::Int(42)])).unwrap();
        boot.backup_all(&mut cloud, &BTreeMap::from([(pid, peer)]))
            .unwrap();
        let backup = boot.record(pid).unwrap().backup.expect("backup recorded");
        let old_instance = instance(&boot, pid);
        faults.inject_now(FaultAction::Crash(pid));

        // The detector needs `fail_threshold` missed heartbeats before
        // declaring the peer dead.
        for _ in 0..boot.fail_threshold - 1 {
            let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
            assert!(!failed_over(&events), "below the miss threshold");
        }
        let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
        let failover = events
            .iter()
            .find(|e| matches!(e, MaintenanceEvent::FailOver { .. }))
            .expect("failover event");
        let MaintenanceEvent::FailOver {
            peer,
            old_instance: o,
            new_instance,
        } = *failover
        else {
            unreachable!()
        };
        assert_eq!(peer, pid);
        assert_eq!(o, old_instance);
        assert_ne!(new_instance, old_instance);
        // The record moved; its backup lineage is left to the network's
        // recovery.
        assert_eq!(instance(&boot, pid), new_instance);
        assert_eq!(boot.record(pid).unwrap().backup, Some(backup));
        assert_eq!(boot.health().failovers, 1);
        // The other peer answered every heartbeat.
        assert_eq!(boot.heartbeat_misses(ids[1]), 0);
        // The dead instance was released in the same epoch.
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { .. })));
        assert_eq!(
            cloud.state(old_instance).unwrap(),
            bestpeer_cloud::InstanceState::Terminated
        );
    }

    #[test]
    fn responsive_heartbeat_resets_miss_streak() {
        let (mut boot, mut cloud, mut faults, ids) = setup();
        let pid = ids[0];
        let before = instance(&boot, pid);
        // Two misses, then a hiccup heals before the third.
        faults.inject_now(FaultAction::Crash(pid));
        boot.maintenance_tick(&mut cloud, &faults).unwrap();
        boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 2);
        faults.inject_now(FaultAction::Recover(pid));
        boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 0, "streak reset");
        // Going down again restarts the count from zero: two more misses
        // still do not fail the peer over.
        faults.inject_now(FaultAction::Crash(pid));
        boot.maintenance_tick(&mut cloud, &faults).unwrap();
        let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert!(!failed_over(&events));
        assert_eq!(instance(&boot, pid), before, "instance untouched");
    }

    #[test]
    fn event_history_is_capped() {
        let (mut boot, mut cloud, mut faults, ids) = setup();
        boot.max_event_history = 4;
        boot.fail_threshold = 1;
        // Nothing here logs the peer's `Recover`, so it stays down and
        // every epoch fails it over again and releases the instance
        // before.
        faults.inject_now(FaultAction::Crash(ids[0]));
        for _ in 0..10 {
            boot.maintenance_tick(&mut cloud, &faults).unwrap();
        }
        assert_eq!(boot.health().failovers, 10);
        assert!(
            boot.events().len() <= 4,
            "history capped: {}",
            boot.events().len()
        );
        // The retained tail is the most recent activity.
        assert!(boot.events().iter().any(|e| matches!(
            e,
            MaintenanceEvent::FailOver { .. } | MaintenanceEvent::Released { .. }
        )));
    }

    #[test]
    fn blacklist_skips_duplicate_instances() {
        let (mut boot, mut cloud, faults, ids) = setup();
        let pid = ids[0];
        let instance = instance(&boot, pid);
        boot.depart(pid).unwrap();
        // A second blacklisting of the same instance (e.g. a racing
        // fail-over record) must not produce a double release.
        boot.blacklist_instance(pid, instance, BlacklistReason::FailedOver);
        let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { instances: 1 })));
    }

    #[test]
    fn departure_clears_heartbeat_state() {
        let (mut boot, mut cloud, mut faults, ids) = setup();
        let pid = ids[0];
        faults.inject_now(FaultAction::Crash(pid));
        boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 1);
        boot.depart(pid).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 0, "no stale counter retained");
    }

    #[test]
    fn overload_triggers_auto_scaling() {
        let (mut boot, mut cloud, faults, ids) = setup();
        let instance = instance(&boot, ids[0]);
        cloud
            .set_metrics(
                instance,
                InstanceMetrics {
                    cpu_utilization: 0.99,
                    storage_used: 0.2,
                },
            )
            .unwrap();
        // The debounce holds the upgrade back until `scale_threshold`
        // consecutive over-threshold epochs have been observed.
        for _ in 0..boot.scale_threshold - 1 {
            let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })),
                "one hot sample must not trigger an upgrade"
            );
        }
        let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            MaintenanceEvent::AutoScale {
                shape: InstanceType::M1_LARGE,
                ..
            }
        )));
        assert_eq!(cloud.shape(instance).unwrap(), InstanceType::M1_LARGE);
        // Another full streak of overloaded epochs has nowhere to
        // scale: no event.
        for _ in 0..boot.scale_threshold {
            let events = boot.maintenance_tick(&mut cloud, &faults).unwrap();
            assert!(!events
                .iter()
                .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })));
        }
    }

    #[test]
    fn transient_spike_does_not_upgrade() {
        let (mut boot, mut cloud, faults, ids) = setup();
        let instance = instance(&boot, ids[0]);
        let hot = InstanceMetrics {
            cpu_utilization: 0.99,
            storage_used: 0.2,
        };
        let cool = InstanceMetrics {
            cpu_utilization: 0.10,
            storage_used: 0.2,
        };
        // Alternating hot/cool samples never accumulate a streak, so
        // the instance shape never changes no matter how long it runs.
        for _ in 0..4 * boot.scale_threshold {
            cloud.set_metrics(instance, hot).unwrap();
            boot.maintenance_tick(&mut cloud, &faults).unwrap();
            cloud.set_metrics(instance, cool).unwrap();
            boot.maintenance_tick(&mut cloud, &faults).unwrap();
        }
        assert_eq!(cloud.shape(instance).unwrap(), InstanceType::M1_SMALL);
        assert!(!boot
            .events()
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })));
    }

    #[test]
    fn roles_and_users_are_centrally_registered() {
        let (mut boot, _, _, ids) = setup();
        boot.define_role(Role::new("viewer"));
        assert!(boot.role("viewer").is_ok());
        assert!(boot.role("nope").is_err());
        let u = boot.register_user("alice", ids[0]).unwrap();
        assert_eq!(boot.users().count(), 1);
        assert_eq!(boot.users().next().unwrap().user, u);
        assert!(boot.register_user("bob", PeerId::new(999)).is_err());
    }
}
