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
use crate::peer::NormalPeer;

/// Peer-list record kept by the bootstrap peer.
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
    /// transient hiccup (one unresponsive probe) from triggering a
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

    /// The latest backup [`BootstrapPeer::backup_all`] took of `peer`.
    pub fn latest_backup(&self, peer: PeerId) -> Option<BackupId> {
        self.peer_list.get(&peer)?.backup
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
    /// certificate, and enter it into the peer list (§3.1). The joined
    /// peer receives "the current participants, global schema, role
    /// definitions, and an issued certificate" — returned here as the
    /// constructed [`NormalPeer`].
    pub fn admit<C>(&mut self, business: &str, cloud: &mut C) -> Result<NormalPeer>
    where
        C: CloudProvider<Snapshot = Database>,
    {
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
        let mut normal = NormalPeer::new(peer, business, instance);
        normal.cert = Some(cert);
        normal.db = self.schema_database()?;
        Ok(normal)
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
    /// (one heartbeat per epoch), fail over peers that have missed
    /// [`fail_threshold`](BootstrapPeer::fail_threshold) consecutive
    /// heartbeats, auto-scale overloaded ones, then release blacklisted
    /// resources. A fail-over only moves the peer to a fresh instance;
    /// the network's recovery decides the image it runs on. Returns the
    /// events of this epoch; the network layer relays them to
    /// participants (the "notify" step).
    pub fn maintenance_tick<C: CloudProvider>(
        &mut self,
        cloud: &mut C,
        peers: &mut BTreeMap<PeerId, NormalPeer>,
    ) -> Result<Vec<MaintenanceEvent>> {
        let mut epoch_events = Vec::new();
        let ids: Vec<PeerId> = self.peer_list.keys().copied().collect();
        for pid in ids {
            let record = self.peer_list.get(&pid).expect("listed peer").clone();
            let metrics = cloud.metrics(record.instance)?;
            if !metrics.responsive {
                // --- failure detection: heartbeat miss epochs --------
                let misses = self.heartbeat_misses.entry(pid).or_insert(0);
                *misses += 1;
                if *misses < self.fail_threshold {
                    continue; // not yet declared dead
                }
                self.heartbeat_misses.remove(&pid);
                // --- auto fail-over (Algorithm 1 lines 6–10) ---------
                let new_instance = cloud.launch_instance(cloud.shape(record.instance)?)?;
                if let Some(peer) = peers.get_mut(&pid) {
                    peer.instance = new_instance;
                }
                self.blacklist_instance(pid, record.instance, BlacklistReason::FailedOver);
                self.peer_list.get_mut(&pid).expect("listed").instance = new_instance;
                self.failovers += 1;
                epoch_events.push(MaintenanceEvent::FailOver {
                    peer: pid,
                    old_instance: record.instance,
                    new_instance,
                });
            } else {
                // A responsive heartbeat resets the miss streak.
                self.heartbeat_misses.remove(&pid);
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
                        if let Some(bigger) = cloud.shape(record.instance)?.upgrade() {
                            cloud.upgrade_instance(record.instance, bigger)?;
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
    /// joining business, with the global schema pre-created), capped so
    /// at most [`elastic_limit`](BootstrapPeer::elastic_limit) elastic
    /// peers are live. Fired streaks re-arm, so a still-overloaded peer
    /// requests the next peer only after another full streak.
    ///
    /// **Scale-in:** an elastic peer under
    /// [`scale_in_threshold`](BootstrapPeer::scale_in_threshold) for
    /// `scale_threshold` consecutive epochs is retired — *unless its
    /// queue is non-empty*: a peer holding queued work is never evicted
    /// (the idle streak simply holds until the queue drains). Retirement
    /// is a departure's (revoked certificate, cleared streaks, instance
    /// blacklisted for release at the next maintenance epoch) with
    /// reason [`BlacklistReason::ScaledIn`]; the peer also leaves
    /// `peers`.
    ///
    /// The caller (the network layer) enlists each scaled-out peer and
    /// retires each scaled-in one on its side (WAL, overlay membership,
    /// index and cache cleanup) around the returned
    /// [`MaintenanceEvent::ScaleOut`] / [`MaintenanceEvent::ScaleIn`]
    /// events.
    pub fn elastic_tick<C>(
        &mut self,
        cloud: &mut C,
        peers: &mut BTreeMap<PeerId, NormalPeer>,
        loads: &BTreeMap<PeerId, PeerLoad>,
    ) -> Result<Vec<MaintenanceEvent>>
    where
        C: CloudProvider<Snapshot = Database>,
    {
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
                let peer = self.admit(&name, cloud)?;
                let pid = peer.id;
                let instance = peer.instance;
                peers.insert(pid, peer);
                self.elastic.insert(pid);
                epoch_events.push(MaintenanceEvent::ScaleOut {
                    peer: pid,
                    instance,
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
            peers.remove(&pid);
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
    use bestpeer_cloud::{InstanceMetrics, SimCloud};
    use bestpeer_common::{ColumnDef, ColumnType, Row, Value};

    fn schemas() -> Vec<TableSchema> {
        vec![TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], vec![0]).unwrap()]
    }

    fn setup() -> (
        BootstrapPeer,
        SimCloud<Database>,
        BTreeMap<PeerId, NormalPeer>,
    ) {
        let mut boot = BootstrapPeer::new(schemas(), 0xB00);
        let mut cloud: SimCloud<Database> = SimCloud::new();
        let mut peers = BTreeMap::new();
        for name in ["acme", "globex"] {
            let p = boot.admit(name, &mut cloud).unwrap();
            peers.insert(p.id, p);
        }
        (boot, cloud, peers)
    }

    #[test]
    fn admit_issues_cert_and_schema() {
        let (boot, _, peers) = setup();
        assert_eq!(boot.peer_count(), 2);
        for p in peers.values() {
            boot.verify(p.cert.as_ref().unwrap()).unwrap();
            assert!(p.db.has_table("t"), "global schema provisioned");
        }
    }

    #[test]
    fn duplicate_business_rejected() {
        let (mut boot, mut cloud, _) = setup();
        assert!(boot.admit("acme", &mut cloud).is_err());
    }

    #[test]
    fn departure_revokes_and_blacklists() {
        let (mut boot, mut cloud, mut peers) = setup();
        let (pid, cert) = {
            let p = peers.values().next().unwrap();
            (p.id, *p.cert.as_ref().unwrap())
        };
        boot.depart(pid).unwrap();
        assert_eq!(boot.peer_count(), 1);
        assert!(boot.verify(&cert).is_err(), "certificate invalidated");
        // Resources reclaimed at the next epoch.
        let before = cloud.running_count();
        let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { instances: 1 })));
        assert_eq!(cloud.running_count(), before - 1);
    }

    #[test]
    fn failover_moves_the_peer_after_the_miss_threshold() {
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        peers
            .get_mut(&pid)
            .unwrap()
            .db
            .insert("t", Row::new(vec![Value::Int(42)]))
            .unwrap();
        boot.backup_all(&mut cloud, &peers).unwrap();
        let backup = boot.latest_backup(pid).expect("backup recorded");
        let digest = peers[&pid].db.digest();
        let old_instance = peers[&pid].instance;
        cloud.inject_crash(old_instance).unwrap();

        // The detector needs `fail_threshold` missed heartbeats before
        // declaring the peer dead.
        for _ in 0..boot.fail_threshold - 1 {
            let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, MaintenanceEvent::FailOver { .. })),
                "below the miss threshold: no fail-over yet"
            );
        }
        let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
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
        // The peer and its record moved; its database and its backup
        // lineage are left to the network's recovery.
        assert_eq!(peers[&pid].instance, new_instance);
        let record = boot.peers().find(|r| r.peer == pid).unwrap();
        assert_eq!(record.instance, new_instance);
        assert_eq!(boot.latest_backup(pid), Some(backup));
        assert_eq!(peers[&pid].db.digest(), digest);
        // The dead instance was released in the same epoch.
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { .. })));
    }

    #[test]
    fn responsive_heartbeat_resets_miss_streak() {
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        let instance = peers[&pid].instance;
        let down = InstanceMetrics {
            cpu_utilization: 0.1,
            storage_used: 0.1,
            responsive: false,
        };
        let up = InstanceMetrics {
            cpu_utilization: 0.1,
            storage_used: 0.1,
            responsive: true,
        };
        // Two misses, then a hiccup heals before the third.
        cloud.set_metrics(instance, down).unwrap();
        boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 2);
        cloud.set_metrics(instance, up).unwrap();
        boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 0, "streak reset");
        // Going down again restarts the count from zero: two more misses
        // still do not fail the peer over.
        cloud.set_metrics(instance, down).unwrap();
        boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert!(!events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::FailOver { .. })));
        assert_eq!(peers[&pid].instance, instance, "instance untouched");
    }

    #[test]
    fn event_history_is_capped() {
        let (mut boot, mut cloud, mut peers) = setup();
        boot.max_event_history = 4;
        boot.fail_threshold = 1;
        let pid = *peers.keys().next().unwrap();
        for _ in 0..10 {
            // Each epoch: crash current instance → fail-over + release.
            cloud.inject_crash(peers[&pid].instance).unwrap();
            boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        }
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
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        let instance = peers[&pid].instance;
        boot.depart(pid).unwrap();
        // A second blacklisting of the same instance (e.g. a racing
        // fail-over record) must not produce a double release.
        boot.blacklist_instance(pid, instance, BlacklistReason::FailedOver);
        let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::Released { instances: 1 })));
    }

    #[test]
    fn departure_clears_heartbeat_state() {
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        cloud
            .set_metrics(
                peers[&pid].instance,
                InstanceMetrics {
                    cpu_utilization: 0.1,
                    storage_used: 0.1,
                    responsive: false,
                },
            )
            .unwrap();
        boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 1);
        boot.depart(pid).unwrap();
        assert_eq!(boot.heartbeat_misses(pid), 0, "no stale counter retained");
    }

    #[test]
    fn overload_triggers_auto_scaling() {
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        cloud
            .set_metrics(
                peers[&pid].instance,
                InstanceMetrics {
                    cpu_utilization: 0.99,
                    storage_used: 0.2,
                    responsive: true,
                },
            )
            .unwrap();
        // The debounce holds the upgrade back until `scale_threshold`
        // consecutive over-threshold epochs have been observed.
        for _ in 0..boot.scale_threshold - 1 {
            let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })),
                "one hot sample must not trigger an upgrade"
            );
        }
        let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            MaintenanceEvent::AutoScale {
                shape: InstanceType::M1_LARGE,
                ..
            }
        )));
        assert_eq!(
            cloud.shape(peers[&pid].instance).unwrap(),
            InstanceType::M1_LARGE
        );
        // Another full streak of overloaded epochs has nowhere to
        // scale: no event.
        for _ in 0..boot.scale_threshold {
            let events = boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
            assert!(!events
                .iter()
                .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })));
        }
    }

    #[test]
    fn transient_spike_does_not_upgrade() {
        let (mut boot, mut cloud, mut peers) = setup();
        let pid = *peers.keys().next().unwrap();
        let instance = peers[&pid].instance;
        let hot = InstanceMetrics {
            cpu_utilization: 0.99,
            storage_used: 0.2,
            responsive: true,
        };
        let cool = InstanceMetrics {
            cpu_utilization: 0.10,
            storage_used: 0.2,
            responsive: true,
        };
        // Alternating hot/cool samples never accumulate a streak, so
        // the instance shape never changes no matter how long it runs.
        for _ in 0..4 * boot.scale_threshold {
            cloud.set_metrics(instance, hot).unwrap();
            boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
            cloud.set_metrics(instance, cool).unwrap();
            boot.maintenance_tick(&mut cloud, &mut peers).unwrap();
        }
        assert_eq!(cloud.shape(instance).unwrap(), InstanceType::M1_SMALL);
        assert!(!boot
            .events()
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::AutoScale { .. })));
    }

    #[test]
    fn roles_and_users_are_centrally_registered() {
        let (mut boot, _, peers) = setup();
        boot.define_role(Role::new("viewer"));
        assert!(boot.role("viewer").is_ok());
        assert!(boot.role("nope").is_err());
        let pid = *peers.keys().next().unwrap();
        let u = boot.register_user("alice", pid).unwrap();
        assert_eq!(boot.users().count(), 1);
        assert_eq!(boot.users().next().unwrap().user, u);
        assert!(boot.register_user("bob", PeerId::new(999)).is_err());
    }
}
