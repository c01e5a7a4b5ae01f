//! Recovery source selection (DESIGN.md §14 decision tree), including
//! the fallback-ordering regression: when a BATON cloud replica and
//! local WAL replay disagree, *the fresher LSN must win* — a stale
//! replica must never clobber fresher log state, and a torn log must
//! never clobber a fresher replica. An in-place restart and a
//! fail-over take the same decision, once per fail-over, against the
//! peer's latest backup whichever instance took it; a missing log
//! counts as a corrupt one. The failure detector reads the fault state
//! itself, so a crash the fault clock applies mid-query fails over as
//! soon as a direct one.

use bestpeer_common::{InstanceId, PeerId};
use bestpeer_core::bootstrap::MaintenanceEvent;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::{FaultAction, Role, ScheduledFault};
use bestpeer_storage::{Database, MemDevice};
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::schema;

const ROLE: &str = "R";

fn full_read_role() -> Role {
    let tables = schema::all_tables();
    let spec: Vec<(&str, Vec<&str>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.columns
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read(ROLE, &borrowed)
}

fn setup(n: u64, rows: usize, window: u64) -> BestPeerNetwork {
    let config = NetworkConfig {
        wal_group_window: window,
        ..NetworkConfig::default()
    };
    let mut net = BestPeerNetwork::new(schema::all_tables(), config);
    net.define_role(full_read_role());
    for node in 0..n {
        let id = net.join(&format!("business-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(rows)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    net
}

/// Logged inserts of another partition's supplier rows into `victim`.
fn insert_extra(net: &mut BestPeerNetwork, victim: bestpeer_common::PeerId) {
    let extra = DbGen::new(TpchConfig::tiny(55).with_rows(40)).generate();
    let rows: Vec<_> = extra
        .into_iter()
        .find(|(t, _)| t == "supplier")
        .map(|(_, r)| r)
        .unwrap();
    let db = &mut net.peer_mut(victim).unwrap().db;
    for row in rows {
        db.insert("supplier", row).unwrap();
    }
}

fn corrupt_checkpoint(net: &mut BestPeerNetwork, victim: bestpeer_common::PeerId) {
    net.peer_mut(victim)
        .unwrap()
        .db
        .wal_mut()
        .unwrap()
        .device_mut()
        .as_any_mut()
        .downcast_mut::<MemDevice>()
        .unwrap()
        .corrupt_checkpoint_byte(12);
}

#[test]
fn fresher_wal_beats_stale_replica() {
    let mut net = setup(2, 200, 1);
    net.backup_all().unwrap(); // replica snapshots the pre-insert state
    let victim = net.peer_ids()[1];
    insert_extra(&mut net, victim);
    let fresh = net.peer(victim).unwrap().db.digest();

    net.crash_data_peer(victim).unwrap();
    net.recover_data_peer(victim).unwrap();
    assert_eq!(
        net.peer(victim).unwrap().db.digest(),
        fresh,
        "regression: a stale replica must never clobber fresher WAL state"
    );
    assert!(net.metrics().counter("recovery.source.wal") >= 1);
    assert_eq!(net.metrics().counter("recovery.source.replica"), 0);
}

#[test]
fn fresher_replica_beats_torn_wal() {
    let mut net = setup(2, 200, 8);
    let victim = net.peer_ids()[1];
    net.peer_mut(victim)
        .unwrap()
        .db
        .wal_mut()
        .unwrap()
        .flush()
        .unwrap();
    insert_extra(&mut net, victim);
    // The replica is taken *after* the inserts, while the log loses
    // them to the tear: the replica carries the higher LSN.
    net.backup_all().unwrap();
    let fresh = net.peer(victim).unwrap().db.digest();

    net.torn_crash_data_peer(victim, 10).unwrap();
    net.recover_data_peer(victim).unwrap();
    assert_eq!(
        net.peer(victim).unwrap().db.digest(),
        fresh,
        "regression: a torn log must never clobber a fresher replica"
    );
    assert!(net.metrics().counter("recovery.source.replica") >= 1);
}

#[test]
fn mid_log_corruption_counts_as_torn_and_defers_to_fresher_replica() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];
    insert_extra(&mut net, victim);
    net.backup_all().unwrap();
    let fresh = net.peer(victim).unwrap().db.digest();

    // Flip a byte deep in the durable log: replay stops at the damaged
    // record (a clean torn stop, not a panic) and the replica — which
    // has the full state — must win on LSN freshness.
    {
        let dev = net
            .peer_mut(victim)
            .unwrap()
            .db
            .wal_mut()
            .unwrap()
            .device_mut()
            .as_any_mut()
            .downcast_mut::<MemDevice>()
            .unwrap();
        let len = dev.durable_len();
        assert!(len > 64);
        dev.corrupt_log_byte(len - 30);
    }
    net.crash_data_peer(victim).unwrap();
    net.recover_data_peer(victim).unwrap();
    assert_eq!(net.peer(victim).unwrap().db.digest(), fresh);
    assert!(net.metrics().counter("recovery.source.replica") >= 1);
}

#[test]
fn corrupt_checkpoint_falls_back_to_replica_without_panicking() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];
    insert_extra(&mut net, victim);
    net.backup_all().unwrap();
    let fresh = net.peer(victim).unwrap().db.digest();

    corrupt_checkpoint(&mut net, victim);
    net.crash_data_peer(victim).unwrap();
    assert!(
        net.metrics().counter("wal.corrupt_logs") >= 1,
        "the damaged checkpoint must be detected at crash time"
    );
    net.recover_data_peer(victim).unwrap();
    assert_eq!(
        net.peer(victim).unwrap().db.digest(),
        fresh,
        "the replica restores the full pre-crash state"
    );
    assert!(net.metrics().counter("recovery.source.replica") >= 1);

    // The recovered peer serves queries normally.
    let out = net
        .submit_query(
            net.peer_ids()[0],
            "SELECT COUNT(*) AS n FROM supplier",
            ROLE,
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    assert!(!out.result.rows.is_empty());
}

#[test]
fn corrupt_checkpoint_without_replica_rebuilds_global_schemas() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];
    corrupt_checkpoint(&mut net, victim);
    net.crash_data_peer(victim).unwrap();
    net.recover_data_peer(victim).unwrap();

    // Last resort: an empty database with the bootstrap's global
    // schemas — the peer rejoins with its partition lost, not wedged.
    let db = &net.peer(victim).unwrap().db;
    assert_eq!(db.total_rows(), 0);
    for s in schema::all_tables() {
        assert!(db.has_table(&s.name), "{} must be recreated", s.name);
    }
    assert_eq!(net.metrics().counter("recovery.source.schema"), 1);

    // Queries keep answering from the surviving partition only.
    let out = net
        .submit_query(
            net.peer_ids()[0],
            "SELECT COUNT(*) AS n FROM lineitem",
            ROLE,
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    assert_eq!(
        out.result.rows[0].get(0),
        &bestpeer_common::Value::Int(200),
        "only the surviving peer's partition remains"
    );
}

/// Recovery decisions taken so far, over every source.
fn decisions(net: &BestPeerNetwork) -> u64 {
    ["wal", "replica", "schema"]
        .iter()
        .map(|s| net.metrics().counter(&format!("recovery.source.{s}")))
        .sum()
}

/// Run `fail_threshold` maintenance epochs, after which the detector
/// has failed the crashed `victim` over, and check that the fail-over
/// took exactly one recovery decision.
fn fail_over(net: &mut BestPeerNetwork, victim: PeerId) {
    let before = decisions(net);
    let old = instance(net, victim);
    for _ in 0..net.bootstrap.fail_threshold {
        net.maintenance_tick().unwrap();
    }
    assert_ne!(instance(net, victim), old, "failed over");
    assert_eq!(decisions(net), before + 1, "one decision per fail-over");
}

/// The instance the bootstrap's record says `peer` runs on.
fn instance(net: &BestPeerNetwork, peer: PeerId) -> InstanceId {
    net.bootstrap.record(peer).unwrap().instance
}

/// Crash the victim and wipe its disk, log included.
fn crash_and_wipe_disk(net: &mut BestPeerNetwork, victim: PeerId) {
    net.crash_data_peer(victim).unwrap();
    net.peer_mut(victim).unwrap().db = Database::new();
}

#[test]
fn failover_after_a_corrupt_checkpoint_restores_the_backup() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];
    insert_extra(&mut net, victim);
    net.backup_all().unwrap();
    let backed_up = net.peer(victim).unwrap().db.digest();

    corrupt_checkpoint(&mut net, victim);
    net.crash_data_peer(victim).unwrap();
    fail_over(&mut net, victim);
    assert_eq!(
        net.peer(victim).unwrap().db.digest(),
        backed_up,
        "the backup of the peer's former instance restores it"
    );
    assert_eq!(net.metrics().counter("recovery.source.replica"), 1);
    assert_eq!(net.metrics().counter("recovery.source.schema"), 0);
}

#[test]
fn failover_prefers_a_fresher_backup_over_a_torn_log() {
    let mut net = setup(2, 200, 8);
    let victim = net.peer_ids()[1];
    net.peer_mut(victim)
        .unwrap()
        .db
        .wal_mut()
        .unwrap()
        .flush()
        .unwrap();
    insert_extra(&mut net, victim);
    net.backup_all().unwrap();
    let backed_up = net.peer(victim).unwrap().db.digest();

    net.torn_crash_data_peer(victim, 10).unwrap();
    fail_over(&mut net, victim);
    assert_eq!(
        net.peer(victim).unwrap().db.digest(),
        backed_up,
        "a torn log must never clobber a fresher backup, on fail-over too"
    );
    assert_eq!(net.metrics().counter("recovery.source.replica"), 1);
}

#[test]
fn failover_of_a_wiped_disk_restores_the_backup_under_a_fresh_log() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];
    net.backup_all().unwrap();
    let backed_up = net.peer(victim).unwrap().db.digest();

    crash_and_wipe_disk(&mut net, victim);
    fail_over(&mut net, victim);
    assert_eq!(net.peer(victim).unwrap().db.digest(), backed_up);
    assert_eq!(net.metrics().counter("recovery.source.replica"), 1);
    assert!(
        net.peer(victim).unwrap().db.has_wal(),
        "no peer leaves recovery without a log"
    );

    // The fresh log numbers its records after the restored image, so
    // inserts logged now replay over it after a crash.
    insert_extra(&mut net, victim);
    let fresh = net.peer(victim).unwrap().db.digest();
    assert_ne!(fresh, backed_up);
    net.crash_data_peer(victim).unwrap();
    net.recover_data_peer(victim).unwrap();
    assert_eq!(net.peer(victim).unwrap().db.digest(), fresh);
    assert_eq!(net.metrics().counter("recovery.source.wal"), 1);
}

#[test]
fn failover_of_a_wiped_disk_without_backup_rebuilds_global_schemas() {
    let mut net = setup(2, 200, 1);
    let victim = net.peer_ids()[1];

    crash_and_wipe_disk(&mut net, victim);
    fail_over(&mut net, victim);
    let db = &net.peer(victim).unwrap().db;
    assert_eq!(db.total_rows(), 0);
    for s in schema::all_tables() {
        assert!(db.has_table(&s.name), "{} must be recreated", s.name);
    }
    assert_eq!(net.metrics().counter("recovery.source.schema"), 1);
    assert!(db.has_wal(), "no peer leaves recovery without a log");
}

#[test]
fn a_crash_applied_mid_query_fails_over_after_fail_threshold_epochs() {
    const SQL: &str = "SELECT COUNT(*) AS n FROM lineitem";
    for mid_query in [false, true] {
        let mut net = setup(3, 200, 1);
        net.backup_all().unwrap();
        let [submitter, _, victim] = net.peer_ids()[..] else {
            unreachable!()
        };
        let answer = net
            .submit_query(submitter, SQL, ROLE, EngineChoice::Basic, 0)
            .unwrap()
            .result
            .rows;
        if mid_query {
            // The fault clock ticks once per owner serve: the crash
            // lands on the next query's second serve, before the
            // victim's, so no detector has looked since.
            let at = net.faults_mut().clock() + 2;
            net.install_faults([ScheduledFault {
                at,
                action: FaultAction::Crash(victim),
            }]);
        } else {
            net.crash_data_peer(victim).unwrap();
        }
        let threshold = net.bootstrap.fail_threshold;
        let epochs = net.metrics().counter("bootstrap.epochs");
        let out = net
            .submit_query(submitter, SQL, ROLE, EngineChoice::Basic, 0)
            .unwrap();
        assert_eq!(out.result.rows, answer, "mid-query {mid_query}");
        assert_eq!(
            net.metrics().counter("bootstrap.epochs") - epochs,
            u64::from(threshold),
            "mid-query {mid_query}: one epoch per miss, none lost"
        );
        assert_eq!(out.attempts, threshold + 1, "mid-query {mid_query}");
        assert!(net
            .bootstrap
            .events()
            .iter()
            .any(|e| matches!(e, MaintenanceEvent::FailOver { peer, .. } if *peer == victim)));
        let log: Vec<FaultAction> = net.fault_log().iter().map(|r| r.action).collect();
        assert_eq!(
            log,
            [FaultAction::Crash(victim), FaultAction::Recover(victim)],
            "mid-query {mid_query}: the fail-over logs the victim's recovery"
        );
    }
}
