//! Every departure goes through one `retire`: local `leave`, remote
//! `leave`, and elastic scale-in. Each path runs with and without a
//! crash-and-recover of another peer first. A crash marks every
//! remembered entry set stale instead of dropping it, so the departure
//! still withdraws the departed peer's entries: afterwards no overlay
//! node lists it, its admission queue is gone, and Basic and
//! ParallelP2P answer over the survivors alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use bestpeer_common::{ColumnDef, ColumnType, PeerId, Row, TableSchema, Value};
use bestpeer_core::admission::AdmissionConfig;
use bestpeer_core::bootstrap::MaintenanceEvent;
use bestpeer_core::indexer;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::{NodeService, Role};
use bestpeer_simnet::SimTime;
use bestpeer_transport::{LocalTransport, Request, Response, Transport};

/// Rows per peer; the survivors of every scenario are two peers.
const ROWS: i64 = 10;

fn schemas() -> Vec<TableSchema> {
    vec![TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], vec![0]).unwrap()]
}

fn config() -> NetworkConfig {
    NetworkConfig {
        admission: AdmissionConfig {
            queue_depth: 4,
            service_time: SimTime::from_millis(1),
        },
        ..NetworkConfig::default()
    }
}

fn network() -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(schemas(), config());
    net.define_role(Role::full_read("R", &[("t", &["id"])]));
    net
}

/// `ROWS` distinct rows for the `k`-th loaded peer.
fn rows(k: i64) -> BTreeMap<String, Vec<Row>> {
    let rows = (0..ROWS)
        .map(|i| Row::new(vec![Value::Int(k * ROWS + i)]))
        .collect();
    BTreeMap::from([("t".to_string(), rows)])
}

/// A network of two loaded local peers.
fn two_peers() -> BestPeerNetwork {
    let mut net = network();
    for k in 0..2 {
        let id = net.join(&format!("business-{k}")).unwrap();
        net.load_peer(id, rows(k), 1).unwrap();
    }
    net
}

fn count(net: &mut BestPeerNetwork, engine: EngineChoice) -> Value {
    let submitter = net.peer_ids()[0];
    let out = net
        .submit_query(submitter, "SELECT COUNT(*) FROM t", "R", engine, 0)
        .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
    out.result.rows[0].get(0).clone()
}

/// Crash and recover the second local peer (never the departing one).
fn crash_and_recover_another(net: &mut BestPeerNetwork) {
    let other = net.peer_ids()[1];
    net.crash_data_peer(other).unwrap();
    net.recover_data_peer(other).unwrap();
}

/// Both P2P engines answer over the two surviving peers, and the
/// departure left nothing behind.
fn assert_retired(net: &mut BestPeerNetwork, gone: PeerId) {
    for engine in [EngineChoice::Basic, EngineChoice::ParallelP2P] {
        assert_eq!(count(net, engine), Value::Int(2 * ROWS), "{engine:?}");
    }
    let overlay = net.overlay_mut();
    for node in overlay.peers().collect::<Vec<_>>() {
        let items = &overlay.node(node).unwrap().items;
        assert!(
            items.values().flatten().all(|e| e.peer() != gone),
            "overlay node {node} still lists {gone}"
        );
    }
    assert!(!overlay.contains(gone), "{gone} kept its overlay position");
    assert_eq!(net.admission().queue_depth(gone), 0);
    assert!(!net.peer_ids().contains(&gone));
}

fn local_leave(crash_first: bool) {
    let mut net = two_peers();
    let leaver = net.join("business-2").unwrap();
    net.load_peer(leaver, rows(2), 1).unwrap();
    assert_eq!(count(&mut net, EngineChoice::Basic), Value::Int(3 * ROWS));
    assert!(net.admission().queue_depth(leaver) > 0);
    if crash_first {
        crash_and_recover_another(&mut net);
    }
    net.leave(leaver).unwrap();
    assert_retired(&mut net, leaver);
}

fn remote_leave(crash_first: bool) {
    let transport = Arc::new(LocalTransport::new());
    let mut net = two_peers();
    net.set_transport(transport.clone());

    let mut remote_net = network();
    remote_net.bootstrap_mut().set_next_peer_id(100);
    let remote = remote_net.join("business-remote").unwrap();
    remote_net.load_peer(remote, rows(2), 1).unwrap();
    transport.register("node-r", Arc::new(NodeService::new(remote_net, remote)));
    let Response::Inventory {
        load_ts, entries, ..
    } = transport.call("node-r", &Request::Inventory).unwrap()
    else {
        panic!("unexpected inventory reply");
    };
    let entries = indexer::decode_entries(&entries).unwrap();
    net.register_remote_peer(remote, "node-r", load_ts, entries)
        .unwrap();
    assert_eq!(count(&mut net, EngineChoice::Basic), Value::Int(3 * ROWS));
    assert!(net.admission().queue_depth(remote) > 0);

    if crash_first {
        crash_and_recover_another(&mut net);
    }
    net.leave(remote).unwrap();
    assert_retired(&mut net, remote);
}

fn scale_in(crash_first: bool) {
    let mut net = two_peers();
    net.bootstrap.elastic_limit = 1;
    net.bootstrap.scale_threshold = 2;
    let at = SimTime::from_millis;
    // Two saturated epochs scale an elastic peer out; it is loaded like
    // any business and serves queries.
    let hot = net.peer_ids()[0];
    while net.offer_request(hot, at(0)).is_ok() {}
    net.scale_tick(at(1), at(1)).unwrap();
    let events = net.scale_tick(at(2), at(1)).unwrap();
    let [MaintenanceEvent::ScaleOut { peer: elastic, .. }] = events[..] else {
        panic!("expected one scale-out, got {events:?}");
    };
    net.load_peer(elastic, rows(2), 1).unwrap();
    assert_eq!(count(&mut net, EngineChoice::Basic), Value::Int(3 * ROWS));

    if crash_first {
        crash_and_recover_another(&mut net);
    }
    // Two idle epochs long after every queue drained scale it back in.
    let window = SimTime::from_secs(1);
    assert!(net.scale_tick(at(10_000), window).unwrap().is_empty());
    let events = net.scale_tick(at(10_001), window).unwrap();
    assert!(
        matches!(events[..], [MaintenanceEvent::ScaleIn { peer, .. }] if peer == elastic),
        "expected the elastic peer's scale-in, got {events:?}"
    );
    assert_retired(&mut net, elastic);
}

#[test]
fn local_leave_withdraws_the_peer() {
    local_leave(false);
}

#[test]
fn local_leave_after_another_peer_crashed_withdraws_the_peer() {
    local_leave(true);
}

#[test]
fn local_leave_during_another_peers_outage_withdraws_the_peer() {
    // The leaver's entries stored at the crashed peer's overlay node
    // survive only in the replicas its neighbours hold; the departure
    // must strip them there, or the node's recovery restores them.
    let mut net = two_peers();
    let leaver = net.join("business-2").unwrap();
    net.load_peer(leaver, rows(2), 1).unwrap();
    let down = net.peer_ids()[1];
    net.crash_data_peer(down).unwrap();
    net.leave(leaver).unwrap();
    net.recover_data_peer(down).unwrap();
    assert_retired(&mut net, leaver);
}

#[test]
fn remote_leave_withdraws_the_peer() {
    remote_leave(false);
}

#[test]
fn remote_leave_after_another_peer_crashed_withdraws_the_peer() {
    remote_leave(true);
}

#[test]
fn scale_in_withdraws_the_loaded_elastic_peer() {
    scale_in(false);
}

#[test]
fn scale_in_after_another_peer_crashed_withdraws_the_loaded_elastic_peer() {
    scale_in(true);
}
