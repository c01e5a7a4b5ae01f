//! Auto fail-over and auto-scaling (paper §3.2, Algorithm 1): crash a
//! peer, watch the bootstrap daemon launch a replacement instance and
//! recovery restore the database from its EBS-style backup, and
//! overload another peer to trigger a scale-up — all against the
//! simulated cloud, with pay-as-you-go billing accruing throughout. The
//! run asserts that the restored peer holds its pre-crash rows, runs on
//! a fresh instance and a fresh write-ahead log, and that the network
//! answers the pre-crash `COUNT(*)` again.
//!
//! ```text
//! cargo run --example failover
//! ```

use bestpeer::cloud::{CloudProvider, InstanceMetrics};
use bestpeer::common::{PeerId, Value};
use bestpeer::core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::core::Role;
use bestpeer::storage::Database;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

/// The network-wide `lineitem` count, asked from `submitter`.
fn lineitem_count(net: &mut BestPeerNetwork, submitter: PeerId) -> Value {
    let out = net
        .submit_query(
            submitter,
            "SELECT COUNT(*) FROM lineitem",
            "analyst",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    out.result.rows[0].get(0).clone()
}

fn main() {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    let tables = schema::all_tables();
    let spec: Vec<(&str, Vec<&str>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.columns.iter().map(|c| c.name.as_str()).collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(t, c)| (*t, c.as_slice())).collect();
    net.define_role(Role::full_read("analyst", &borrowed));

    for (i, name) in ["acme", "globex"].iter().enumerate() {
        let id = net.join(name).unwrap();
        let data = DbGen::new(TpchConfig::tiny(i as u64).with_rows(2_000)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    let [acme, globex] = net.peer_ids()[..] else {
        unreachable!()
    };
    let count_before = lineitem_count(&mut net, globex);

    // The periodic backup cycle (§2.1: EBS backups in four-minute windows).
    let backed_up = net.backup_all().unwrap();
    println!("backed up {backed_up} peer databases to (simulated) EBS");

    // acme crashes (it stops serving and answering heartbeats) and
    // loses its disk.
    let lineitems = net.peer(acme).unwrap().db.table("lineitem").unwrap().len();
    let dead_instance = net.bootstrap.record(acme).unwrap().instance;
    net.crash_data_peer(acme).unwrap();
    net.peer_mut(acme).unwrap().db = Database::new();
    println!("crashed acme on {dead_instance}: database lost");

    // globex is overloaded: CPU above the scaling threshold.
    let globex_instance = net.bootstrap.record(globex).unwrap().instance;
    net.cloud
        .set_metrics(
            globex_instance,
            InstanceMetrics {
                cpu_utilization: 0.97,
                storage_used: 0.4,
            },
        )
        .unwrap();

    // Algorithm 1 epochs. The heartbeat failure detector needs
    // `fail_threshold` consecutive missed probes before declaring acme
    // dead (one unanswered epoch is treated as a transient hiccup).
    for epoch in 1..=net.bootstrap.fail_threshold {
        let events = net.maintenance_tick().unwrap();
        println!(
            "epoch {epoch}: acme misses={} events={events:?}",
            net.bootstrap.heartbeat_misses(acme)
        );
    }
    let restored = &net.peer(acme).unwrap().db;
    assert_eq!(
        restored.table("lineitem").unwrap().len(),
        lineitems,
        "fail-over restores the backed-up rows"
    );
    assert!(restored.has_wal(), "the restored peer logs again");
    let acme_instance = net.bootstrap.record(acme).unwrap().instance;
    assert_ne!(
        acme_instance, dead_instance,
        "acme runs on a fresh instance"
    );
    println!(
        "acme is back on {acme_instance} with {lineitems} lineitem rows restored; globex now runs {}",
        net.cloud.shape(globex_instance).unwrap(),
    );

    // Queries work again right after fail-over (strong consistency: the
    // paper blocks affected queries until recovery completes; here
    // recovery already happened within the epoch).
    let count_after = lineitem_count(&mut net, globex);
    assert_eq!(
        count_after, count_before,
        "the network answers its pre-crash count again"
    );
    println!("post-failover network-wide lineitem count: {count_after} (pre-crash {count_before})");

    // Pay-as-you-go: the ledger metered every instance-hour, including
    // the replacement instance and the upgraded shape.
    net.cloud.advance_clock(3_600_000_000);
    println!(
        "accrued bill after one hour: {} cents",
        net.cloud.bill_cents()
    );
}
