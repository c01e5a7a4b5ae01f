//! Auto fail-over and auto-scaling (paper §3.2, Algorithm 1): crash a
//! peer's instance, watch the bootstrap daemon launch a replacement and
//! recovery restore the database from its EBS-style backup, and
//! overload another peer to trigger a scale-up — all against the
//! simulated cloud, with pay-as-you-go billing accruing throughout. The
//! run asserts that the restored peer holds its pre-crash rows and runs
//! on a fresh write-ahead log.
//!
//! ```text
//! cargo run --example failover
//! ```

use bestpeer::cloud::{CloudProvider, InstanceMetrics};
use bestpeer::core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::core::Role;
use bestpeer::storage::Database;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

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

    // The periodic backup cycle (§2.1: EBS backups in four-minute windows).
    let backed_up = net.backup_all().unwrap();
    println!("backed up {backed_up} peer databases to (simulated) EBS");

    // acme's instance crashes and loses its disk.
    let lineitems = net.peer(acme).unwrap().db.table("lineitem").unwrap().len();
    let dead_instance = net.peer(acme).unwrap().instance;
    net.cloud.inject_crash(dead_instance).unwrap();
    net.peer_mut(acme).unwrap().db = Database::new();
    println!("crashed {dead_instance} (acme): database lost");

    // globex is overloaded: CPU above the scaling threshold.
    net.cloud
        .set_metrics(
            net.peer(globex).unwrap().instance,
            InstanceMetrics {
                cpu_utilization: 0.97,
                storage_used: 0.4,
                responsive: true,
            },
        )
        .unwrap();

    // Algorithm 1 epochs. The heartbeat failure detector needs
    // `fail_threshold` consecutive missed probes before declaring acme
    // dead (one unresponsive epoch is treated as a transient hiccup).
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
    println!(
        "acme is back on {} with {lineitems} lineitem rows restored; globex now runs {}",
        net.peer(acme).unwrap().instance,
        net.cloud.shape(net.peer(globex).unwrap().instance).unwrap(),
    );

    // Queries work again right after fail-over (strong consistency: the
    // paper blocks affected queries until recovery completes; here
    // recovery already happened within the epoch).
    let out = net
        .submit_query(
            globex,
            "SELECT COUNT(*) FROM lineitem",
            "analyst",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    println!(
        "post-failover network-wide lineitem count: {}",
        out.result.rows[0].get(0)
    );

    // Pay-as-you-go: the ledger metered every instance-hour, including
    // the replacement instance and the upgraded shape.
    net.cloud.advance_clock(3_600_000_000);
    println!(
        "accrued bill after one hour: {} cents",
        net.cloud.bill_cents()
    );
}
