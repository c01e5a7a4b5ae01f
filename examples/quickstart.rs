//! Quickstart: stand up a three-business corporate network, load TPC-H
//! partitions, and run a distributed query end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bestpeer::core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::core::Role;
use bestpeer::simnet::Cluster;
use bestpeer::simnet::ResourceConfig;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

fn main() {
    // 1. The service provider creates the network with the shared
    //    global schema and defines a standard role.
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

    // 2. Three businesses join; each gets a dedicated (simulated) cloud
    //    instance, a certificate, and a BATON overlay position, then
    //    loads its partition and publishes its indices.
    for (i, name) in ["acme-manufacturing", "globex-retail", "initech-logistics"]
        .iter()
        .enumerate()
    {
        let id = net.join(name).expect("admission");
        let data = DbGen::new(TpchConfig::tiny(i as u64).with_rows(4_000)).generate();
        net.load_peer(id, data, 1).expect("load");
        println!(
            "{name} joined as {id} on instance {}",
            net.bootstrap.record(id).unwrap().instance
        );
    }

    // 3. A user at the first peer runs an analytical query. The basic
    //    engine locates the owners through BATON, pushes subqueries to
    //    them, and joins the fetched tuples locally.
    let submitter = net.peer_ids()[0];
    let sql = "SELECT o_orderdate, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
               FROM lineitem, orders \
               WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1998-06-01' \
               GROUP BY o_orderdate ORDER BY revenue DESC LIMIT 5";
    let out = net
        .submit_query(submitter, sql, "analyst", EngineChoice::Basic, 0)
        .expect("query");

    println!("\ntop revenue days across the whole network:");
    println!("{:>12} {:>14}", "o_orderdate", "revenue");
    for row in &out.result.rows {
        println!("{:>12} {:>14.2}", row.get(0), row.get(1).as_f64().unwrap());
    }

    // 4. The trace the engines record prices the execution; replaying
    //    it on the simulator yields the latency the paper would plot.
    let sim = Cluster::new(ResourceConfig::default());
    println!(
        "\nphysical work: {} network bytes across {} phases; simulated latency {}",
        out.trace.network_bytes(),
        out.trace.phases.len(),
        sim.single_query_latency(&out.trace)
    );
}
