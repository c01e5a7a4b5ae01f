//! End-to-end engine correctness: every BestPeer++ engine must return
//! what a centralized database returns over the union of all peers'
//! partitions, for every benchmark query.

use std::collections::BTreeMap;

use bestpeer_common::{Row, Value};
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::Role;
use bestpeer_sql::{execute_select, parse_select};
use bestpeer_storage::Database;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{schema, Q1, Q2, Q3, Q4, Q5};

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
    Role::full_read("R", &borrowed)
}

/// A network of `n` peers each loaded with one TPC-H partition, plus the
/// centralized union database.
fn setup(n: usize, rows: usize) -> (BestPeerNetwork, Database) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let mut central = Database::new();
    for s in schema::all_tables() {
        central.create_table(s).unwrap();
    }
    for node in 0..n {
        let id = net.join(&format!("business-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node as u64).with_rows(rows)).generate();
        for (table, rows) in &data {
            if (table == "nation" || table == "region") && node > 0 {
                continue;
            }
            central.bulk_insert(table, rows.clone()).unwrap();
        }
        // Secondary indices of paper Table 4, then load + publish.
        net.load_peer(id, data, 1).unwrap();
        for (t, c) in schema::secondary_indices() {
            // Database-level DDL so the index is WAL-logged.
            net.peer_mut(id).unwrap().db.create_index(t, c).unwrap();
        }
    }
    (net, central)
}

fn rows_approx_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.arity() == rb.arity()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(va, vb)| match (va, vb) {
                        (Value::Float(x), Value::Float(y)) => {
                            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                        }
                        _ => va == vb,
                    })
        })
}

fn check(net: &mut BestPeerNetwork, central: &Database, sql: &str, engine: EngineChoice) {
    let submitter = net.peer_ids()[0];
    let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
    let stmt = parse_select(sql).unwrap();
    let (cent, _) = execute_select(&stmt, central).unwrap();
    let mut got = out.result.rows.clone();
    let mut want = cent.rows.clone();
    got.sort();
    want.sort();
    assert!(
        rows_approx_eq(&got, &want),
        "{engine:?} on {sql}: {} vs {} rows\n got: {:?}\n want: {:?}",
        got.len(),
        want.len(),
        &got[..got.len().min(3)],
        &want[..want.len().min(3)],
    );
    assert!(!out.trace.phases.is_empty(), "{engine:?}: trace recorded");
}

#[test]
fn basic_engine_matches_centralized_on_all_queries() {
    let (mut net, central) = setup(3, 2000);
    for sql in [Q1, Q2, Q3, Q4, Q5] {
        check(&mut net, &central, sql, EngineChoice::Basic);
    }
}

#[test]
fn parallel_engine_matches_centralized_on_all_queries() {
    let (mut net, central) = setup(3, 2000);
    for sql in [Q1, Q2, Q3, Q4, Q5] {
        check(&mut net, &central, sql, EngineChoice::ParallelP2P);
    }
}

#[test]
fn mapreduce_engine_matches_centralized_on_all_queries() {
    let (mut net, central) = setup(3, 2000);
    for sql in [Q1, Q2, Q3, Q4, Q5] {
        check(&mut net, &central, sql, EngineChoice::MapReduce);
    }
}

/// An ill-typed or misspelt query fails on every engine with the same
/// error kind: a failing map or reduce task fails the MapReduce query
/// instead of dropping the rows it was computing.
#[test]
fn every_engine_rejects_bad_queries_with_the_same_error_kind() {
    let (mut net, _) = setup(3, 400);
    let submitter = net.peer_ids()[0];
    for (sql, want) in [
        (
            "SELECT SUM(o_orderstatus) AS s FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            "type",
        ),
        (
            "SELECT o_orderstatus, SUM(c_name) AS s FROM orders, customer \
             WHERE o_custkey = c_custkey GROUP BY o_orderstatus",
            "type",
        ),
        (
            "SELECT l_orderkey, o_orderdate FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity + o_orderstatus > 3",
            "type",
        ),
        (
            "SELECT l_orderkey, o_orderstatus + 1 AS x FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey",
            "type",
        ),
        (
            "SELECT SUM(o_orderpriority) AS s FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            "plan",
        ),
    ] {
        for engine in [
            EngineChoice::Basic,
            EngineChoice::ParallelP2P,
            EngineChoice::MapReduce,
        ] {
            match net.submit_query(submitter, sql, "R", engine, 0) {
                Ok(out) => panic!("{engine:?} answered {sql} with {:?}", out.result.rows),
                Err(e) => assert_eq!(e.kind(), want, "{engine:?} on {sql}: {e}"),
            }
        }
    }
}

/// `ORDER BY … LIMIT k` over a join is answered by the bounded top-K
/// heap exactly once on every engine, and the metric counts it.
#[test]
fn every_engine_counts_its_topk_short_circuit_once() {
    let (mut net, _) = setup(3, 400);
    let submitter = net.peer_ids()[0];
    let sql = "SELECT l_orderkey, o_totalprice FROM lineitem, orders \
               WHERE l_orderkey = o_orderkey ORDER BY o_totalprice DESC LIMIT 5";
    for engine in [
        EngineChoice::Basic,
        EngineChoice::ParallelP2P,
        EngineChoice::MapReduce,
    ] {
        let before = net.metrics().counter("exec.topk_short_circuits");
        let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
        assert_eq!(out.result.len(), 5, "{engine:?}");
        let added = net.metrics().counter("exec.topk_short_circuits") - before;
        assert_eq!(added, 1, "{engine:?}");
    }
}

#[test]
fn adaptive_engine_matches_and_reports_decision() {
    let (mut net, central) = setup(3, 2000);
    check(&mut net, &central, Q5, EngineChoice::Adaptive);
    let submitter = net.peer_ids()[0];
    let out = net
        .submit_query(submitter, Q5, "R", EngineChoice::Adaptive, 0)
        .unwrap();
    let d = out.decision.expect("adaptive records its cost comparison");
    assert!(d.p2p_cost > 0.0 && d.mr_cost > 0.0);
    assert!(matches!(
        out.engine,
        EngineChoice::ParallelP2P | EngineChoice::MapReduce
    ));
}

#[test]
fn bloom_join_reduces_network_volume_without_changing_results() {
    let cfg_on = NetworkConfig::default();
    let cfg_off = NetworkConfig {
        bloom_join: false,
        ..NetworkConfig::default()
    };

    let run = |cfg: NetworkConfig| {
        let mut net = BestPeerNetwork::new(schema::all_tables(), cfg);
        net.define_role(full_read_role());
        for node in 0..3u64 {
            let id = net.join(&format!("b{node}")).unwrap();
            let data = DbGen::new(TpchConfig::tiny(node).with_rows(2000)).generate();
            net.load_peer(id, data, 1).unwrap();
        }
        let submitter = net.peer_ids()[0];
        // A selective join: few orders qualify, so the bloom filter
        // prunes most lineitem tuples at the owners.
        let sql = "SELECT o_orderdate, l_quantity FROM orders, lineitem \
                   WHERE o_orderkey = l_orderkey AND o_orderdate > DATE '1998-07-01'";
        let out = net
            .submit_query(submitter, sql, "R", EngineChoice::Basic, 0)
            .unwrap();
        (out.result.rows.len(), out.trace.network_bytes())
    };
    let (rows_on, bytes_on) = run(cfg_on);
    let (rows_off, bytes_off) = run(cfg_off);
    assert_eq!(rows_on, rows_off, "bloom join must not change results");
    assert!(
        bytes_on < bytes_off,
        "bloom join should cut network bytes: {bytes_on} vs {bytes_off}"
    );
}

#[test]
fn null_join_keys_match_nothing_on_every_engine() {
    // Ranged read rules mask every order key above 20 to NULL, so most
    // join keys arrive NULL. NULL = NULL is not true, so those rows must
    // not pair up, whichever engine joins them.
    let run = |engine: EngineChoice, bloom_join: bool| {
        let cfg = NetworkConfig {
            bloom_join,
            result_cache: false,
            ..NetworkConfig::default()
        };
        let mut net = BestPeerNetwork::new(schema::all_tables(), cfg);
        let ranged = |t: &str, c: &str| {
            bestpeer_core::AccessRule::read(t, c).with_range(Value::Int(0), Value::Int(20))
        };
        net.define_role(
            Role::new("ranged")
                .plus(ranged("orders", "o_orderkey"))
                .plus(ranged("lineitem", "l_orderkey")),
        );
        for node in 0..2u64 {
            let id = net.join(&format!("b{node}")).unwrap();
            let data = DbGen::new(TpchConfig::tiny(node).with_rows(200)).generate();
            net.load_peer(id, data, 1).unwrap();
        }
        let submitter = net.peer_ids()[0];
        let sql = "SELECT COUNT(*) AS n FROM lineitem, orders WHERE l_orderkey = o_orderkey";
        let out = net
            .submit_query(submitter, sql, "ranged", engine, 0)
            .unwrap();
        out.result.rows[0].get(0).as_int().unwrap()
    };
    let want = run(EngineChoice::ParallelP2P, true);
    assert!(want > 0, "some keys stay in range");
    for (engine, bloom_join) in [
        (EngineChoice::Basic, true),
        (EngineChoice::Basic, false),
        (EngineChoice::MapReduce, true),
        (EngineChoice::Adaptive, true),
    ] {
        assert_eq!(
            run(engine, bloom_join),
            want,
            "{engine:?}, bloom join {bloom_join}"
        );
    }
}

#[test]
fn single_peer_optimization_skips_processing_phase() {
    let mut net = BestPeerNetwork::new(
        schema::all_tables(),
        NetworkConfig {
            range_index_columns: vec![("orders".into(), "o_nationkey".into())],
            ..NetworkConfig::default()
        },
    );
    net.define_role(full_read_role());
    // Each peer holds one nation's data.
    for nation in 0..3i64 {
        let id = net.join(&format!("nation-{nation}")).unwrap();
        let data = DbGen::new(
            TpchConfig::tiny(nation as u64)
                .with_rows(1000)
                .for_nation(nation),
        )
        .generate();
        net.load_peer(id, data, 1).unwrap();
    }
    let submitter = net.peer_ids()[0];
    let sql = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_nationkey = 2";
    let out = net
        .submit_query(submitter, sql, "R", EngineChoice::Basic, 0)
        .unwrap();
    assert!(!out.result.is_empty());
    // Exactly one execution phase on the single owner, no process phase.
    let labels: Vec<&str> = out.trace.phases.iter().map(|p| p.label.as_str()).collect();
    assert!(labels.contains(&"single-peer-exec"), "labels: {labels:?}");
    assert!(!labels.contains(&"process"));
    // All returned orders belong to nation 2's peer.
    let owner = net.peer_ids()[2];
    let owner_rows = net.peer(owner).unwrap().db.table("orders").unwrap().len();
    assert_eq!(out.result.len(), owner_rows);
}

#[test]
fn access_control_masks_across_the_network() {
    let (mut net, _) = setup(2, 1000);
    // A restricted role: can read order keys but not total prices.
    net.define_role(
        Role::new("restricted")
            .plus(bestpeer_core::AccessRule::read("orders", "o_orderkey"))
            .plus(bestpeer_core::AccessRule::read("orders", "o_orderdate")),
    );
    let submitter = net.peer_ids()[0];
    let sql = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate > DATE '1992-01-01'";
    let out = net
        .submit_query(submitter, sql, "restricted", EngineChoice::Basic, 0)
        .unwrap();
    assert!(!out.result.is_empty());
    assert!(out.result.rows.iter().all(|r| !r.get(0).is_null()));
    assert!(
        out.result.rows.iter().all(|r| r.get(1).is_null()),
        "prices masked"
    );
    // A predicate over the masked column is denied outright.
    let err = net
        .submit_query(
            submitter,
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 10.0",
            "restricted",
            EngineChoice::Basic,
            0,
        )
        .unwrap_err();
    assert_eq!(err.kind(), "access-denied");
}

#[test]
fn stale_snapshot_rejected_until_peers_catch_up() {
    let (mut net, _) = setup(2, 500);
    let submitter = net.peer_ids()[0];
    // Peers were loaded at timestamp 1; a query stamped 2 is too new.
    let err = net
        .submit_query(submitter, Q1, "R", EngineChoice::Basic, 2)
        .unwrap_err();
    assert_eq!(err.kind(), "stale-snapshot");
    assert_eq!(net.consistent_timestamp(), 1);
    // After every peer reloads at ts 2, the same query succeeds.
    for id in net.peer_ids() {
        net.peer_mut(id).unwrap().db.set_load_timestamp(2).unwrap();
    }
    assert!(net
        .submit_query(submitter, Q1, "R", EngineChoice::Basic, 2)
        .is_ok());
}

#[test]
fn membership_churn_keeps_queries_correct() {
    let (mut net, _) = setup(3, 1000);
    let submitter = net.peer_ids()[0];
    let before = net
        .submit_query(submitter, Q2, "R", EngineChoice::Basic, 0)
        .unwrap();

    // A fourth business joins with data and the result changes.
    let id = net.join("late-joiner").unwrap();
    let data = DbGen::new(TpchConfig::tiny(9).with_rows(1000)).generate();
    let mut filtered: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for (t, rows) in data {
        if t != "nation" && t != "region" {
            filtered.insert(t, rows);
        }
    }
    net.load_peer(id, filtered, 1).unwrap();
    let after = net
        .submit_query(submitter, Q2, "R", EngineChoice::Basic, 0)
        .unwrap();
    assert_ne!(before.result.rows, after.result.rows);

    // It departs again; the original result returns.
    net.leave(id).unwrap();
    let gone = net
        .submit_query(submitter, Q2, "R", EngineChoice::Basic, 0)
        .unwrap();
    let (a, b) = (&before.result.rows[0], &gone.result.rows[0]);
    let (x, y) = (a.get(0).as_f64().unwrap(), b.get(0).as_f64().unwrap());
    assert!((x - y).abs() < 1e-6 * x.abs().max(1.0));
}

#[test]
fn failover_preserves_query_results() {
    let (mut net, central) = setup(2, 800);
    net.backup_all().unwrap();
    let victim = net.peer_ids()[1];
    let instance = net.peer(victim).unwrap().instance;
    net.cloud.inject_crash(instance).unwrap();
    // Simulate disk loss on the crashed instance.
    net.peer_mut(victim).unwrap().db = Database::new();

    // Algorithm 1 fails the peer over and restores from backup once the
    // heartbeat detector has seen `fail_threshold` missed epochs.
    let mut events = Vec::new();
    for _ in 0..net.bootstrap.fail_threshold {
        events = net.maintenance_tick().unwrap();
    }
    assert!(!events.is_empty());
    check(&mut net, &central, Q2, EngineChoice::Basic);
}

#[test]
fn online_aggregation_converges_to_exact() {
    let (mut net, central) = setup(4, 1000);
    let submitter = net.peer_ids()[0];
    let sql = "SELECT SUM(l_quantity) AS q FROM lineitem WHERE l_quantity > 10";
    let out = net.submit_online_aggregate(submitter, sql, "R", 0).unwrap();
    // Exact final result matches centralized execution.
    let stmt = parse_select(sql).unwrap();
    let (cent, _) = execute_select(&stmt, &central).unwrap();
    let truth = cent.rows[0].get(0).as_f64().unwrap();
    assert_eq!(out.final_result.rows[0].get(0).as_f64().unwrap(), truth);
    // One estimate per peer; the last is exact; intervals shrink.
    assert_eq!(out.estimates.len(), 4);
    let last = out.estimates.last().unwrap();
    assert_eq!(last.half_width, 0.0);
    assert!((last.estimate - truth).abs() < 1e-6);
    assert!(out.estimates[2].half_width < out.estimates[1].half_width);
    // Uniform TPC-H data: the 2-peer estimate is already close.
    assert!((out.estimates[1].estimate - truth).abs() / truth < 0.2);
    // Unsupported shapes are rejected.
    assert!(net
        .submit_online_aggregate(submitter, "SELECT MIN(l_quantity) FROM lineitem", "R", 0)
        .is_err());
    assert!(net
        .submit_online_aggregate(submitter, bestpeer_tpch::Q4, "R", 0)
        .is_err());
}
