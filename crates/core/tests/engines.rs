//! End-to-end engine correctness: every BestPeer++ engine must return
//! what a centralized database returns over the union of all peers'
//! partitions, for every benchmark query.

use std::collections::{BTreeMap, BTreeSet};

use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema, Value};
use bestpeer_core::admission::AdmissionConfig;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::{FaultAction, Role};
use bestpeer_simnet::SimTime;
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
    setup_with(NetworkConfig::default(), n, rows)
}

fn setup_with(cfg: NetworkConfig, n: usize, rows: usize) -> (BestPeerNetwork, Database) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), cfg);
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

const ENGINES: [EngineChoice; 4] = [
    EngineChoice::Basic,
    EngineChoice::ParallelP2P,
    EngineChoice::MapReduce,
    EngineChoice::Adaptive,
];

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
        // A name that resolves nowhere fails before any engine runs,
        // whether or not a row would reach it.
        (
            "SELECT l_orderkey FROM lineitem ORDER BY zzz LIMIT 3",
            "plan",
        ),
        ("SELECT zzz FROM lineitem WHERE l_quantity < 0", "plan"),
    ] {
        for engine in ENGINES {
            match net.submit_query(submitter, sql, "R", engine, 0) {
                Ok(out) => panic!("{engine:?} answered {sql} with {:?}", out.result.rows),
                Err(e) => assert_eq!(e.kind(), want, "{engine:?} on {sql}: {e}"),
            }
        }
    }
}

/// A column equality within one table is a selection on that table,
/// alone or beside a join, on every engine and in the local executor:
/// each count equals one taken directly from the union database's rows.
#[test]
fn every_engine_pushes_a_column_equality_within_one_table() {
    let (mut net, central) = setup(3, 400);
    let submitter = net.peer_ids()[0];
    let lineitem = central.table("lineitem").unwrap();
    let col = |c| lineitem.schema().column_index(c).unwrap();
    let (orderkey, partkey, suppkey) = (col("l_orderkey"), col("l_partkey"), col("l_suppkey"));
    let orders: BTreeSet<&Value> = central
        .table("orders")
        .unwrap()
        .scan()
        .map(|r| r.get(0))
        .collect();
    let equal: Vec<&Row> = lineitem
        .scan()
        .filter(|r| r.get(partkey) == r.get(suppkey))
        .collect();
    let joined = equal
        .iter()
        .filter(|r| orders.contains(r.get(orderkey)))
        .count();
    assert!(
        joined > 0,
        "the data has rows whose part and supplier keys agree"
    );
    for (sql, want) in [
        (
            "SELECT COUNT(*) FROM lineitem WHERE l_partkey = l_suppkey",
            equal.len(),
        ),
        (
            "SELECT COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_partkey = l_suppkey",
            joined,
        ),
    ] {
        let want = Value::Int(want as i64);
        let (local, _) = execute_select(&parse_select(sql).unwrap(), &central).unwrap();
        assert_eq!(local.rows[0].get(0), &want, "execute_select on {sql}");
        for engine in ENGINES {
            let out = net
                .submit_query(submitter, sql, "R", engine, 0)
                .unwrap_or_else(|e| panic!("{engine:?} on {sql}: {e}"));
            assert_eq!(out.result.rows[0].get(0), &want, "{engine:?} on {sql}");
        }
    }
}

/// An unqualified predicate column that two FROM tables have is
/// ambiguous on every engine (DESIGN §15), not bound to the first of
/// them; qualifying it answers the same everywhere.
#[test]
fn every_engine_rejects_an_ambiguous_predicate_column() {
    let table = |name: &str| {
        let cols = vec![
            ColumnDef::new("x", ColumnType::Int),
            ColumnDef::new(format!("{name}_only"), ColumnType::Int),
        ];
        TableSchema::new(name, cols, vec![]).unwrap()
    };
    let mut net = BestPeerNetwork::new(vec![table("t1"), table("t2")], NetworkConfig::default());
    let cols: [&[&str]; 2] = [&["x", "t1_only"], &["x", "t2_only"]];
    net.define_role(Role::full_read("R", &[("t1", cols[0]), ("t2", cols[1])]));
    // Per peer: t1 holds x = 0..8, t2 holds x = 0..4, all joining on 1.
    for node in 0..2 {
        let id = net.join(&format!("b{node}")).unwrap();
        let rows = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|x| Row::new(vec![Value::Int(x), Value::Int(1)]))
                .collect()
        };
        let data = BTreeMap::from([("t1".to_string(), rows(8)), ("t2".to_string(), rows(4))]);
        net.load_peer(id, data, 1).unwrap();
    }
    let submitter = net.peer_ids()[0];
    let ambiguous = "SELECT COUNT(*) FROM t1, t2 WHERE t1_only = t2_only AND x > 3";
    let qualified = "SELECT COUNT(*) FROM t1, t2 WHERE t1_only = t2_only AND t1.x > 3";
    for engine in ENGINES {
        match net.submit_query(submitter, ambiguous, "R", engine, 0) {
            Ok(out) => panic!("{engine:?} answered {:?}", out.result.rows),
            Err(e) => {
                assert_eq!(e.kind(), "plan", "{engine:?}: {e}");
                assert!(
                    e.to_string().contains("ambiguous column reference `x`"),
                    "{engine:?}: {e}"
                );
            }
        }
        let out = net
            .submit_query(submitter, qualified, "R", engine, 0)
            .unwrap();
        assert_eq!(out.result.rows[0].get(0), &Value::Int(64), "{engine:?}");
    }
    let err = net.explain_query(submitter, ambiguous).unwrap_err();
    assert_eq!(err.kind(), "plan", "{err}");
}

/// An ORDER BY key the query does not project orders the answer as the
/// centralized executor does, on every engine: it rides along as a
/// hidden column until ORDER BY and LIMIT have run.
#[test]
fn every_engine_orders_by_unprojected_columns() {
    let (mut net, central) = setup(3, 400);
    let submitter = net.peer_ids()[0];
    for sql in [
        "SELECT l_orderkey, l_linenumber FROM lineitem \
         ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 5",
        "SELECT l_orderkey, l_linenumber FROM lineitem, orders WHERE l_orderkey = o_orderkey \
         ORDER BY o_totalprice DESC, l_orderkey, l_linenumber LIMIT 5",
    ] {
        let (want, _) = execute_select(&parse_select(sql).unwrap(), &central).unwrap();
        for engine in ENGINES {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            assert_eq!(out.result, want, "{engine:?} on {sql}");
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
fn every_engine_keeps_rows_whose_predicate_column_is_masked() {
    // The owners evaluate `o_orderkey > 10` on their data and then mask
    // keys above 20 to NULL. No engine evaluates the predicate again
    // over the masked values, so every engine keeps those rows.
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    let ranged = bestpeer_core::AccessRule::read("orders", "o_orderkey")
        .with_range(Value::Int(0), Value::Int(20));
    net.define_role(
        Role::new("ranged")
            .plus(ranged)
            .plus(bestpeer_core::AccessRule::read("orders", "o_totalprice")),
    );
    for node in 0..2u64 {
        let id = net.join(&format!("b{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(200)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    let submitter = net.peer_ids()[0];
    let sql = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey > 10";
    let mut answers = Vec::new();
    for engine in ENGINES {
        let out = net
            .submit_query(submitter, sql, "ranged", engine, 0)
            .unwrap();
        let mut rows = out.result.rows;
        rows.sort();
        answers.push((engine, rows));
    }
    let (_, want) = &answers[0];
    assert!(
        want.iter().any(|r| r.get(0).is_null()),
        "some keys are masked"
    );
    for (engine, rows) in &answers {
        assert_eq!(rows, want, "{engine:?}");
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
    net.crash_data_peer(victim).unwrap();
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
fn adaptive_replans_after_a_crash_drops_the_statistics() {
    // The crash is applied at the first attempt's fault sync, which
    // drops the collected statistics; each attempt collects them again
    // before planning, and the retry loop fails the peer over.
    let (mut net, central) = setup(2, 400);
    net.backup_all().unwrap();
    let victim = net.peer_ids()[1];
    net.faults_mut().inject_now(FaultAction::Crash(victim));
    check(&mut net, &central, Q2, EngineChoice::Adaptive);
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

#[test]
fn online_aggregation_admits_in_registry_time() {
    // One slot per peer and a 1 ms service time: each query fills every
    // queue, so a later query is admitted only if the admission clock
    // has moved on since the last one.
    let cfg = NetworkConfig {
        admission: AdmissionConfig {
            queue_depth: 1,
            service_time: SimTime::from_millis(1),
        },
        ..NetworkConfig::default()
    };
    let (mut net, _) = setup_with(cfg, 2, 200);
    let submitter = net.peer_ids()[0];
    let sql = "SELECT SUM(l_quantity) AS q FROM lineitem";
    let answers: Vec<Vec<Row>> = (0..3)
        .map(|run| {
            let out = net
                .submit_online_aggregate(submitter, sql, "R", 0)
                .unwrap_or_else(|e| panic!("run {run}: {e}"));
            assert_eq!(out.skipped_peers, 0, "run {run}");
            out.final_result.rows
        })
        .collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn an_unknown_from_table_is_a_catalog_error_on_every_engine() {
    let (mut net, _) = setup(2, 200);
    let submitter = net.peer_ids()[0];
    for sql in [
        "SELECT x FROM nosuch",
        "SELECT COUNT(*) FROM nosuch",
        "SELECT COUNT(*) FROM lineitem, nosuch",
        "SELECT SUM(l_quantity) FROM nosuch",
    ] {
        for engine in [
            EngineChoice::Basic,
            EngineChoice::ParallelP2P,
            EngineChoice::MapReduce,
            EngineChoice::Adaptive,
        ] {
            let err = net
                .submit_query(submitter, sql, "R", engine, 0)
                .unwrap_err();
            assert_eq!(err.kind(), "catalog", "{engine:?} {sql}: {err}");
        }
        let err = net
            .submit_online_aggregate(submitter, sql, "R", 0)
            .unwrap_err();
        assert_eq!(err.kind(), "catalog", "online {sql}: {err}");
    }
}

#[test]
fn a_global_aggregate_no_owner_answers_yields_its_one_row_on_every_engine() {
    // The range index prunes every supplier owner, so Basic's partial
    // aggregation combines zero partial rows: COUNT finalizes to 0 and
    // SUM and AVG to NULL, as over an empty local table.
    let cfg = NetworkConfig {
        range_index_columns: vec![("supplier".into(), "s_nationkey".into())],
        ..NetworkConfig::default()
    };
    let (mut net, central) = setup_with(cfg, 3, 400);
    for sql in [
        "SELECT COUNT(*) FROM supplier WHERE s_nationkey = 999",
        "SELECT COUNT(*), SUM(s_acctbal), AVG(s_acctbal) FROM supplier WHERE s_nationkey = 999",
    ] {
        for engine in ENGINES {
            check(&mut net, &central, sql, engine);
        }
    }
}

/// Each phase's label and its tasks' summed disk, CPU and sent bytes.
fn phase_bytes(trace: &bestpeer_simnet::Trace) -> Vec<(String, u64, u64, u64)> {
    trace
        .phases
        .iter()
        .map(|p| {
            let disk = p.tasks.iter().map(|t| t.disk_bytes).sum();
            let cpu = p.tasks.iter().map(|t| t.cpu_bytes).sum();
            let sent = p.tasks.iter().flat_map(|t| &t.sends).map(|s| s.bytes).sum();
            (p.label.clone(), disk, cpu, sent)
        })
        .collect()
}

/// Pins the cost traces of the two P2P engines, one query per join
/// shape (equi-join, four-table chain with GROUP BY, equi-join with a
/// cross-table residual, cross join with a residual): each phase's
/// summed disk, CPU and sent bytes on Basic and ParallelP2P, and
/// ParallelP2P's result digest (no ORDER BY, so the digest sees the row
/// order its join levels produce).
#[test]
fn p2p_engines_pin_charged_bytes_and_parallel_row_order() {
    type Phases = &'static [(&'static str, u64, u64, u64)];
    let cases: [(&str, Phases, Phases, u64); 4] = [
        (
            Q3,
            &[
                ("locate", 0, 0, 0),
                ("fetch:orders", 492, 696, 204),
                ("bloom-ship:lineitem", 0, 96, 96),
                ("fetch:lineitem", 96000, 97404, 1404),
                ("process", 1608, 4852, 0),
            ],
            &[
                ("scan:orders", 492, 696, 612),
                ("join:lineitem", 96000, 98664, 2076),
                ("root", 0, 1636, 0),
            ],
            0xf63cee6dc3ddee14,
        ),
        (
            Q5,
            &[
                ("locate", 0, 0, 0),
                ("fetch:orders", 12300, 15412, 3112),
                ("bloom-ship:customer", 0, 992, 480),
                ("fetch:customer", 1825, 2558, 733),
                ("bloom-ship:lineitem", 0, 992, 480),
                ("fetch:lineitem", 96000, 115012, 19012),
                ("bloom-ship:supplier", 0, 4000, 1824),
                ("fetch:supplier", 144, 189, 45),
                ("process", 22902, 45978, 0),
            ],
            &[
                ("scan:orders", 12300, 15412, 9336),
                ("join:customer", 1825, 17081, 17832),
                ("join:lineitem", 96000, 155404, 124788),
                ("join:supplier", 144, 170968, 46060),
                ("group-by", 0, 92302, 182),
                ("root", 0, 174, 0),
            ],
            0x6c8514deeed936f9,
        ),
        (
            "SELECT l_orderkey, o_custkey, l_partkey FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_partkey > o_custkey AND l_quantity < 20",
            &[
                ("locate", 0, 0, 0),
                ("fetch:lineitem", 96000, 108279, 12279),
                ("bloom-ship:orders", 0, 3384, 1560),
                ("fetch:orders", 12300, 17172, 4872),
                ("process", 17151, 41498, 0),
            ],
            &[
                ("scan:lineitem", 96000, 108279, 36837),
                ("join:orders", 12300, 60781, 11668),
                ("root", 0, 7196, 0),
            ],
            0x6055830c62d0ca45,
        ),
        (
            "SELECT s_suppkey, c_custkey, s_acctbal - c_acctbal AS d FROM supplier, customer \
             WHERE c_acctbal > 5000 AND s_nationkey < c_nationkey",
            &[
                ("locate", 0, 0, 0),
                ("fetch:customer", 1825, 2272, 447),
                ("fetch:supplier", 144, 243, 99),
                ("process", 546, 1618, 0),
            ],
            &[
                ("scan:customer", 1825, 2272, 1341),
                ("join:supplier", 144, 2481, 1020),
                ("root", 0, 526, 0),
            ],
            0x8532188fcd711a60,
        ),
    ];
    let cfg = NetworkConfig {
        result_cache: false,
        ..NetworkConfig::default()
    };
    let (mut net, central) = setup_with(cfg, 3, 400);
    let submitter = net.peer_ids()[0];
    for (sql, basic, parallel, digest) in cases {
        for (engine, phases) in [
            (EngineChoice::Basic, basic),
            (EngineChoice::ParallelP2P, parallel),
        ] {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            let want: Vec<(String, u64, u64, u64)> = phases
                .iter()
                .map(|&(l, d, c, s)| (l.to_string(), d, c, s))
                .collect();
            assert_eq!(phase_bytes(&out.trace), want, "{engine:?} on {sql}");
            if engine == EngineChoice::ParallelP2P {
                let got = out.result.digest();
                assert_eq!(got, digest, "{sql}: {got:#018x}");
            }
        }
        check(&mut net, &central, sql, EngineChoice::Basic);
    }
}
