//! Workspace-level integration test: the full life of a corporate
//! network, exercising every subsystem through the public facade —
//! cloud admission, ETL with schema mapping and snapshot differentials,
//! BATON indexing, all four query engines, access control, fail-over,
//! departure, and billing.

use bestpeer::cloud::CloudProvider;
use bestpeer::common::{Row, Value};
use bestpeer::core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::core::schema_mapping::{SchemaMapping, TableMap};
use bestpeer::core::{AccessRule, Role};
use bestpeer::simnet::{Cluster, ResourceConfig};
use bestpeer::sql::{execute_select, parse_select};
use bestpeer::storage::Database;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

fn analyst_role() -> Role {
    let tables = schema::all_tables();
    let mut role = Role::new("analyst");
    for t in &tables {
        for c in &t.columns {
            role = role.plus(AccessRule::read(&t.name, &c.name));
        }
    }
    role
}

#[test]
fn corporate_network_end_to_end() {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(analyst_role());

    // --- membership + loading -----------------------------------
    let mut central = Database::new();
    for s in schema::all_tables() {
        central.create_table(s).unwrap();
    }
    for node in 0..4u64 {
        let id = net.join(&format!("company-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(1_500)).generate();
        for (t, rows) in &data {
            if (t == "nation" || t == "region") && node > 0 {
                continue;
            }
            central.bulk_insert(t, rows.clone()).unwrap();
        }
        net.load_peer(id, data, 1).unwrap();
    }
    assert_eq!(net.peer_ids().len(), 4);
    assert_eq!(net.bootstrap.peer_count(), 4);
    assert_eq!(net.cloud.running_count(), 4);

    // --- every engine agrees with centralized execution ----------
    let sql = "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total \
               FROM orders, customer \
               WHERE o_custkey = c_custkey AND o_orderdate > DATE '1995-01-01' \
               GROUP BY o_orderstatus";
    let stmt = parse_select(sql).unwrap();
    let (central_rs, _) = execute_select(&stmt, &central).unwrap();
    let submitter = net.peer_ids()[0];
    for engine in [
        EngineChoice::Basic,
        EngineChoice::ParallelP2P,
        EngineChoice::MapReduce,
        EngineChoice::Adaptive,
    ] {
        let out = net
            .submit_query(submitter, sql, "analyst", engine, 0)
            .unwrap();
        let mut got: Vec<(String, i64)> = out
            .result
            .rows
            .iter()
            .map(|r| (r.get(0).to_string(), r.get(1).as_int().unwrap()))
            .collect();
        let mut want: Vec<(String, i64)> = central_rs
            .rows
            .iter()
            .map(|r| (r.get(0).to_string(), r.get(1).as_int().unwrap()))
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{engine:?}");
        // Every engine's trace is replayable on the simulator.
        let sim = Cluster::new(ResourceConfig::default());
        assert!(sim.single_query_latency(&out.trace).as_micros() > 0);
    }

    // --- ETL: a business syncs from its production system --------
    let id = net.peer_ids()[1];
    let mut production = Database::new();
    production
        .create_table(
            bestpeer::common::TableSchema::new(
                "erp_suppliers",
                vec![
                    bestpeer::common::ColumnDef::new("sid", bestpeer::common::ColumnType::Int),
                    bestpeer::common::ColumnDef::new("sname", bestpeer::common::ColumnType::Str),
                    bestpeer::common::ColumnDef::new("country", bestpeer::common::ColumnType::Int),
                    bestpeer::common::ColumnDef::new(
                        "balance",
                        bestpeer::common::ColumnType::Float,
                    ),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    production
        .insert(
            "erp_suppliers",
            Row::new(vec![
                Value::Int(900_000_001),
                Value::str("Fresh Supplier"),
                Value::Int(3),
                Value::Float(12.5),
            ]),
        )
        .unwrap();
    let mapping = SchemaMapping::new().with_table(
        TableMap::new("erp_suppliers", "supplier")
            .column("sid", "s_suppkey")
            .column("sname", "s_name")
            .column("country", "s_nationkey")
            .column("balance", "s_acctbal"),
    );
    let report = net
        .refresh_from_production(id, &production, mapping.clone())
        .unwrap();
    assert_eq!(report.inserts, 1);
    // Second refresh with an update: only the delta applies.
    production
        .table_mut("erp_suppliers")
        .unwrap()
        .delete_by_key(&[Value::Int(900_000_001)])
        .unwrap();
    production
        .insert(
            "erp_suppliers",
            Row::new(vec![
                Value::Int(900_000_001),
                Value::str("Fresh Supplier"),
                Value::Int(3),
                Value::Float(99.0),
            ]),
        )
        .unwrap();
    let report = net
        .refresh_from_production(id, &production, mapping)
        .unwrap();
    assert_eq!((report.inserts, report.deletes), (1, 1));
    let out = net
        .submit_query(
            submitter,
            "SELECT s_acctbal FROM supplier WHERE s_suppkey = 900000001",
            "analyst",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Float(99.0));

    // --- fail-over under Algorithm 1 ------------------------------
    // Crash a data peer mid-life (process down, heartbeats stop, BATON
    // node failed) and wipe its disk. A single submit_query rides the
    // retry loop: backoff epochs let the heartbeat detector reach its
    // miss threshold, Algorithm 1 fails the peer over from the latest
    // cloud backup, and the re-attempt returns the full answer.
    net.backup_all().unwrap();
    let victim = net.peer_ids()[2];
    net.crash_data_peer(victim).unwrap();
    net.peer_mut(victim).unwrap().db = Database::new();
    let out = net
        .submit_query(
            submitter,
            "SELECT COUNT(*) FROM lineitem",
            "analyst",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Int(4 * 1_500));
    assert!(out.attempts >= 2, "the first attempt hit the crashed peer");
    assert!(
        net.bootstrap
            .events()
            .iter()
            .any(|e| matches!(e, bestpeer::core::bootstrap::MaintenanceEvent::FailOver { peer, .. } if *peer == victim)),
        "the failure detector declared the victim dead and failed it over"
    );

    // --- departure + billing --------------------------------------
    let leaver = net.peer_ids()[3];
    net.leave(leaver).unwrap();
    net.maintenance_tick().unwrap(); // reclaims the blacklisted instance
    assert_eq!(net.bootstrap.peer_count(), 3);
    let out = net
        .submit_query(
            submitter,
            "SELECT COUNT(*) FROM lineitem",
            "analyst",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    assert_eq!(out.result.rows[0].get(0), &Value::Int(3 * 1_500));

    net.cloud.advance_clock(3_600_000_000);
    assert!(net.cloud.bill_cents() > 0, "pay-as-you-go meters ran");
    let instance = net.bootstrap.record(submitter).unwrap().instance;
    assert!(net.cloud.state(instance).is_ok());
}

#[test]
fn timestamp_semantics_across_engines() {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(analyst_role());
    for node in 0..2u64 {
        let id = net.join(&format!("c{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(800)).generate();
        net.load_peer(id, data, 3).unwrap();
    }
    let submitter = net.peer_ids()[0];
    assert_eq!(net.consistent_timestamp(), 3);
    for engine in [
        EngineChoice::Basic,
        EngineChoice::ParallelP2P,
        EngineChoice::MapReduce,
    ] {
        // At the consistent timestamp: fine. Beyond it: rejected.
        assert!(net
            .submit_query(
                submitter,
                "SELECT COUNT(*) FROM orders",
                "analyst",
                engine,
                3
            )
            .is_ok());
        let err = net
            .submit_query(
                submitter,
                "SELECT COUNT(*) FROM orders",
                "analyst",
                engine,
                4,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "stale-snapshot", "{engine:?}");
    }
}
