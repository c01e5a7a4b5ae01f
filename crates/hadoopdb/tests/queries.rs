//! End-to-end correctness of the SMS planner: every benchmark query run
//! through the MapReduce pipeline must return exactly what a single
//! centralized database returns over the union of all worker partitions.

use bestpeer_hadoopdb::HadoopDb;
use bestpeer_mapreduce::MrConfig;
use bestpeer_sql::{execute_select, parse_select};
use bestpeer_storage::Database;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{schema, Q1, Q2, Q3, Q4, Q5};

/// Build an n-worker cluster with TPC-H partitions, plus the matching
/// centralized database holding the union of all partitions.
fn setup(n: usize, rows_per_node: usize) -> (HadoopDb, Database) {
    let mut cluster = HadoopDb::new(n, MrConfig::default(), 3);
    for s in schema::all_tables() {
        cluster.create_table_everywhere(&s).unwrap();
    }
    let mut central = Database::new();
    for s in schema::all_tables() {
        central.create_table(s).unwrap();
    }
    for node in 0..n {
        let cfg = TpchConfig::tiny(node as u64).with_rows(rows_per_node);
        let data = DbGen::new(cfg).generate();
        for (table, rows) in &data {
            // nation/region are reference tables replicated on every
            // node — load them centrally only once.
            if (table == "nation" || table == "region") && node > 0 {
                continue;
            }
            central.bulk_insert(table, rows.clone()).unwrap();
        }
        for (table, rows) in data {
            cluster.load_worker(node, &table, rows).unwrap();
        }
    }
    for (t, c) in schema::secondary_indices() {
        cluster.create_index_everywhere(t, c).unwrap();
    }
    (cluster, central)
}

/// Row equality with a relative tolerance on floats: distributed
/// summation orders differ from centralized ones, so float aggregates
/// may differ in the last few ULPs.
fn rows_approx_eq(a: &[bestpeer_common::Row], b: &[bestpeer_common::Row]) -> bool {
    use bestpeer_common::Value;
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

fn check_query(name: &str, sql: &str, cluster: &mut HadoopDb, central: &Database) {
    let (mut dist, trace) = cluster.execute(sql).unwrap();
    let stmt = parse_select(sql).unwrap();
    let (mut cent, _) = execute_select(&stmt, central).unwrap();
    dist.rows.sort();
    cent.rows.sort();
    assert_eq!(dist.columns, cent.columns, "{name}: column names");
    assert!(
        rows_approx_eq(&dist.rows, &cent.rows),
        "{name}: rows differ\n dist: {:?}\n cent: {:?}",
        &dist.rows[..dist.rows.len().min(3)],
        &cent.rows[..cent.rows.len().min(3)],
    );
    assert!(!trace.phases.is_empty(), "{name}: trace must be recorded");
}

#[test]
fn q1_selection_matches_centralized() {
    let (mut cluster, central) = setup(3, 2_000);
    check_query("Q1", Q1, &mut cluster, &central);
    // Q1 compiles to a single map-only job: exactly one phase.
    let (_, trace) = cluster.execute(Q1).unwrap();
    assert_eq!(trace.phases.len(), 1);
}

#[test]
fn q2_aggregation_matches_centralized() {
    let (mut cluster, central) = setup(3, 2_000);
    check_query("Q2", Q2, &mut cluster, &central);
    // One job: map + reduce.
    let (_, trace) = cluster.execute(Q2).unwrap();
    assert_eq!(trace.phases.len(), 2);
}

#[test]
fn q3_join_matches_centralized() {
    let (mut cluster, central) = setup(3, 2_000);
    check_query("Q3", Q3, &mut cluster, &central);
    // One repartition-join job.
    let (_, trace) = cluster.execute(Q3).unwrap();
    assert_eq!(trace.phases.len(), 2);
}

#[test]
fn q4_join_aggregate_matches_centralized() {
    let (mut cluster, central) = setup(3, 2_000);
    check_query("Q4", Q4, &mut cluster, &central);
    // Two jobs (paper §6.1.9): join job + aggregation job.
    let (_, trace) = cluster.execute(Q4).unwrap();
    assert_eq!(trace.phases.len(), 4);
}

#[test]
fn q5_multijoin_matches_centralized() {
    let (mut cluster, central) = setup(3, 2_000);
    check_query("Q5", Q5, &mut cluster, &central);
    // Four jobs (paper §6.1.10): three joins + final aggregation.
    let (_, trace) = cluster.execute(Q5).unwrap();
    assert_eq!(trace.phases.len(), 8);
}

#[test]
fn startup_cost_appears_in_every_job() {
    let (mut cluster, _) = setup(2, 1_000);
    let (_, trace) = cluster.execute(Q5).unwrap();
    // Every map phase charges the ~12 s Hadoop start-up on its tasks.
    let startup = bestpeer_simnet::SimTime::from_secs(12);
    let map_phases = trace
        .phases
        .iter()
        .filter(|p| p.label.contains(":map"))
        .count();
    assert_eq!(map_phases, 4);
    for p in trace.phases.iter().filter(|p| p.label.contains(":map")) {
        assert!(
            p.tasks.iter().all(|t| t.fixed >= startup),
            "phase {}",
            p.label
        );
    }
}

#[test]
fn order_by_and_limit_apply_at_coordinator() {
    let (mut cluster, central) = setup(2, 1_000);
    let sql = "SELECT l_orderkey, l_quantity FROM lineitem \
               WHERE l_quantity >= 49 ORDER BY l_orderkey DESC LIMIT 5";
    let (dist, _) = cluster.execute(sql).unwrap();
    let stmt = parse_select(sql).unwrap();
    let (cent, _) = execute_select(&stmt, &central).unwrap();
    assert_eq!(dist.rows.len(), cent.rows.len());
    assert!(dist.rows.len() <= 5);
    // Same key ordering (ties may differ in payload order).
    let dk: Vec<_> = dist.rows.iter().map(|r| r.get(0).clone()).collect();
    let ck: Vec<_> = cent.rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(dk, ck);
}

/// An ORDER BY key the query does not project still orders the answer:
/// it rides along as a hidden column until ORDER BY and LIMIT have run.
#[test]
fn order_by_an_unprojected_column_matches_centralized_order() {
    let (mut cluster, central) = setup(3, 400);
    for sql in [
        "SELECT l_orderkey, l_linenumber FROM lineitem \
         ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 5",
        "SELECT l_orderkey, l_linenumber FROM lineitem, orders WHERE l_orderkey = o_orderkey \
         ORDER BY o_totalprice DESC, l_orderkey, l_linenumber LIMIT 5",
    ] {
        let (dist, _) = cluster.execute(sql).unwrap();
        let (cent, _) = execute_select(&parse_select(sql).unwrap(), &central).unwrap();
        assert_eq!(dist, cent, "{sql}");
    }
}

#[test]
fn ill_typed_join_aggregate_is_an_error() {
    // The reducer's SUM over a string column fails the job, and so the
    // query — it must not come back as one NULL row.
    let (mut cluster, _) = setup(3, 400);
    let err = cluster
        .execute(
            "SELECT SUM(o_orderstatus) AS s FROM lineitem, orders WHERE l_orderkey = o_orderkey",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "type", "{err}");
}
