//! Randomized distributed-query fuzzing: generate conjunctive
//! selections, joins (with cross-table residuals, a four-table chain
//! and a cross join), and global and grouped aggregates over the TPC-H
//! schema and assert that the Basic, ParallelP2P, MapReduce and
//! Adaptive engines return exactly what a centralized database returns
//! over the union of all partitions.

use bestpeer::common::rng::Rng;
use bestpeer::common::{Row, Value};
use bestpeer::core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::core::{AccessRule, Role};
use bestpeer::sql::{execute_select, parse_select};
use bestpeer::storage::Database;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

fn analyst() -> Role {
    let mut role = Role::new("analyst");
    for t in schema::all_tables() {
        for c in &t.columns {
            role = role.plus(AccessRule::read(&t.name, &c.name));
        }
    }
    role
}

fn setup(n: usize, rows: usize) -> (BestPeerNetwork, Database) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(analyst());
    let mut central = Database::new();
    for s in schema::all_tables() {
        central.create_table(s).unwrap();
    }
    for node in 0..n {
        let id = net.join(&format!("b{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node as u64).with_rows(rows)).generate();
        for (t, rs) in &data {
            if (t == "nation" || t == "region") && node > 0 {
                continue;
            }
            central.bulk_insert(t, rs.clone()).unwrap();
        }
        net.load_peer(id, data, 1).unwrap();
    }
    (net, central)
}

/// Generate a random query over the TPC-H schema: a random table set
/// from a known-joinable pool, random numeric/date predicates, and a
/// random projection or aggregate.
fn random_query(rng: &mut Rng) -> String {
    // (tables, join predicate chain) templates; predicates are sampled
    // per numeric column.
    let templates: &[(&[&str], &str)] = &[
        (&["lineitem"], ""),
        (&["orders"], ""),
        (&["partsupp"], ""),
        (&["lineitem", "orders"], "l_orderkey = o_orderkey"),
        (&["orders", "customer"], "o_custkey = c_custkey"),
        (&["partsupp", "part"], "ps_partkey = p_partkey"),
        (&["partsupp", "supplier"], "ps_suppkey = s_suppkey"),
        (
            &["lineitem", "orders", "customer"],
            "l_orderkey = o_orderkey AND o_custkey = c_custkey",
        ),
        // A cross-table residual beside the equi-join.
        (
            &["lineitem", "orders"],
            "l_orderkey = o_orderkey AND l_partkey > o_custkey",
        ),
        // Q5's chain: three joins over four tables.
        (
            &["customer", "orders", "lineitem", "supplier"],
            "c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey",
        ),
        // A cross join of two filtered tables.
        (
            &["supplier", "customer"],
            "s_nationkey < 8 AND c_nationkey < 4",
        ),
    ];
    let (tables, join) = templates[rng.random_range(0..templates.len())];
    let numeric_cols: &[(&str, &str, i64, i64)] = &[
        ("lineitem", "l_quantity", 1, 50),
        ("lineitem", "l_partkey", 1, 300),
        ("orders", "o_custkey", 1, 400),
        ("customer", "c_nationkey", 0, 24),
        ("partsupp", "ps_availqty", 1, 9999),
        ("part", "p_size", 1, 50),
        ("supplier", "s_nationkey", 0, 24),
    ];
    let mut preds: Vec<String> = if join.is_empty() {
        Vec::new()
    } else {
        vec![join.to_owned()]
    };
    for (t, c, lo, hi) in numeric_cols {
        if tables.contains(t) && rng.random_range(0..3) == 0 {
            let op = ["<", "<=", ">", ">=", "<>"][rng.random_range(0..5usize)];
            let v = rng.random_range(*lo..=*hi);
            preds.push(format!("{c} {op} {v}"));
        }
    }
    let first_cols: &[(&str, &str)] = &[
        ("lineitem", "l_orderkey"),
        ("orders", "o_orderkey"),
        ("customer", "c_custkey"),
        ("partsupp", "ps_partkey"),
        ("part", "p_partkey"),
        ("supplier", "s_suppkey"),
    ];
    let key_col = first_cols.iter().find(|(t, _)| *t == tables[0]).unwrap().1;
    // A low-cardinality grouping column of the last table.
    let group_cols: &[(&str, &str)] = &[
        ("lineitem", "l_linenumber"),
        ("orders", "o_orderstatus"),
        ("customer", "c_mktsegment"),
        ("partsupp", "ps_suppkey"),
        ("part", "p_size"),
        ("supplier", "s_nationkey"),
    ];
    let last = tables[tables.len() - 1];
    let group_col = group_cols.iter().find(|(t, _)| *t == last).unwrap().1;
    let (select, group) = match rng.random_range(0..4) {
        0 => (format!("SELECT {key_col}"), String::new()),
        1 => ("SELECT COUNT(*) AS n".to_owned(), String::new()),
        2 => (
            format!("SELECT COUNT(*) AS n, MIN({key_col}) AS lo, MAX({key_col}) AS hi"),
            String::new(),
        ),
        _ => (
            format!("SELECT {group_col}, COUNT(*) AS n, MAX({key_col}) AS hi"),
            format!(" GROUP BY {group_col}"),
        ),
    };
    let mut sql = format!("{select} FROM {}", tables.join(", "));
    if !preds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&preds.join(" AND "));
    }
    sql.push_str(&group);
    sql
}

fn rows_approx_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.values()
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

#[test]
fn random_queries_agree_with_centralized_execution() {
    let (mut net, central) = setup(3, 1_200);
    let submitter = net.peer_ids()[0];
    let mut rng = Rng::seed_from_u64(20260707);
    let mut nonempty = 0;
    for i in 0..60 {
        let sql = random_query(&mut rng);
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("#{i} {sql}: {e}"));
        let (mut want, _) = execute_select(&stmt, &central).unwrap();
        want.rows.sort();
        if !want.rows.is_empty() {
            nonempty += 1;
        }
        for engine in [
            EngineChoice::Basic,
            EngineChoice::ParallelP2P,
            EngineChoice::MapReduce,
            EngineChoice::Adaptive,
        ] {
            let out = net
                .submit_query(submitter, &sql, "analyst", engine, 0)
                .unwrap_or_else(|e| panic!("#{i} {engine:?} {sql}: {e}"));
            let mut got = out.result.rows.clone();
            got.sort();
            assert!(
                rows_approx_eq(&got, &want.rows),
                "#{i} {engine:?} mismatch on {sql}: {} vs {} rows",
                got.len(),
                want.rows.len()
            );
        }
    }
    assert!(
        nonempty > 20,
        "fuzzer should produce mostly non-trivial queries"
    );
}
