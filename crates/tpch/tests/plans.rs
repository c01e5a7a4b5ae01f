//! The physical plans of the benchmark statements, pinned.
//!
//! Join order, access paths and `Prune` sets never change an answer, so
//! no digest test notices when they drift. These goldens pin
//! `explain_physical` without statistics for Q1–Q5 and one supplier and
//! one retailer template, over a fixed tiny TPC-H database with and
//! without the secondary indices of paper Table 4.

use bestpeer_sql::{explain_physical, parse_select, NoStats};
use bestpeer_storage::Database;
use bestpeer_tpch::dbgen::load_into;
use bestpeer_tpch::{queries, schema, DbGen, TpchConfig};

fn db(with_indices: bool) -> Database {
    let mut db = Database::new();
    let data = DbGen::new(TpchConfig::tiny(0).with_rows(1200)).generate();
    load_into(&mut db, &schema::all_tables(), data, with_indices).unwrap();
    db
}

/// Each statement's EXPLAIN text without and with the Table-4 indices.
fn pinned() -> Vec<(&'static str, String, &'static str, &'static str)> {
    vec![
        (
            "Q1",
            queries::Q1.to_string(),
            r#"Project [l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice]
  SeqScan lineitem [l_shipdate > DATE '1998-11-05' AND l_commitdate > DATE '1998-10-01'] (~133 of 1200 rows)"#,
            r#"Project [l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice]
  IndexScan lineitem.l_shipdate [l_shipdate > DATE '1998-11-05'] residual [l_commitdate > DATE '1998-10-01'] (~4 of 1200 rows)"#,
        ),
        (
            "Q2",
            queries::Q2.to_string(),
            r#"Project [revenue]
  Aggregate group=[] aggs=[SUM((l_extendedprice * (1 - l_discount)))]
    SeqScan lineitem [l_shipdate > DATE '1998-09-01'] (~400 of 1200 rows)"#,
            r#"Project [revenue]
  Aggregate group=[] aggs=[SUM((l_extendedprice * (1 - l_discount)))]
    IndexScan lineitem.l_shipdate [l_shipdate > DATE '1998-09-01'] (~36 of 1200 rows)"#,
        ),
        (
            "Q3",
            queries::Q3.to_string(),
            r#"Project [l_orderkey, o_orderdate, l_quantity, l_extendedprice]
  HashJoin on o_orderkey = l_orderkey
    Prune [o_orderkey, o_orderdate]
      SeqScan orders [o_orderdate > DATE '1998-06-01'] (~100 of 300 rows)
    Prune [l_orderkey, l_quantity, l_extendedprice]
      SeqScan lineitem (~1200 of 1200 rows)"#,
            r#"Project [l_orderkey, o_orderdate, l_quantity, l_extendedprice]
  HashJoin on o_orderkey = l_orderkey
    Prune [o_orderkey, o_orderdate]
      IndexScan orders.o_orderdate [o_orderdate > DATE '1998-06-01'] (~7 of 300 rows)
    Prune [l_orderkey, l_quantity, l_extendedprice]
      SeqScan lineitem (~1200 of 1200 rows)"#,
        ),
        (
            "Q4",
            queries::Q4.to_string(),
            r#"Project [p_type, total_cost, parts]
  Aggregate group=[p_type] aggs=[SUM((ps_supplycost * ps_availqty)), COUNT(*)]
    HashJoin on p_partkey = ps_partkey
      Prune [p_partkey, p_type]
        SeqScan part [p_size < 10] (~13 of 40 rows)
      Prune [ps_partkey, ps_availqty, ps_supplycost]
        SeqScan partsupp (~80 of 80 rows)"#,
            r#"Project [p_type, total_cost, parts]
  Aggregate group=[p_type] aggs=[SUM((ps_supplycost * ps_availqty)), COUNT(*)]
    HashJoin on p_partkey = ps_partkey
      Prune [p_partkey, p_type]
        IndexScan part.p_size [p_size < 10] (~7 of 40 rows)
      Prune [ps_partkey, ps_availqty, ps_supplycost]
        SeqScan partsupp (~80 of 80 rows)"#,
        ),
        (
            "Q5",
            queries::Q5.to_string(),
            r#"Project [c_mktsegment, revenue, items]
  Aggregate group=[c_mktsegment] aggs=[SUM((l_extendedprice * (1 - l_discount))), COUNT(*)]
    HashJoin on o_custkey = c_custkey
      HashJoin on l_orderkey = o_orderkey
        HashJoin on s_suppkey = l_suppkey
          Prune [s_suppkey]
            SeqScan supplier (~2 of 2 rows)
          Prune [l_orderkey, l_suppkey, l_extendedprice, l_discount]
            SeqScan lineitem (~1200 of 1200 rows)
        Prune [o_orderkey, o_custkey]
          SeqScan orders [o_orderdate > DATE '1996-01-01'] (~100 of 300 rows)
      Prune [c_custkey, c_mktsegment]
        SeqScan customer (~30 of 30 rows)"#,
            r#"Project [c_mktsegment, revenue, items]
  Aggregate group=[c_mktsegment] aggs=[SUM((l_extendedprice * (1 - l_discount))), COUNT(*)]
    HashJoin on o_custkey = c_custkey
      HashJoin on l_orderkey = o_orderkey
        HashJoin on s_suppkey = l_suppkey
          Prune [s_suppkey]
            SeqScan supplier (~2 of 2 rows)
          Prune [l_orderkey, l_suppkey, l_extendedprice, l_discount]
            SeqScan lineitem (~1200 of 1200 rows)
        Prune [o_orderkey, o_custkey]
          SeqScan orders [o_orderdate > DATE '1996-01-01'] (~100 of 300 rows)
      Prune [c_custkey, c_mktsegment]
        SeqScan customer (~30 of 30 rows)"#,
        ),
        (
            "supplier",
            queries::supplier_query(7),
            r#"Project [s_suppkey, s_name, ps_availqty, ps_supplycost]
  HashJoin on s_suppkey = ps_suppkey
    Prune [s_suppkey, s_name]
      SeqScan supplier [s_nationkey = 7] (~0 of 2 rows)
    Prune [ps_suppkey, ps_availqty, ps_supplycost]
      SeqScan partsupp [ps_availqty < 500 AND ps_nationkey = 7] (~3 of 80 rows)"#,
            r#"Project [s_suppkey, s_name, ps_availqty, ps_supplycost]
  HashJoin on s_suppkey = ps_suppkey
    Prune [s_suppkey, s_name]
      SeqScan supplier [s_nationkey = 7] (~0 of 2 rows)
    Prune [ps_suppkey, ps_availqty, ps_supplycost]
      IndexScan partsupp.ps_availqty [ps_availqty < 500] residual [ps_nationkey = 7] (~4 of 80 rows)"#,
        ),
        (
            "retailer",
            queries::retailer_query(7),
            r#"Project [c_custkey, revenue]
  Aggregate group=[c_custkey] aggs=[SUM((l_extendedprice * (1 - l_discount)))]
    HashJoin on o_orderkey = l_orderkey
      HashJoin on c_custkey = o_custkey
        Prune [c_custkey]
          SeqScan customer [c_nationkey = 7] (~3 of 30 rows)
        Prune [o_orderkey, o_custkey]
          SeqScan orders [o_nationkey = 7] (~30 of 300 rows)
      Prune [l_orderkey, l_extendedprice, l_discount]
        SeqScan lineitem [l_nationkey = 7] (~120 of 1200 rows)"#,
            r#"Project [c_custkey, revenue]
  Aggregate group=[c_custkey] aggs=[SUM((l_extendedprice * (1 - l_discount)))]
    HashJoin on o_orderkey = l_orderkey
      HashJoin on c_custkey = o_custkey
        Prune [c_custkey]
          SeqScan customer [c_nationkey = 7] (~3 of 30 rows)
        Prune [o_orderkey, o_custkey]
          SeqScan orders [o_nationkey = 7] (~30 of 300 rows)
      Prune [l_orderkey, l_extendedprice, l_discount]
        SeqScan lineitem [l_nationkey = 7] (~120 of 1200 rows)"#,
        ),
    ]
}

fn assert_plans(with_indices: bool) {
    let db = db(with_indices);
    for (name, sql, without, with) in pinned() {
        let stmt = parse_select(&sql).unwrap();
        let text = explain_physical(&stmt, &db, &NoStats).unwrap();
        let want = if with_indices { with } else { without };
        assert_eq!(text, want, "{name}, indices: {with_indices}");
    }
}

#[test]
fn benchmark_plans_without_indices_are_pinned() {
    assert_plans(false);
}

#[test]
fn benchmark_plans_with_table4_indices_are_pinned() {
    assert_plans(true);
}
