//! Operators run on their caller's thread: the pool's workers serve
//! peers and the submitter's join stage, never one operator's input.
//!
//! This file holds one test, so the pool counters of its process see
//! only that test's work.

use bestpeer_common::{pool, ColumnDef, ColumnType, Row, TableSchema, Value};
use bestpeer_sql::{apply_order_limit, execute_select, parse_select, ResultSet};
use bestpeer_storage::Database;

fn table(db: &mut Database, name: &str, cols: &[&str], rows: Vec<Row>) {
    let cols = cols
        .iter()
        .map(|c| ColumnDef::new(*c, ColumnType::Int))
        .collect();
    db.create_table(TableSchema::new(name, cols, vec![]).unwrap())
        .unwrap();
    db.bulk_insert(name, rows).unwrap();
}

fn ints(vals: &[i64]) -> Row {
    Row::new(vals.iter().map(|v| Value::Int(*v)).collect())
}

#[test]
fn operators_start_no_pool_workers_at_four_threads() {
    let mut db = Database::new();
    let facts = (0..12_000).map(|i| ints(&[i % 9_000, i % 50, i % 97]));
    table(&mut db, "f", &["fk", "g", "v"], facts.collect());
    let dims = (0..9_000).map(|i| ints(&[i, i % 7]));
    table(&mut db, "d", &["dk", "w"], dims.collect());

    pool::set_threads(4);
    pool::drain_counters();
    // Scan, join, residual filter, GROUP BY and a top-K over the groups;
    // then a top-K over every fact row.
    let grouped = parse_select(
        "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM f, d \
         WHERE fk = dk AND v > 3 AND v + w > 10 GROUP BY g ORDER BY s DESC, g LIMIT 5",
    )
    .unwrap();
    let (rs, stats) = execute_select(&grouped, &db).unwrap();
    assert_eq!(rs.len(), 5);
    assert_eq!(stats.rows_scanned, 21_000);
    let top = parse_select("SELECT fk, v FROM f ORDER BY v DESC, fk LIMIT 7").unwrap();
    let (rs, stats) = execute_select(&top, &db).unwrap();
    assert_eq!(rs.len(), 7);
    assert_eq!(stats.topk_short_circuits, 1);

    let mut assembled = ResultSet {
        columns: vec!["a".into(), "b".into()],
        rows: (0..9_000).map(|i| ints(&[i % 13, i])).collect(),
    };
    let stmt = parse_select("SELECT a, b FROM t ORDER BY a DESC, b LIMIT 10").unwrap();
    assert!(apply_order_limit(&stmt, &mut assembled));
    assert_eq!(assembled.rows[0], ints(&[12, 12]));

    let (tasks, _) = pool::drain_counters();
    pool::clear_threads();
    assert_eq!(tasks, 0, "an operator fanned out on the pool");
}
