//! Parser and executor edge cases beyond the unit suites: operator
//! precedence, NULL propagation, and degenerate inputs.

use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema, Value};
use bestpeer_sql::{execute_select, parse_select};
use bestpeer_storage::Database;

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Int),
                ColumnDef::new("s", ColumnType::Str),
            ],
            vec![],
        )
        .unwrap(),
    )
    .unwrap();
    for (a, b, s) in [(1, 10, "x"), (2, 20, "y"), (3, 30, "x"), (4, 40, "z")] {
        db.insert(
            "t",
            Row::new(vec![Value::Int(a), Value::Int(b), Value::str(s)]),
        )
        .unwrap();
    }
    db.insert(
        "t",
        Row::new(vec![Value::Null, Value::Null, Value::str("n")]),
    )
    .unwrap();
    db
}

fn q(sql: &str) -> Vec<Row> {
    let stmt = parse_select(sql).unwrap();
    let (rs, _) = execute_select(&stmt, &db()).unwrap();
    rs.rows
}

#[test]
fn arithmetic_precedence() {
    // * binds tighter than +, / than -.
    let rows = q("SELECT a + b * 2, b / 2 - a FROM t WHERE a = 2");
    assert_eq!(rows[0].get(0), &Value::Int(42));
    assert_eq!(rows[0].get(1).as_f64().unwrap(), 8.0);
}

#[test]
fn and_binds_tighter_than_or() {
    // a=1 OR (a=2 AND b=999) → only a=1.
    let rows = q("SELECT a FROM t WHERE a = 1 OR a = 2 AND b = 999");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(1));
    // Parenthesized: (a=1 OR a=2) AND b=20 → only a=2.
    let rows = q("SELECT a FROM t WHERE (a = 1 OR a = 2) AND b = 20");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(2));
}

#[test]
fn null_never_satisfies_comparisons() {
    assert_eq!(
        q("SELECT a FROM t WHERE b > 0").len(),
        4,
        "NULL row filtered"
    );
    assert_eq!(
        q("SELECT a FROM t WHERE b <> 10").len(),
        3,
        "NULL excluded from <> too"
    );
}

#[test]
fn aggregates_skip_nulls_count_star_does_not() {
    let rows = q("SELECT COUNT(*), COUNT(a), SUM(a), AVG(a) FROM t");
    assert_eq!(rows[0].get(0), &Value::Int(5));
    assert_eq!(rows[0].get(1), &Value::Int(4));
    assert_eq!(rows[0].get(2), &Value::Int(10));
    assert_eq!(rows[0].get(3), &Value::Float(2.5));
}

#[test]
fn group_by_string_with_having_like_filters_via_where() {
    let rows = q("SELECT s, COUNT(*) AS n FROM t WHERE a >= 1 GROUP BY s ORDER BY s");
    let got: Vec<(String, i64)> = rows
        .iter()
        .map(|r| (r.get(0).to_string(), r.get(1).as_int().unwrap()))
        .collect();
    assert_eq!(got, vec![("x".into(), 2), ("y".into(), 1), ("z".into(), 1)]);
}

#[test]
fn division_by_zero_yields_null() {
    let rows = q("SELECT b / (a - a) FROM t WHERE a = 1");
    assert!(rows[0].get(0).is_null());
}

#[test]
fn order_by_with_nulls_first() {
    let rows = q("SELECT a FROM t ORDER BY a");
    assert!(
        rows[0].get(0).is_null(),
        "NULL sorts first in our total order"
    );
    assert_eq!(rows[4].get(0), &Value::Int(4));
}

#[test]
fn limit_zero_and_overlimit() {
    assert!(q("SELECT a FROM t LIMIT 0").is_empty());
    assert_eq!(q("SELECT a FROM t LIMIT 999").len(), 5);
}

#[test]
fn string_comparisons_are_lexicographic() {
    let rows = q("SELECT s FROM t WHERE s >= 'y' ORDER BY s DESC");
    let got: Vec<String> = rows.iter().map(|r| r.get(0).to_string()).collect();
    assert_eq!(got, vec!["z", "y"]);
}

#[test]
fn self_join_is_rejected_cleanly() {
    // Duplicate table in FROM: the catalog resolves both to `t`, making
    // every column ambiguous — a clean plan error, not a panic. (A cross
    // join, so joined rows reach the ambiguous projection.)
    let stmt = parse_select("SELECT a FROM t, t").unwrap();
    let err = execute_select(&stmt, &db()).unwrap_err();
    assert_eq!(err.kind(), "plan");
}

#[test]
fn unknown_column_and_table_errors() {
    let stmt = parse_select("SELECT nope FROM t").unwrap();
    assert_eq!(execute_select(&stmt, &db()).unwrap_err().kind(), "plan");
    let stmt = parse_select("SELECT a FROM missing").unwrap();
    assert_eq!(execute_select(&stmt, &db()).unwrap_err().kind(), "catalog");
}

#[test]
fn aliases_usable_in_order_by_only() {
    let rows = q("SELECT a * 10 AS big FROM t WHERE a >= 3 ORDER BY big DESC");
    assert_eq!(rows[0].get(0), &Value::Int(40));
    assert_eq!(rows[1].get(0), &Value::Int(30));
}

#[test]
fn whitespace_comments_and_semicolons() {
    let rows = q("  SELECT a -- the key\n FROM t \n WHERE a = 1 ; ");
    assert_eq!(rows.len(), 1);
}
