//! Integration tests of the SQL→MapReduce compiler against a synthetic
//! LocalSource, independent of the HadoopDB system crate.

use bestpeer_common::{ColumnDef, ColumnType, PeerId, Result, Row, TableSchema, Value};
use bestpeer_mapreduce::sqlcompile::{compile_and_run, LocalSource};
use bestpeer_mapreduce::{Hdfs, MapReduceEngine, MrConfig};
use bestpeer_sql::exec::{execute_select, ResultSet};
use bestpeer_sql::SelectStmt;
use bestpeer_storage::Database;

struct Dbs(Vec<(PeerId, Database)>);

impl LocalSource for Dbs {
    fn peers(&self) -> Vec<PeerId> {
        self.0.iter().map(|(p, _)| *p).collect()
    }
    fn run_local(&self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>> {
        peers
            .iter()
            .map(|&peer| {
                let db = &self.0.iter().find(|(p, _)| *p == peer).unwrap().1;
                let (rs, stats) = execute_select(stmt, db)?;
                Ok((rs, stats.bytes_scanned))
            })
            .collect()
    }
    fn table_schema(&self, table: &str) -> Result<TableSchema> {
        Ok(self.0[0].1.table(table)?.schema().clone())
    }
}

fn schema_emp() -> TableSchema {
    TableSchema::new(
        "emp",
        vec![
            ColumnDef::new("eid", ColumnType::Int),
            ColumnDef::new("dept", ColumnType::Int),
            ColumnDef::new("salary", ColumnType::Int),
        ],
        vec![0],
    )
    .unwrap()
}

fn schema_dept() -> TableSchema {
    TableSchema::new(
        "dept",
        vec![
            ColumnDef::new("did", ColumnType::Int),
            ColumnDef::new("dname", ColumnType::Str),
        ],
        vec![0],
    )
    .unwrap()
}

fn source(workers: usize) -> Dbs {
    let mut out = Vec::new();
    for w in 0..workers {
        let mut db = Database::new();
        db.create_table(schema_emp()).unwrap();
        db.create_table(schema_dept()).unwrap();
        for i in 0..6i64 {
            let eid = (w as i64) * 100 + i;
            db.insert(
                "emp",
                Row::new(vec![
                    Value::Int(eid),
                    Value::Int(i % 3),
                    Value::Int(1000 + i * 100),
                ]),
            )
            .unwrap();
        }
        if w == 0 {
            for (d, n) in [(0, "eng"), (1, "ops"), (2, "hr")] {
                db.insert("dept", Row::new(vec![Value::Int(d), Value::str(n)]))
                    .unwrap();
            }
        }
        out.push((PeerId::new(w as u64), db));
    }
    Dbs(out)
}

fn run(sql: &str, workers: usize) -> ResultSet {
    let src = source(workers);
    let peers = src.peers();
    let engine = MapReduceEngine::new(peers.clone(), MrConfig::default());
    let mut hdfs = Hdfs::new(peers, 3);
    let (rs, trace) = compile_and_run(sql, &src, &engine, &mut hdfs).unwrap();
    assert!(!trace.phases.is_empty());
    rs
}

#[test]
fn join_with_dimension_table_on_one_worker() {
    // The dimension table lives on a single worker: the repartition
    // join must still pair every fact row.
    let mut rs = run(
        "SELECT dname, COUNT(*) AS n FROM emp, dept WHERE dept = did GROUP BY dname",
        3,
    );
    rs.rows.sort();
    let got: Vec<(String, i64)> = rs
        .rows
        .iter()
        .map(|r| (r.get(0).to_string(), r.get(1).as_int().unwrap()))
        .collect();
    assert_eq!(
        got,
        vec![("eng".into(), 6), ("hr".into(), 6), ("ops".into(), 6)]
    );
}

#[test]
fn selective_join_with_residual_arithmetic() {
    let rs = run(
        "SELECT eid FROM emp, dept WHERE dept = did AND salary + did > 1500",
        2,
    );
    // salary+did > 1500 ⇔ 1000+100i+(i%3) > 1500 ⇔ i >= 5.
    assert_eq!(rs.rows.len(), 2, "one per worker");
}

#[test]
fn empty_join_global_aggregate_returns_count_zero() {
    let rs = run(
        "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp, dept WHERE dept = did AND salary > 99999",
        2,
    );
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0].get(0), &Value::Int(0));
    assert!(rs.rows[0].get(1).is_null());
}

#[test]
fn single_worker_cluster_works() {
    let rs = run("SELECT AVG(salary) AS a FROM emp", 1);
    assert_eq!(rs.rows[0].get(0), &Value::Float(1250.0));
}

#[test]
fn projection_order_is_preserved_through_the_pipeline() {
    let rs = run(
        "SELECT dname, did, COUNT(*) AS n FROM emp, dept WHERE dept = did GROUP BY dname, did",
        2,
    );
    assert_eq!(rs.columns, vec!["dname", "did", "n"]);
    assert_eq!(rs.rows.len(), 3);
    for r in &rs.rows {
        assert!(matches!(r.get(0), Value::Str(_)));
        assert!(matches!(r.get(1), Value::Int(_)));
    }
}
