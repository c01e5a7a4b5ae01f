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
    fn run_local(&mut self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>> {
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
    let mut src = source(workers);
    let peers = src.peers();
    let engine = MapReduceEngine::new(peers.clone(), MrConfig::default());
    let mut hdfs = Hdfs::new(peers, 3);
    let (rs, trace) = compile_and_run(sql, &mut src, &engine, &mut hdfs).unwrap();
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

#[test]
fn null_foreign_keys_join_nothing() {
    // An employee without a department and a department without an id:
    // NULL = NULL is not true, so neither joins.
    let mut src = source(2);
    let db = &mut src.0[0].1;
    db.insert(
        "emp",
        Row::new(vec![Value::Int(999), Value::Null, Value::Int(5000)]),
    )
    .unwrap();
    db.insert("dept", Row::new(vec![Value::Null, Value::str("void")]))
        .unwrap();
    let peers = src.peers();
    let engine = MapReduceEngine::new(peers.clone(), MrConfig::default());
    let mut hdfs = Hdfs::new(peers, 3);
    let sql = "SELECT eid, dname FROM emp, dept WHERE dept = did";
    let (rs, _) = compile_and_run(sql, &mut src, &engine, &mut hdfs).unwrap();
    assert_eq!(rs.rows.len(), 12, "six employees per worker");
    assert!(rs.rows.iter().all(|r| r.get(0) != &Value::Int(999)));
    assert!(rs.rows.iter().all(|r| r.get(1) != &Value::str("void")));
}

/// Each phase's label and its summed disk, CPU and sent bytes.
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

/// Pins the SMS pipeline's cost trace and row order, one query per
/// compiled shape: every phase's summed disk, CPU and sent bytes, and
/// the result digest (no ORDER BY, so the digest sees reducer order).
#[test]
fn charged_bytes_and_row_order_are_pinned_per_compiled_shape() {
    type Phases = &'static [(&'static str, u64, u64, u64)];
    let cases: [(&str, Phases, u64); 4] = [
        (
            "SELECT eid, salary FROM emp WHERE salary > 1200",
            &[("select:map", 432, 408, 384)],
            0x500f07ef81104c38,
        ),
        (
            "SELECT dept, SUM(salary) AS s, COUNT(*) AS n FROM emp GROUP BY dept",
            &[
                ("aggregate:map", 432, 561, 288),
                ("aggregate:reduce", 99, 675, 198),
            ],
            0x7b91a80421441d7d,
        ),
        (
            "SELECT eid, dname, salary FROM emp, dept WHERE dept = did",
            &[
                ("join0:map", 476, 1603, 812),
                ("join0:reduce", 510, 2134, 1020),
            ],
            0x53b8902c7776988a,
        ),
        (
            "SELECT dname, COUNT(*) AS n, SUM(salary) AS s FROM emp, dept \
             WHERE dept = did GROUP BY dname",
            &[
                ("join0:map", 476, 1297, 668),
                ("join0:reduce", 672, 2008, 1344),
                ("final-agg:map", 672, 1344, 672),
                ("final-agg:reduce", 95, 1439, 190),
            ],
            0x792602515d5bbb85,
        ),
    ];
    for (sql, phases, digest) in cases {
        let mut src = source(3);
        let peers = src.peers();
        let engine = MapReduceEngine::new(peers.clone(), MrConfig::default());
        let mut hdfs = Hdfs::new(peers, 3);
        let (rs, trace) = compile_and_run(sql, &mut src, &engine, &mut hdfs).unwrap();
        let want: Vec<(String, u64, u64, u64)> = phases
            .iter()
            .map(|&(l, d, c, s)| (l.to_string(), d, c, s))
            .collect();
        assert_eq!(phase_bytes(&trace), want, "{sql}");
        assert_eq!(rs.digest(), digest, "{sql}: {:#018x}", rs.digest());
    }
}
