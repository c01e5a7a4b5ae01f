//! Exporting shared data to Hadoop (paper §1).
//!
//! "For infrequent time-consuming analytical tasks, we provide an
//! interface for exporting the data from BestPeer++ to Hadoop and allow
//! users to analyze those data using MapReduce." The export respects
//! access control — what lands in HDFS is exactly what the exporting
//! user's role could read — and each table becomes one HDFS file with
//! one part per contributing peer.

use std::collections::BTreeMap;

use bestpeer_common::{codec, PeerId, Result};
use bestpeer_mapreduce::Hdfs;
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::SelectStmt;

use crate::access::Role;
use crate::peer::NormalPeer;

/// Summary of one export run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportReport {
    /// Per table: rows exported across all peers.
    pub rows_per_table: BTreeMap<String, usize>,
    /// HDFS paths written (`/export/<table>`).
    pub paths: Vec<String>,
    /// The physical cost trace of the export.
    pub trace: Trace,
}

/// The HDFS path a table is exported to.
pub fn export_path(table: &str) -> String {
    format!("/export/{table}")
}

/// Export `tables` from every peer into `hdfs`, applying `role`'s access
/// control at each owner (masked values export as NULL, exactly as a
/// query would see them).
pub fn export_tables(
    peers: &BTreeMap<PeerId, NormalPeer>,
    tables: &[&str],
    role: &Role,
    query_ts: u64,
    hdfs: &mut Hdfs,
) -> Result<ExportReport> {
    let mut report = ExportReport {
        rows_per_table: BTreeMap::new(),
        paths: Vec::new(),
        trace: Trace::new(),
    };
    for table in tables {
        let path = export_path(table);
        hdfs.delete(&path);
        hdfs.create(&path)?;
        let stmt = select_star(table);
        let mut phase = Phase::new(format!("export:{table}"));
        let mut total = 0usize;
        for peer in peers.values() {
            if !peer.db.has_table(table) || peer.db.table(table)?.is_empty() {
                continue;
            }
            let (rs, stats) = peer.serve_subquery(&stmt, role, query_ts)?;
            let bytes = codec::batch_encoded_size(&rs.rows);
            total += rs.rows.len();
            let placement = hdfs.append_part(&path, rs.rows)?;
            let mut task = Task::on(peer.id)
                .disk(stats.bytes_scanned + bytes)
                .cpu(bytes);
            for replica in placement.iter().skip(1) {
                task = task.send(*replica, bytes);
            }
            phase.push(task);
        }
        report.trace.push(phase);
        report.rows_per_table.insert((*table).to_owned(), total);
        report.paths.push(path);
    }
    Ok(report)
}

fn select_star(table: &str) -> SelectStmt {
    SelectStmt {
        projections: Vec::new(), // SELECT *
        from: vec![table.to_owned()],
        predicates: Vec::new(),
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    }
}

/// A convenience for "export then analyze": builds a `SELECT *` per
/// table so callers can hand the HDFS files to
/// [`bestpeer_mapreduce::MapReduceEngine`] jobs via
/// [`bestpeer_mapreduce::JobInput::HdfsFile`].
pub fn exported_input(table: &str) -> bestpeer_mapreduce::JobInput {
    bestpeer_mapreduce::JobInput::HdfsFile(export_path(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessRule;
    use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema, Value};
    use bestpeer_mapreduce::{MapReduceEngine, MapReduceJob, MrConfig};

    fn peers() -> BTreeMap<PeerId, NormalPeer> {
        let schema = TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Int),
            ],
            vec![0],
        )
        .unwrap();
        let mut out = BTreeMap::new();
        for p in 0..3u64 {
            let mut peer = NormalPeer::new(PeerId::new(p));
            peer.db.create_table(schema.clone()).unwrap();
            for i in 0..4i64 {
                peer.db
                    .insert(
                        "sales",
                        Row::new(vec![Value::Int(p as i64 * 100 + i), Value::Int(i * 10)]),
                    )
                    .unwrap();
            }
            out.insert(peer.id, peer);
        }
        out
    }

    fn full_role() -> Role {
        Role::new("full")
            .plus(AccessRule::read("sales", "id"))
            .plus(AccessRule::read("sales", "amount"))
    }

    #[test]
    fn export_writes_every_peers_partition() {
        let peers = peers();
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let mut hdfs = Hdfs::new(ids, 2);
        let report = export_tables(&peers, &["sales"], &full_role(), 0, &mut hdfs).unwrap();
        assert_eq!(report.rows_per_table["sales"], 12);
        assert_eq!(hdfs.read("/export/sales").unwrap().len(), 12);
        assert_eq!(report.trace.phases.len(), 1);
        assert_eq!(report.trace.phases[0].tasks.len(), 3, "one part per peer");
    }

    #[test]
    fn export_respects_access_control() {
        let peers = peers();
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let mut hdfs = Hdfs::new(ids, 2);
        let narrow = Role::new("narrow").plus(AccessRule::read("sales", "id"));
        export_tables(&peers, &["sales"], &narrow, 0, &mut hdfs).unwrap();
        let rows = hdfs.read("/export/sales").unwrap();
        assert!(
            rows.iter().all(|r| r.get(1).is_null()),
            "amount masked in HDFS"
        );
        assert!(rows.iter().all(|r| !r.get(0).is_null()));
    }

    #[test]
    fn exported_data_feeds_mapreduce_jobs() {
        let peers = peers();
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let mut hdfs = Hdfs::new(ids.clone(), 2);
        export_tables(&peers, &["sales"], &full_role(), 0, &mut hdfs).unwrap();
        // Sum the exported amounts with a plain MapReduce job.
        let engine = MapReduceEngine::new(ids, MrConfig::default());
        let job = MapReduceJob {
            name: "sum-exported".into(),
            map: Box::new(|_| Ok(Some(Value::Int(0)))),
            reduce: Some(Box::new(|_, rows, out| {
                let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap_or(0)).sum();
                out.push(Row::new(vec![Value::Int(total)]));
                Ok(())
            })),
            input: exported_input("sales"),
            reducers: 1,
        };
        let outcome = engine.run_job(job, &mut hdfs).unwrap();
        // 3 peers × (0+10+20+30)
        assert_eq!(
            hdfs.read(&outcome.output_path).unwrap(),
            vec![Row::new(vec![Value::Int(180)])]
        );
    }

    #[test]
    fn re_export_overwrites() {
        let peers = peers();
        let ids: Vec<PeerId> = peers.keys().copied().collect();
        let mut hdfs = Hdfs::new(ids, 2);
        export_tables(&peers, &["sales"], &full_role(), 0, &mut hdfs).unwrap();
        export_tables(&peers, &["sales"], &full_role(), 0, &mut hdfs).unwrap();
        assert_eq!(
            hdfs.read("/export/sales").unwrap().len(),
            12,
            "no duplicates"
        );
    }
}
