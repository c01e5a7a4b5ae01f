//! The HadoopDB cluster: workers with local databases + Hadoop layer.

use bestpeer_common::{Error, PeerId, Result, Row, TableSchema};
use bestpeer_mapreduce::sqlcompile::{self, LocalSource};
use bestpeer_mapreduce::{Hdfs, MapReduceEngine, MrConfig};
use bestpeer_simnet::Trace;
use bestpeer_sql::exec::execute_select;
use bestpeer_sql::{ResultSet, SelectStmt};
use bestpeer_storage::Database;

/// One worker node: a task tracker co-located with a local DBMS.
#[derive(Debug)]
pub struct Worker {
    /// The worker's cluster address.
    pub peer: PeerId,
    /// Its local single-node database (PostgreSQL in the paper).
    pub db: Database,
}

/// The HadoopDB cluster.
#[derive(Debug)]
pub struct HadoopDb {
    workers: Vec<Worker>,
    engine: MapReduceEngine,
    hdfs: Hdfs,
}

impl HadoopDb {
    /// A cluster of `n` workers with the given Hadoop overheads and
    /// HDFS replication factor (the paper's benchmark uses 3).
    pub fn new(n: usize, cfg: MrConfig, replication: usize) -> Self {
        assert!(n > 0, "cluster needs at least one worker");
        let peers: Vec<PeerId> = (0..n as u64).map(PeerId::new).collect();
        let workers = peers
            .iter()
            .map(|&peer| Worker {
                peer,
                db: Database::new(),
            })
            .collect();
        HadoopDb {
            workers,
            engine: MapReduceEngine::new(peers.clone(), cfg),
            hdfs: Hdfs::new(peers, replication),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the cluster is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Create `schema` on every worker (shared global schema).
    pub fn create_table_everywhere(&mut self, schema: &TableSchema) -> Result<()> {
        for w in &mut self.workers {
            w.db.create_table(schema.clone())?;
        }
        Ok(())
    }

    /// Bulk-load rows into one worker's chunk of `table`.
    pub fn load_worker(&mut self, worker: usize, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.workers[worker].db.bulk_insert(table, rows)
    }

    /// Build a secondary index on every worker (paper Table 4 indices).
    pub fn create_index_everywhere(&mut self, table: &str, column: &str) -> Result<()> {
        for w in &mut self.workers {
            w.db.table_mut(table)?.create_index(column)?;
        }
        Ok(())
    }

    /// The workers (read-only).
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Execute a SQL query through the SMS planner; returns the real
    /// result rows and the cost trace of the job chain.
    pub fn execute(&mut self, sql: &str) -> Result<(ResultSet, Trace)> {
        let mut source = WorkerSource(&self.workers);
        sqlcompile::compile_and_run(sql, &mut source, &self.engine, &mut self.hdfs)
    }
}

/// [`LocalSource`] over the workers' local databases.
struct WorkerSource<'a>(&'a [Worker]);

impl LocalSource for WorkerSource<'_> {
    fn peers(&self) -> Vec<PeerId> {
        self.0.iter().map(|w| w.peer).collect()
    }

    fn run_local(&mut self, peers: &[PeerId], stmt: &SelectStmt) -> Result<Vec<(ResultSet, u64)>> {
        peers
            .iter()
            .map(|&peer| {
                let w = self
                    .0
                    .iter()
                    .find(|w| w.peer == peer)
                    .ok_or_else(|| Error::Network(format!("no worker {peer}")))?;
                let (rs, stats) = execute_select(stmt, &w.db)?;
                Ok((rs, stats.bytes_scanned))
            })
            .collect()
    }

    fn table_schema(&self, table: &str) -> Result<TableSchema> {
        Ok(self.0[0].db.table(table)?.schema().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::{ColumnDef, ColumnType, Value};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Int),
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn setup_and_load() {
        let mut h = HadoopDb::new(3, MrConfig::default(), 3);
        assert_eq!(h.len(), 3);
        h.create_table_everywhere(&schema()).unwrap();
        h.load_worker(0, "t", vec![Row::new(vec![Value::Int(1), Value::Int(10)])])
            .unwrap();
        h.load_worker(1, "t", vec![Row::new(vec![Value::Int(2), Value::Int(20)])])
            .unwrap();
        h.create_index_everywhere("t", "v").unwrap();
        assert_eq!(h.workers()[0].db.table("t").unwrap().len(), 1);
        assert!(h.workers()[1]
            .db
            .table("t")
            .unwrap()
            .index_on("v")
            .is_some());
    }
}
