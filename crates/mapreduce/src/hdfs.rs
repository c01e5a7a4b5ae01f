//! A simulated Hadoop distributed file system.
//!
//! Files are named sequences of row batches, one batch per writing task
//! (mirroring `part-00000`-style outputs). The replication factor is
//! recorded so the engine can charge write amplification; block
//! placement round-robins over the cluster's workers.

use std::collections::BTreeMap;

use bestpeer_common::{Error, PeerId, Result, Row};

/// One stored file: the rows of each part, and where replicas live.
#[derive(Debug, Clone, Default)]
struct HdfsFile {
    parts: Vec<Vec<Row>>,
    /// For each part, the workers holding its replicas.
    placement: Vec<Vec<PeerId>>,
}

/// The (simulated) HDFS namespace.
#[derive(Debug, Clone)]
pub struct Hdfs {
    files: BTreeMap<String, HdfsFile>,
    workers: Vec<PeerId>,
    replication: usize,
    next_block: usize,
}

impl Hdfs {
    /// Mount a file system over `workers` with the given replication
    /// factor (the paper's benchmark uses 3).
    pub fn new(workers: Vec<PeerId>, replication: usize) -> Self {
        Hdfs {
            files: BTreeMap::new(),
            workers,
            replication: replication.max(1),
            next_block: 0,
        }
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Create an empty file; error if it exists.
    pub fn create(&mut self, path: &str) -> Result<()> {
        if self.files.contains_key(path) {
            return Err(Error::Execution(format!(
                "hdfs file `{path}` already exists"
            )));
        }
        self.files.insert(path.to_owned(), HdfsFile::default());
        Ok(())
    }

    /// Append one part (a task's output) to a file, returning the
    /// workers chosen to hold its replicas.
    pub fn append_part(&mut self, path: &str, rows: Vec<Row>) -> Result<Vec<PeerId>> {
        if self.workers.is_empty() {
            return Err(Error::Execution("hdfs has no datanodes".into()));
        }
        let n = self.workers.len();
        let k = self.replication.min(n);
        let start = self.next_block;
        self.next_block = (self.next_block + 1) % n;
        let placement: Vec<PeerId> = (0..k).map(|i| self.workers[(start + i) % n]).collect();
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| Error::Execution(format!("no hdfs file `{path}`")))?;
        file.parts.push(rows);
        file.placement.push(placement.clone());
        Ok(placement)
    }

    /// All rows of a file, parts concatenated in write order.
    pub fn read(&self, path: &str) -> Result<Vec<Row>> {
        let file = self
            .files
            .get(path)
            .ok_or_else(|| Error::Execution(format!("no hdfs file `{path}`")))?;
        Ok(file.parts.iter().flatten().cloned().collect())
    }

    /// The primary location and rows of each part (map-side locality),
    /// borrowed in write order.
    pub fn parts(&self, path: &str) -> Result<Vec<(PeerId, &[Row])>> {
        let file = self
            .files
            .get(path)
            .ok_or_else(|| Error::Execution(format!("no hdfs file `{path}`")))?;
        Ok(file
            .parts
            .iter()
            .zip(&file.placement)
            .map(|(rows, loc)| (loc[0], rows.as_slice()))
            .collect())
    }

    /// Remove a file (idempotent, like `fs -rm -f`).
    pub fn delete(&mut self, path: &str) {
        self.files.remove(path);
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Total bytes stored (one copy; multiply by replication for raw).
    pub fn logical_bytes(&self) -> u64 {
        self.files
            .values()
            .flat_map(|f| f.parts.iter().flatten())
            .map(Row::byte_size)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    fn workers(n: u64) -> Vec<PeerId> {
        (0..n).map(PeerId::new).collect()
    }

    #[test]
    fn create_write_read() {
        let mut fs = Hdfs::new(workers(4), 3);
        fs.create("/out/q5").unwrap();
        assert!(fs.create("/out/q5").is_err());
        fs.append_part("/out/q5", vec![row(1), row(2)]).unwrap();
        fs.append_part("/out/q5", vec![row(3)]).unwrap();
        assert_eq!(fs.read("/out/q5").unwrap(), vec![row(1), row(2), row(3)]);
        assert!(fs.read("/nope").is_err());
    }

    #[test]
    fn placement_respects_replication_and_cluster_size() {
        let mut fs = Hdfs::new(workers(5), 3);
        fs.create("/f").unwrap();
        let p1 = fs.append_part("/f", vec![row(1)]).unwrap();
        let p2 = fs.append_part("/f", vec![row(2)]).unwrap();
        assert_eq!(p1.len(), 3);
        assert_ne!(p1[0], p2[0], "blocks rotate over datanodes");
        // Replication capped by cluster size.
        let mut small = Hdfs::new(workers(2), 3);
        small.create("/f").unwrap();
        assert_eq!(small.append_part("/f", vec![row(1)]).unwrap().len(), 2);
    }

    #[test]
    fn parts_expose_locality() {
        let mut fs = Hdfs::new(workers(3), 2);
        fs.create("/f").unwrap();
        fs.append_part("/f", vec![row(1)]).unwrap();
        fs.append_part("/f", vec![row(2), row(3)]).unwrap();
        let parts = fs.parts("/f").unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].1.len(), 2);
    }

    #[test]
    fn delete_is_idempotent() {
        let mut fs = Hdfs::new(workers(2), 1);
        fs.create("/f").unwrap();
        assert!(fs.exists("/f"));
        fs.delete("/f");
        fs.delete("/f");
        assert!(!fs.exists("/f"));
    }

    #[test]
    fn logical_bytes_counts_one_copy() {
        let mut fs = Hdfs::new(workers(3), 3);
        fs.create("/f").unwrap();
        fs.append_part("/f", vec![row(1)]).unwrap();
        assert_eq!(fs.logical_bytes(), row(1).byte_size());
    }
}
