//! Job descriptions: map and reduce as closures over rows.

use bestpeer_common::{PeerId, Result, Row, Value};

/// Map function: called once per input row; returns the row's shuffle
/// key, or `None` to drop the row. The engine then moves the row itself
/// into the shuffle (or, in a map-only job, into HDFS). An error fails
/// the job.
pub type MapFn = Box<dyn Fn(&Row) -> Result<Option<Value>> + Send + Sync>;

/// Reduce function: called once per distinct shuffle key with all tuples
/// for the key, in arrival order; emits output rows into `out`. An error
/// fails the job.
pub type ReduceFn = Box<dyn Fn(&Value, &[Row], &mut Vec<Row>) -> Result<()> + Send + Sync>;

/// Where a job's map tasks read their input.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Per-worker in-place data, `(worker, rows, disk_bytes_scanned)`:
    /// the HadoopDB pattern where each map task queries its local
    /// database. The engine charges the scan's disk bytes, not the row
    /// bytes, so index-assisted local scans are billed honestly.
    Local(Vec<(PeerId, Vec<Row>, u64)>),
    /// A file produced by a previous job, read from HDFS.
    HdfsFile(String),
}

/// One MapReduce job.
pub struct MapReduceJob {
    /// Job name (for traces and HDFS paths).
    pub name: String,
    /// The map function.
    pub map: MapFn,
    /// The reduce function; `None` makes this a map-only job (the
    /// paper's Q1 compiles to exactly that).
    pub reduce: Option<ReduceFn>,
    /// Where the input comes from.
    pub input: JobInput,
    /// Number of reduce tasks. The paper notes the SMS default of one
    /// reducer performs poorly and sets it to the worker count (§6.1.8);
    /// callers choose.
    pub reducers: usize,
}

impl std::fmt::Debug for MapReduceJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapReduceJob")
            .field("name", &self.name)
            .field("reduce", &self.reduce.is_some())
            .field("reducers", &self.reducers)
            .finish_non_exhaustive()
    }
}
