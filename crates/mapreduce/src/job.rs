//! Job descriptions: map and reduce as closures over rows.

use bestpeer_common::{PeerId, Result, Row, Value};

/// Map function: called once per input row; emits zero or more
/// `(shuffle key, tuple)` pairs into `out`. An error fails the job.
pub type MapFn = Box<dyn Fn(&Row, &mut Vec<(Value, Row)>) -> Result<()> + Send + Sync>;

/// Reduce function: called once per distinct shuffle key with all tuples
/// for the key; emits output rows into `out`. An error fails the job.
pub type ReduceFn = Box<dyn Fn(&Value, &[Row], &mut Vec<Row>) -> Result<()> + Send + Sync>;

/// Where a job's map tasks read their input.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Per-worker in-place data: `(worker, rows)` — the HadoopDB pattern
    /// where each map task queries its local database.
    Local(Vec<(PeerId, Vec<Row>)>),
    /// Per-worker rows that were produced by a local SQL query whose
    /// scan touched more bytes than it returned: `(worker, rows,
    /// disk_bytes_scanned)`. The engine charges the explicit disk cost
    /// instead of the row bytes, so index-assisted local scans are
    /// billed honestly.
    LocalWithCost(Vec<(PeerId, Vec<Row>, u64)>),
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
