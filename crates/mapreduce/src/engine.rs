//! Job execution: map tasks, pull shuffle, reduce tasks, HDFS output.

use bestpeer_common::{codec, PeerId, Result, Row, Value};
use bestpeer_simnet::{Phase, SimTime, Task, Trace};

use crate::hdfs::Hdfs;
use crate::job::{JobInput, MapReduceJob};

/// Fixed overheads of the Hadoop layer. Defaults follow the paper's
/// measurements: "independent of the cluster size, Hadoop requires
/// approximately 10–15 sec to launch all map tasks" (§6.1.6), and there
/// is "a noticeable delay between the time point of map completion and
/// the time point of those completion events being retrieved by the
/// reduce task" (§6.1.7) because the shuffle is pull-based.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrConfig {
    /// Per-job scheduling + map-task launch overhead.
    pub startup: SimTime,
    /// Per-task process (JVM) launch cost.
    pub task_launch: SimTime,
    /// Reducer completion-event polling delay per job.
    pub shuffle_poll: SimTime,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            startup: SimTime::from_secs(12),
            task_launch: SimTime::from_millis(400),
            shuffle_poll: SimTime::from_secs(2),
        }
    }
}

/// The result of one executed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// All output rows (reducer parts concatenated).
    pub output: Vec<Row>,
    /// HDFS path the output was written to.
    pub output_path: String,
    /// The phases this job contributed to the query's trace.
    pub phases: Vec<Phase>,
}

/// Executes jobs over a fixed worker set.
#[derive(Debug, Clone)]
pub struct MapReduceEngine {
    workers: Vec<PeerId>,
    cfg: MrConfig,
}

impl MapReduceEngine {
    /// An engine over `workers` (task-tracker nodes) with `cfg` overheads.
    pub fn new(workers: Vec<PeerId>, cfg: MrConfig) -> Self {
        assert!(!workers.is_empty(), "MapReduce needs at least one worker");
        MapReduceEngine { workers, cfg }
    }

    /// The worker set.
    pub fn workers(&self) -> &[PeerId] {
        &self.workers
    }

    /// The configured overheads.
    pub fn config(&self) -> MrConfig {
        self.cfg
    }

    /// The HDFS path a job writes to.
    pub fn output_path(job_name: &str) -> String {
        format!("/jobs/{job_name}/output")
    }

    /// Execute one job; output rows are written to HDFS and returned.
    /// The first map or reduce error fails the job.
    pub fn run_job(&self, job: &MapReduceJob, hdfs: &mut Hdfs) -> Result<JobOutcome> {
        // (worker, rows, explicit disk bytes or None = encoded row bytes)
        let inputs: Vec<(PeerId, Vec<Row>, Option<u64>)> = match &job.input {
            JobInput::Local(parts) => parts.iter().map(|(w, r)| (*w, r.clone(), None)).collect(),
            JobInput::LocalWithCost(parts) => parts
                .iter()
                .map(|(w, r, d)| (*w, r.clone(), Some(*d)))
                .collect(),
            JobInput::HdfsFile(path) => hdfs
                .parts(path)?
                .into_iter()
                .map(|(w, r)| (w, r, None))
                .collect(),
        };
        let n_red = job.reducers.max(1);
        let out_path = Self::output_path(&job.name);
        hdfs.delete(&out_path);
        hdfs.create(&out_path)?;

        let mut phases = Vec::new();

        // ---- Map phase ---------------------------------------------
        // One map task per input part; each partitions its emitted pairs
        // across the reducers by key hash.
        let mut reducer_inputs: Vec<Vec<(Value, Row)>> = vec![Vec::new(); n_red];
        let mut map_phase = Phase::new(format!("{}:map", job.name));
        let mut map_only_output: Vec<(PeerId, Vec<Row>)> = Vec::new();
        for (worker, rows, disk_override) in &inputs {
            let row_bytes = codec::batch_encoded_size(rows);
            let in_bytes = disk_override.unwrap_or(row_bytes);
            let mut emitted: Vec<(Value, Row)> = Vec::new();
            for row in rows {
                (job.map)(row, &mut emitted)?;
            }
            let out_bytes: u64 = emitted
                .iter()
                .map(|(k, r)| k.byte_size() + r.byte_size())
                .sum();
            let mut task = Task::on(*worker)
                .disk(in_bytes)
                .cpu(row_bytes + out_bytes)
                .fixed(self.cfg.startup + self.cfg.task_launch);
            if job.reduce.is_some() {
                // Partitioned shuffle to the reducer hosts.
                let mut per_red: Vec<Vec<(Value, Row)>> = vec![Vec::new(); n_red];
                for (k, r) in emitted {
                    let slot = (hash_value(&k) % n_red as u64) as usize;
                    per_red[slot].push((k, r));
                }
                for (slot, pairs) in per_red.into_iter().enumerate() {
                    if pairs.is_empty() {
                        continue;
                    }
                    let host = self.reducer_host(slot);
                    let bytes: u64 = pairs
                        .iter()
                        .map(|(k, r)| k.byte_size() + r.byte_size())
                        .sum();
                    task = task.send(host, bytes);
                    reducer_inputs[slot].extend(pairs);
                }
            } else {
                // Map-only job: each map task writes its output straight
                // to HDFS.
                let out_rows: Vec<Row> = emitted.into_iter().map(|(_, r)| r).collect();
                let out_bytes = codec::batch_encoded_size(&out_rows);
                let placement = hdfs.append_part(&out_path, out_rows.clone())?;
                for replica in placement.iter().skip(1) {
                    task = task.send(*replica, out_bytes);
                }
                map_only_output.push((*worker, out_rows));
            }
            map_phase.push(task);
        }
        phases.push(map_phase);

        // ---- Reduce phase ------------------------------------------
        let output = if let Some(reduce) = &job.reduce {
            let mut reduce_phase = Phase::new(format!("{}:reduce", job.name));
            let mut all_out = Vec::new();
            for (slot, pairs) in reducer_inputs.into_iter().enumerate() {
                let host = self.reducer_host(slot);
                let in_bytes: u64 = pairs
                    .iter()
                    .map(|(k, r)| k.byte_size() + r.byte_size())
                    .sum();
                // Sort-merge grouping (reducers merge sorted runs).
                let mut groups: std::collections::BTreeMap<Value, Vec<Row>> =
                    std::collections::BTreeMap::new();
                for (k, r) in pairs {
                    groups.entry(k).or_default().push(r);
                }
                let mut out_rows = Vec::new();
                for (k, rows) in &groups {
                    reduce(k, rows, &mut out_rows)?;
                }
                let out_bytes = codec::batch_encoded_size(&out_rows);
                // CPU: read + sort (2x) + emit.
                let mut task = Task::on(host)
                    .cpu(2 * in_bytes + out_bytes)
                    .fixed(self.cfg.shuffle_poll + self.cfg.task_launch)
                    .disk(out_bytes);
                let placement = hdfs.append_part(&out_path, out_rows.clone())?;
                for replica in placement.iter().skip(1) {
                    task = task.send(*replica, out_bytes);
                }
                reduce_phase.push(task);
                all_out.extend(out_rows);
            }
            phases.push(reduce_phase);
            all_out
        } else {
            map_only_output
                .into_iter()
                .flat_map(|(_, rows)| rows)
                .collect()
        };

        Ok(JobOutcome {
            output,
            output_path: out_path,
            phases,
        })
    }

    /// Execute a chain of jobs (each later job typically reads the
    /// previous job's HDFS output); returns the final output and the
    /// combined trace.
    pub fn run_chain(&self, jobs: &[MapReduceJob], hdfs: &mut Hdfs) -> Result<(Vec<Row>, Trace)> {
        let mut trace = Trace::new();
        let mut last_output = Vec::new();
        for job in jobs {
            let outcome = self.run_job(job, hdfs)?;
            for p in outcome.phases {
                trace.push(p);
            }
            last_output = outcome.output;
        }
        Ok((last_output, trace))
    }

    fn reducer_host(&self, slot: usize) -> PeerId {
        self.workers[slot % self.workers.len()]
    }
}

/// Shuffle-partition hash: the workspace's stable hash, so reducer
/// routing (and hence every trace) survives toolchain upgrades.
fn hash_value(v: &Value) -> u64 {
    bestpeer_common::stable_hash(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapReduceJob;

    fn workers(n: u64) -> Vec<PeerId> {
        (0..n).map(PeerId::new).collect()
    }

    fn fast_cfg() -> MrConfig {
        MrConfig {
            startup: SimTime::from_secs(12),
            task_launch: SimTime::from_millis(100),
            shuffle_poll: SimTime::from_secs(2),
        }
    }

    /// Per-worker rows: (key, amount) pairs.
    fn local_input() -> JobInput {
        JobInput::Local(vec![
            (
                PeerId::new(0),
                vec![
                    Row::new(vec![Value::Int(1), Value::Int(10)]),
                    Row::new(vec![Value::Int(2), Value::Int(20)]),
                ],
            ),
            (
                PeerId::new(1),
                vec![
                    Row::new(vec![Value::Int(1), Value::Int(5)]),
                    Row::new(vec![Value::Int(3), Value::Int(7)]),
                ],
            ),
        ])
    }

    /// SUM(amount) GROUP BY key as a MapReduce job.
    fn sum_by_key_job(reducers: usize) -> MapReduceJob {
        MapReduceJob {
            name: "sum".into(),
            map: Box::new(|row, out| {
                out.push((row.get(0).clone(), row.clone()));
                Ok(())
            }),
            reduce: Some(Box::new(|key, rows, out| {
                let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
                out.push(Row::new(vec![key.clone(), Value::Int(total)]));
                Ok(())
            })),
            input: local_input(),
            reducers,
        }
    }

    #[test]
    fn aggregation_job_produces_correct_groups() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        let outcome = eng.run_job(&sum_by_key_job(2), &mut fs).unwrap();
        let mut rows = outcome.output;
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(15)]),
                Row::new(vec![Value::Int(2), Value::Int(20)]),
                Row::new(vec![Value::Int(3), Value::Int(7)]),
            ]
        );
        // Output is durable in HDFS.
        assert_eq!(fs.read(&outcome.output_path).unwrap().len(), 3);
    }

    #[test]
    fn trace_charges_startup_and_shuffle() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        let outcome = eng.run_job(&sum_by_key_job(2), &mut fs).unwrap();
        assert_eq!(outcome.phases.len(), 2, "map + reduce phases");
        let map_phase = &outcome.phases[0];
        assert!(
            map_phase
                .tasks
                .iter()
                .all(|t| t.fixed >= SimTime::from_secs(12)),
            "startup charged on map tasks"
        );
        assert!(
            map_phase.tasks.iter().any(|t| !t.sends.is_empty()),
            "shuffle traffic present"
        );
        let reduce_phase = &outcome.phases[1];
        assert!(
            reduce_phase
                .tasks
                .iter()
                .all(|t| t.fixed >= SimTime::from_secs(2)),
            "poll delay charged on reducers"
        );
    }

    #[test]
    fn map_only_job_skips_reduce() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        let job = MapReduceJob {
            name: "filter".into(),
            map: Box::new(|row, out| {
                if row.get(1).as_int().unwrap() >= 10 {
                    out.push((Value::Int(0), row.clone()));
                }
                Ok(())
            }),
            reduce: None,
            input: local_input(),
            reducers: 1,
        };
        let outcome = eng.run_job(&job, &mut fs).unwrap();
        assert_eq!(outcome.phases.len(), 1, "no reduce phase");
        assert_eq!(outcome.output.len(), 2); // amounts 10 and 20
                                             // Map-only output replicated to other datanodes.
        assert!(outcome.phases[0].tasks.iter().any(|t| !t.sends.is_empty()));
    }

    #[test]
    fn chained_jobs_read_previous_output() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        let first = sum_by_key_job(2);
        // Second job: global sum over the per-key sums.
        let second = MapReduceJob {
            name: "total".into(),
            map: Box::new(|row, out| {
                out.push((Value::Int(0), row.clone()));
                Ok(())
            }),
            reduce: Some(Box::new(|_, rows, out| {
                let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
                out.push(Row::new(vec![Value::Int(total)]));
                Ok(())
            })),
            input: JobInput::HdfsFile(MapReduceEngine::output_path("sum")),
            reducers: 1,
        };
        let (rows, trace) = eng.run_chain(&[first, second], &mut fs).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::Int(42)])]);
        assert_eq!(trace.phases.len(), 4, "two jobs x (map + reduce)");
        // Two jobs means two start-up payments — the crux of Fig. 10.
        let startup_tasks = trace
            .phases
            .iter()
            .flat_map(|p| &p.tasks)
            .filter(|t| t.fixed >= SimTime::from_secs(12))
            .count();
        assert!(startup_tasks >= 2);
    }

    #[test]
    fn rerunning_a_job_overwrites_output() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        eng.run_job(&sum_by_key_job(1), &mut fs).unwrap();
        let second = eng.run_job(&sum_by_key_job(1), &mut fs).unwrap();
        assert_eq!(
            fs.read(&second.output_path).unwrap().len(),
            3,
            "no duplicate parts"
        );
    }

    #[test]
    fn reducer_count_spreads_hosts() {
        let eng = MapReduceEngine::new(workers(4), fast_cfg());
        let mut fs = Hdfs::new(workers(4), 3);
        let outcome = eng.run_job(&sum_by_key_job(4), &mut fs).unwrap();
        let reduce_hosts: std::collections::HashSet<PeerId> =
            outcome.phases[1].tasks.iter().map(|t| t.node).collect();
        assert!(reduce_hosts.len() > 1, "reducers spread across workers");
    }
}
