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

/// The result of one executed job. Its output rows live only in HDFS,
/// at `output_path`.
#[derive(Debug)]
pub struct JobOutcome {
    /// HDFS path the output was written to.
    pub output_path: String,
    /// The phases this job contributed to the query's trace.
    pub phases: Vec<Phase>,
}

/// One reduce task's input: the shuffled `(key, row)` pairs in arrival
/// order (map task, then row), and their summed charged bytes.
#[derive(Default)]
struct Shuffle {
    pairs: Vec<(Value, Row)>,
    bytes: u64,
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

    /// Execute one job; its output rows are written to HDFS. Input rows
    /// move through map, shuffle and reduce without being copied, except
    /// that an HDFS input is copied once out of the file. The first map
    /// or reduce error fails the job.
    pub fn run_job(&self, job: MapReduceJob, hdfs: &mut Hdfs) -> Result<JobOutcome> {
        let MapReduceJob {
            name,
            map,
            reduce,
            input,
            reducers,
        } = job;
        // (worker, rows, explicit disk bytes or None = encoded row bytes)
        let inputs: Vec<(PeerId, Vec<Row>, Option<u64>)> = match input {
            JobInput::Local(parts) => parts.into_iter().map(|(w, r, d)| (w, r, Some(d))).collect(),
            JobInput::HdfsFile(path) => hdfs
                .parts(&path)?
                .into_iter()
                .map(|(w, r)| (w, r.to_vec(), None))
                .collect(),
        };
        let n_red = reducers.max(1);
        let out_path = Self::output_path(&name);
        hdfs.delete(&out_path);
        hdfs.create(&out_path)?;

        let mut phases = Vec::new();

        // ---- Map phase ---------------------------------------------
        // One map task per input part; each partitions its keyed rows
        // across the reducers by key hash. A pair's charged size is
        // `key + row` bytes, computed once.
        let mut shuffle: Vec<Shuffle> = (0..n_red).map(|_| Shuffle::default()).collect();
        let mut map_phase = Phase::new(format!("{name}:map"));
        for (worker, rows, disk_override) in inputs {
            let row_bytes = codec::batch_encoded_size(&rows);
            let mut task = Task::on(worker)
                .disk(disk_override.unwrap_or(row_bytes))
                .fixed(self.cfg.startup + self.cfg.task_launch);
            let mut pair_bytes = 0;
            if reduce.is_some() {
                // Partitioned shuffle to the reducer hosts.
                let mut sent = vec![(0usize, 0u64); n_red];
                for row in rows {
                    let Some(key) = map(&row)? else { continue };
                    let size = key.byte_size() + row.byte_size();
                    let slot = (hash_value(&key) % n_red as u64) as usize;
                    pair_bytes += size;
                    sent[slot].0 += 1;
                    sent[slot].1 += size;
                    shuffle[slot].bytes += size;
                    shuffle[slot].pairs.push((key, row));
                }
                for (slot, &(count, bytes)) in sent.iter().enumerate() {
                    if count > 0 {
                        task = task.send(self.reducer_host(slot), bytes);
                    }
                }
            } else {
                // Map-only job: each map task writes its output straight
                // to HDFS.
                let mut out_rows = Vec::new();
                for row in rows {
                    if let Some(key) = map(&row)? {
                        pair_bytes += key.byte_size() + row.byte_size();
                        out_rows.push(row);
                    }
                }
                let out_bytes = codec::batch_encoded_size(&out_rows);
                let placement = hdfs.append_part(&out_path, out_rows)?;
                for replica in placement.iter().skip(1) {
                    task = task.send(*replica, out_bytes);
                }
            }
            map_phase.push(task.cpu(row_bytes + pair_bytes));
        }
        phases.push(map_phase);

        // ---- Reduce phase ------------------------------------------
        if let Some(reduce) = &reduce {
            let mut reduce_phase = Phase::new(format!("{name}:reduce"));
            for (slot, Shuffle { mut pairs, bytes }) in shuffle.into_iter().enumerate() {
                // Sort-merge grouping. The sort must be stable: groups
                // come in key order, rows keep their arrival order within
                // a group, and a group's key is the first to arrive.
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                let (keys, rows): (Vec<Value>, Vec<Row>) = pairs.into_iter().unzip();
                let mut out_rows = Vec::new();
                let mut start = 0;
                for end in 1..=keys.len() {
                    if end == keys.len() || keys[end] != keys[start] {
                        reduce(&keys[start], &rows[start..end], &mut out_rows)?;
                        start = end;
                    }
                }
                let out_bytes = codec::batch_encoded_size(&out_rows);
                // CPU: read + sort (2x) + emit.
                let mut task = Task::on(self.reducer_host(slot))
                    .cpu(2 * bytes + out_bytes)
                    .fixed(self.cfg.shuffle_poll + self.cfg.task_launch)
                    .disk(out_bytes);
                let placement = hdfs.append_part(&out_path, out_rows)?;
                for replica in placement.iter().skip(1) {
                    task = task.send(*replica, out_bytes);
                }
                reduce_phase.push(task);
            }
            phases.push(reduce_phase);
        }

        Ok(JobOutcome {
            output_path: out_path,
            phases,
        })
    }

    /// Execute a chain of jobs (each later job typically reads the
    /// previous job's HDFS output); returns the last job's output, read
    /// from HDFS, and the combined trace.
    pub fn run_chain(&self, jobs: Vec<MapReduceJob>, hdfs: &mut Hdfs) -> Result<(Vec<Row>, Trace)> {
        let mut trace = Trace::new();
        let mut last_path = None;
        for job in jobs {
            let outcome = self.run_job(job, hdfs)?;
            for p in outcome.phases {
                trace.push(p);
            }
            last_path = Some(outcome.output_path);
        }
        let rows = match last_path {
            Some(path) => hdfs.read(&path)?,
            None => Vec::new(),
        };
        Ok((rows, trace))
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

    /// Local input charged its rows' encoded bytes as disk bytes.
    fn local(parts: Vec<(PeerId, Vec<Row>)>) -> JobInput {
        JobInput::Local(
            parts
                .into_iter()
                .map(|(w, rows)| {
                    let bytes = codec::batch_encoded_size(&rows);
                    (w, rows, bytes)
                })
                .collect(),
        )
    }

    /// Per-worker rows: (key, amount) pairs.
    fn local_input() -> JobInput {
        local(vec![
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
            map: Box::new(|row| Ok(Some(row.get(0).clone()))),
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
        let outcome = eng.run_job(sum_by_key_job(2), &mut fs).unwrap();
        // Output is durable in HDFS.
        let mut rows = fs.read(&outcome.output_path).unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Row::new(vec![Value::Int(1), Value::Int(15)]),
                Row::new(vec![Value::Int(2), Value::Int(20)]),
                Row::new(vec![Value::Int(3), Value::Int(7)]),
            ]
        );
    }

    #[test]
    fn trace_charges_startup_and_shuffle() {
        let eng = MapReduceEngine::new(workers(2), fast_cfg());
        let mut fs = Hdfs::new(workers(2), 3);
        let outcome = eng.run_job(sum_by_key_job(2), &mut fs).unwrap();
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
            map: Box::new(|row| Ok((row.get(1).as_int()? >= 10).then_some(Value::Int(0)))),
            reduce: None,
            input: local_input(),
            reducers: 1,
        };
        let outcome = eng.run_job(job, &mut fs).unwrap();
        assert_eq!(outcome.phases.len(), 1, "no reduce phase");
        // Amounts 10 and 20, replicated to other datanodes.
        assert_eq!(fs.read(&outcome.output_path).unwrap().len(), 2);
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
            map: Box::new(|_| Ok(Some(Value::Int(0)))),
            reduce: Some(Box::new(|_, rows, out| {
                let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
                out.push(Row::new(vec![Value::Int(total)]));
                Ok(())
            })),
            input: JobInput::HdfsFile(MapReduceEngine::output_path("sum")),
            reducers: 1,
        };
        let (rows, trace) = eng.run_chain(vec![first, second], &mut fs).unwrap();
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
        eng.run_job(sum_by_key_job(1), &mut fs).unwrap();
        let second = eng.run_job(sum_by_key_job(1), &mut fs).unwrap();
        assert_eq!(
            fs.read(&second.output_path).unwrap().len(),
            3,
            "no duplicate parts"
        );
    }

    /// The reducer's grouping contract: groups in ascending key order,
    /// rows in arrival order (map task, then row) within a group, and
    /// each group keyed by the first of its equal keys to arrive.
    #[test]
    fn reducers_group_in_key_order_and_keep_arrival_order() {
        use std::sync::{Arc, Mutex};
        // Int(3) and Float(3.0) compare equal; Float(3.0) arrives first.
        let keys = [
            Value::Float(3.0),
            Value::str("k"),
            Value::Int(7),
            Value::Null,
            Value::Int(3),
            Value::Float(-0.5),
        ];
        let parts = (0..4i64).map(|task| {
            let rows = (0..75i64)
                .map(|seq| {
                    let key = keys[((seq * 5 + task * 3) % 6) as usize].clone();
                    Row::new(vec![key, Value::Int(task), Value::Int(seq)])
                })
                .collect();
            (PeerId::new(task as u64), rows)
        });
        let seen = Arc::new(Mutex::new(Vec::<(Value, Vec<Row>)>::new()));
        let record = Arc::clone(&seen);
        let job = MapReduceJob {
            name: "group".into(),
            map: Box::new(|row| Ok(Some(row.get(0).clone()))),
            reduce: Some(Box::new(move |key, rows, _| {
                record.lock().unwrap().push((key.clone(), rows.to_vec()));
                Ok(())
            })),
            input: local(parts.collect()),
            reducers: 1,
        };
        let eng = MapReduceEngine::new(workers(4), fast_cfg());
        eng.run_job(job, &mut Hdfs::new(workers(4), 3)).unwrap();
        let groups = seen.lock().unwrap();
        assert_eq!(groups.len(), 5, "Int(3) and Float(3.0) share a group");
        assert!(groups.windows(2).all(|g| g[0].0 < g[1].0), "ascending keys");
        let arrival = |r: &Row| (r.get(1).as_int().unwrap(), r.get(2).as_int().unwrap());
        for (key, rows) in groups.iter() {
            assert!(rows.iter().all(|r| r.get(0) == key));
            assert!(rows.windows(2).all(|w| arrival(&w[0]) < arrival(&w[1])));
            // The group's key is the first arrival's, variant included.
            assert_eq!(format!("{key:?}"), format!("{:?}", rows[0].get(0)));
        }
        assert_eq!(groups.iter().map(|(_, r)| r.len()).sum::<usize>(), 300);
        let three = groups.iter().find(|(k, _)| k == &Value::Int(3)).unwrap();
        assert!(matches!(three.0, Value::Float(_)));
        assert!(three.1.iter().any(|r| matches!(r.get(0), Value::Int(3))));
    }

    #[test]
    fn reducer_count_spreads_hosts() {
        let eng = MapReduceEngine::new(workers(4), fast_cfg());
        let mut fs = Hdfs::new(workers(4), 3);
        let outcome = eng.run_job(sum_by_key_job(4), &mut fs).unwrap();
        let reduce_hosts: std::collections::HashSet<PeerId> =
            outcome.phases[1].tasks.iter().map(|t| t.node).collect();
        assert!(reduce_hosts.len() > 1, "reducers spread across workers");
    }
}
