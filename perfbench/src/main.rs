//! End-to-end wall-clock benchmark of the BestPeer++ client API.
//!
//! ```text
//! perfbench --workload <analytics|supply_chain|refresh_mix|remote>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--queries <n>] [--setups <n>] [--out-dir <dir>]
//! ```
//!
//! One client thread drives the public API in a closed loop: the next
//! request is issued only after the previous one returns. Every query
//! and mutation is generated from `--seed`; every answer is checked
//! outside the timed region. The last line of standard output is one
//! JSON object: with `--trace 0` it carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a traced run (see
//! `trace.rs`). `--queries` replaces the time budget by a fixed query
//! count, which makes every counter repeat exactly (the self-test uses
//! it with `--size tiny`).

mod analytics;
mod remote;
mod supply;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use trace::Tracer;
use util::{quantile, InputDigest, SetupTimes};

/// The tail percentile reported as `query_p90_ms`. Every workload's run
/// leaves at least ten samples above it. In `analytics` the 95th
/// percentile would sit on the edge of the slowest class (MapReduce Q5,
/// exactly 5% of the queries), so it would jump between two classes.
const TAIL: f64 = 0.90;

/// Benchmark settings shared by the workloads.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: every generated query and mutation derives from it.
    pub seed: u64,
    /// Timed seconds to measure (sum of request latencies).
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
    /// `lineitem` rows per peer.
    pub rows: usize,
    /// Stop after this many queries instead of after `seconds`.
    pub max_queries: Option<usize>,
    /// Independent set-ups per run; the median is reported.
    pub setups: usize,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Phase times of every set-up.
    pub setups: Vec<SetupTimes>,
    /// `submit_query` latencies, ms.
    pub query_ms: Vec<f64>,
    /// `refresh_from_production` latencies, ms.
    pub refresh_ms: Vec<f64>,
    /// Timed seconds (queries plus refreshes).
    pub busy_s: f64,
    /// Queries and refreshes attempted.
    pub attempted: u64,
    /// Errors plus wrong answers.
    pub failed: u64,
    /// Per-layer metrics (traced run).
    pub layer: BTreeMap<String, f64>,
    /// Span store (traced run).
    pub tracer: Option<Tracer>,
    /// Digest of every generated input.
    pub inputs: InputDigest,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether the closed loop has measured enough.
    pub fn done(&self, cfg: &Config) -> bool {
        match cfg.max_queries {
            Some(n) => self.query_ms.len() >= n,
            None => self.busy_s >= cfg.seconds,
        }
    }

    /// Fold a warm-up pass's attempts, failures and inputs into this
    /// report (its latencies are not measurements).
    pub fn absorb_warmup(&mut self, warm: Report) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        self.notes.extend(warm.notes);
        self.inputs = warm.inputs;
    }

    /// Count one failure with its reason.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 50 {
            self.notes.push(format!("FAILED {what}"));
        }
    }
}

/// Per-layer metrics and their units, in output order. Metrics a
/// workload does not exercise are reported as 0.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("sql.parse_us", "us"),
        ("sql.plan_us", "us"),
        ("sql.exec_us", "us"),
        ("sql.rows_scanned_per_query", "count"),
        ("sql.rows_cloned_per_query", "count"),
        ("owner.serve_us", "us"),
        ("owner.serve_share", "ratio"),
        ("engine.residual_share", "ratio"),
        ("adaptive.p2p_ratio", "ratio"),
        ("locate.us", "us"),
        ("locate.hops_per_query", "count"),
        ("router.hit_ratio", "ratio"),
        ("router.lookups", "count"),
        ("router.demotions", "count"),
        ("rescache.hit_ratio", "ratio"),
        ("rescache.lookups", "count"),
        ("rescache.misses", "count"),
        ("rescache.evictions", "count"),
        ("rescache.bytes", "B"),
        ("loader.extract_us", "us"),
        ("storage.snapshot_us", "us"),
        ("loader.rows_changed_per_refresh", "count"),
        ("wal.appends_per_refresh", "count"),
        ("wal.fsyncs_per_refresh", "count"),
        ("wal.bytes_per_refresh", "B"),
        ("index.publish_us", "us"),
        ("index.delta_entries_per_refresh", "count"),
        ("refresh.p50_ms", "ms"),
        ("refresh.p95_ms", "ms"),
        ("refresh.count", "count"),
        ("transport.ping_rtt_us", "us"),
        ("transport.subquery_rtt_us", "us"),
        ("transport.bytes_per_subquery", "B"),
        ("codec.encode_us", "us"),
        ("codec.decode_us", "us"),
        ("pool.tasks_per_query", "count"),
        ("pool.busy_share", "ratio"),
        ("simnet.replay_us", "us"),
        ("simnet.sim_latency_p50_s", "s"),
        ("simnet.network_bytes_per_query", "B"),
        ("setup.dbgen_s", "s"),
        ("setup.load_s", "s"),
        ("setup.index_s", "s"),
        ("setup.stats_s", "s"),
        ("setup.link_s", "s"),
        ("setup.warmup_s", "s"),
        ("trace.query_p50_ms", "ms"),
        ("trace.queries", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for e in analytics::ENGINE_LABELS {
        for q in 1..=5 {
            v.push((format!("engine.{e}.Q{q}_ms"), "ms"));
        }
    }
    for layer in trace::LAYERS {
        v.push((format!("self.{layer}_share"), "ratio"));
    }
    v
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <analytics|supply_chain|refresh_mix|remote> --seed <n> \
         --seconds <s> --trace <0|1> [--size full|tiny] [--queries <n>] [--setups <n>] \
         [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        rows: 6_000,
        max_queries: None,
        setups: 5,
    };
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, val] = pair else { usage() };
        let num = || val.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => cfg.seed = num(),
            "--seconds" => cfg.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = num() != 0,
            "--size" => {
                cfg.rows = match val.as_str() {
                    "full" => 6_000,
                    "tiny" => 400,
                    _ => usage(),
                }
            }
            "--queries" => cfg.max_queries = Some(num() as usize),
            "--setups" => cfg.setups = (num() as usize).max(1),
            "--out-dir" => out_dir = PathBuf::from(val),
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let mut report = match workload.as_str() {
        "analytics" => analytics::run(&cfg),
        "supply_chain" => supply::run(&cfg, false),
        "refresh_mix" => supply::run(&cfg, true),
        "remote" => remote::run(&cfg),
        _ => usage(),
    };
    if let Some(tr) = &report.tracer {
        let path = out_dir.join(format!("spans-{workload}-{}.jsonl", cfg.seed));
        match tr.write(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    emit(&workload, &cfg, &report);
}

/// Print the human-readable summary and the final JSON line.
fn emit(workload: &str, cfg: &Config, r: &Report) {
    let mut setup_totals: Vec<f64> = r.setups.iter().map(SetupTimes::total).collect();
    setup_totals.sort_by(f64::total_cmp);
    let n = r.query_ms.len();
    let tail_pct = (TAIL * 100.0).round() as u32;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if cfg.trace {
        let mut layer = r.layer.clone();
        let phase =
            |f: fn(&SetupTimes) -> f64| quantile(&r.setups.iter().map(f).collect::<Vec<_>>(), 0.5);
        layer.insert("setup.dbgen_s".into(), phase(|t| t.dbgen));
        layer.insert("setup.load_s".into(), phase(|t| t.load));
        layer.insert("setup.index_s".into(), phase(|t| t.index));
        layer.insert("setup.stats_s".into(), phase(|t| t.stats));
        layer.insert("setup.link_s".into(), phase(|t| t.link));
        layer.insert("setup.warmup_s".into(), phase(|t| t.warmup));
        layer.insert("trace.query_p50_ms".into(), quantile(&r.query_ms, 0.5));
        layer.insert("trace.queries".into(), n as f64);
        layer.insert("refresh.p50_ms".into(), quantile(&r.refresh_ms, 0.5));
        layer.insert("refresh.p95_ms".into(), quantile(&r.refresh_ms, 0.95));
        layer.insert("refresh.count".into(), r.refresh_ms.len() as f64);
        for (name, unit) in per_layer_units() {
            let v = layer.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        metrics.push(("qps".into(), n as f64 / r.busy_s.max(1e-9), "1/s"));
        metrics.push(("query_p50_ms".into(), quantile(&r.query_ms, 0.5), "ms"));
        metrics.push((
            format!("query_p{tail_pct}_ms"),
            quantile(&r.query_ms, TAIL),
            "ms",
        ));
        metrics.push(("setup_s".into(), quantile(&setup_totals, 0.5), "s"));
        metrics.push(("peak_rss_mb".into(), util::peak_rss_mb(), "MB"));
    }

    println!(
        "# workload {workload} seed {} trace {} rows/peer {} setups {} cores {}",
        cfg.seed,
        cfg.trace as u8,
        cfg.rows,
        cfg.setups,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# inputs_digest {:016x}", r.inputs.0);
    println!(
        "# queries {n} (p{tail_pct} has {} samples above it), refreshes {}, timed {:.3} s",
        n - ((n as f64 * TAIL).ceil() as usize).min(n),
        r.refresh_ms.len(),
        r.busy_s
    );
    println!(
        "# failed_ratio {} ({} of {} attempted)",
        util::ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    if !r.refresh_ms.is_empty() {
        println!(
            "# refresh_p50_ms {} refresh_p95_ms {}",
            quantile(&r.refresh_ms, 0.5),
            quantile(&r.refresh_ms, 0.95)
        );
    }
    for note in &r.notes {
        println!("# {note}");
    }
    if let Some(tr) = &r.tracer {
        println!(
            "# per-query metrics and shares are over {n} traced queries, {:.1} ms of query wall time",
            tr.sum("query") / 1e3
        );
    }
    for (name, v, unit) in &metrics {
        println!("# metric {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        body.join(", ")
    );
}
