//! Result-cache benchmark: repeated-template workloads with the
//! remote-fetch result cache on versus off.
//!
//! ```text
//! cache_bench [--peers N] [--queries N] [--theta Z] [--out PATH]
//! ```
//!
//! Two measurements (one per supply-chain workload side), written to
//! `BENCH_cache.json` (default) and printed to stdout. Each runs the
//! same seeded Zipf(θ)-distributed template sequence on two identically
//! loaded networks — result cache off, then on — and reports:
//!
//! - **mean_latency_cold_secs / mean_latency_warm_secs** — mean
//!   simulated per-query latency of the two runs;
//! - **reduction** — `(cold − warm) / cold`;
//! - **hit_rate** — result-cache hits over lookups in the warm run;
//! - **warm_queries** — queries answered at least partially from cache.
//!
//! The binary asserts the PR's acceptance criteria: per-query results
//! are byte-identical between the two runs (digest streams are equal)
//! and the mean latency reduction is ≥ 30% on each workload side, so
//! `scripts/check.sh` fails on a cache regression.

use bestpeer_bench::setup::BenchConfig;
use bestpeer_bench::throughput::{
    build_supply_chain_cached, run_repeated_templates, RepeatedRun, WorkloadKind,
};
use bestpeer_bench::Flags;

const SEED: u64 = 0xCAC4E;

fn main() {
    let flags = Flags::parse(&["--peers", "--queries", "--theta", "--out"], &[]);
    let peers: usize = flags.get("--peers", 8);
    let queries: usize = flags.get("--queries", 400);
    let theta = flags.get("--theta", 1.1);
    let out = flags.get("--out", "BENCH_cache.json".to_owned());
    let bench = BenchConfig {
        rows_per_node: 2_000,
        seed: 7,
    };

    let mut sections = Vec::new();
    for (label, kind) in [
        ("repeated_supplier", WorkloadKind::Supplier),
        ("repeated_retailer", WorkloadKind::Retailer),
    ] {
        let run = |cache: bool| {
            let mut net = build_supply_chain_cached(peers, &bench, cache);
            run_repeated_templates(&mut net, kind, &bench, queries, theta, SEED)
        };
        let cold = run(false);
        let warm = run(true);
        assert_eq!(
            cold.digests, warm.digests,
            "{label}: cached results diverged from the cold run"
        );
        sections.push((label, cold, warm));
    }

    let json = render_json(peers, queries, theta, &sections);
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_cache.json");
    eprintln!("wrote {out}");

    for (label, cold, warm) in &sections {
        let r = reduction(cold, warm);
        assert!(
            r >= 0.30,
            "{label}: mean latency reduction {:.1}% below the 30% floor \
             (cold {:.6}s, warm {:.6}s)",
            r * 100.0,
            cold.mean_latency_secs(),
            warm.mean_latency_secs()
        );
        assert!(
            warm.cache_hits > 0,
            "{label}: warm run never hit the result cache"
        );
    }
}

fn reduction(cold: &RepeatedRun, warm: &RepeatedRun) -> f64 {
    let c = cold.mean_latency_secs();
    (c - warm.mean_latency_secs()) / c.max(f64::MIN_POSITIVE)
}

fn render_json(
    peers: usize,
    queries: usize,
    theta: f64,
    sections: &[(&str, RepeatedRun, RepeatedRun)],
) -> String {
    let mut json = format!(
        "{{\n  \"config\": {{\"peers\": {peers}, \"queries\": {queries}, \"theta\": {theta:.2}, \"seed\": {SEED}}}"
    );
    for (label, cold, warm) in sections {
        let lookups = warm.cache_hits + warm.cache_misses;
        json.push_str(&format!(
            ",\n  \"{label}\": {{\"mean_latency_cold_secs\": {:.9}, \"mean_latency_warm_secs\": {:.9}, \"reduction\": {:.4}, \"hit_rate\": {:.4}, \"cache_hits\": {}, \"cache_misses\": {}, \"warm_queries\": {}}}",
            cold.mean_latency_secs(),
            warm.mean_latency_secs(),
            reduction(cold, warm),
            warm.cache_hits as f64 / (lookups.max(1)) as f64,
            warm.cache_hits,
            warm.cache_misses,
            warm.warm_queries,
        ));
    }
    json.push_str("\n}\n");
    json
}
