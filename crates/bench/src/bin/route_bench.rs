//! Learned-routing benchmark: Zipf-skewed repeated-template workloads
//! with the routing advisor on versus pure-BATON routing.
//!
//! ```text
//! route_bench [--peers N] [--queries N] [--theta Z] [--out PATH]
//! ```
//!
//! Two measurements (one per supply-chain workload side), written to
//! `BENCH_route.json` (default) and printed to stdout. Each runs the
//! same seeded Zipf(θ)-distributed template sequence on two identically
//! loaded networks with *both* query-path caches off — pure BATON
//! lookups versus the routing advisor — and reports:
//!
//! - **hops_baton / hops_advisor** — BATON overlay routing hops summed
//!   over the run;
//! - **hop_reduction** — `(baton − advisor) / baton` (the gated floor
//!   metric: `bench_compare` enforces ≥ 70% of the committed baseline);
//! - **mean/p50/p99 latency** for both modes, plus the p99 delta —
//!   every bypassed lookup removes a `locate` phase from the query's
//!   critical path;
//! - **advisor_queries** — queries routed from a confirmed template.
//!
//! The binary asserts the PR's acceptance criteria: per-query result
//! digests are byte-identical advisor-on versus advisor-off *and*
//! across 1/2/8 worker threads, the mean overlay-hop reduction is
//! ≥ 30% on each workload side, and the advisor-on p99 latency is no
//! worse than pure BATON's — so `scripts/check.sh` fails on a routing
//! regression.

use bestpeer_bench::setup::BenchConfig;
use bestpeer_bench::throughput::{
    build_supply_chain_routing, run_repeated_templates, RepeatedRun, WorkloadKind,
};
use bestpeer_bench::Flags;
use bestpeer_common::pool;

const SEED: u64 = 0x2007E;

fn main() {
    let flags = Flags::parse(&["--peers", "--queries", "--theta", "--out"], &[]);
    let peers: usize = flags.get("--peers", 8);
    let queries: usize = flags.get("--queries", 400);
    let theta = flags.get("--theta", 1.1);
    let out = flags.get("--out", "BENCH_route.json".to_owned());
    let bench = BenchConfig {
        rows_per_node: 2_000,
        seed: 7,
    };

    let mut sections = Vec::new();
    for (label, kind) in [
        ("repeated_supplier", WorkloadKind::Supplier),
        ("repeated_retailer", WorkloadKind::Retailer),
    ] {
        let run = |advisor: bool| {
            let mut net = build_supply_chain_routing(peers, &bench, advisor);
            run_repeated_templates(&mut net, kind, &bench, queries, theta, SEED)
        };
        let baton = run(false);
        let advisor = run(true);
        assert_eq!(
            baton.digests, advisor.digests,
            "{label}: advisor-routed results diverged from pure BATON"
        );
        // Byte-identity must also hold at any parallelism: replay the
        // advisor run at 1/2/8 worker threads and diff the digests.
        for threads in [1usize, 2, 8] {
            pool::set_threads(threads);
            let replay = run(true);
            pool::clear_threads();
            assert_eq!(
                advisor.digests, replay.digests,
                "{label}: advisor results diverged at {threads} threads"
            );
        }
        sections.push((label, baton, advisor));
    }

    let json = render_json(peers, queries, theta, &sections);
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_route.json");
    eprintln!("wrote {out}");

    for (label, baton, advisor) in &sections {
        let r = hop_reduction(baton, advisor);
        assert!(
            r >= 0.30,
            "{label}: overlay-hop reduction {:.1}% below the 30% floor \
             (baton {} hops, advisor {} hops)",
            r * 100.0,
            baton.overlay_hops,
            advisor.overlay_hops
        );
        assert!(
            advisor.advisor_queries > 0,
            "{label}: the advisor never routed a query"
        );
        assert!(
            advisor.latency_quantile_secs(0.99) <= baton.latency_quantile_secs(0.99),
            "{label}: advisor p99 {:.9}s worse than BATON p99 {:.9}s",
            advisor.latency_quantile_secs(0.99),
            baton.latency_quantile_secs(0.99)
        );
    }
}

fn hop_reduction(baton: &RepeatedRun, advisor: &RepeatedRun) -> f64 {
    let b = baton.overlay_hops as f64;
    (b - advisor.overlay_hops as f64) / b.max(f64::MIN_POSITIVE)
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
    for (label, baton, advisor) in sections {
        json.push_str(&format!(
            ",\n  \"{label}\": {{\"hops_baton\": {}, \"hops_advisor\": {}, \"hop_reduction\": {:.4}, \"mean_latency_baton_secs\": {:.9}, \"mean_latency_advisor_secs\": {:.9}, \"p50_latency_baton_secs\": {:.9}, \"p50_latency_advisor_secs\": {:.9}, \"p99_latency_baton_secs\": {:.9}, \"p99_latency_advisor_secs\": {:.9}, \"advisor_queries\": {}}}",
            baton.overlay_hops,
            advisor.overlay_hops,
            hop_reduction(baton, advisor),
            baton.mean_latency_secs(),
            advisor.mean_latency_secs(),
            baton.latency_quantile_secs(0.50),
            advisor.latency_quantile_secs(0.50),
            baton.latency_quantile_secs(0.99),
            advisor.latency_quantile_secs(0.99),
            advisor.advisor_queries,
        ));
    }
    json.push_str("\n}\n");
    json
}
