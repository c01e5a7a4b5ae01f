//! Regenerate the paper's figures.
//!
//! ```text
//! figures [--fig N]... [--all] [--sizes 10,20,50] [--rows 6000] [--steps 8]
//! ```
//!
//! Prints one block per figure with the same series the paper plots.
//! Defaults run every figure at the paper's cluster sizes (10/20/50)
//! with 6,000 lineitem rows per node (0.1% of 1 GB/node; the simulator's
//! byte scaling restores the full volume).

use bestpeer_bench::{
    run_ablations, run_adaptive_figure, run_latency_curve, run_perf_figure, run_scalability,
    selection_accuracy, BenchConfig, Flags, WorkloadKind,
};
use bestpeer_tpch::queries::performance_queries;

#[derive(Debug)]
struct Args {
    figs: Vec<u32>,
    sizes: Vec<usize>,
    rows: usize,
    steps: usize,
    ablations: bool,
}

fn parse_args() -> Args {
    let flags = Flags::parse(
        &["--fig", "--sizes", "--rows", "--steps"],
        &["--all", "--ablations"],
    );
    let ablations = flags.has("--ablations");
    let mut figs = flags.all("--fig");
    if flags.has("--all") || (figs.is_empty() && !ablations) {
        figs.extend(6..=14);
    }
    figs.sort_unstable();
    figs.dedup();
    Args {
        figs,
        sizes: flags.list("--sizes", vec![10, 20, 50]),
        rows: flags.get("--rows", 6_000),
        steps: flags.get("--steps", 8),
        ablations,
    }
}

fn main() {
    let args = parse_args();
    let bench = BenchConfig {
        rows_per_node: args.rows,
        seed: 42,
    };
    println!(
        "# BestPeer++ figure harness — {} lineitem rows/node (byte scale x{:.0}), sizes {:?}",
        args.rows,
        bench.byte_scale(),
        args.sizes
    );
    for fig in &args.figs {
        match fig {
            6..=10 => {
                let (name, _, sql) = performance_queries()
                    .into_iter()
                    .find(|(_, f, _)| f == fig)
                    .expect("figure 6..=10 maps to Q1..=Q5");
                println!("\n## Figure {fig} — {name} latency (seconds)");
                println!("{:>6} {:>14} {:>14}", "nodes", "BestPeer++", "HadoopDB");
                for p in run_perf_figure(sql, &args.sizes, &bench) {
                    println!(
                        "{:>6} {:>14.2} {:>14.2}",
                        p.nodes, p.bestpeer_secs, p.hadoopdb_secs
                    );
                }
            }
            11 => {
                println!("\n## Figure 11 — adaptive query processing on Q5 (seconds)");
                println!(
                    "{:>6} {:>12} {:>12} {:>12} {:>10} {:>11} {:>11} {:>8}",
                    "nodes",
                    "P2P",
                    "MapReduce",
                    "Adaptive",
                    "chose",
                    "pred C_BP",
                    "pred C_MR",
                    "correct"
                );
                let pts = run_adaptive_figure(bestpeer_tpch::Q5, &args.sizes, &bench);
                for p in &pts {
                    println!(
                        "{:>6} {:>12.2} {:>12.2} {:>12.2} {:>10} {:>11.2} {:>11.2} {:>8}",
                        p.nodes,
                        p.p2p_secs,
                        p.mr_secs,
                        p.adaptive_secs,
                        if p.adaptive_chose_p2p { "P2P" } else { "MR" },
                        p.predicted_p2p_secs,
                        p.predicted_mr_secs,
                        if p.prediction_correct { "yes" } else { "no" }
                    );
                }
                println!(
                    "engine-selection accuracy (from exported telemetry): {:.0}%",
                    selection_accuracy(&pts) * 100.0
                );
            }
            12 => {
                let sizes: Vec<usize> = args
                    .sizes
                    .iter()
                    .map(|&n| if n % 2 == 0 { n } else { n + 1 })
                    .collect();
                println!("\n## Figure 12 — scalability: saturated throughput (queries/second)");
                println!(
                    "{:>6} {:>16} {:>16}",
                    "nodes", "supplier (light)", "retailer (heavy)"
                );
                for p in run_scalability(&sizes, &bench) {
                    println!(
                        "{:>6} {:>16.1} {:>16.2}",
                        p.nodes, p.supplier_qps, p.retailer_qps
                    );
                }
            }
            13 | 14 => {
                let (kind, label) = if *fig == 13 {
                    (WorkloadKind::Supplier, "supplier (light)")
                } else {
                    (WorkloadKind::Retailer, "retailer (heavy)")
                };
                let nodes = {
                    let n = *args.sizes.last().unwrap_or(&50);
                    if n.is_multiple_of(2) {
                        n
                    } else {
                        n + 1
                    }
                };
                println!(
                    "\n## Figure {fig} — {label} workload: latency vs throughput ({nodes} peers)"
                );
                println!(
                    "{:>12} {:>12} {:>12} {:>12}",
                    "offered q/s", "achieved", "mean lat s", "p99 lat s"
                );
                for p in run_latency_curve(nodes, kind, &bench, args.steps) {
                    println!(
                        "{:>12.1} {:>12.1} {:>12.3} {:>12.3}",
                        p.offered_qps, p.achieved_qps, p.mean_latency_secs, p.p99_latency_secs
                    );
                }
            }
            other => eprintln!("no figure {other} in the paper's evaluation (6..=14)"),
        }
    }
    if args.ablations {
        let n = *args.sizes.first().unwrap_or(&10);
        println!("\n## Ablations ({n} peers) — DESIGN.md ⚑ items");
        println!(
            "{:<18} {:<22} {:>14} {:>14} {:>8}",
            "feature", "metric", "on", "off", "off/on"
        );
        for row in run_ablations(n, &bench) {
            println!(
                "{:<18} {:<22} {:>14.2} {:>14.2} {:>7.1}x",
                row.name,
                row.metric,
                row.on,
                row.off,
                row.factor()
            );
        }
    }
}
