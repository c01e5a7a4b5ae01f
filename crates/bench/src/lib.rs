//! The benchmark harness: regenerates every figure of the paper's
//! evaluation (§6) and hosts the table microbenches (run with
//! `cargo bench`, timed by the in-tree [`micro`] harness).
//!
//! Methodology: queries run *for real* on reduced row counts (default
//! 6,000 `lineitem` rows per node ≙ 0.1% of the paper's 1 GB/node); the
//! recorded cost traces are replayed by the deterministic simulator with
//! `byte_scale` set so the simulated data volume equals the paper's
//! 1 GB/node. Absolute latencies therefore land in the paper's regime,
//! and the *shapes* (who wins, crossovers, saturation knees) are the
//! reproduction targets — see EXPERIMENTS.md.

pub mod ablations;
pub mod figures;
pub mod flags;
pub mod micro;
pub mod scale;
pub mod setup;
pub mod throughput;

pub use ablations::{run_all as run_ablations, AblationRow};
pub use figures::{
    run_adaptive_figure, run_perf_figure, selection_accuracy, AdaptivePoint, PerfPoint,
};
pub use flags::Flags;
pub use scale::{build_scale_net, run_open_loop, ScaleConfig, ScaleRun};
pub use setup::{build_bestpeer, build_hadoopdb, resource_config, BenchConfig};
pub use throughput::{run_latency_curve, run_scalability, CurvePoint, ScalePoint, WorkloadKind};
