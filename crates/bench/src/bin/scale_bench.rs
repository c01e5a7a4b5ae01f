//! Saturation / load-shedding / elasticity benchmark: an open-loop
//! client population against the bounded-admission peer fleet.
//!
//! ```text
//! scale_bench [--peers N] [--sessions N] [--theta Z] [--out PATH]
//! ```
//!
//! Three sections, written to `BENCH_scale.json` (default) and printed
//! to stdout:
//!
//! - **saturation** — a sweep of offered load at 0.5×/1×/1.5×/2× the
//!   fleet's aggregate service capacity; `saturated_qps` is the best
//!   goodput (admitted sessions per virtual second) the fleet sustains.
//! - **overload_2x** — the same 2×-capacity storm against bounded
//!   queues (shedding on) versus unbounded queues (shedding off);
//!   `shedding_p99_speedup` is p99-off over p99-on. The binary asserts
//!   the shedding-on tail stays within the SLO and the speedup is ≥
//!   1.5×, so `scripts/check.sh` fails if load shedding stops pulling
//!   its weight.
//! - **elasticity** — the 2× storm with the closed scale-out loop
//!   enabled: sustained overload adds elastic peers (reaction time is
//!   measured from overload onset to the first scale-out, in virtual
//!   time) and the drained fleet contracts back to its static size.
//!
//! Everything runs in virtual time from a fixed seed. The binary
//! re-runs the overload section and asserts the two runs are
//! structurally identical, so the emitted JSON is byte-stable and safe
//! to gate against `baselines/BENCH_scale.json`.

use bestpeer_bench::scale::{build_scale_net, run_open_loop, ScaleConfig, ScaleRun};
use bestpeer_bench::Flags;
use bestpeer_simnet::SimTime;

const SEED: u64 = 0x5CA1E;

fn main() {
    let flags = Flags::parse(&["--peers", "--sessions", "--theta", "--out"], &[]);
    let peers: usize = flags.get("--peers", 120);
    let sessions: usize = flags.get("--sessions", 120_000);
    let theta = flags.get("--theta", 0.8);
    let out = flags.get("--out", "BENCH_scale.json".to_owned());
    let cfg = ScaleConfig {
        peers,
        tenants: 4_000,
        theta,
        sessions,
        service: SimTime::from_micros(800),
        queue_depth: 32,
        slo: SimTime::from_millis(40),
        epoch: SimTime::from_millis(10),
        elastic_limit: peers,
        scale_threshold: 2,
        seed: SEED,
    };
    assert!(
        cfg.sessions >= 100_000,
        "the scale bench must drive at least 10^5 sessions (got {})",
        cfg.sessions
    );
    assert!(
        cfg.peers >= 100,
        "the scale bench must target at least 100 peers (got {})",
        cfg.peers
    );
    let capacity = cfg.capacity_qps();

    // Section 1: saturation sweep. Each point drives sessions/4 arrivals
    // at a multiple of fleet capacity against a fresh fleet.
    let sweep_cfg = ScaleConfig {
        sessions: cfg.sessions / 4,
        ..cfg.clone()
    };
    let factors = [0.5, 1.0, 1.5, 2.0];
    let sweep: Vec<ScaleRun> = factors
        .iter()
        .map(|f| {
            let mut net = build_scale_net(&sweep_cfg, sweep_cfg.queue_depth);
            run_open_loop(&mut net, &sweep_cfg, capacity * f, false)
        })
        .collect();
    let saturated_qps = sweep
        .iter()
        .map(ScaleRun::goodput_qps)
        .fold(0.0f64, f64::max);

    // Section 2: 2× overload, bounded versus unbounded queues.
    let rate_2x = capacity * 2.0;
    let run_overload = |depth: u32| {
        let mut net = build_scale_net(&cfg, depth);
        run_open_loop(&mut net, &cfg, rate_2x, false)
    };
    let on = run_overload(cfg.queue_depth);
    let off = run_overload(u32::MAX);
    let speedup = off.p99().as_secs_f64() / on.p99().as_secs_f64().max(f64::MIN_POSITIVE);

    // Determinism gate: the same seed must reproduce the same run.
    let on_again = run_overload(cfg.queue_depth);
    assert_eq!(
        on, on_again,
        "same-seed overload runs diverged — BENCH_scale.json would not be byte-stable"
    );

    // Section 3: the closed elasticity loop under the same storm.
    let elastic = {
        let mut net = build_scale_net(&cfg, cfg.queue_depth);
        run_open_loop(&mut net, &cfg, rate_2x, true)
    };

    let json = render_json(
        &cfg,
        capacity,
        &factors,
        &sweep,
        saturated_qps,
        &on,
        &off,
        speedup,
        &elastic,
    );
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {out}");

    // Acceptance gates (ISSUE 9): shedding keeps the tail inside the
    // SLO under 2× overload and beats unbounded queues by ≥ 1.5×; the
    // elastic loop reacts, scales out, and contracts back.
    assert!(on.shed > 0, "2× overload never shed — queues not bounded?");
    assert!(
        on.p99() <= cfg.slo,
        "shedding-on p99 {:.6}s exceeds the {:.6}s SLO under 2× overload",
        on.p99().as_secs_f64(),
        cfg.slo.as_secs_f64()
    );
    assert!(
        speedup >= 1.5,
        "shedding p99 speedup {speedup:.2}× below the 1.5× floor \
         (on {:.6}s, off {:.6}s)",
        on.p99().as_secs_f64(),
        off.p99().as_secs_f64()
    );
    assert!(
        elastic.scale_out >= 1,
        "sustained overload never scaled out"
    );
    assert!(
        elastic.scale_in >= 1,
        "drained elastic fleet never scaled in"
    );
    assert!(
        elastic.reaction_us.unwrap_or(0.0) > 0.0,
        "scale-out reaction time was not measured"
    );
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &ScaleConfig,
    capacity: f64,
    factors: &[f64],
    sweep: &[ScaleRun],
    saturated_qps: f64,
    on: &ScaleRun,
    off: &ScaleRun,
    speedup: f64,
    elastic: &ScaleRun,
) -> String {
    let mut json = format!(
        "{{\n  \"config\": {{\"peers\": {}, \"tenants\": {}, \"sessions\": {}, \"theta\": {:.2}, \
         \"service_us\": {}, \"queue_depth\": {}, \"slo_us\": {}, \"epoch_us\": {}, \
         \"elastic_limit\": {}, \"scale_threshold\": {}, \"capacity_qps\": {:.1}, \"seed\": {}}}",
        cfg.peers,
        cfg.tenants,
        cfg.sessions,
        cfg.theta,
        cfg.service.as_micros(),
        cfg.queue_depth,
        cfg.slo.as_micros(),
        cfg.epoch.as_micros(),
        cfg.elastic_limit,
        cfg.scale_threshold,
        capacity,
        cfg.seed,
    );
    json.push_str(",\n  \"saturation\": {");
    for (f, run) in factors.iter().zip(sweep) {
        json.push_str(&format!(
            "\"goodput_{}x_qps\": {:.1}, ",
            format!("{f:.1}").replace('.', "_"),
            run.goodput_qps()
        ));
    }
    json.push_str(&format!(
        "\"shed_rate_at_2x\": {:.4}, \"saturated_qps\": {saturated_qps:.1}}}",
        sweep.last().map_or(0.0, ScaleRun::shed_rate)
    ));
    json.push_str(&format!(
        ",\n  \"overload_2x\": {{\"p50_shed_on_secs\": {:.6}, \"p99_shed_on_secs\": {:.6}, \
         \"p50_shed_off_secs\": {:.6}, \"p99_shed_off_secs\": {:.6}, \
         \"shedding_p99_speedup\": {speedup:.2}, \"shed_on_count\": {}, \"shed_rate_on\": {:.4}, \
         \"slo_miss_rate_on\": {:.4}, \"slo_miss_rate_off\": {:.4}, \
         \"goodput_on_qps\": {:.1}, \"goodput_off_qps\": {:.1}}}",
        on.p50().as_secs_f64(),
        on.p99().as_secs_f64(),
        off.p50().as_secs_f64(),
        off.p99().as_secs_f64(),
        on.shed,
        on.shed_rate(),
        on.slo_miss_rate(),
        off.slo_miss_rate(),
        on.goodput_qps(),
        off.goodput_qps(),
    ));
    json.push_str(&format!(
        ",\n  \"elasticity\": {{\"scale_out_events\": {}, \"scale_in_events\": {}, \
         \"reaction_us\": {:.0}, \"peak_peers\": {}, \"p99_secs\": {:.6}, \
         \"shed_rate\": {:.4}, \"slo_miss_rate\": {:.4}, \"goodput_qps\": {:.1}}}",
        elastic.scale_out,
        elastic.scale_in,
        elastic.reaction_us.unwrap_or(0.0),
        elastic.peak_peers,
        elastic.p99().as_secs_f64(),
        elastic.shed_rate(),
        elastic.slo_miss_rate(),
        elastic.goodput_qps(),
    ));
    json.push_str("\n}\n");
    json
}
