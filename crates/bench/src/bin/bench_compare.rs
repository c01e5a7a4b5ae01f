//! Bench-regression gate: diff freshly produced benchmark JSON against
//! the committed baselines and fail on a >30% regression.
//!
//! ```text
//! bench_compare --fresh PATH --baseline PATH [--tolerance F]
//! ```
//!
//! Both files are benchmark outputs (`BENCH_exec.json` or
//! `BENCH_cache.json`). Every *floor metric* — a numeric field where
//! bigger is better (`speedup`, `reduction`, `rows_per_sec`,
//! `hit_rate`, ...) — found in the baseline must be present in the
//! fresh file at `baseline × (1 − tolerance)` or above. Fields the
//! baseline doesn't carry (configs, raw counters, latencies) are
//! reported but never gate, so re-baselining is a one-file commit and
//! noisy absolute numbers can't fail CI.

use bestpeer_bench::Flags;
use bestpeer_telemetry::Json;

/// Leaf-field suffixes that gate (bigger is better).
const FLOOR_METRICS: &[&str] = &["speedup", "reduction", "rows_per_sec", "hit_rate", "qps"];

fn main() {
    let flags = Flags::parse(&["--fresh", "--baseline", "--tolerance"], &[]);
    let fresh_path: String = flags.opt("--fresh").expect("--fresh PATH is required");
    let baseline_path: String = flags
        .opt("--baseline")
        .expect("--baseline PATH is required");
    let tolerance = flags.get("--tolerance", 0.30);
    let fresh = load(&fresh_path);
    let baseline = load(&baseline_path);

    let mut failures = Vec::new();
    let mut checked = 0;
    compare(
        &baseline,
        &fresh,
        "",
        tolerance,
        &mut checked,
        &mut failures,
    );

    println!(
        "bench_compare: {checked} floor metric(s) checked against {baseline_path} \
         (tolerance {:.0}%)",
        tolerance * 100.0
    );
    if failures.is_empty() {
        println!("bench_compare: OK — {fresh_path} is within tolerance");
        return;
    }
    for f in &failures {
        eprintln!("bench_compare: REGRESSION {f}");
    }
    eprintln!(
        "bench_compare: {} metric(s) regressed beyond {:.0}% in {fresh_path}",
        failures.len(),
        tolerance * 100.0
    );
    std::process::exit(1);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_compare: cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("bench_compare: {path} is not valid JSON: {e}"))
}

/// Walk the baseline; every floor-metric leaf must be matched (within
/// tolerance) by the same path in the fresh document.
fn compare(
    baseline: &Json,
    fresh: &Json,
    path: &str,
    tolerance: f64,
    checked: &mut u32,
    failures: &mut Vec<String>,
) {
    let Json::Obj(fields) = baseline else {
        return;
    };
    for (key, base_val) in fields {
        let here = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        match base_val {
            Json::Obj(_) => {
                let sub = fresh.get(key).cloned().unwrap_or(Json::obj());
                compare(base_val, &sub, &here, tolerance, checked, failures);
            }
            Json::Num(base) if is_floor_metric(key) => {
                *checked += 1;
                let floor = base * (1.0 - tolerance);
                match fresh.get(key).and_then(Json::as_f64) {
                    Some(got) if got >= floor => {}
                    Some(got) => failures.push(format!(
                        "{here}: {got:.4} < floor {floor:.4} (baseline {base:.4})"
                    )),
                    None => failures.push(format!("{here}: missing from the fresh run")),
                }
            }
            _ => {}
        }
    }
}

fn is_floor_metric(key: &str) -> bool {
    FLOOR_METRICS.iter().any(|m| key.ends_with(m))
}
