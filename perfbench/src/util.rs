//! Helpers shared by the workloads: set-up phase timing, sample
//! statistics, process memory, answer comparison and seeded draws.

use std::time::Instant;

use bestpeer::common::rng::Rng;
use bestpeer::common::{stable_hash_bytes, Row, Value};
use bestpeer::core::Role;
use bestpeer::sql::ResultSet;
use bestpeer::tpch::schema;

/// Wall seconds spent in each set-up phase of one network build.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// TPC-H data generation.
    pub dbgen: f64,
    /// Bulk load or loader refresh, including BATON publication.
    pub load: f64,
    /// Secondary-index builds.
    pub index: f64,
    /// Global statistics collection.
    pub stats: f64,
    /// Joining peers, defining roles, starting and linking nodes.
    pub link: f64,
    /// The untimed warm-up pass over every query shape.
    pub warmup: f64,
}

impl SetupTimes {
    /// The whole set-up, seconds.
    pub fn total(&self) -> f64 {
        self.dbgen + self.load + self.index + self.stats + self.link + self.warmup
    }
}

/// Run `f`, adding its wall time in seconds to `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_secs_f64();
    r
}

/// Nearest-rank `q`-quantile (0 ≤ q ≤ 1) of an unsorted sample; 0 for
/// an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The full-read role `R` over every global table (§6.1.4).
pub fn full_read_role() -> Role {
    let tables = schema::all_tables();
    let spec: Vec<(&str, Vec<&str>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.columns.iter().map(|c| c.name.as_str()).collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read("R", &borrowed)
}

/// A date literal `days` after the `YYYY-MM-DD` date `base`.
pub fn shifted_date(base: &str, days: i32) -> String {
    match Value::date_from_str(base).expect("valid base date") {
        Value::Date(d) => Value::Date(d + days).to_string(),
        _ => unreachable!("date_from_str yields dates"),
    }
}

/// Values equal up to float rounding (engines may sum in different
/// orders).
fn value_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// The rows of `rs` in a canonical (sorted) order.
pub fn canonical(rs: &ResultSet) -> Vec<Row> {
    let mut rows = rs.rows.clone();
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

/// Order-insensitive answer comparison with float tolerance: same
/// column names and, once both sides are sorted, pairwise-equal rows.
pub fn same_answer(got: &ResultSet, want_columns: &[String], want_rows: &[Row]) -> bool {
    if got.columns != want_columns || got.rows.len() != want_rows.len() {
        return false;
    }
    canonical(got).iter().zip(want_rows).all(|(a, b)| {
        a.arity() == b.arity()
            && a.values()
                .iter()
                .zip(b.values())
                .all(|(x, y)| value_close(x, y))
    })
}

/// A deterministic digest of generated inputs (SQL text, mutation
/// keys): the self-test compares it across seeds.
#[derive(Debug, Default, Clone, Copy)]
pub struct InputDigest(pub u64);

impl InputDigest {
    /// Fold one generated input into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        let mut buf = self.0.to_le_bytes().to_vec();
        buf.extend_from_slice(bytes);
        self.0 = stable_hash_bytes(&buf);
    }
}

/// A Zipf(`theta`) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Cumulative weights `1 / (r + 1)^theta`, normalised.
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.random_unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}
