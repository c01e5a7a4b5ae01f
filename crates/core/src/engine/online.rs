//! Distributed online aggregation (paper §2 and §7; reference \[25\]).
//!
//! One of the techniques BestPeer developed on its way to BestPeer++:
//! for long-running aggregates, return *progressive* estimates with
//! confidence intervals as partial results stream in from the peers,
//! instead of blocking until every peer has answered. The estimator
//! treats the contributing peers as a random sample of the population of
//! partitions: after `k` of `n` peers have reported, a SUM/COUNT is
//! estimated by scaling the running total by `n/k`, with a Student-t
//! style confidence interval from the sample variance of the per-peer
//! contributions.

use bestpeer_common::{codec, Error, PeerId, Result};
use bestpeer_simnet::{Phase, Task, Trace};
use bestpeer_sql::ast::{AggFunc, Expr, SelectStmt};
use bestpeer_sql::dist::split_aggregate;
use bestpeer_sql::exec::ResultSet;

use super::EngineCtx;

/// One progressive estimate, produced after each peer reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineEstimate {
    /// How many of the peers have reported.
    pub peers_reported: usize,
    /// Total contributing peers.
    pub peers_total: usize,
    /// The running estimate of the aggregate.
    pub estimate: f64,
    /// Half-width of the ~95% confidence interval (0 when exact).
    pub half_width: f64,
}

impl OnlineEstimate {
    /// Is the true value plausibly within the interval around the
    /// estimate? (Convenience for tests and monitoring.)
    pub fn covers(&self, truth: f64) -> bool {
        (truth - self.estimate).abs() <= self.half_width + 1e-9
    }
}

/// The outcome of an online aggregation run.
#[derive(Debug)]
pub struct OnlineOutput {
    /// One estimate per reporting stage (the "progress bar" the user
    /// watches).
    pub estimates: Vec<OnlineEstimate>,
    /// The exact final result (equals what the basic engine returns) —
    /// exact over the *reporting* peers when `degraded` is set.
    pub final_result: ResultSet,
    /// The cost trace (one phase per stage).
    pub trace: Trace,
    /// Set when one or more data peers were down and their partitions
    /// are missing from the answer (graceful degradation: online
    /// aggregation keeps streaming estimates from the survivors instead
    /// of failing the whole run).
    pub degraded: bool,
    /// How many owning peers were skipped because they were down.
    pub skipped_peers: u32,
    /// Telemetry for the run (the network layer fills this in; engines
    /// constructed directly leave the default).
    pub report: bestpeer_telemetry::QueryReport,
}

/// Run a single-aggregate query (`SUM`, `COUNT`, or `AVG`, one table, no
/// GROUP BY) online: peers are polled one at a time and an estimate with
/// a shrinking confidence interval is emitted after each response.
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<OnlineOutput> {
    if stmt.join_count() != 0 || !stmt.group_by.is_empty() {
        return Err(Error::Plan(
            "online aggregation supports single-table, ungrouped aggregates".into(),
        ));
    }
    if stmt.projections.len() != 1 {
        return Err(Error::Plan(
            "online aggregation takes exactly one aggregate".into(),
        ));
    }
    let func = match &stmt.projections[0].expr {
        Expr::Agg { func, .. } => *func,
        other => {
            return Err(Error::Plan(format!(
                "online aggregation needs a bare aggregate, found `{other}`"
            )))
        }
    };
    if !matches!(func, AggFunc::Sum | AggFunc::Count | AggFunc::Avg) {
        return Err(Error::Plan(format!(
            "online aggregation supports SUM/COUNT/AVG, not {func}"
        )));
    }

    let mut trace = Trace::new();
    let located = ctx.locate(submitter, stmt, &mut trace)?;
    let owners = located.get(&stmt.from[0]).cloned().unwrap_or_default();
    if owners.is_empty() {
        return Err(Error::Network(format!("no peer hosts `{}`", stmt.from[0])));
    }
    let dist = split_aggregate(stmt)?;
    let n = owners.len();

    // Per-peer contributions: (sum-like value, count) pairs.
    let mut sums: Vec<f64> = Vec::with_capacity(n);
    let mut counts: Vec<f64> = Vec::with_capacity(n);
    let mut partial_rows = Vec::new();
    let mut estimates = Vec::with_capacity(n);
    let mut degraded = false;
    let mut skipped_peers = 0u32;
    let mut stage = 0usize;
    for owner in owners.iter() {
        // Graceful degradation: a downed peer's partition is skipped
        // (its contribution stays missing) rather than failing the run.
        let (rs, stats, _) = match ctx.serve_batch(&[*owner], &dist.partial) {
            Ok(mut served) => served.remove(0),
            Err(e) if e.kind() == "unavailable" => {
                degraded = true;
                skipped_peers += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        stage += 1;
        let bytes = codec::batch_encoded_size(&rs.rows);
        trace.push(
            Phase::new(format!("online-stage-{stage}")).task(
                Task::on(*owner)
                    .disk(stats.bytes_scanned)
                    .cpu(stats.bytes_scanned + bytes)
                    .send(submitter, bytes),
            ),
        );
        // The partial row layout depends on the aggregate:
        // SUM/COUNT → one column; AVG → (sum, count).
        let row = rs.rows.first();
        let (s, c) = match func {
            AggFunc::Sum => (
                row.map_or(0.0, |r| r.get(0).as_f64().unwrap_or(0.0)),
                row.map_or(0.0, |_| 1.0),
            ),
            AggFunc::Count => {
                let v = row.map_or(0.0, |r| r.get(0).as_f64().unwrap_or(0.0));
                (v, v)
            }
            AggFunc::Avg => (
                row.map_or(0.0, |r| r.get(0).as_f64().unwrap_or(0.0)),
                row.map_or(0.0, |r| r.get(1).as_f64().unwrap_or(0.0)),
            ),
            AggFunc::Min | AggFunc::Max => unreachable!("validated above"),
        };
        sums.push(s);
        counts.push(c);
        partial_rows.extend(rs.rows);

        estimates.push(estimate_stage(func, &sums, &counts, n));
    }
    if sums.is_empty() {
        return Err(Error::Unavailable(format!(
            "every peer hosting `{}` is down",
            stmt.from[0]
        )));
    }

    let final_result = dist.combine.apply(&partial_rows)?;
    trace.push(Phase::new("online-final").task(Task::on(submitter).cpu(1024)));
    Ok(OnlineOutput {
        estimates,
        final_result,
        trace,
        degraded,
        skipped_peers,
        report: Default::default(),
    })
}

/// Estimate after `k = sums.len()` of `n` peers, with a ~95% interval
/// from the sample variance of per-peer contributions (finite-population
/// corrected).
fn estimate_stage(func: AggFunc, sums: &[f64], counts: &[f64], n: usize) -> OnlineEstimate {
    let k = sums.len();
    let scale = n as f64 / k as f64;
    let total_sum: f64 = sums.iter().sum();
    let total_count: f64 = counts.iter().sum();
    let estimate = match func {
        AggFunc::Sum | AggFunc::Count => total_sum * scale,
        AggFunc::Avg => {
            if total_count == 0.0 {
                0.0
            } else {
                total_sum / total_count
            }
        }
        _ => unreachable!("validated by execute"),
    };
    let half_width = if k >= n {
        0.0
    } else if k < 2 {
        f64::INFINITY
    } else {
        let mean = total_sum / k as f64;
        let var: f64 = sums.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (k as f64 - 1.0);
        // 95% normal quantile, scaled to the total, with the
        // finite-population correction factor sqrt((n-k)/n).
        let fpc = ((n - k) as f64 / n as f64).sqrt();
        let se_total = n as f64 * (var / k as f64).sqrt() * fpc;
        match func {
            AggFunc::Sum | AggFunc::Count => 1.96 * se_total,
            AggFunc::Avg => {
                if total_count == 0.0 {
                    f64::INFINITY
                } else {
                    1.96 * se_total / (total_count * scale)
                }
            }
            _ => unreachable!(),
        }
    };
    OnlineEstimate {
        peers_reported: k,
        peers_total: n,
        estimate,
        half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_estimates_scale_and_tighten() {
        // 4 peers with similar contributions.
        let all = [10.0, 12.0, 9.0, 11.0];
        let mut sums = Vec::new();
        let mut widths = Vec::new();
        for s in all {
            sums.push(s);
            let counts = vec![1.0; sums.len()];
            let e = estimate_stage(AggFunc::Sum, &sums, &counts, 4);
            widths.push(e.half_width);
            if sums.len() == 2 {
                // 22 seen of expected 42 → scaled estimate 44.
                assert!((e.estimate - 44.0).abs() < 1e-9);
            }
        }
        assert_eq!(widths[3], 0.0, "all peers reported: exact");
        assert!(widths[2] < widths[1], "interval shrinks: {widths:?}");
        let final_e = estimate_stage(AggFunc::Sum, &sums, &[1.0; 4], 4);
        assert_eq!(final_e.estimate, 42.0);
    }

    #[test]
    fn avg_estimate_weights_by_count() {
        // Peer A: sum 100 over 10 rows; peer B: sum 10 over 10 rows.
        let e = estimate_stage(AggFunc::Avg, &[100.0, 10.0], &[10.0, 10.0], 2);
        assert!((e.estimate - 5.5).abs() < 1e-9);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn first_stage_interval_is_unbounded() {
        let e = estimate_stage(AggFunc::Sum, &[5.0], &[1.0], 8);
        assert_eq!(e.peers_reported, 1);
        assert!(e.half_width.is_infinite());
        assert_eq!(e.estimate, 40.0, "5 × 8/1");
    }

    #[test]
    fn coverage_helper() {
        let e = OnlineEstimate {
            peers_reported: 2,
            peers_total: 4,
            estimate: 100.0,
            half_width: 10.0,
        };
        assert!(e.covers(105.0));
        assert!(!e.covers(120.0));
    }
}
