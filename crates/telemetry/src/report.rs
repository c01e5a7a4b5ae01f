//! Per-query reports assembled from simnet traces.
//!
//! A [`QueryReport`] is the telemetry record of one `submit_query`: per
//! phase, the simulated latency (from replaying the trace on a
//! [`Cluster`]) and the disk/CPU/network bytes the engine charged;
//! plus the participants, the retry/resubmit accounting from the
//! fault-tolerant query path, the degraded-peer count (online
//! aggregation), and — when the adaptive planner ran — the predicted
//! `C_BP`/`C_MR` alongside the actual cost.
//!
//! Reports reconcile *exactly* with their traces: per-phase byte totals
//! match the trace's, and the phase latencies sum to the cluster's
//! single-query latency to the microsecond
//! ([`QueryReport::reconciles_with`] asserts both). That exactness is
//! what lets the §5.5 feedback loop trust
//! [`QueryReport::measured_mu`]/[`QueryReport::measured_phi`].

use bestpeer_common::{Error, PeerId, Result};
use bestpeer_simnet::{Cluster, SimTime, Trace};

use crate::json::Json;

/// Labels of phases injected by the retry/fault machinery rather than
/// the engine proper: exponential backoff between attempts, automatic
/// stale-snapshot resubmission delays, and slow-link latency charges.
fn is_overhead_label(label: &str) -> bool {
    label.starts_with("retry-backoff")
        || label.starts_with("resubmit")
        || label.starts_with("shed-backoff")
        || label == "fault-slowdown"
}

/// Telemetry for one phase of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// The trace phase's label.
    pub label: String,
    /// Simulated wall-clock span of the phase (queueing included).
    pub latency: SimTime,
    /// Bytes read from disk in the phase.
    pub disk_bytes: u64,
    /// Bytes processed by CPUs in the phase.
    pub cpu_bytes: u64,
    /// Bytes shipped over the network in the phase.
    pub network_bytes: u64,
    /// Fixed (non-data) latency charged by the phase's tasks.
    pub fixed: SimTime,
    /// Number of parallel tasks.
    pub tasks: u32,
}

/// The adaptive planner's recorded decision (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSelection {
    /// Predicted parallel-P2P latency `C_BP`, seconds.
    pub predicted_p2p_secs: f64,
    /// Predicted MapReduce latency `C_MR`, seconds.
    pub predicted_mr_secs: f64,
    /// True when the P2P engine was predicted cheaper (and ran).
    pub chose_p2p: bool,
}

/// The full telemetry record of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Which engine executed (`basic`, `parallel-p2p`, `mapreduce`,
    /// `online`).
    pub engine: String,
    /// Per-phase telemetry, in execution order.
    pub phases: Vec<PhaseReport>,
    /// End-to-end simulated latency (equals the sum of phase latencies).
    pub total_latency: SimTime,
    /// Every peer that appears in the trace.
    pub participants: Vec<PeerId>,
    /// End-to-end engine executions (1 = fault-free path).
    pub attempts: u32,
    /// Automatic stale-snapshot resubmissions consumed.
    pub resubmits: u32,
    /// Peers skipped because they were down (online aggregation's
    /// graceful degradation; 0 for the exact engines).
    pub degraded_peers: u32,
    /// The adaptive planner's prediction, when it ran.
    pub selection: Option<EngineSelection>,
    /// The byte multiplier the cluster applied when simulating (so
    /// measured rates are expressed at the paper's data scale).
    pub byte_scale: f64,
    /// Result-cache (level 2) hits across this query's remote fetches.
    pub cache_hits: u64,
    /// Result-cache misses (real fetches) across this query.
    pub cache_misses: u64,
    /// Index-entry cache (level 1, §5.2) hits during peer location.
    pub index_cache_hits: u64,
    /// Index-entry cache misses (BATON searches) during peer location.
    pub index_cache_misses: u64,
    /// Attempts rejected by a peer's bounded admission queue
    /// (`Error::Overloaded`) before the query finally ran; each one cost
    /// a `shed-backoff-*` overhead phase.
    pub sheds: u32,
    /// True when the query's end-to-end latency exceeded the configured
    /// SLO target (always false when no SLO is configured).
    pub slo_violation: bool,
    /// True when the learned routing advisor answered this query's peer
    /// location from a confirmed template (BATON lookup bypassed).
    pub advisor_hit: bool,
    /// BATON overlay routing hops charged locating this query's data
    /// owners (0 on index-cache or advisor-routed lookups).
    pub overlay_hops: u64,
}

impl Default for QueryReport {
    /// An empty report (no engine, no phases, scale 1.0) — the
    /// placeholder engines use before the network layer assembles the
    /// real one.
    fn default() -> Self {
        QueryReport {
            engine: String::new(),
            phases: Vec::new(),
            total_latency: SimTime::ZERO,
            participants: Vec::new(),
            attempts: 1,
            resubmits: 0,
            degraded_peers: 0,
            selection: None,
            byte_scale: 1.0,
            cache_hits: 0,
            cache_misses: 0,
            index_cache_hits: 0,
            index_cache_misses: 0,
            sheds: 0,
            slo_violation: false,
            advisor_hit: false,
            overlay_hops: 0,
        }
    }
}

impl QueryReport {
    /// Assemble a report by replaying `trace` on (a fresh copy of)
    /// `cluster`. Retry/resubmit counts, degradation, and the adaptive
    /// selection start at their fault-free defaults; the query path
    /// fills them in.
    pub fn from_trace(engine: &str, trace: &Trace, cluster: &Cluster) -> Self {
        let latencies = cluster.single_query_phase_latencies(trace);
        let phases: Vec<PhaseReport> = trace
            .phases
            .iter()
            .zip(&latencies)
            .map(|(p, lat)| PhaseReport {
                label: p.label.clone(),
                latency: *lat,
                disk_bytes: p.tasks.iter().map(|t| t.disk_bytes).sum(),
                cpu_bytes: p.tasks.iter().map(|t| t.cpu_bytes).sum(),
                network_bytes: p.tasks.iter().flat_map(|t| &t.sends).map(|s| s.bytes).sum(),
                fixed: p
                    .tasks
                    .iter()
                    .map(|t| t.fixed)
                    .fold(SimTime::ZERO, |a, b| a + b),
                tasks: p.tasks.len() as u32,
            })
            .collect();
        let total_latency = phases
            .iter()
            .map(|p| p.latency)
            .fold(SimTime::ZERO, |a, b| a + b);
        QueryReport {
            engine: engine.to_string(),
            phases,
            total_latency,
            participants: trace.participants(),
            attempts: 1,
            resubmits: 0,
            degraded_peers: 0,
            selection: None,
            byte_scale: cluster.config().byte_scale,
            cache_hits: 0,
            cache_misses: 0,
            index_cache_hits: 0,
            index_cache_misses: 0,
            sheds: 0,
            slo_violation: false,
            advisor_hit: false,
            overlay_hops: 0,
        }
    }

    /// Warm/cold classification: a query is *warm* when at least one of
    /// its remote fetches was answered from the result cache.
    pub fn is_warm(&self) -> bool {
        self.cache_hits > 0
    }

    /// Total network bytes across phases.
    pub fn network_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.network_bytes).sum()
    }

    /// Total disk bytes across phases.
    pub fn disk_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.disk_bytes).sum()
    }

    /// Total CPU bytes across phases.
    pub fn cpu_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.cpu_bytes).sum()
    }

    /// Total time spent in retry backoff, resubmission delay, and
    /// fault-induced slowdown phases.
    pub fn backoff(&self) -> SimTime {
        self.phases
            .iter()
            .filter(|p| is_overhead_label(&p.label))
            .map(|p| p.latency)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Latency of the productive (non-overhead) phases.
    pub fn work_latency(&self) -> SimTime {
        self.total_latency.saturating_sub(self.backoff())
    }

    /// Does this report account for `trace` exactly? Checks per-phase
    /// and total byte counts, the participant set, and that the phase
    /// latencies sum to the cluster's end-to-end latency for the trace.
    pub fn reconciles_with(&self, trace: &Trace, cluster: &Cluster) -> bool {
        if self.phases.len() != trace.phases.len() {
            return false;
        }
        for (rep, ph) in self.phases.iter().zip(&trace.phases) {
            let disk: u64 = ph.tasks.iter().map(|t| t.disk_bytes).sum();
            let cpu: u64 = ph.tasks.iter().map(|t| t.cpu_bytes).sum();
            let net: u64 = ph
                .tasks
                .iter()
                .flat_map(|t| &t.sends)
                .map(|s| s.bytes)
                .sum();
            if rep.label != ph.label
                || rep.disk_bytes != disk
                || rep.cpu_bytes != cpu
                || rep.network_bytes != net
            {
                return false;
            }
        }
        self.network_bytes() == trace.network_bytes()
            && self.disk_bytes() == trace.disk_bytes()
            && self.cpu_bytes() == trace.cpu_bytes()
            && self.participants == trace.participants()
            && self.total_latency == cluster.single_query_latency(trace)
    }

    /// The measured per-node processing rate `μ` in bytes/second at the
    /// paper's data scale: total disk+CPU bytes (scaled) over the
    /// productive latency. `None` when the query did no timed work.
    pub fn measured_mu(&self) -> Option<f64> {
        let secs = self.work_latency().as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        let bytes = (self.disk_bytes() + self.cpu_bytes()) as f64 * self.byte_scale;
        Some(bytes / secs)
    }

    /// The measured fixed overhead `φ` in byte-equivalents (seconds of
    /// fixed latency in productive phases × the measured `μ`), matching
    /// the unit convention of the cost model's `phi`. `None` when `μ`
    /// is unmeasurable.
    pub fn measured_phi(&self) -> Option<f64> {
        let mu = self.measured_mu()?;
        let fixed_secs: f64 = self
            .phases
            .iter()
            .filter(|p| !is_overhead_label(&p.label))
            .map(|p| p.fixed.as_secs_f64())
            .sum();
        Some(fixed_secs * mu)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .set("label", p.label.as_str())
                    .set("latency_secs", p.latency.as_secs_f64())
                    .set("disk_bytes", p.disk_bytes)
                    .set("cpu_bytes", p.cpu_bytes)
                    .set("network_bytes", p.network_bytes)
                    .set("fixed_secs", p.fixed.as_secs_f64())
                    .set("tasks", p.tasks)
            })
            .collect();
        let participants: Vec<Json> = self
            .participants
            .iter()
            .map(|p| Json::Num(p.raw() as f64))
            .collect();
        let mut root = Json::obj()
            .set("engine", self.engine.as_str())
            .set("total_latency_secs", self.total_latency.as_secs_f64())
            .set("attempts", self.attempts)
            .set("resubmits", self.resubmits)
            .set("degraded_peers", self.degraded_peers)
            .set("backoff_secs", self.backoff().as_secs_f64())
            .set("network_bytes", self.network_bytes())
            .set("disk_bytes", self.disk_bytes())
            .set("cpu_bytes", self.cpu_bytes())
            .set("byte_scale", self.byte_scale)
            .set("cache_hits", self.cache_hits)
            .set("cache_misses", self.cache_misses)
            .set("index_cache_hits", self.index_cache_hits)
            .set("index_cache_misses", self.index_cache_misses)
            .set("sheds", self.sheds)
            .set("slo_violation", self.slo_violation)
            .set("advisor_hit", self.advisor_hit)
            .set("overlay_hops", self.overlay_hops)
            .set("warm", self.is_warm())
            .set("participants", participants)
            .set("phases", phases);
        if let Some(sel) = &self.selection {
            root = root.set(
                "selection",
                Json::obj()
                    .set("predicted_p2p_secs", sel.predicted_p2p_secs)
                    .set("predicted_mr_secs", sel.predicted_mr_secs)
                    .set("chose_p2p", sel.chose_p2p),
            );
        }
        root
    }

    /// Deserialize from the JSON produced by [`QueryReport::to_json`].
    pub fn from_json(j: &Json) -> Result<QueryReport> {
        let field = |k: &str| {
            j.get(k)
                .ok_or_else(|| Error::Codec(format!("QueryReport JSON missing `{k}`")))
        };
        let num = |k: &str| -> Result<f64> {
            field(k)?
                .as_f64()
                .ok_or_else(|| Error::Codec(format!("QueryReport field `{k}` is not a number")))
        };
        let phases = field("phases")?
            .as_arr()
            .ok_or_else(|| Error::Codec("`phases` is not an array".into()))?
            .iter()
            .map(|p| {
                let g = |k: &str| -> Result<f64> {
                    p.get(k).and_then(Json::as_f64).ok_or_else(|| {
                        Error::Codec(format!("phase field `{k}` missing or non-numeric"))
                    })
                };
                Ok(PhaseReport {
                    label: p
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| Error::Codec("phase `label` missing".into()))?
                        .to_string(),
                    latency: SimTime::from_secs_f64(g("latency_secs")?),
                    disk_bytes: g("disk_bytes")? as u64,
                    cpu_bytes: g("cpu_bytes")? as u64,
                    network_bytes: g("network_bytes")? as u64,
                    fixed: SimTime::from_secs_f64(g("fixed_secs")?),
                    tasks: g("tasks")? as u32,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let participants = field("participants")?
            .as_arr()
            .ok_or_else(|| Error::Codec("`participants` is not an array".into()))?
            .iter()
            .map(|p| {
                p.as_u64()
                    .map(PeerId::new)
                    .ok_or_else(|| Error::Codec("participant is not a numeric peer id".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        let selection = match j.get("selection") {
            Some(sel) => Some(EngineSelection {
                predicted_p2p_secs: sel
                    .get("predicted_p2p_secs")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| Error::Codec("selection missing p2p cost".into()))?,
                predicted_mr_secs: sel
                    .get("predicted_mr_secs")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| Error::Codec("selection missing mr cost".into()))?,
                chose_p2p: sel
                    .get("chose_p2p")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| Error::Codec("selection missing chose_p2p".into()))?,
            }),
            None => None,
        };
        Ok(QueryReport {
            engine: field("engine")?
                .as_str()
                .ok_or_else(|| Error::Codec("`engine` is not a string".into()))?
                .to_string(),
            phases,
            total_latency: SimTime::from_secs_f64(num("total_latency_secs")?),
            participants,
            attempts: num("attempts")? as u32,
            resubmits: num("resubmits")? as u32,
            degraded_peers: num("degraded_peers")? as u32,
            selection,
            byte_scale: num("byte_scale")?,
            // Cache fields postdate the format; absent means cold (0).
            cache_hits: opt_count(j, "cache_hits"),
            cache_misses: opt_count(j, "cache_misses"),
            index_cache_hits: opt_count(j, "index_cache_hits"),
            index_cache_misses: opt_count(j, "index_cache_misses"),
            sheds: opt_count(j, "sheds") as u32,
            // Admission fields postdate the format too; absent means the
            // sender predates admission control (no sheds, no SLO).
            slo_violation: j
                .get("slo_violation")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            // Routing fields postdate the format; absent means the
            // sender predates the routing advisor (BATON only).
            advisor_hit: j
                .get("advisor_hit")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            overlay_hops: opt_count(j, "overlay_hops"),
        })
    }
}

/// An optional non-negative count field (0 when absent — older
/// serializations predate the cache fields).
fn opt_count(j: &Json, k: &str) -> u64 {
    j.get(k).and_then(Json::as_u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_simnet::{Phase, ResourceConfig, Task};

    fn p(i: u64) -> PeerId {
        PeerId::new(i)
    }

    fn sample_trace() -> Trace {
        Trace::new()
            .phase(
                Phase::new("fetch")
                    .task(Task::on(p(1)).disk(1000).cpu(1500).send(p(0), 400))
                    .task(Task::on(p(2)).disk(2000).cpu(2500).send(p(0), 600)),
            )
            .phase(
                Phase::new("retry-backoff-1").task(Task::on(p(0)).fixed(SimTime::from_millis(250))),
            )
            .phase(Phase::new("process").task(Task::on(p(0)).cpu(1000)))
    }

    fn cluster() -> Cluster {
        Cluster::new(ResourceConfig::default())
    }

    #[test]
    fn report_reconciles_with_its_trace() {
        let tr = sample_trace();
        let c = cluster();
        let rep = QueryReport::from_trace("basic", &tr, &c);
        assert!(rep.reconciles_with(&tr, &c));
        assert_eq!(rep.network_bytes(), tr.network_bytes());
        assert_eq!(rep.disk_bytes(), 3000);
        assert_eq!(rep.cpu_bytes(), 5000);
        assert_eq!(rep.participants, vec![p(0), p(1), p(2)]);
    }

    #[test]
    fn mutation_breaks_reconciliation() {
        let tr = sample_trace();
        let c = cluster();
        let mut rep = QueryReport::from_trace("basic", &tr, &c);
        rep.phases[0].network_bytes += 1;
        assert!(!rep.reconciles_with(&tr, &c));
    }

    #[test]
    fn backoff_separates_overhead_from_work() {
        let tr = sample_trace();
        let c = cluster();
        let rep = QueryReport::from_trace("basic", &tr, &c);
        assert_eq!(rep.backoff(), SimTime::from_millis(250));
        assert_eq!(rep.work_latency() + rep.backoff(), rep.total_latency);
    }

    #[test]
    fn measured_rates_are_positive_and_scaled() {
        let tr = sample_trace();
        let cfg = ResourceConfig {
            byte_scale: 100.0,
            ..Default::default()
        };
        let c = Cluster::new(cfg);
        let rep = QueryReport::from_trace("basic", &tr, &c);
        let mu = rep.measured_mu().unwrap();
        assert!(mu > 0.0);
        let unscaled = QueryReport::from_trace("basic", &tr, &cluster());
        // Scaling bytes by 100 also inflates latency, so measured mu is
        // rate-limited by the configured resources rather than 100x.
        assert!(mu > unscaled.measured_mu().unwrap());
        // Fixed overhead lives only in the backoff phase here, which is
        // excluded from phi.
        assert_eq!(rep.measured_phi().unwrap(), 0.0);
    }

    #[test]
    fn json_round_trips() {
        let tr = sample_trace();
        let c = cluster();
        let mut rep = QueryReport::from_trace("parallel-p2p", &tr, &c);
        rep.attempts = 3;
        rep.resubmits = 1;
        rep.degraded_peers = 2;
        rep.cache_hits = 4;
        rep.cache_misses = 2;
        rep.index_cache_hits = 9;
        rep.index_cache_misses = 3;
        rep.advisor_hit = true;
        rep.overlay_hops = 7;
        rep.selection = Some(EngineSelection {
            predicted_p2p_secs: 1.5,
            predicted_mr_secs: 14.25,
            chose_p2p: true,
        });
        let text = rep.to_json().render();
        let back = QueryReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.engine, "parallel-p2p");
        assert_eq!(back.attempts, 3);
        assert_eq!(back.resubmits, 1);
        assert_eq!(back.degraded_peers, 2);
        assert_eq!(back.selection, rep.selection);
        assert_eq!(back.phases, rep.phases);
        assert_eq!(back.participants, rep.participants);
        assert_eq!(back.total_latency, rep.total_latency);
        assert_eq!(back.cache_hits, 4);
        assert_eq!(back.cache_misses, 2);
        assert_eq!(back.index_cache_hits, 9);
        assert_eq!(back.index_cache_misses, 3);
        assert!(back.advisor_hit);
        assert_eq!(back.overlay_hops, 7);
        assert!(back.is_warm());
    }

    #[test]
    fn json_without_cache_fields_parses_as_cold() {
        let tr = sample_trace();
        let rep = QueryReport::from_trace("basic", &tr, &cluster());
        let mut text = rep.to_json().render();
        for k in [
            "\"cache_hits\"",
            "\"cache_misses\"",
            "\"index_cache_hits\"",
            "\"index_cache_misses\"",
            "\"warm\"",
        ] {
            assert!(text.contains(k), "serialized report carries {k}");
        }
        // Simulate a pre-cache serialization by renaming the keys away.
        text = text
            .replace("cache_hits", "x_hits")
            .replace("cache_misses", "x_misses")
            .replace("\"warm\"", "\"x_warm\"");
        let back = QueryReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.cache_hits, 0);
        assert_eq!(back.index_cache_misses, 0);
        assert!(!back.is_warm());
    }
}
