//! Open-loop saturation and elasticity workload driver (the scale
//! bench behind `BENCH_scale.json`).
//!
//! The driver simulates an open-loop client population: 10⁵+ sessions
//! arrive on a jittered deterministic clock at a configured aggregate
//! rate, each session belongs to a Zipf(θ)-skewed tenant, and tenants
//! hash-route to the peer fleet. Every arrival is offered to its peer's
//! bounded admission queue ([`BestPeerNetwork::offer_request`]) — the
//! queue either admits it (yielding a virtual completion time) or sheds
//! it with `Error::Overloaded`. Because arrivals are open-loop, shed
//! sessions do **not** slow the client down: offered load keeps pounding
//! the fleet, which is exactly the regime where bounded queues versus
//! unbounded queues separate.
//!
//! With `elastic` enabled the driver also fires the closed control loop
//! every epoch: [`BestPeerNetwork::scale_tick`] samples per-peer
//! utilization and queue depth, and the bootstrap peer scales elastic
//! peers out under sustained overload and back in when they idle. The
//! routing table is re-hashed after every scale event, so admitted load
//! actually moves to the new peers.
//!
//! Everything is virtual time and seeded randomness: equal
//! [`ScaleConfig`]s produce byte-identical [`ScaleRun`]s.

use bestpeer_common::rng::Rng;
use bestpeer_common::{stable_hash, ColumnDef, ColumnType, TableSchema, Value};
use bestpeer_core::admission::AdmissionConfig;
use bestpeer_core::bootstrap::MaintenanceEvent;
use bestpeer_core::network::{BestPeerNetwork, NetworkConfig};
use bestpeer_simnet::{stats, SimTime};

/// Parameters of one scale-bench workload.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Static peer fleet size.
    pub peers: usize,
    /// Tenant population the Zipf skew draws from.
    pub tenants: usize,
    /// Zipf skew of tenant popularity.
    pub theta: f64,
    /// Client sessions per run.
    pub sessions: usize,
    /// Per-request service time at a peer.
    pub service: SimTime,
    /// Bounded admission-queue depth (`u32::MAX` ≈ shedding off).
    pub queue_depth: u32,
    /// Per-request latency SLO.
    pub slo: SimTime,
    /// Control-loop epoch (scale_tick period).
    pub epoch: SimTime,
    /// Elastic peers the bootstrap may add.
    pub elastic_limit: usize,
    /// Consecutive hot/idle epochs before a scale decision.
    pub scale_threshold: u32,
    /// Workload seed (arrival jitter + tenant draws).
    pub seed: u64,
}

impl ScaleConfig {
    /// Aggregate service capacity of the static fleet, queries/second.
    pub fn capacity_qps(&self) -> f64 {
        self.peers as f64 * 1e6 / self.service.as_micros().max(1) as f64
    }
}

/// Outcome of one open-loop run. Derives `PartialEq` so the determinism
/// gate can compare two same-seed runs structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScaleRun {
    /// Sessions offered to the fleet.
    pub offered: u64,
    /// Per-admitted-session virtual latency (admission wait + service).
    pub latencies: Vec<SimTime>,
    /// Sessions shed by full queues.
    pub shed: u64,
    /// Admitted sessions whose latency exceeded the SLO.
    pub slo_miss: u64,
    /// Virtual time of the last arrival.
    pub duration: SimTime,
    /// Elastic scale-out events observed.
    pub scale_out: u64,
    /// Elastic scale-in events observed.
    pub scale_in: u64,
    /// Overload-onset → first scale-out, microseconds (elastic runs).
    pub reaction_us: Option<f64>,
    /// Largest fleet size seen during the run.
    pub peak_peers: usize,
}

impl ScaleRun {
    /// Admitted sessions per virtual second.
    pub fn goodput_qps(&self) -> f64 {
        self.latencies.len() as f64 / self.duration.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Median admitted latency.
    pub fn p50(&self) -> SimTime {
        stats::percentile(&self.latencies, 0.50)
    }

    /// Tail (99th percentile) admitted latency.
    pub fn p99(&self) -> SimTime {
        stats::percentile(&self.latencies, 0.99)
    }

    /// Shed sessions over offered sessions.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.offered.max(1)) as f64
    }

    /// SLO misses over admitted sessions.
    pub fn slo_miss_rate(&self) -> f64 {
        self.slo_miss as f64 / (self.latencies.len().max(1)) as f64
    }
}

/// Build a data-free peer fleet with the bench's admission settings.
/// The scale bench exercises the admission/elasticity path only, so
/// peers carry a schema but no rows.
pub fn build_scale_net(cfg: &ScaleConfig, queue_depth: u32) -> BestPeerNetwork {
    let schemas = vec![TableSchema::new(
        "session",
        vec![ColumnDef::new("id", ColumnType::Int)],
        vec![0],
    )
    .expect("bench schema")];
    let mut net = BestPeerNetwork::new(
        schemas,
        NetworkConfig {
            admission: AdmissionConfig {
                queue_depth,
                service_time: cfg.service,
            },
            slo_latency: cfg.slo,
            ..NetworkConfig::default()
        },
    );
    net.bootstrap.elastic_limit = cfg.elastic_limit;
    net.bootstrap.scale_threshold = cfg.scale_threshold;
    for i in 0..cfg.peers {
        net.join(&format!("corp-{i:04}")).expect("bench peer join");
    }
    net
}

/// Zipf(θ) CDF over `n` ranks (rank 0 hottest).
pub(crate) fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw a 0-based rank from the Zipfian CDF.
pub(crate) fn zipf_sample(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.random_unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Drive `cfg.sessions` open-loop arrivals at `rate_qps` against `net`.
///
/// When `elastic` is set, [`BestPeerNetwork::scale_tick`] fires at every
/// epoch boundary and the run keeps ticking after the last arrival until
/// every elastic peer has been scaled back in, so the report covers the
/// full out-and-back-in cycle.
pub fn run_open_loop(
    net: &mut BestPeerNetwork,
    cfg: &ScaleConfig,
    rate_qps: f64,
    elastic: bool,
) -> ScaleRun {
    assert!(rate_qps > 0.0, "offered rate must be positive");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let cdf = zipf_cdf(cfg.tenants, cfg.theta);
    let mut peers = net.peer_ids();
    let mut run = ScaleRun {
        peak_peers: peers.len(),
        ..ScaleRun::default()
    };
    let base_gap_us = 1e6 / rate_qps;
    let mut now = SimTime::ZERO;
    let mut next_epoch = cfg.epoch;

    let tick = |net: &mut BestPeerNetwork,
                run: &mut ScaleRun,
                peers: &mut Vec<bestpeer_common::PeerId>,
                at: SimTime| {
        let events = net.scale_tick(at, cfg.epoch).expect("scale_tick");
        if events.is_empty() {
            return;
        }
        for e in &events {
            match e {
                MaintenanceEvent::ScaleOut { .. } => run.scale_out += 1,
                MaintenanceEvent::ScaleIn { .. } => run.scale_in += 1,
                _ => {}
            }
        }
        if run.reaction_us.is_none() && run.scale_out > 0 {
            run.reaction_us = net.metrics().gauge("scale.reaction_us");
        }
        // Scale events change the fleet: re-hash the routing table.
        *peers = net.peer_ids();
        run.peak_peers = run.peak_peers.max(peers.len());
    };

    for _ in 0..cfg.sessions {
        // Jittered open-loop arrival clock: mean gap 1/rate, uniform
        // ±50% jitter, at least 1µs so virtual time always advances.
        let gap = (base_gap_us * (0.5 + rng.random_unit())).round() as u64;
        now += SimTime::from_micros(gap.max(1));
        while elastic && next_epoch <= now {
            let at = next_epoch;
            next_epoch += cfg.epoch;
            tick(net, &mut run, &mut peers, at);
        }
        let tenant = zipf_sample(&mut rng, &cdf) as i64;
        let peer = peers[stable_hash(&Value::Int(tenant)) as usize % peers.len()];
        run.offered += 1;
        match net.offer_request(peer, now) {
            Ok(done) => {
                let latency = done.saturating_sub(now);
                if cfg.slo > SimTime::ZERO && latency > cfg.slo {
                    run.slo_miss += 1;
                }
                run.latencies.push(latency);
            }
            Err(e) if e.kind() == "overloaded" => run.shed += 1,
            Err(e) => panic!("open-loop offer failed unexpectedly: {e}"),
        }
    }
    run.duration = now;

    if elastic {
        // Post-stream drain: tick until the fleet contracts back.
        let mut guard = 0u32;
        while net.bootstrap.elastic_peers().next().is_some() {
            let at = next_epoch;
            next_epoch += cfg.epoch;
            tick(net, &mut run, &mut peers, at);
            guard += 1;
            assert!(guard < 10_000, "elastic peers never scaled back in");
        }
    }
    net.publish_admission_metrics();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            peers: 4,
            tenants: 64,
            theta: 0.8,
            sessions: 2_000,
            service: SimTime::from_micros(800),
            queue_depth: 8,
            slo: SimTime::from_millis(10),
            epoch: SimTime::from_millis(5),
            elastic_limit: 4,
            scale_threshold: 2,
            seed: 7,
        }
    }

    #[test]
    fn same_seed_same_run() {
        let cfg = tiny();
        let rate = cfg.capacity_qps() * 2.0;
        let a = run_open_loop(
            &mut build_scale_net(&cfg, cfg.queue_depth),
            &cfg,
            rate,
            false,
        );
        let b = run_open_loop(
            &mut build_scale_net(&cfg, cfg.queue_depth),
            &cfg,
            rate,
            false,
        );
        assert_eq!(a, b, "seeded open-loop runs must be byte-identical");
        assert!(a.shed > 0, "2× overload against depth-8 queues must shed");
    }

    #[test]
    fn bounded_queues_bound_the_tail() {
        let cfg = tiny();
        let rate = cfg.capacity_qps() * 2.0;
        let on = run_open_loop(
            &mut build_scale_net(&cfg, cfg.queue_depth),
            &cfg,
            rate,
            false,
        );
        let off = run_open_loop(&mut build_scale_net(&cfg, u32::MAX), &cfg, rate, false);
        // Depth 8 × 800µs caps any admitted wait at 7.2ms + service.
        assert!(on.p99() <= SimTime::from_millis(8));
        assert!(
            off.p99() > on.p99(),
            "unbounded queues must have a worse tail"
        );
        assert_eq!(off.shed, 0, "unbounded queues never shed");
    }

    #[test]
    fn elastic_run_scales_out_and_back_in() {
        let cfg = tiny();
        let rate = cfg.capacity_qps() * 2.0;
        let run = run_open_loop(
            &mut build_scale_net(&cfg, cfg.queue_depth),
            &cfg,
            rate,
            true,
        );
        assert!(run.scale_out >= 1, "sustained overload must scale out");
        assert!(run.scale_in >= 1, "drained elastic peers must scale in");
        assert_eq!(
            run.scale_out, run.scale_in,
            "every elastic peer scaled out must eventually scale back in"
        );
        assert!(run.reaction_us.unwrap_or(0.0) > 0.0);
        assert!(run.peak_peers > cfg.peers);
    }
}
