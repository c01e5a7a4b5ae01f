//! Admission control: bounded per-peer request queues with load shedding.
//!
//! Every serve a peer performs first passes through its admission queue,
//! a bounded FIFO of *completion times* in virtual time. Admitting a
//! request appends `max(now, tail) + service_time` — the classic single-
//! server queue recurrence — and entries whose completion time has
//! passed are drained lazily. When the queue is at its configured depth
//! the request is *shed* with [`Error::Overloaded`], which the network
//! retry loop treats as retryable-with-backoff (the backoff advances the
//! admission clock, giving the queue time to drain).
//!
//! The queue state doubles as the load signal for the elasticity loop
//! (§3.2 Algorithm 1): [`AdmissionState::utilization`] reports the
//! peer's backlog as a fraction of an observation window, which
//! [`crate::network::BestPeerNetwork::scale_tick`] feeds to the
//! bootstrap peer as the CloudWatch-style CPU metric, and
//! [`AdmissionState::queue_depth`] guards scale-in (a peer with queued
//! work is never evicted).
//!
//! A depth limit of 0 disables admission entirely (the default): every
//! request is admitted at zero cost and no state is kept, so networks
//! that never opt in behave byte-identically to before this module
//! existed.

use std::collections::{BTreeMap, VecDeque};

use bestpeer_common::{Error, PeerId, Result};
use bestpeer_simnet::SimTime;

/// Admission-control knobs, embedded in
/// [`crate::network::NetworkConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum queued (not yet completed) requests per peer. 0 disables
    /// admission control entirely.
    pub queue_depth: u32,
    /// Virtual service time charged per admitted request — how long a
    /// slot remains occupied.
    pub service_time: SimTime,
}

impl Default for AdmissionConfig {
    /// Disabled (depth 0) with an 800µs nominal service time — roughly
    /// one small subquery against warm data at the simnet's resource
    /// defaults.
    fn default() -> Self {
        AdmissionConfig {
            queue_depth: 0,
            service_time: SimTime::from_micros(800),
        }
    }
}

/// The per-network admission state: one bounded virtual-time queue per
/// peer plus shed/admit counters.
#[derive(Debug, Default)]
pub struct AdmissionState {
    config: AdmissionConfig,
    now: SimTime,
    queues: BTreeMap<PeerId, VecDeque<SimTime>>,
    admitted: u64,
    shed: u64,
}

impl AdmissionState {
    /// Build state for `config` (depth 0 = disabled).
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionState {
            config,
            ..AdmissionState::default()
        }
    }

    /// True when a non-zero queue depth is configured.
    pub fn enabled(&self) -> bool {
        self.config.queue_depth > 0
    }

    /// The admission clock's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the admission clock to `t` (monotone: earlier times are
    /// ignored).
    pub fn set_now(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Advance the admission clock by `span` — used by the retry loop so
    /// a shed request's backoff actually drains the queue it bounced off.
    pub fn advance(&mut self, span: SimTime) {
        self.now += span;
    }

    /// Admit one request at `peer`, returning its virtual completion
    /// time, or shed it with [`Error::Overloaded`] when the peer's queue
    /// is full. Disabled admission admits everything instantly.
    pub fn admit(&mut self, peer: PeerId) -> Result<SimTime> {
        let now = self.now;
        if !self.enabled() {
            return Ok(now);
        }
        let depth = self.config.queue_depth;
        let q = self.queues.entry(peer).or_default();
        while q.front().is_some_and(|done| *done <= now) {
            q.pop_front();
        }
        if q.len() >= depth as usize {
            self.shed += 1;
            return Err(Error::Overloaded(format!(
                "peer {peer} admission queue full ({} requests queued, depth limit {depth})",
                q.len()
            )));
        }
        let start = q.back().copied().unwrap_or(now).max(now);
        let done = start + self.config.service_time;
        q.push_back(done);
        self.admitted += 1;
        Ok(done)
    }

    /// Requests queued at `peer` that have not yet completed.
    pub fn queue_depth(&self, peer: PeerId) -> u32 {
        self.queues
            .get(&peer)
            .map(|q| q.iter().filter(|done| **done > self.now).count() as u32)
            .unwrap_or(0)
    }

    /// Total outstanding requests across all peers.
    pub fn total_depth(&self) -> u64 {
        self.queues
            .values()
            .map(|q| q.iter().filter(|done| **done > self.now).count() as u64)
            .sum()
    }

    /// The peer's backlog (time until its queue drains) as a fraction of
    /// `window`, clamped to `[0, 1]` — the utilization signal the
    /// elasticity loop samples once per epoch.
    pub fn utilization(&self, peer: PeerId, window: SimTime) -> f64 {
        if window == SimTime::ZERO {
            return 0.0;
        }
        let backlog = self
            .queues
            .get(&peer)
            .and_then(|q| q.back().copied())
            .map(|done| done.saturating_sub(self.now))
            .unwrap_or(SimTime::ZERO);
        (backlog.as_secs_f64() / window.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// Drop all queue state for a departed peer.
    pub fn remove_peer(&mut self, peer: PeerId) {
        self.queues.remove(&peer);
    }

    /// Drain the admit/shed counters accumulated since the last call —
    /// the network layer publishes these as monotone registry counters.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.admitted),
            std::mem::take(&mut self.shed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(depth: u32, service_us: u64) -> AdmissionState {
        AdmissionState::new(AdmissionConfig {
            queue_depth: depth,
            service_time: SimTime::from_micros(service_us),
        })
    }

    #[test]
    fn disabled_admission_admits_everything_for_free() {
        let mut a = AdmissionState::new(AdmissionConfig::default());
        assert!(!a.enabled());
        let p = PeerId::new(1);
        for _ in 0..10_000 {
            assert_eq!(a.admit(p).unwrap(), SimTime::ZERO);
        }
        assert_eq!(a.queue_depth(p), 0);
        assert_eq!(a.utilization(p, SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn queue_fills_sheds_and_drains() {
        let mut a = enabled(2, 100);
        let p = PeerId::new(7);
        // Two requests fill the queue back-to-back...
        assert_eq!(a.admit(p).unwrap(), SimTime::from_micros(100));
        assert_eq!(a.admit(p).unwrap(), SimTime::from_micros(200));
        assert_eq!(a.queue_depth(p), 2);
        // ...the third is shed...
        let err = a.admit(p).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        // ...and once virtual time passes the first completion, a slot
        // frees up and service resumes from the queue tail.
        a.set_now(SimTime::from_micros(150));
        assert_eq!(a.queue_depth(p), 1);
        assert_eq!(a.admit(p).unwrap(), SimTime::from_micros(300));
        let (admitted, shed) = a.take_counters();
        assert_eq!((admitted, shed), (3, 1));
        assert_eq!(a.take_counters(), (0, 0), "counters drain on read");
    }

    #[test]
    fn utilization_is_backlog_over_window() {
        let mut a = enabled(100, 1_000);
        let p = PeerId::new(1);
        for _ in 0..5 {
            a.admit(p).unwrap();
        }
        // 5ms of backlog over a 10ms window.
        let u = a.utilization(p, SimTime::from_micros(10_000));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        // Saturates at 1.0 for windows shorter than the backlog.
        assert_eq!(a.utilization(p, SimTime::from_micros(1_000)), 1.0);
        // An idle peer reads 0.
        assert_eq!(a.utilization(PeerId::new(2), SimTime::from_secs(1)), 0.0);
        a.remove_peer(p);
        assert_eq!(a.queue_depth(p), 0);
    }

    #[test]
    fn clock_is_monotone_and_advance_drains() {
        let mut a = enabled(1, 100);
        let p = PeerId::new(3);
        a.admit(p).unwrap();
        assert!(a.admit(p).is_err());
        a.set_now(SimTime::from_micros(50));
        a.set_now(SimTime::ZERO); // ignored: monotone
        assert_eq!(a.now(), SimTime::from_micros(50));
        a.advance(SimTime::from_micros(60));
        assert_eq!(a.now(), SimTime::from_micros(110));
        assert!(a.admit(p).is_ok(), "backoff advanced past the completion");
    }
}
