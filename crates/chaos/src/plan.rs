//! Seeded fault plans.
//!
//! A [`FaultPlan`] is a list of [`ScheduledFault`]s pinned to the
//! network's *virtual operation clock* (one tick per subquery served),
//! drawn by the seeded [`FaultPlanBuilder`]: randomized chaos with
//! reproducibility — the same seed over the same peer set always yields
//! the same plan, byte for byte. Precise hand-written scenarios install
//! their `ScheduledFault`s directly
//! ([`BestPeerNetwork::install_faults`]).

use bestpeer_common::rng::Rng;
use bestpeer_common::PeerId;
use bestpeer_core::network::BestPeerNetwork;
use bestpeer_core::{FaultAction, ScheduledFault};
use bestpeer_simnet::SimTime;

/// A reproducible schedule of faults, in the order the builder drew
/// them (a crash with a restart is two entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Install the plan into a network's fault state. The plan arms the
    /// schedule; faults fire as the query workload advances the virtual
    /// clock.
    pub fn install(&self, net: &mut BestPeerNetwork) {
        net.install_faults(self.faults.iter().copied());
    }

    /// A human-readable rendering (one fault per line).
    pub fn describe(&self) -> String {
        let mut s = format!("fault plan (seed {:#x}):\n", self.seed);
        for f in &self.faults {
            s.push_str(&format!("  t={}: {}\n", f.at, f.action));
        }
        s
    }
}

/// Seeded random plan generation over a known peer set.
///
/// Each `add_*` call draws victims and times from the seeded stream, so
/// the sequence of calls plus the seed fully determines the plan.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    rng: Rng,
    peers: Vec<PeerId>,
    faults: Vec<ScheduledFault>,
}

impl FaultPlanBuilder {
    /// Start a builder for the given peer population.
    pub fn new(seed: u64, peers: &[PeerId]) -> Self {
        assert!(!peers.is_empty(), "chaos needs at least one peer");
        FaultPlanBuilder {
            seed,
            rng: Rng::seed_from_u64(seed),
            peers: peers.to_vec(),
            faults: Vec::new(),
        }
    }

    fn pick_peer(&mut self) -> PeerId {
        let i = self.rng.random_range(0..self.peers.len());
        self.peers[i]
    }

    fn push(&mut self, at: u64, action: FaultAction) {
        self.faults.push(ScheduledFault { at, action });
    }

    /// A random victim crashes at a random time in `window` and restarts
    /// `downtime` operations later.
    pub fn crash_recover(
        mut self,
        window: std::ops::Range<u64>,
        downtime: std::ops::Range<u64>,
    ) -> Self {
        let peer = self.pick_peer();
        let at = self.rng.random_range(window);
        let down = self.rng.random_range(downtime);
        self.push(at, FaultAction::Crash(peer));
        self.push(at + down, FaultAction::Recover(peer));
        self
    }

    /// A random victim suffers a torn-write crash at a random time in
    /// `window` (the unsynced WAL tail is cut to a random length below
    /// `max_keep` bytes) and restarts `downtime` operations later.
    pub fn torn_crash_recover(
        mut self,
        window: std::ops::Range<u64>,
        downtime: std::ops::Range<u64>,
        max_keep: u32,
    ) -> Self {
        let peer = self.pick_peer();
        let at = self.rng.random_range(window);
        let down = self.rng.random_range(downtime);
        let keep = self.rng.random_range(0..max_keep.max(1) as u64) as u32;
        self.push(at, FaultAction::TornCrash { peer, keep });
        self.push(at + down, FaultAction::Recover(peer));
        self
    }

    /// A random victim crashes at a random time in `window` and stays
    /// down until the bootstrap fails it over.
    pub fn crash_until_failover(mut self, window: std::ops::Range<u64>) -> Self {
        let peer = self.pick_peer();
        let at = self.rng.random_range(window);
        self.push(at, FaultAction::Crash(peer));
        self
    }

    /// A random peer's link degrades by `extra` for a random span.
    pub fn slow_link(
        mut self,
        window: std::ops::Range<u64>,
        duration: std::ops::Range<u64>,
        extra: SimTime,
    ) -> Self {
        let peer = self.pick_peer();
        let at = self.rng.random_range(window);
        let span = self.rng.random_range(duration);
        self.push(at, FaultAction::SlowLink { peer, extra });
        self.push(at + span, FaultAction::FastLink(peer));
        self
    }

    /// Lose `n` index-insert messages at a random time in `window`.
    pub fn drop_index_inserts(mut self, window: std::ops::Range<u64>, n: u32) -> Self {
        let at = self.rng.random_range(window);
        self.push(at, FaultAction::DropIndexInserts(n));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers() -> Vec<PeerId> {
        (0..4).map(PeerId::new).collect()
    }

    #[test]
    fn same_seed_same_plan() {
        let make = || {
            FaultPlanBuilder::new(0xC4A05, &peers())
                .crash_recover(1..10, 5..20)
                .crash_until_failover(10..30)
                .slow_link(1..50, 5..10, SimTime::from_micros(300))
                .drop_index_inserts(0..5, 3)
                .build()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "seeded generation is reproducible");
        let c = FaultPlanBuilder::new(0xC4A06, &peers())
            .crash_recover(1..10, 5..20)
            .crash_until_failover(10..30)
            .slow_link(1..50, 5..10, SimTime::from_micros(300))
            .drop_index_inserts(0..5, 3)
            .build();
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn a_crash_with_a_restart_is_two_entries() {
        let plan = FaultPlanBuilder::new(7, &peers())
            .crash_recover(1..10, 5..20)
            .slow_link(1..50, 5..10, SimTime::from_micros(100))
            .build();
        let f = &plan.faults;
        assert_eq!(f.len(), 4, "crash+recover and slow+fast");
        let FaultAction::Crash(victim) = f[0].action else {
            panic!("expected a crash first: {:?}", f[0]);
        };
        assert_eq!(f[1].action, FaultAction::Recover(victim));
        assert!(f[1].at > f[0].at, "the restart follows the crash");
        assert!(matches!(f[2].action, FaultAction::SlowLink { .. }));
        assert!(matches!(f[3].action, FaultAction::FastLink(_)));
        assert!(f[3].at > f[2].at, "the link heals after it slows");
    }

    #[test]
    fn describe_mentions_every_event() {
        let plan = FaultPlanBuilder::new(1, &peers())
            .crash_until_failover(1..5)
            .drop_index_inserts(0..5, 2)
            .build();
        let text = plan.describe();
        assert!(text.contains(": crash peer-"), "{text}");
        assert!(text.contains(": drop-index-inserts 2"), "{text}");
    }
}
