//! Deterministic mid-query fault injection (the network's fault state).
//!
//! Faults are scheduled against a *virtual clock* that ticks once per
//! data-peer operation (every subquery served during query processing).
//! The schedule is applied lazily: each tick applies every event whose
//! time has come, so the same schedule against the same query workload
//! always lands faults at exactly the same operations — the basis of the
//! chaos suite's same-seed-same-trace assertion.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bestpeer_common::PeerId;
use bestpeer_simnet::SimTime;

/// One schedulable fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The peer's process stops serving subqueries and answering the
    /// bootstrap's heartbeats until a [`FaultAction::Recover`] (a
    /// restart, or the one a fail-over logs). A durable peer loses
    /// unsynced WAL appends (kill-9 between fsyncs).
    Crash(PeerId),
    /// Like [`FaultAction::Crash`], but the kill lands mid-write: the
    /// first `keep` bytes of the peer's unsynced WAL buffer reach the
    /// durable log — a torn final record that recovery must discard.
    TornCrash {
        /// The affected peer.
        peer: PeerId,
        /// Unsynced bytes persisted by the torn write.
        keep: u32,
    },
    /// The peer's process comes back, in place or on the fresh instance
    /// a fail-over launched, and recovers its data (the fresher of its
    /// WAL and its latest backup).
    Recover(PeerId),
    /// The link to the peer degrades: every subquery it serves while
    /// slowed is charged `extra` additional latency in the cost trace.
    SlowLink {
        /// The affected peer.
        peer: PeerId,
        /// Extra latency per subquery served.
        extra: SimTime,
    },
    /// The link heals.
    FastLink(PeerId),
    /// The next `n` BATON index-insert messages are lost in transit
    /// (routed but never stored); a republish heals the index.
    DropIndexInserts(u32),
    /// The peer's loader completes a batch: its data timestamp advances
    /// to `ts` (lets a stale-snapshot resubmit succeed).
    AdvanceLoad {
        /// The affected peer.
        peer: PeerId,
        /// The new load timestamp.
        ts: u64,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Crash(p) => write!(f, "crash {p}"),
            FaultAction::TornCrash { peer, keep } => {
                write!(f, "torn-crash {peer} keep {keep}B")
            }
            FaultAction::Recover(p) => write!(f, "recover {p}"),
            FaultAction::SlowLink { peer, extra } => {
                write!(f, "slow-link {peer} +{}us", extra.as_micros())
            }
            FaultAction::FastLink(p) => write!(f, "fast-link {p}"),
            FaultAction::DropIndexInserts(n) => write!(f, "drop-index-inserts {n}"),
            FaultAction::AdvanceLoad { peer, ts } => write!(f, "advance-load {peer} to {ts}"),
        }
    }
}

/// A fault scheduled at a virtual time (operation count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The virtual time (operation count) at which the fault fires; it
    /// applies on the first operation with `clock >= at`.
    pub at: u64,
    /// What happens.
    pub action: FaultAction,
}

/// An applied fault, as recorded in the trace log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The virtual time the event actually applied at.
    pub at: u64,
    /// The applied action.
    pub action: FaultAction,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}: {}", self.at, self.action)
    }
}

/// The network's fault state: the virtual clock, the pending schedule,
/// the set of down peers, link slowdowns, and the applied log. The down
/// set is the network's one record of liveness: the query path and the
/// bootstrap's failure detector both read [`FaultState::is_down`].
#[derive(Debug, Default)]
pub struct FaultState {
    clock: u64,
    /// Pending events, kept sorted by `at`.
    schedule: Vec<ScheduledFault>,
    down: BTreeSet<PeerId>,
    slow: BTreeMap<PeerId, SimTime>,
    /// Extra latency accumulated by serves at slowed peers since the
    /// last drain (charged to the trace by the network layer).
    slow_latency: u64,
    /// Index-insert messages to drop (synchronised into the overlay).
    pending_drops: u32,
    log: Vec<FaultRecord>,
}

impl FaultState {
    /// A fault-free state.
    pub fn new() -> Self {
        FaultState::default()
    }

    /// Install scheduled faults (appended to anything still pending).
    pub fn schedule(&mut self, events: impl IntoIterator<Item = ScheduledFault>) {
        self.schedule.extend(events);
        self.schedule.sort_by_key(|e| e.at);
    }

    /// The virtual clock (operations performed so far).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advance the virtual clock by one operation and apply every due
    /// event. Called by the engine context once per subquery served.
    pub fn tick(&mut self) {
        self.clock += 1;
        while self.schedule.first().is_some_and(|e| e.at <= self.clock) {
            let next = self.schedule.remove(0);
            self.apply(self.clock, next.action);
        }
    }

    fn apply(&mut self, now: u64, action: FaultAction) {
        match action {
            FaultAction::Crash(p) | FaultAction::TornCrash { peer: p, .. } => {
                self.down.insert(p);
            }
            FaultAction::Recover(p) => {
                self.down.remove(&p);
            }
            FaultAction::SlowLink { peer, extra } => {
                self.slow.insert(peer, extra);
            }
            FaultAction::FastLink(p) => {
                self.slow.remove(&p);
            }
            FaultAction::DropIndexInserts(n) => self.pending_drops += n,
            FaultAction::AdvanceLoad { .. } => {} // side effect applied at sync
        }
        self.log.push(FaultRecord { at: now, action });
    }

    /// Apply an action immediately (unscheduled injection at the
    /// current virtual time), recording it in the log.
    pub fn inject_now(&mut self, action: FaultAction) {
        self.apply(self.clock, action);
    }

    /// Is the peer's process currently down?
    pub fn is_down(&self, peer: PeerId) -> bool {
        self.down.contains(&peer)
    }

    /// Record one subquery served by `peer`; charges slow-link latency
    /// when its link is degraded.
    pub fn note_serve(&mut self, peer: PeerId) {
        if let Some(extra) = self.slow.get(&peer) {
            self.slow_latency += extra.as_micros();
        }
    }

    /// Drain the slow-link latency accumulated since the last drain.
    pub fn take_slow_latency(&mut self) -> SimTime {
        SimTime::from_micros(std::mem::take(&mut self.slow_latency))
    }

    /// Drain the pending index-message drop count (the network layer
    /// forwards it to the BATON overlay).
    pub fn take_pending_drops(&mut self) -> u32 {
        std::mem::take(&mut self.pending_drops)
    }

    /// The applied-event log (the deterministic fault trace).
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Are any scheduled events still pending?
    pub fn pending(&self) -> usize {
        self.schedule.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_apply_events_in_order() {
        let mut f = FaultState::new();
        let p = PeerId::new(7);
        f.schedule([
            ScheduledFault {
                at: 2,
                action: FaultAction::Crash(p),
            },
            ScheduledFault {
                at: 4,
                action: FaultAction::Recover(p),
            },
        ]);
        assert!(!f.is_down(p));
        f.tick(); // t=1
        assert!(!f.is_down(p));
        f.tick(); // t=2 → crash
        assert!(f.is_down(p));
        f.tick(); // t=3
        assert!(f.is_down(p));
        f.tick(); // t=4 → recover
        assert!(!f.is_down(p));
        let log = f.log();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[0],
            FaultRecord {
                at: 2,
                action: FaultAction::Crash(p)
            }
        );
        assert_eq!(
            log[1],
            FaultRecord {
                at: 4,
                action: FaultAction::Recover(p)
            }
        );
    }

    #[test]
    fn past_events_apply_on_next_tick() {
        let mut f = FaultState::new();
        let p = PeerId::new(1);
        f.tick();
        f.tick();
        f.tick();
        f.schedule([ScheduledFault {
            at: 1,
            action: FaultAction::Crash(p),
        }]);
        assert!(!f.is_down(p), "lazy: applies on the next operation");
        f.tick();
        assert!(f.is_down(p));
        assert_eq!(f.log()[0].at, 4, "recorded at the clock it applied");
    }

    #[test]
    fn slow_link_latency_accumulates_and_drains() {
        let mut f = FaultState::new();
        let p = PeerId::new(3);
        f.schedule([ScheduledFault {
            at: 1,
            action: FaultAction::SlowLink {
                peer: p,
                extra: SimTime::from_micros(250),
            },
        }]);
        f.tick();
        f.note_serve(p);
        f.note_serve(p);
        f.note_serve(PeerId::new(9)); // not slowed
        assert_eq!(f.take_slow_latency(), SimTime::from_micros(500));
        assert_eq!(f.take_slow_latency(), SimTime::ZERO, "drained");
        f.schedule([ScheduledFault {
            at: 2,
            action: FaultAction::FastLink(p),
        }]);
        f.tick();
        f.note_serve(p);
        assert_eq!(f.take_slow_latency(), SimTime::ZERO, "link healed");
    }

    #[test]
    fn drop_counter_drains_once() {
        let mut f = FaultState::new();
        f.schedule([ScheduledFault {
            at: 1,
            action: FaultAction::DropIndexInserts(3),
        }]);
        f.tick();
        assert_eq!(f.take_pending_drops(), 3);
        assert_eq!(f.take_pending_drops(), 0);
    }
}
