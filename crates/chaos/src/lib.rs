//! Deterministic fault injection for BestPeer++.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of faults — peer
//! crashes, recoveries, and dropped index messages at chosen virtual
//! times — that installs into a running `BestPeerNetwork`'s fault
//! state. The same seed always yields the same plan, and replaying a
//! plan over the same network produces the same applied-event trace,
//! which is what the chaos test suite asserts.

pub mod plan;

pub use plan::{FaultPlan, FaultPlanBuilder};
