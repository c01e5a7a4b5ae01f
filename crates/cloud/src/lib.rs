//! The cloud adapter: elastic infrastructure under BestPeer++.
//!
//! The paper separates BestPeer++ into a platform-independent *core* and
//! an *adapter* that binds it to a concrete cloud (§2: "with appropriate
//! adapters, BestPeer++ can be ported to any cloud environments"). Their
//! implementation targets Amazon — EC2 for provisioning, RDS/EBS for
//! backup, CloudWatch for monitoring (§2.1).
//!
//! We have no Amazon account in this reproduction, so this crate provides
//! both halves:
//!
//! - [`provider::CloudProvider`] — the abstract adapter interface the
//!   BestPeer++ core programs against (launch/terminate/upgrade,
//!   asynchronous backup and restore, load metrics, billing), and
//! - [`sim::SimCloud`] — a simulated provider implementing it, with the
//!   paper's instance types ([`types::InstanceType`]: `m1.small`,
//!   `m1.large`), EBS-style snapshot storage, scriptable CloudWatch-style
//!   metrics, and pay-as-you-go accounting of instance-hours and storage.
//!
//! The metrics carry load (CPU and storage utilization, which drive
//! auto-scaling), not liveness: whether a peer is serving is recorded
//! once, in the core's fault state, which the bootstrap's failure
//! detector reads. The cloud keeps no record of a peer's backups
//! either; the bootstrap's peer list keeps each peer's latest.

pub mod billing;
pub mod provider;
pub mod sim;
pub mod types;

pub use provider::{BackupId, CloudProvider};
pub use sim::SimCloud;
pub use types::{InstanceMetrics, InstanceState, InstanceType};
