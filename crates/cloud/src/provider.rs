//! The abstract adapter interface the BestPeer++ core programs against.

use bestpeer_common::{InstanceId, Result};

use crate::types::{InstanceMetrics, InstanceState, InstanceType};

/// Identifies one stored backup snapshot (EBS snapshot id analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackupId(pub u64);

/// The elastic-infrastructure interface (paper §2.1): provisioning,
/// termination, scaling, asynchronous backup/restore, and load
/// monitoring.
///
/// `Snapshot` is the opaque database image shipped to durable storage —
/// in BestPeer++ the whole MySQL database "backed up to Amazon's reliable
/// EBS storage devices in a four-minute window".
pub trait CloudProvider {
    /// The opaque backup payload.
    type Snapshot;

    /// Launch a fresh virtual server of the given shape.
    fn launch_instance(&mut self, shape: InstanceType) -> Result<InstanceId>;

    /// Terminate an instance and release its resources.
    fn terminate_instance(&mut self, id: InstanceId) -> Result<()>;

    /// Replace the instance with a larger shape (auto-scaling event).
    fn upgrade_instance(&mut self, id: InstanceId, shape: InstanceType) -> Result<()>;

    /// Store a backup of the instance's database asynchronously; the
    /// previous backup for the instance remains until this completes.
    /// The caller keeps the returned id (the bootstrap records it as
    /// the peer's latest backup).
    fn backup(&mut self, id: InstanceId, snapshot: Self::Snapshot) -> Result<BackupId>;

    /// Fetch a stored backup payload (used during fail-over recovery).
    fn restore(&self, backup: BackupId) -> Result<Self::Snapshot>
    where
        Self::Snapshot: Clone;

    /// Sample load metrics for an instance (CloudWatch analogue).
    fn metrics(&self, id: InstanceId) -> Result<InstanceMetrics>;

    /// Current lifecycle state.
    fn state(&self, id: InstanceId) -> Result<InstanceState>;

    /// The instance's current shape.
    fn shape(&self, id: InstanceId) -> Result<InstanceType>;
}
