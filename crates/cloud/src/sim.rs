//! The simulated cloud provider.
//!
//! Stands in for Amazon EC2 + RDS + EBS + CloudWatch. Instances are
//! records; backups are stored payloads; load metrics are scriptable so
//! tests can inject overload conditions.

use std::collections::HashMap;

use bestpeer_common::{Error, InstanceId, Result};

use crate::billing::Ledger;
use crate::provider::{BackupId, CloudProvider};
use crate::types::{InstanceMetrics, InstanceState, InstanceType};

#[derive(Debug, Clone)]
struct Instance {
    shape: InstanceType,
    state: InstanceState,
    metrics: InstanceMetrics,
}

/// A fully in-process cloud. `S` is the backup payload type (the peer's
/// database image).
#[derive(Debug, Clone)]
pub struct SimCloud<S> {
    instances: HashMap<InstanceId, Instance>,
    backups: HashMap<BackupId, S>,
    next_instance: u64,
    next_backup: u64,
    clock_us: u64,
    ledger: Ledger,
}

impl<S> Default for SimCloud<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> SimCloud<S> {
    /// A fresh, empty region.
    pub fn new() -> Self {
        SimCloud {
            instances: HashMap::new(),
            backups: HashMap::new(),
            next_instance: 1,
            next_backup: 1,
            clock_us: 0,
            ledger: Ledger::new(),
        }
    }

    /// Advance the region's virtual clock (drives billing).
    pub fn advance_clock(&mut self, micros: u64) {
        self.clock_us += micros;
    }

    /// Current bill across all tenants' instances, in cents.
    pub fn bill_cents(&self) -> u64 {
        self.ledger.total_cents(self.clock_us)
    }

    /// Script the next metrics sample for an instance (the analogue of
    /// real-world load changing).
    pub fn set_metrics(&mut self, id: InstanceId, m: InstanceMetrics) -> Result<()> {
        self.instance_mut(id)?.metrics = m;
        Ok(())
    }

    /// Number of instances currently running.
    pub fn running_count(&self) -> usize {
        self.instances
            .values()
            .filter(|i| i.state == InstanceState::Running)
            .count()
    }

    fn instance(&self, id: InstanceId) -> Result<&Instance> {
        self.instances
            .get(&id)
            .ok_or_else(|| Error::Cloud(format!("no such instance {id}")))
    }

    fn instance_mut(&mut self, id: InstanceId) -> Result<&mut Instance> {
        self.instances
            .get_mut(&id)
            .ok_or_else(|| Error::Cloud(format!("no such instance {id}")))
    }
}

impl<S: Clone> CloudProvider for SimCloud<S> {
    type Snapshot = S;

    fn launch_instance(&mut self, shape: InstanceType) -> Result<InstanceId> {
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            id,
            Instance {
                shape,
                state: InstanceState::Running,
                metrics: InstanceMetrics::default(),
            },
        );
        self.ledger.start(id, shape, self.clock_us);
        Ok(id)
    }

    fn terminate_instance(&mut self, id: InstanceId) -> Result<()> {
        let inst = self.instance_mut(id)?;
        if inst.state == InstanceState::Terminated {
            return Err(Error::Cloud(format!("{id} already terminated")));
        }
        inst.state = InstanceState::Terminated;
        self.ledger.stop(id, self.clock_us);
        Ok(())
    }

    fn upgrade_instance(&mut self, id: InstanceId, shape: InstanceType) -> Result<()> {
        let now = self.clock_us;
        let inst = self.instance_mut(id)?;
        if inst.state != InstanceState::Running {
            return Err(Error::Cloud(format!("{id} is not running; cannot upgrade")));
        }
        inst.shape = shape;
        self.ledger.reshape(id, shape, now);
        Ok(())
    }

    fn backup(&mut self, id: InstanceId, snapshot: S) -> Result<BackupId> {
        // Asynchronous in the paper; complete on return here.
        self.instance(id)?;
        let bid = BackupId(self.next_backup);
        self.next_backup += 1;
        self.backups.insert(bid, snapshot);
        Ok(bid)
    }

    fn restore(&self, backup: BackupId) -> Result<S> {
        self.backups
            .get(&backup)
            .cloned()
            .ok_or_else(|| Error::Cloud(format!("no such backup {}", backup.0)))
    }

    fn metrics(&self, id: InstanceId) -> Result<InstanceMetrics> {
        Ok(self.instance(id)?.metrics)
    }

    fn state(&self, id: InstanceId) -> Result<InstanceState> {
        Ok(self.instance(id)?.state)
    }

    fn shape(&self, id: InstanceId) -> Result<InstanceType> {
        Ok(self.instance(id)?.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_probe_terminate() {
        let mut cloud: SimCloud<Vec<u8>> = SimCloud::new();
        let id = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
        assert_eq!(cloud.state(id).unwrap(), InstanceState::Running);
        assert_eq!(cloud.running_count(), 1);
        cloud.terminate_instance(id).unwrap();
        assert_eq!(cloud.state(id).unwrap(), InstanceState::Terminated);
        assert!(cloud.terminate_instance(id).is_err());
        assert_eq!(cloud.running_count(), 0);
    }

    #[test]
    fn backup_and_restore_round_trip() {
        let mut cloud: SimCloud<String> = SimCloud::new();
        let id = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
        let b1 = cloud.backup(id, "v1".into()).unwrap();
        let b2 = cloud.backup(id, "v2".into()).unwrap();
        assert_ne!(b1, b2);
        assert_eq!(cloud.restore(b1).unwrap(), "v1");
        assert_eq!(cloud.restore(b2).unwrap(), "v2");
        assert!(cloud.restore(BackupId(999)).is_err());
    }

    #[test]
    fn upgrade_changes_shape_and_billing() {
        let mut cloud: SimCloud<()> = SimCloud::new();
        let id = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
        cloud.advance_clock(3_600_000_000);
        cloud.upgrade_instance(id, InstanceType::M1_LARGE).unwrap();
        cloud.advance_clock(3_600_000_000);
        assert_eq!(cloud.shape(id).unwrap(), InstanceType::M1_LARGE);
        assert_eq!(cloud.bill_cents(), 6 + 24);
    }

    #[test]
    fn unknown_instance_errors() {
        let cloud: SimCloud<()> = SimCloud::new();
        assert!(cloud.metrics(InstanceId::new(404)).is_err());
        assert!(cloud.state(InstanceId::new(404)).is_err());
    }
}
