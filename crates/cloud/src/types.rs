//! Instance types, states, and metrics.

use std::fmt;

/// A virtual-server shape. The two the paper uses are provided as
/// constants; custom shapes can be constructed for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceType {
    /// Name tag, e.g. `m1.small`.
    pub name: &'static str,
    /// Virtual cores.
    pub vcores: u32,
    /// Memory in MB.
    pub memory_mb: u32,
    /// Attached storage in GB.
    pub storage_gb: u32,
    /// Price in cents per instance-hour (drives pay-as-you-go billing).
    pub cents_per_hour: u32,
}

impl InstanceType {
    /// The paper's default: "each BestPeer++ instance is launched as a
    /// m1.small EC2 instance (1 virtual core, 1.7 GB memory)" (§2.1).
    pub const M1_SMALL: InstanceType = InstanceType {
        name: "m1.small",
        vcores: 1,
        memory_mb: 1_700,
        storage_gb: 50,
        cents_per_hour: 6,
    };

    /// The scale-up target: "m1.large instance which has four virtual
    /// cores and 7.5 GB memory" (§2.1).
    pub const M1_LARGE: InstanceType = InstanceType {
        name: "m1.large",
        vcores: 4,
        memory_mb: 7_500,
        storage_gb: 200,
        cents_per_hour: 24,
    };

    /// The next larger shape, if any (auto-scaling ladder).
    pub fn upgrade(self) -> Option<InstanceType> {
        if self == Self::M1_SMALL {
            Some(Self::M1_LARGE)
        } else {
            None
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Lifecycle state of a launched instance. Whether the peer on it is
/// serving is not the cloud's to say: the core's fault state records
/// that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Launched and billed.
    Running,
    /// Terminated; resources released.
    Terminated,
}

/// A CloudWatch-style load sample for one instance: what auto-scaling
/// reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceMetrics {
    /// CPU utilization in `[0, 1]`.
    pub cpu_utilization: f64,
    /// Fraction of attached storage in use, `[0, 1]`.
    pub storage_used: f64,
}

impl Default for InstanceMetrics {
    fn default() -> Self {
        InstanceMetrics {
            cpu_utilization: 0.1,
            storage_used: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upgrade_ladder() {
        assert_eq!(
            InstanceType::M1_SMALL.upgrade(),
            Some(InstanceType::M1_LARGE)
        );
        assert_eq!(InstanceType::M1_LARGE.upgrade(), None);
    }

    #[test]
    fn paper_shapes() {
        assert_eq!(InstanceType::M1_SMALL.vcores, 1);
        assert_eq!(InstanceType::M1_LARGE.vcores, 4);
        assert_eq!(InstanceType::M1_SMALL.to_string(), "m1.small");
        let (small, large) = (InstanceType::M1_SMALL, InstanceType::M1_LARGE);
        assert!(large.cents_per_hour > small.cents_per_hour);
    }
}
