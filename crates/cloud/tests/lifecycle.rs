//! Cloud-adapter lifecycle tests: the full EC2/RDS-style state machine
//! the bootstrap daemon depends on, plus billing across mixed fleets.

use bestpeer_cloud::{CloudProvider, InstanceMetrics, InstanceState, InstanceType, SimCloud};

const HOUR_US: u64 = 3_600_000_000;

#[test]
fn fleet_billing_accumulates_per_shape() {
    let mut cloud: SimCloud<Vec<u8>> = SimCloud::new();
    let small = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    let large = cloud.launch_instance(InstanceType::M1_LARGE).unwrap();
    cloud.advance_clock(2 * HOUR_US);
    // 2h small (12¢) + 2h large (48¢)
    assert_eq!(cloud.bill_cents(), 60);
    cloud.terminate_instance(small).unwrap();
    cloud.advance_clock(HOUR_US);
    // + 1h large only
    assert_eq!(cloud.bill_cents(), 84);
    cloud.terminate_instance(large).unwrap();
    cloud.advance_clock(10 * HOUR_US);
    assert_eq!(cloud.bill_cents(), 84, "terminated instances stop metering");
}

#[test]
fn backups_outlive_their_instance() {
    let mut cloud: SimCloud<Vec<u8>> = SimCloud::new();
    let a = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    cloud.backup(a, vec![1]).unwrap();
    let latest = cloud.backup(a, vec![1, 2]).unwrap();
    cloud.terminate_instance(a).unwrap();
    // A terminated instance's backups remain restorable (EBS durability).
    assert_eq!(cloud.restore(latest).unwrap(), vec![1, 2]);
    // The replacement instance can take new backups.
    let b = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    let next = cloud.backup(b, vec![1, 2, 3]).unwrap();
    assert_eq!(cloud.restore(next).unwrap(), vec![1, 2, 3]);
    assert_eq!(cloud.restore(latest).unwrap(), vec![1, 2]);
}

#[test]
fn metrics_scripting_and_state_transitions() {
    let mut cloud: SimCloud<()> = SimCloud::new();
    let id = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    assert_eq!(cloud.state(id).unwrap(), InstanceState::Running);
    cloud
        .set_metrics(
            id,
            InstanceMetrics {
                cpu_utilization: 0.5,
                storage_used: 0.9,
            },
        )
        .unwrap();
    assert!(cloud.metrics(id).unwrap().storage_used > 0.85);
    // Terminating works once; a terminated instance cannot be upgraded.
    cloud.terminate_instance(id).unwrap();
    assert_eq!(cloud.state(id).unwrap(), InstanceState::Terminated);
    assert!(cloud.terminate_instance(id).is_err());
    assert!(cloud.upgrade_instance(id, InstanceType::M1_LARGE).is_err());
}

#[test]
fn instance_ids_never_recycle() {
    let mut cloud: SimCloud<()> = SimCloud::new();
    let a = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    cloud.terminate_instance(a).unwrap();
    let b = cloud.launch_instance(InstanceType::M1_SMALL).unwrap();
    assert_ne!(a, b, "fail-over must be able to blacklist dead ids safely");
}
