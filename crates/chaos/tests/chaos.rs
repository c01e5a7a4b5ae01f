//! Chaos suite: deterministic fault injection across the query path.
//!
//! Every test builds a small corporate network over TPC-H partitions,
//! arms a fault plan, and asserts that queries either return *exactly*
//! the fault-free answer (after transparent retry / fail-over) or fail
//! with the documented error — and that the applied fault trace is
//! identical across same-seed runs.

use bestpeer_chaos::FaultPlanBuilder;
use bestpeer_common::PeerId;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig, QueryOutput};
use bestpeer_core::{FaultAction, Role, ScheduledFault};
use bestpeer_simnet::SimTime;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{queries, schema};

const ROLE: &str = "analyst";

fn analyst_role() -> Role {
    let tables = schema::all_tables();
    let spec: Vec<(String, Vec<String>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                t.columns.iter().map(|c| c.name.clone()).collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, Vec<&str>)> = spec
        .iter()
        .map(|(t, cs)| (t.as_str(), cs.iter().map(String::as_str).collect()))
        .collect();
    let full: Vec<(&str, &[&str])> = borrowed.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read(ROLE, &full)
}

/// A fresh network: `nodes` peers, each loaded with a tiny TPC-H
/// partition of `rows` rows at timestamp 1. Identical calls build
/// byte-identical networks.
fn build_net(nodes: u64, rows: usize) -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(analyst_role());
    for node in 0..nodes {
        let id = net.join(&format!("company-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(rows)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    net
}

fn submit(net: &mut BestPeerNetwork, sql: &str, engine: EngineChoice) -> QueryOutput {
    let submitter = net.peer_ids()[0];
    net.submit_query(submitter, sql, ROLE, engine, 0).unwrap()
}

/// Order-insensitive row fingerprint for result comparison.
fn rows_of(out: &QueryOutput) -> Vec<String> {
    let mut v: Vec<String> = out.result.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

#[test]
fn crash_until_failover_preserves_q1_to_q5() {
    for (name, _, sql) in queries::performance_queries() {
        let mut baseline = build_net(3, 240);
        let want = rows_of(&submit(&mut baseline, sql, EngineChoice::Basic));

        let mut net = build_net(3, 240);
        net.backup_all().unwrap();
        let victim = net.peer_ids()[2];
        // Down from the first operation of the query; no scheduled
        // recovery — only the bootstrap's fail-over can heal it.
        net.install_faults([ScheduledFault {
            at: 1,
            action: FaultAction::Crash(victim),
        }]);
        let out = submit(&mut net, sql, EngineChoice::Basic);
        assert_eq!(
            rows_of(&out),
            want,
            "{name}: result differs from fault-free run"
        );
        assert!(
            out.attempts >= 2,
            "{name}: expected a mid-query crash, got 1 attempt"
        );
        assert!(
            net.bootstrap.events().iter().any(|e| matches!(
                e,
                bestpeer_core::bootstrap::MaintenanceEvent::FailOver { peer, .. } if *peer == victim
            )),
            "{name}: the failure detector never failed the victim over"
        );
    }
}

#[test]
fn mid_query_crash_is_tolerated_by_every_engine() {
    for engine in [
        EngineChoice::Basic,
        EngineChoice::ParallelP2P,
        EngineChoice::MapReduce,
    ] {
        let mut baseline = build_net(3, 240);
        let want = rows_of(&submit(&mut baseline, queries::Q3, engine));

        let mut net = build_net(3, 240);
        net.backup_all().unwrap();
        let victim = net.peer_ids()[1];
        net.install_faults([ScheduledFault {
            at: 1,
            action: FaultAction::Crash(victim),
        }]);
        let out = submit(&mut net, queries::Q3, engine);
        assert_eq!(
            rows_of(&out),
            want,
            "{engine:?}: result differs from fault-free run"
        );
        assert!(out.attempts >= 2, "{engine:?}");
    }
}

#[test]
fn same_seed_yields_identical_fault_trace_and_results() {
    let run = |seed: u64| {
        let mut net = build_net(3, 240);
        net.backup_all().unwrap();
        FaultPlanBuilder::new(seed, &net.peer_ids())
            .crash_until_failover(1..5)
            .slow_link(1..10, 5..15, SimTime::from_micros(250))
            .build()
            .install(&mut net);
        let a = submit(&mut net, queries::Q2, EngineChoice::Basic);
        let b = submit(&mut net, queries::Q3, EngineChoice::Basic);
        (rows_of(&a), rows_of(&b), format!("{:?}", net.fault_log()))
    };
    let first = run(0xC4A0_7E57);
    let second = run(0xC4A0_7E57);
    assert_eq!(first, second, "same seed must replay the same trace");
    let other = run(0xD1FF_5EED);
    assert_ne!(first.2, other.2, "a different seed lands faults elsewhere");

    // Chaos never changes answers, only traces: every run still returns
    // the fault-free results.
    let mut clean = build_net(3, 240);
    assert_eq!(
        first.0,
        rows_of(&submit(&mut clean, queries::Q2, EngineChoice::Basic))
    );
    assert_eq!(
        first.1,
        rows_of(&submit(&mut clean, queries::Q3, EngineChoice::Basic))
    );
}

#[test]
fn process_restart_rides_the_retry_loop_without_failover() {
    let mut baseline = build_net(2, 300);
    let want = rows_of(&submit(&mut baseline, queries::Q2, EngineChoice::Basic));

    let mut net = build_net(2, 300);
    // Detector effectively disabled: only the scheduled restart heals.
    net.bootstrap.fail_threshold = 100;
    let victim = net.peer_ids()[1];
    net.install_faults([
        ScheduledFault {
            at: 1,
            action: FaultAction::Crash(victim),
        },
        ScheduledFault {
            at: 4,
            action: FaultAction::Recover(victim),
        },
    ]);
    let out = submit(&mut net, queries::Q2, EngineChoice::Basic);
    assert_eq!(rows_of(&out), want);
    assert!(out.attempts >= 2);
    assert!(
        !net.bootstrap.events().iter().any(|e| matches!(
            e,
            bestpeer_core::bootstrap::MaintenanceEvent::FailOver { .. }
        )),
        "the process restarted on its own; fail-over must not fire"
    );
}

#[test]
fn unhealable_crash_times_out_with_budget_exhausted() {
    let mut net = build_net(2, 200);
    // No backups and a detector that never fires within the retry
    // budget: the query must give up with a timeout, not hang.
    net.bootstrap.fail_threshold = 100;
    let victim = net.peer_ids()[1];
    net.install_faults([ScheduledFault {
        at: 1,
        action: FaultAction::Crash(victim),
    }]);
    let submitter = net.peer_ids()[0];
    let err = net
        .submit_query(submitter, queries::Q2, ROLE, EngineChoice::Basic, 0)
        .unwrap_err();
    assert_eq!(err.kind(), "timeout", "{err}");
}

#[test]
fn dropped_index_inserts_degrade_until_republish_heals() {
    let mut net = build_net(2, 300);
    let sql = "SELECT COUNT(*) AS n FROM lineitem";
    let baseline = rows_of(&submit(&mut net, sql, EngineChoice::Basic));

    // Open a lossy window, synchronised into the overlay by the next
    // query's fault sync.
    net.faults_mut()
        .inject_now(FaultAction::DropIndexInserts(100_000));
    let unaffected = submit(&mut net, sql, EngineChoice::Basic);
    assert_eq!(
        rows_of(&unaffected),
        baseline,
        "queries do not send index inserts"
    );

    // Republishing inside the window loses every index entry of peer 1:
    // its partition becomes invisible to peer location.
    let p1 = net.peer_ids()[1];
    net.publish_indices(p1).unwrap();
    assert!(net.overlay_mut().stats().dropped_inserts > 0);
    let degraded = submit(&mut net, sql, EngineChoice::Basic);
    assert_ne!(
        rows_of(&degraded),
        baseline,
        "dropped index entries lose a partition"
    );

    // The window closes; a republish heals the index completely.
    net.overlay_mut().clear_insert_drops();
    net.publish_indices(p1).unwrap();
    let healed = submit(&mut net, sql, EngineChoice::Basic);
    assert_eq!(rows_of(&healed), baseline);
}

#[test]
fn stale_snapshot_resubmits_until_load_completes() {
    let mut net = build_net(2, 200);
    let peers = net.peer_ids();
    // Both loaders complete at virtual time 1, advancing data to ts 2.
    net.install_faults(peers.iter().map(|p| ScheduledFault {
        at: 1,
        action: FaultAction::AdvanceLoad { peer: *p, ts: 2 },
    }));
    let out = net
        .submit_query(peers[0], queries::Q2, ROLE, EngineChoice::Basic, 2)
        .unwrap();
    assert!(
        out.resubmits >= 1,
        "the first attempt ran against ts-1 data"
    );
    assert!(out.attempts >= 2);

    // Beyond any load the plan delivers: the resubmit budget exhausts
    // and the original stale-snapshot error surfaces.
    let err = net
        .submit_query(peers[0], queries::Q2, ROLE, EngineChoice::Basic, 9)
        .unwrap_err();
    assert_eq!(err.kind(), "stale-snapshot", "{err}");
}

#[test]
fn online_aggregation_degrades_gracefully_under_crash() {
    let rows = 300;
    let sql = "SELECT COUNT(*) AS n FROM lineitem";
    let mut net = build_net(3, rows);
    let submitter = net.peer_ids()[0];
    let clean = net
        .submit_online_aggregate(submitter, sql, ROLE, 0)
        .unwrap();
    assert!(!clean.degraded);
    assert_eq!(
        clean.final_result.rows[0].get(0).as_int().unwrap(),
        3 * rows as i64
    );

    // One peer down: the run degrades instead of failing — survivors
    // keep streaming estimates and the final answer covers them exactly.
    let victim = net.peer_ids()[1];
    net.crash_data_peer(victim).unwrap();
    let out = net
        .submit_online_aggregate(submitter, sql, ROLE, 0)
        .unwrap();
    assert!(out.degraded);
    assert_eq!(out.estimates.len(), 2, "two of three peers reported");
    assert_eq!(out.estimates.last().unwrap().peers_total, 3);
    assert_eq!(
        out.final_result.rows[0].get(0).as_int().unwrap(),
        2 * rows as i64,
        "exact over the surviving partitions"
    );

    // Recovery restores the full population.
    net.recover_data_peer(victim).unwrap();
    let back = net
        .submit_online_aggregate(submitter, sql, ROLE, 0)
        .unwrap();
    assert!(!back.degraded);
    assert_eq!(
        back.final_result.rows[0].get(0).as_int().unwrap(),
        3 * rows as i64
    );

    // All peers down: nothing to degrade to.
    for p in net.peer_ids() {
        net.crash_data_peer(p).unwrap();
    }
    let err = net
        .submit_online_aggregate(submitter, sql, ROLE, 0)
        .unwrap_err();
    assert_eq!(err.kind(), "unavailable", "{err}");
}

#[test]
fn slow_links_charge_latency_to_the_trace() {
    let mut net = build_net(2, 200);
    let slowed = net.peer_ids()[1];
    net.install_faults([
        ScheduledFault {
            at: 1,
            action: FaultAction::SlowLink {
                peer: slowed,
                extra: SimTime::from_millis(5),
            },
        },
        ScheduledFault {
            at: 1_000,
            action: FaultAction::FastLink(slowed),
        },
    ]);
    let out = submit(&mut net, queries::Q2, EngineChoice::Basic);
    assert_eq!(out.attempts, 1, "slow links do not fail queries");
    let slowdown: Vec<_> = out
        .trace
        .phases
        .iter()
        .filter(|p| p.label == "fault-slowdown")
        .collect();
    assert!(
        !slowdown.is_empty(),
        "degraded-link latency must appear in the trace"
    );
}

#[test]
fn recover_of_never_crashed_peer_is_harmless() {
    let mut net = build_net(2, 200);
    let p = net.peer_ids()[1];
    net.recover_data_peer(p).unwrap();
    let mut baseline = build_net(2, 200);
    assert_eq!(
        rows_of(&submit(&mut net, queries::Q2, EngineChoice::Basic)),
        rows_of(&submit(&mut baseline, queries::Q2, EngineChoice::Basic)),
    );
    assert!(
        net.recover_data_peer(PeerId::new(999)).is_err(),
        "unknown peer rejected"
    );
}
