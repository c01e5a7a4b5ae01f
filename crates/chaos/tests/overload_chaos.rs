//! Chaos suite for admission control: overload and fault injection at
//! the same time. A network running with tight bounded admission queues
//! under a seeded fault plan must degrade *safely* — every query either
//! completes with the exact fault-free answer or surfaces a transient
//! error (`overloaded` shed past the retry budget becomes `timeout`) —
//! and never returns a wrong or partial result. A second regression
//! pins the interplay the other way: shedding alone (no faults) must
//! also be answer-preserving.

use bestpeer_chaos::FaultPlanBuilder;
use bestpeer_core::admission::AdmissionConfig;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig, QueryOutput};
use bestpeer_core::Role;
use bestpeer_simnet::SimTime;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{queries, schema};

const ROLE: &str = "analyst";

const ENGINES: &[EngineChoice] = &[
    EngineChoice::Basic,
    EngineChoice::ParallelP2P,
    EngineChoice::MapReduce,
];

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

/// A 3-peer TPC-H network; `admission` tightens the per-peer queues
/// (`AdmissionConfig::default()` leaves shedding disabled).
fn build_net(admission: AdmissionConfig) -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(
        schema::all_tables(),
        NetworkConfig {
            admission,
            ..NetworkConfig::default()
        },
    );
    net.define_role(analyst_role());
    for node in 0..3u64 {
        let id = net.join(&format!("company-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(240)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    net
}

/// Tight queues: a couple of slots per peer with a service time far
/// longer than the inter-query gap, so a repeated workload overloads
/// every owner and the shed/backoff path runs constantly.
fn tight() -> AdmissionConfig {
    AdmissionConfig {
        queue_depth: 2,
        service_time: SimTime::from_millis(2),
    }
}

fn submit(
    net: &mut BestPeerNetwork,
    sql: &str,
    engine: EngineChoice,
) -> Result<QueryOutput, bestpeer_common::Error> {
    let submitter = net.peer_ids()[0];
    net.submit_query(submitter, sql, ROLE, engine, 0)
}

/// Order-insensitive row fingerprint for result comparison.
fn rows_of(out: &QueryOutput) -> Vec<String> {
    let mut v: Vec<String> = out.result.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

#[test]
fn shedding_alone_preserves_answers_exactly() {
    // No faults: an overloaded network's successful answers must be
    // byte-identical to an unloaded network's, and the overload must
    // actually shed (retries charged, nothing silently dropped).
    let mut calm = build_net(AdmissionConfig::default());
    let mut loaded = build_net(tight());
    let workload = [queries::Q1, queries::Q3, queries::Q1, queries::Q3];
    let mut successes = 0;
    for (i, sql) in workload.iter().cycle().take(12).enumerate() {
        let engine = ENGINES[i % ENGINES.len()];
        let want = rows_of(&submit(&mut calm, sql, engine).expect("calm network"));
        match submit(&mut loaded, sql, engine) {
            Ok(out) => {
                successes += 1;
                assert_eq!(
                    rows_of(&out),
                    want,
                    "step {i}: {engine:?} answer diverged under overload on {sql}"
                );
                assert!(!out.degraded, "step {i}: exact engines must not degrade");
            }
            Err(e) => assert_eq!(
                e.kind(),
                "timeout",
                "step {i}: overload may only surface as a retry timeout, got {e}"
            ),
        }
    }
    assert!(successes > 0, "overloaded network never completed a query");
    assert!(
        loaded.metrics().counter("queries.shed_retries") > 0,
        "depth-2 queues under a back-to-back workload never shed"
    );
    loaded.publish_admission_metrics();
    assert!(loaded.metrics().counter("admission.shed") > 0);
    assert!(loaded.metrics().counter("admission.admitted") > 0);
}

#[test]
fn overload_under_seeded_faults_is_exact_or_transient() {
    // Overload and a seeded fault plan together: crash/recover windows
    // and slow links on top of constant shedding. Every query must
    // either match the fault-free, unloaded baseline exactly or fail
    // with a transient kind — never a wrong answer.
    for seed in [7u64, 23] {
        let mut baseline = build_net(AdmissionConfig::default());
        let mut net = build_net(tight());
        net.backup_all().unwrap();
        let plan = FaultPlanBuilder::new(seed, &net.peer_ids())
            .crash_recover(5..40, 10..30)
            .slow_link(10..60, 5..20, SimTime::from_micros(500))
            .build();
        plan.install(&mut net);

        let workload = [queries::Q1, queries::Q3];
        let mut successes = 0;
        let mut transients = 0;
        for (i, sql) in workload.iter().cycle().take(12).enumerate() {
            let engine = ENGINES[i % ENGINES.len()];
            let want = rows_of(&submit(&mut baseline, sql, engine).expect("baseline"));
            match submit(&mut net, sql, engine) {
                Ok(out) => {
                    successes += 1;
                    assert_eq!(
                        rows_of(&out),
                        want,
                        "seed {seed}, step {i}: {engine:?} diverged under overload+faults on {sql}"
                    );
                }
                Err(e) => {
                    transients += 1;
                    assert!(
                        matches!(e.kind(), "timeout" | "overloaded" | "unavailable"),
                        "seed {seed}, step {i}: non-transient failure under chaos: {e}"
                    );
                }
            }
        }
        assert!(
            successes > 0,
            "seed {seed}: nothing completed under overload+faults ({transients} transient errors)"
        );
        assert!(
            net.metrics().counter("queries.shed_retries") > 0,
            "seed {seed}: the fault sweep never exercised the shed path"
        );
    }
}

#[test]
fn every_engine_is_admitted_and_folds_exec_stats() {
    // Regression: MapReduce map tasks used to bypass admission and drop
    // their owners' exec stats. A queue this deep never sheds, so every
    // engine's serves must show up as admitted, with rows shared.
    let sql = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 10";
    for engine in [EngineChoice::Basic, EngineChoice::MapReduce] {
        let mut net = build_net(AdmissionConfig {
            queue_depth: 10_000,
            ..AdmissionConfig::default()
        });
        submit(&mut net, sql, engine).expect("a never-shedding network answers");
        net.publish_admission_metrics();
        assert!(
            net.metrics().counter("admission.admitted") > 0,
            "{engine:?} serves skipped admission"
        );
        assert!(
            net.metrics().counter("exec.rows_shared") > 0,
            "{engine:?} dropped its owners' exec stats"
        );
    }
}

#[test]
fn crashed_peer_is_scrubbed_from_admission_state() {
    // Regression: `leave` (and fail-over eviction) must drop the
    // departed peer's admission queue so utilization sampling and
    // shedding stats never see a ghost peer.
    let mut net = build_net(tight());
    let victim = net.peer_ids()[2];
    // Queue some work at the victim via the offer path.
    net.offer_request(victim, SimTime::from_millis(1)).unwrap();
    assert_eq!(net.admission().queue_depth(victim), 1);
    net.leave(victim).unwrap();
    assert_eq!(net.admission().queue_depth(victim), 0);
    assert_eq!(net.admission().total_depth(), 0);
}
