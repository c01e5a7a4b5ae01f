//! Chaos suite for the query-path caches: under deterministic fault
//! injection, a cache-enabled network must answer exactly like a
//! cache-disabled one — hits run the same fault preamble and snapshot
//! checks as real serves (lease-check semantics), crash/recovery and
//! lossy index windows fall back to full invalidation, and fail-over
//! purges any partials fetched from the failed peer.

use bestpeer_chaos::FaultPlanBuilder;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig, QueryOutput};
use bestpeer_core::{FaultAction, Role, ScheduledFault};
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

fn build_net(nodes: u64, rows: usize, result_cache: bool) -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(
        schema::all_tables(),
        NetworkConfig {
            result_cache,
            ..NetworkConfig::default()
        },
    );
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
fn warm_cache_survives_mid_query_crash_with_exact_results() {
    // Warm the cache, then crash a data peer mid-query: the retry path
    // must produce the fault-free answer, never a stale cached partial
    // from the crashed peer.
    for &engine in ENGINES {
        let mut baseline = build_net(3, 240, false);
        let want = rows_of(&submit(&mut baseline, queries::Q3, engine));

        let mut net = build_net(3, 240, true);
        net.backup_all().unwrap();
        // Two cold runs warm every fetch the query makes.
        submit(&mut net, queries::Q3, engine);
        let warmed = submit(&mut net, queries::Q3, engine);
        assert!(
            warmed.report.cache_hits > 0,
            "{engine:?}: cache must be warm before the crash"
        );

        let victim = net.peer_ids()[1];
        net.install_faults([ScheduledFault {
            at: 1,
            action: FaultAction::Crash(victim),
        }]);
        let out = submit(&mut net, queries::Q3, engine);
        assert_eq!(
            rows_of(&out),
            want,
            "{engine:?}: warm network diverged after a mid-query crash"
        );
    }
}

#[test]
fn seeded_chaos_sweep_is_warm_cold_identical() {
    // The same seeded fault plan — crash/recover, a slow link, and a
    // lossy index window (which forces the full-invalidation fallback)
    // — applied to a cache-on and a cache-off network running the same
    // repeated workload must yield byte-identical answers throughout.
    for seed in [7u64, 23, 101] {
        let mut warm_net = build_net(3, 240, true);
        let mut cold_net = build_net(3, 240, false);
        warm_net.backup_all().unwrap();
        cold_net.backup_all().unwrap();
        let plan = FaultPlanBuilder::new(seed, &warm_net.peer_ids())
            .crash_recover(5..40, 10..30)
            .slow_link(10..60, 5..20, SimTime::from_micros(500))
            .drop_index_inserts(20..80, 2)
            .build();
        plan.install(&mut warm_net);
        plan.install(&mut cold_net);

        let workload = [queries::Q1, queries::Q3, queries::Q1, queries::Q3];
        let mut warm_hits = 0;
        for (i, sql) in workload.iter().cycle().take(12).enumerate() {
            let engine = ENGINES[i % ENGINES.len()];
            let w = submit(&mut warm_net, sql, engine);
            let c = submit(&mut cold_net, sql, engine);
            assert_eq!(
                rows_of(&w),
                rows_of(&c),
                "seed {seed}, step {i}: {engine:?} diverged under chaos on {sql}"
            );
            warm_hits += w.report.cache_hits;
        }
        assert!(
            warm_hits > 0,
            "seed {seed}: the sweep never exercised a warm path"
        );
    }
}
