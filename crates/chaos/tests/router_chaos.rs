//! Chaos suite for the learned routing advisor: crashing a community
//! member mid-query must demote its templates and never change an
//! answer. An advisor-enabled network under a seeded fault plan is
//! compared step for step against an advisor-disabled twin running the
//! identical plan — across all three engines and at 1/2/8 worker
//! threads, where every replay must be byte-identical.

use bestpeer_common::pool;
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig, QueryOutput};
use bestpeer_core::{FaultAction, Role, RouterConfig, ScheduledFault};
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::schema;

const ROLE: &str = "analyst";

const ENGINES: &[EngineChoice] = &[
    EngineChoice::Basic,
    EngineChoice::ParallelP2P,
    EngineChoice::MapReduce,
];

const SQL: &str = "SELECT l_nationkey, SUM(l_quantity) AS q FROM lineitem \
                   GROUP BY l_nationkey ORDER BY l_nationkey";

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

fn build_net(advisor: bool) -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(
        schema::all_tables(),
        NetworkConfig {
            result_cache: false,
            index_cache: false,
            router: RouterConfig {
                enabled: advisor,
                cluster_interval: 1,
                ..RouterConfig::default()
            },
            ..NetworkConfig::default()
        },
    );
    net.define_role(analyst_role());
    for node in 0..3u64 {
        let id = net.join(&format!("company-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(240)).generate();
        net.load_peer(id, data, 1).unwrap();
    }
    net.backup_all().unwrap();
    net
}

fn submit(net: &mut BestPeerNetwork, engine: EngineChoice) -> QueryOutput {
    let submitter = net.peer_ids()[0];
    net.submit_query(submitter, SQL, ROLE, engine, 0).unwrap()
}

fn rows_of(out: &QueryOutput) -> Vec<String> {
    let mut v: Vec<String> = out.result.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// One full scenario on a fresh network: confirm the hot template,
/// crash a community member mid-query (it recovers a few fault ticks
/// later), query through the crash window with every engine, then keep
/// going after recovery. Returns every step's sorted rows plus the
/// advisor counters at the end.
fn run_scenario(advisor: bool) -> (Vec<Vec<String>>, u64, u64) {
    let mut net = build_net(advisor);
    let mut steps = Vec::new();

    // Confirm: two BATON-backed sightings, the third routes (when the
    // advisor is on).
    for i in 0..3 {
        let out = submit(&mut net, EngineChoice::Basic);
        assert_eq!(
            out.report.advisor_hit,
            advisor && i >= 2,
            "advisor={advisor} step {i}: unexpected routing decision"
        );
        steps.push(rows_of(&out));
    }

    // A community member crashes mid-query and recovers 30 fault ticks
    // later; every engine queries through the window.
    let victim = net.peer_ids()[1];
    net.install_faults([
        ScheduledFault {
            at: 1,
            action: FaultAction::Crash(victim),
        },
        ScheduledFault {
            at: 30,
            action: FaultAction::Recover(victim),
        },
    ]);
    for &engine in ENGINES {
        steps.push(rows_of(&submit(&mut net, engine)));
    }

    // After recovery the template re-earns its route. The recovery
    // fault record lands mid-loop (its tick position depends on how
    // many serves the crash window consumed) and demotes once more when
    // it does, so allow a bounded number of fresh sightings.
    let mut reconfirmed = false;
    for _ in 0..8 {
        let out = submit(&mut net, EngineChoice::Basic);
        reconfirmed |= out.report.advisor_hit;
        steps.push(rows_of(&out));
    }
    assert_eq!(
        reconfirmed, advisor,
        "advisor={advisor}: the template must reconfirm after recovery \
         exactly when the advisor is enabled"
    );

    let stats = net.advisor().stats();
    (steps, stats.hits, stats.demotions)
}

#[test]
fn crashed_community_member_demotes_and_answers_stay_identical() {
    let mut reference: Option<Vec<Vec<String>>> = None;
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (on, hits, demotions) = run_scenario(true);
        let (off, off_hits, _) = run_scenario(false);
        pool::clear_threads();

        assert_eq!(
            on, off,
            "{threads} threads: advisor-routed answers diverged under chaos"
        );
        assert!(hits > 0, "the advisor never routed before the crash");
        assert!(
            demotions > 0,
            "crashing a community member must demote its templates"
        );
        assert_eq!(off_hits, 0, "a disabled advisor must never route");

        match &reference {
            None => reference = Some(on),
            Some(want) => assert_eq!(
                &on, want,
                "{threads} threads: chaos replay is not byte-identical"
            ),
        }
    }
}
