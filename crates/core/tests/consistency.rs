//! Cross-engine result consistency and telemetry reconciliation.
//!
//! The engine suite in `engines.rs` sorts rows before comparing — which
//! is exactly what masked the bug where only the basic engine applied
//! `ORDER BY` / `LIMIT`. These tests compare row *sequences*: every
//! engine must return the same rows in the same order with the same
//! truncation, matching the centralized reference.
//!
//! The second half is a property-style sweep asserting every
//! `QueryOutput`'s telemetry report reconciles exactly with its trace
//! (byte-for-byte, microsecond-for-microsecond), including through the
//! JSON export and under injected faults.

use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema, Value};
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::Role;
use bestpeer_simnet::Cluster;
use bestpeer_sql::{execute_select, parse_select};
use bestpeer_storage::Database;
use bestpeer_telemetry::{Json, QueryReport};
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{schema, Q1, Q2, Q3, Q4, Q5};

/// Queries whose answers are order-sensitive: each `ORDER BY` key list
/// determines the row sequence uniquely (no ties at the LIMIT cutoff),
/// so any engine disagreement is a real consistency bug, not a
/// tie-break artifact.
const ORDERED_QUERIES: &[&str] = &[
    // Plain scan: sort keys end in the unique (l_orderkey, l_linenumber).
    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
     WHERE l_quantity > 45 \
     ORDER BY l_quantity DESC, l_orderkey, l_linenumber LIMIT 10",
    // Aggregate ordered by its output alias; group key is unique.
    "SELECT l_nationkey, SUM(l_quantity) AS qty FROM lineitem \
     GROUP BY l_nationkey ORDER BY qty DESC LIMIT 3",
    // Aggregate ordered by the aggregate *expression* (no alias in the
    // key) — exercises the projection-match rewrite.
    "SELECT l_nationkey, COUNT(*) AS n FROM lineitem \
     GROUP BY l_nationkey ORDER BY COUNT(*) DESC, l_nationkey LIMIT 4",
    // Join with ORDER BY + LIMIT across both tables' columns.
    "SELECT l_orderkey, l_linenumber, o_orderdate, l_quantity \
     FROM lineitem, orders \
     WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1998-06-01' \
     ORDER BY o_orderdate DESC, l_orderkey, l_linenumber LIMIT 8",
    // Qualified column names in the ORDER BY keys.
    "SELECT o_orderdate, l_orderkey, l_linenumber FROM lineitem, orders \
     WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1998-08-01' \
     ORDER BY orders.o_orderdate, lineitem.l_orderkey, lineitem.l_linenumber \
     LIMIT 12",
    // ORDER BY without LIMIT: the whole sequence must match.
    "SELECT l_nationkey, SUM(l_extendedprice) AS v FROM lineitem \
     GROUP BY l_nationkey ORDER BY l_nationkey",
];

const ENGINES: &[EngineChoice] = &[
    EngineChoice::Basic,
    EngineChoice::ParallelP2P,
    EngineChoice::MapReduce,
];

fn full_read_role() -> Role {
    let tables = schema::all_tables();
    let spec: Vec<(&str, Vec<&str>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.columns
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read("R", &borrowed)
}

fn setup(n: usize, rows: usize) -> (BestPeerNetwork, Database) {
    setup_with(n, rows, true)
}

/// Like [`setup`], but `with_indices` controls whether the Table-4
/// secondary indices exist — i.e. whether the cost-based planner can
/// pick IndexScan access paths at all.
fn setup_with(n: usize, rows: usize, with_indices: bool) -> (BestPeerNetwork, Database) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let mut central = Database::new();
    for s in schema::all_tables() {
        central.create_table(s).unwrap();
    }
    for node in 0..n {
        let id = net.join(&format!("business-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node as u64).with_rows(rows)).generate();
        for (table, rows) in &data {
            if (table == "nation" || table == "region") && node > 0 {
                continue;
            }
            central.bulk_insert(table, rows.clone()).unwrap();
        }
        net.load_peer(id, data, 1).unwrap();
        if with_indices {
            for (t, c) in schema::secondary_indices() {
                // Database-level DDL so the index is WAL-logged.
                net.peer_mut(id).unwrap().db.create_index(t, c).unwrap();
            }
        }
    }
    (net, central)
}

/// Sequence equality — order matters, floats compared with a relative
/// tolerance (partial aggregation sums in a different order).
fn rows_seq_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.arity() == rb.arity()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(va, vb)| match (va, vb) {
                        (Value::Float(x), Value::Float(y)) => {
                            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                        }
                        _ => va == vb,
                    })
        })
}

#[test]
fn engines_agree_on_order_by_and_limit() {
    let (mut net, central) = setup(3, 2000);
    let submitter = net.peer_ids()[0];
    for sql in ORDERED_QUERIES {
        let stmt = parse_select(sql).unwrap();
        let (want, _) = execute_select(&stmt, &central).unwrap();
        for &engine in ENGINES {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            assert!(
                rows_seq_eq(&out.result.rows, &want.rows),
                "{engine:?} disagrees with centralized on\n  {sql}\n got {} rows: {:?}\n want {} rows: {:?}",
                out.result.rows.len(),
                &out.result.rows[..out.result.rows.len().min(3)],
                want.rows.len(),
                &want.rows[..want.rows.len().min(3)],
            );
            if let Some(limit) = stmt.limit {
                assert!(
                    out.result.rows.len() <= limit,
                    "{engine:?} ignored LIMIT {limit} on {sql}"
                );
            }
        }
    }
}

#[test]
fn engines_agree_with_each_other_on_benchmark_queries() {
    // Q1–Q5 carry no ORDER BY, so sequences may differ; but after a
    // canonical sort every engine must produce the identical multiset.
    let (mut net, _) = setup(3, 2000);
    let submitter = net.peer_ids()[0];
    for sql in [Q1, Q2, Q3, Q4, Q5] {
        let mut reference: Option<Vec<Row>> = None;
        for &engine in ENGINES {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            let mut rows = out.result.rows;
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert!(
                    rows_seq_eq(&rows, want),
                    "{engine:?} differs from the first engine on {sql}"
                ),
            }
        }
    }
}

/// Deterministic splitmix-style generator for the property sweeps (no
/// `rand` dependency; same sequence on every run).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    }
}

#[test]
fn topk_equals_full_sort_truncate_on_random_rows() {
    // Property: the bounded top-K heap under `ORDER BY … LIMIT k` must
    // produce a byte-identical sequence to sort-everything-then-truncate
    // — including under heavy duplicate keys and NULLs, where only the
    // shared tie-break (original row order) separates equal rows. The
    // no-LIMIT statement takes the full-sort path, so truncating its
    // output *is* the reference. The last round holds over 8k rows.
    let schema = TableSchema::new(
        "obs",
        vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Int),
            ColumnDef::new("id", ColumnType::Int),
        ],
        vec![],
    )
    .unwrap();
    let mut next = lcg(0xBE57_9EE2);
    for round in 0..9u32 {
        let mut db = Database::new();
        db.create_table(schema.clone()).unwrap();
        let n = (next() % 400) as usize + if round == 8 { 8193 } else { 50 };
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            // ~7 distinct keys over hundreds of rows → ties everywhere;
            // ~20% NULLs in each sort column.
            let k = if next().is_multiple_of(5) {
                Value::Null
            } else {
                Value::Int((next() % 7) as i64)
            };
            let v = if next().is_multiple_of(5) {
                Value::Null
            } else {
                Value::Int((next() % 13) as i64)
            };
            rows.push(Row::new(vec![k, v, Value::Int(i as i64)]));
        }
        db.bulk_insert("obs", rows).unwrap();
        for order in ["ORDER BY k DESC, v", "ORDER BY k, v DESC", "ORDER BY v, k"] {
            let full = parse_select(&format!("SELECT k, v, id FROM obs {order}")).unwrap();
            let (want_all, _) = execute_select(&full, &db).unwrap();
            for limit in [0usize, 1, 2, 7, 25, 10_000] {
                let stmt = parse_select(&format!("SELECT k, v, id FROM obs {order} LIMIT {limit}"))
                    .unwrap();
                let (got, _) = execute_select(&stmt, &db).unwrap();
                let want: Vec<Row> = want_all.rows.iter().take(limit).cloned().collect();
                assert!(
                    rows_seq_eq(&got.rows, &want),
                    "round {round}: top-K diverged from full sort on `{order} LIMIT {limit}`\n got {:?}\n want {:?}",
                    &got.rows[..got.rows.len().min(5)],
                    &want[..want.len().min(5)],
                );
            }
        }
    }
}

#[test]
fn engines_topk_matches_full_sort_reference() {
    // The same property through every distributed engine: random LIMITs
    // over duplicate-heavy sort columns must equal the centralized
    // full-sort-then-truncate reference, row for row. A trailing unique
    // key (l_orderkey, l_linenumber) keeps inter-engine sequences
    // deterministic at the cutoff.
    let (mut net, central) = setup(3, 1200);
    let submitter = net.peer_ids()[0];
    let mut next = lcg(0x70_9EE2);
    for col in ["l_quantity", "l_nationkey", "l_discount"] {
        for dir in ["", " DESC"] {
            let limit = 1 + (next() % 20) as usize;
            let order = format!("ORDER BY {col}{dir}, l_orderkey, l_linenumber");
            let full = format!("SELECT {col}, l_orderkey, l_linenumber FROM lineitem {order}");
            let sql = format!("{full} LIMIT {limit}");
            let (want_all, _) = execute_select(&parse_select(&full).unwrap(), &central).unwrap();
            let want: Vec<Row> = want_all.rows.iter().take(limit).cloned().collect();
            for &engine in ENGINES {
                let out = net.submit_query(submitter, &sql, "R", engine, 0).unwrap();
                assert!(
                    rows_seq_eq(&out.result.rows, &want),
                    "{engine:?} top-K disagrees with full-sort reference on {sql}"
                );
            }
        }
    }
}

#[test]
fn results_reports_and_traces_identical_at_any_thread_count() {
    // The PR's hard invariant: parallelism is invisible. Every engine's
    // result rows, telemetry report (through the JSON export), trace,
    // and attempt count must be byte-identical whether the worker pool
    // runs 1, 2, or 8 threads — exact equality here, no float
    // tolerance, because morsel boundaries depend only on input sizes
    // and merges happen in a fixed order.
    // Everything observable about one query: rows, rendered report
    // JSON, trace debug form, attempt count.
    type Outcome = (Vec<Row>, String, String, u32);
    let queries: Vec<&str> = [Q1, Q2, Q3, Q4, Q5]
        .into_iter()
        .chain(ORDERED_QUERIES.iter().copied())
        .collect();
    let mut reference: Option<Vec<Outcome>> = None;
    for threads in [1usize, 2, 8] {
        bestpeer_common::pool::set_threads(threads);
        let (mut net, _) = setup(3, 1500);
        let submitter = net.peer_ids()[0];
        let mut outcomes = Vec::new();
        for sql in &queries {
            for &engine in ENGINES {
                let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
                outcomes.push((
                    out.result.rows,
                    out.report.to_json().render(),
                    format!("{:?}", out.trace),
                    out.attempts,
                ));
            }
        }
        // Randomized mutating workload on the same lcg schedule at
        // every thread count: inserts + index refreshes interleaved
        // with queries, so cache invalidation and re-fetch paths run
        // under the sweep too.
        let mut next = lcg(0x7EAD_5EED);
        for step in 0..24u32 {
            let r = next();
            if step > 0 && r.is_multiple_of(4) {
                let which = (next() % 3) as usize;
                let extra =
                    DbGen::new(TpchConfig::tiny(500 + u64::from(step)).with_rows(80)).generate();
                let rows: Vec<Row> = extra["orders"].iter().take(20).cloned().collect();
                let id = net.peer_ids()[which];
                net.peer_mut(id)
                    .unwrap()
                    .db
                    .bulk_insert("orders", rows)
                    .unwrap();
                net.publish_indices(id).unwrap();
                continue;
            }
            let sql = queries[(r % queries.len() as u64) as usize];
            let engine = ENGINES[(next() % ENGINES.len() as u64) as usize];
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            outcomes.push((
                out.result.rows,
                out.report.to_json().render(),
                format!("{:?}", out.trace),
                out.attempts,
            ));
        }
        bestpeer_common::pool::clear_threads();
        match &reference {
            None => reference = Some(outcomes),
            Some(want) => {
                for (i, (got, expect)) in outcomes.iter().zip(want).enumerate() {
                    assert_eq!(
                        got, expect,
                        "outcome {i} diverged at {threads} worker threads"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_choice_is_invisible_across_engines_indices_and_threads() {
    // Acceptance sweep for cost-based access paths: the same queries on
    // the same data must produce byte-identical row sequences per engine
    // whether the secondary indices exist (IndexScan plans available) or
    // not (SeqScan only), at 1, 2, and 8 worker threads. Each run is
    // also checked against the centralized reference, so all three
    // engines agree with each other up to float-summation tolerance.
    let mut reference: Option<Vec<String>> = None;
    for with_indices in [false, true] {
        for threads in [1usize, 2, 8] {
            bestpeer_common::pool::set_threads(threads);
            let (mut net, central) = setup_with(3, 800, with_indices);
            let submitter = net.peer_ids()[0];
            let mut digests = Vec::new();
            for sql in ORDERED_QUERIES {
                let (want, _) = execute_select(&parse_select(sql).unwrap(), &central).unwrap();
                for &engine in ENGINES {
                    let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
                    assert!(
                        rows_seq_eq(&out.result.rows, &want.rows),
                        "{engine:?} (indices={with_indices}, threads={threads}) \
                         disagrees with centralized on {sql}"
                    );
                    digests.push(format!("{:?}", out.result.rows));
                }
            }
            bestpeer_common::pool::clear_threads();
            match &reference {
                None => reference = Some(digests),
                Some(want) => {
                    for (i, (got, expect)) in digests.iter().zip(want).enumerate() {
                        assert_eq!(
                            got, expect,
                            "digest {i} changed with indices={with_indices}, \
                             threads={threads}: plan choice leaked into results"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn failover_is_identical_with_parallel_workers_active() {
    // Chaos case: a data peer crashes mid-query while the pool runs
    // multi-threaded. The retry/fail-over path — backoff phases,
    // attempt count, recovered result, report — must replay exactly
    // as it does sequentially.
    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        bestpeer_common::pool::set_threads(threads);
        let (mut net, _) = setup(3, 800);
        net.backup_all().unwrap();
        let submitter = net.peer_ids()[0];
        let victim = net.peer_ids()[2];
        net.crash_data_peer(victim).unwrap();
        net.peer_mut(victim).unwrap().db = Database::new();
        let out = net
            .submit_query(
                submitter,
                "SELECT l_nationkey, SUM(l_quantity) AS q FROM lineitem \
                 GROUP BY l_nationkey ORDER BY l_nationkey",
                "R",
                EngineChoice::Basic,
                0,
            )
            .unwrap();
        assert!(out.attempts >= 2, "the first attempt hit the crashed peer");
        runs.push((
            out.result.rows,
            out.attempts,
            out.report.to_json().render(),
            format!("{:?}", out.trace),
        ));
        bestpeer_common::pool::clear_threads();
    }
    assert_eq!(
        runs[0], runs[1],
        "mid-query crash recovery diverged across thread counts"
    );
}

#[test]
fn every_query_report_reconciles_with_its_trace() {
    // Property-style sweep: across engines × queries, the telemetry
    // report must account for its trace exactly — same per-phase bytes,
    // same participants, latencies summing to the simulated end-to-end
    // latency to the microsecond — and survive the JSON export.
    let (mut net, _) = setup(3, 1500);
    let submitter = net.peer_ids()[0];
    let sim = Cluster::new(net.config().resources);
    let queries: Vec<&str> = [Q1, Q2, Q3, Q4, Q5]
        .into_iter()
        .chain(ORDERED_QUERIES.iter().copied())
        .collect();
    for sql in queries {
        for &engine in ENGINES {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            let rep = &out.report;
            assert!(
                rep.reconciles_with(&out.trace, &sim),
                "{engine:?} report does not reconcile on {sql}"
            );
            assert_eq!(rep.attempts, 1, "fault-free path");
            assert_eq!(rep.backoff(), bestpeer_simnet::SimTime::ZERO);
            assert!(!rep.participants.is_empty());
            assert!(rep.measured_mu().unwrap() > 0.0);
            assert!(rep.measured_phi().unwrap() >= 0.0);
            // The exported document carries the same record.
            let text = rep.to_json().render();
            let back = QueryReport::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert!(
                back.reconciles_with(&out.trace, &sim),
                "{engine:?} JSON round-trip broke reconciliation on {sql}"
            );
        }
    }
}

#[test]
fn report_charges_retry_backoff_under_failover() {
    // Crash a data peer and let one submit_query ride the retry loop:
    // the report must still reconcile with the full trace, and the
    // backoff accounting must separate overhead from productive work.
    let (mut net, _) = setup(3, 800);
    net.backup_all().unwrap();
    let submitter = net.peer_ids()[0];
    let victim = net.peer_ids()[2];
    net.crash_data_peer(victim).unwrap();
    net.peer_mut(victim).unwrap().db = Database::new();

    let out = net
        .submit_query(
            submitter,
            "SELECT COUNT(*) FROM lineitem",
            "R",
            EngineChoice::Basic,
            0,
        )
        .unwrap();
    let rep = &out.report;
    assert!(out.attempts >= 2, "the first attempt hit the crashed peer");
    assert_eq!(rep.attempts, out.attempts);
    assert!(
        rep.backoff() > bestpeer_simnet::SimTime::ZERO,
        "backoff charged"
    );
    assert_eq!(rep.work_latency() + rep.backoff(), rep.total_latency);
    let sim = Cluster::new(net.config().resources);
    assert!(
        rep.reconciles_with(&out.trace, &sim),
        "report covers retries too"
    );
}

#[test]
fn online_aggregation_report_reconciles_and_counts_degraded_peers() {
    let (mut net, _) = setup(4, 800);
    let submitter = net.peer_ids()[0];
    let sql = "SELECT SUM(l_quantity) AS q FROM lineitem";
    let out = net.submit_online_aggregate(submitter, sql, "R", 0).unwrap();
    let sim = Cluster::new(net.config().resources);
    assert!(out.report.reconciles_with(&out.trace, &sim));
    assert_eq!(out.report.engine, "online");
    assert_eq!(out.report.degraded_peers, 0);

    // Crash one owner: the run degrades gracefully and the report says
    // so.
    let victim = net.peer_ids()[3];
    net.crash_data_peer(victim).unwrap();
    let out = net.submit_online_aggregate(submitter, sql, "R", 0).unwrap();
    assert!(out.degraded);
    assert_eq!(out.report.degraded_peers, 1);
    assert!(out
        .report
        .reconciles_with(&out.trace, &Cluster::new(net.config().resources)));
}
