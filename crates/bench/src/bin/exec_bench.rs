//! Execution hot-path micro-benchmark: the PR 3 overhaul vs its
//! pre-overhaul baselines.
//!
//! ```text
//! exec_bench [--rows N] [--out PATH]
//! ```
//!
//! Three measurements, written to `BENCH_exec.json` (default) and
//! printed to stdout:
//!
//! - **pipeline** — a scan → filter → hash-join → aggregate chain over
//!   TPC-H orders ⋈ customer, run once with the old per-stage deep-copy
//!   row movement (every emitted row cloned out of storage) and once
//!   with the shared-handle (`SharedRow`) pipeline the executor now
//!   uses;
//! - **order_limit** — `ORDER BY … LIMIT k` answered by the old
//!   full-sort-then-truncate versus [`bestpeer_sql::apply_order_limit`]'s
//!   bounded top-K heap;
//! - **index_refresh** — BATON hops for a single-table refresh under
//!   the old full unpublish/republish sweep versus delta index
//!   maintenance ([`BestPeerNetwork::publish_indices`]).
//!
//! A fourth, **plan**, section goes to `BENCH_plan.json` (`--plan-out`):
//! the cost-based planner's access-path choice over an indexed TPC-H
//! orders table. A selective point lookup is timed with the planner
//! forced onto a sequential scan (no index exists) versus choosing the
//! secondary index; a wide range on the same indexed column must fall
//! back to the sequential scan; and both access paths must produce
//! digest-identical results. The reported `index_speedup` is capped at
//! 25× so the committed baseline gates "the index is much faster"
//! without being sensitive to exactly how much faster this machine is.
//!
//! The binary asserts the PR's acceptance floors (≥2× pipeline rows/sec,
//! ≥5× fewer refresh hops, ≥5× index point-lookup speedup) so
//! `scripts/check.sh` fails on a regression.

use bestpeer_bench::Flags;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bestpeer_common::{stable_hash, Row, SharedRow, Value};
use bestpeer_core::indexer;
use bestpeer_core::network::{BestPeerNetwork, NetworkConfig};
use bestpeer_sql::exec::{execute_select, ResultSet};
use bestpeer_sql::parse_select;
use bestpeer_storage::{Database, Table};
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::schema;

// Column positions in the TPC-H schemas used below.
const O_CUSTKEY: usize = 1;
const O_TOTALPRICE: usize = 3;
const O_NKEY: usize = 5;
const C_CUSTKEY: usize = 0;
const C_ACCTBAL: usize = 3;

fn main() {
    let flags = Flags::parse(&["--rows", "--out", "--plan-out"], &[]);
    let rows: usize = flags.get("--rows", 80_000);
    let out = flags.get("--out", "BENCH_exec.json".to_owned());
    let plan_out = flags.get("--plan-out", "BENCH_plan.json".to_owned());

    let (ord, cust) = build_tables(rows);
    let pipeline = bench_pipeline(&ord, &cust);
    let order_limit = bench_order_limit();
    let refresh = bench_index_refresh();
    let plan = bench_plan(&ord);

    let json = format!(
        "{{\n  \"pipeline\": {{\"rows\": {}, \"rows_per_sec_baseline\": {:.0}, \"rows_per_sec\": {:.0}, \"speedup\": {:.2}}},\n  \"order_limit\": {{\"rows\": {}, \"limit\": 10, \"ns_full_sort\": {:.0}, \"ns_topk\": {:.0}, \"speedup\": {:.2}}},\n  \"index_refresh\": {{\"hops_full_republish\": {}, \"hops_delta_refresh\": {}, \"reduction\": {:.2}}}\n}}\n",
        pipeline.rows,
        pipeline.baseline_rps,
        pipeline.shared_rps,
        pipeline.speedup(),
        order_limit.rows,
        order_limit.ns_full_sort,
        order_limit.ns_topk,
        order_limit.speedup(),
        refresh.0,
        refresh.1,
        refresh.0 as f64 / refresh.1.max(1) as f64,
    );
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_exec.json");
    eprintln!("wrote {out}");

    let plan_json = format!(
        "{{\n  \"plan\": {{\n    \"rows\": {},\n    \"point_lookup\": {{\"ns_seq_scan\": {:.0}, \"ns_index_scan\": {:.0}, \"index_speedup\": {:.2}}},\n    \"wide_range_fell_back_to_seq_scan\": {},\n    \"digests_match\": true\n  }}\n}}\n",
        plan.rows,
        plan.ns_seq,
        plan.ns_index,
        plan.capped_speedup(),
        plan.wide_fallback,
    );
    print!("{plan_json}");
    std::fs::write(&plan_out, &plan_json).expect("write BENCH_plan.json");
    eprintln!("wrote {plan_out}");

    // Acceptance floors for this PR; deterministic for the hop counts,
    // generous for the wall-clock ratio (measured ~4-10× in release).
    assert!(
        pipeline.speedup() >= 2.0,
        "pipeline speedup {:.2} below the 2x floor",
        pipeline.speedup()
    );
    assert!(
        refresh.0 >= 5 * refresh.1.max(1),
        "delta refresh ({} hops) not 5x cheaper than full republish ({} hops)",
        refresh.1,
        refresh.0
    );
    assert!(
        plan.speedup() >= 5.0,
        "index point lookup speedup {:.2} below the 5x floor",
        plan.speedup()
    );
    assert!(
        plan.wide_fallback,
        "a non-selective range on an indexed column must fall back to SeqScan"
    );
}

fn build_tables(rows: usize) -> (Table, Table) {
    let data = DbGen::new(TpchConfig::tiny(7).with_rows(rows)).generate();
    let mut ord = Table::new(schema::orders());
    for r in &data["orders"] {
        ord.insert(r.clone()).unwrap();
    }
    let mut cust = Table::new(schema::customer());
    for r in &data["customer"] {
        cust.insert(r.clone()).unwrap();
    }
    (ord, cust)
}

/// Median wall-clock seconds of `f` over `samples` runs (one warmup).
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// 98th-percentile `c_acctbal`: the join's build-side filter keeps ~2%
/// of customers, so the scans — not the join output — dominate.
fn acctbal_cutoff(cust: &Table) -> f64 {
    let mut bals: Vec<f64> = cust
        .scan()
        .filter_map(|r| match r.get(C_ACCTBAL) {
            Value::Float(b) => Some(*b),
            _ => None,
        })
        .collect();
    bals.sort_by(f64::total_cmp);
    bals[bals.len() * 98 / 100]
}

fn acctbal_pred(r: &Row, cutoff: f64) -> bool {
    matches!(r.get(C_ACCTBAL), Value::Float(b) if *b > cutoff)
}

/// COUNT(*), SUM(o_totalprice) grouped by o_nationkey — identical for
/// both pipelines so only the row movement differs.
fn aggregate<'a>(rows: impl Iterator<Item = &'a Row>) -> HashMap<i64, (i64, f64)> {
    let mut groups: HashMap<i64, (i64, f64)> = HashMap::new();
    for r in rows {
        let Value::Int(k) = r.get(O_NKEY) else {
            continue;
        };
        let Value::Float(p) = r.get(O_TOTALPRICE) else {
            continue;
        };
        let e = groups.entry(*k).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += *p;
    }
    groups
}

/// Pre-overhaul operator chain, faithful to the old `exec::run`: the
/// scan deep-clones every emitted row out of storage (predicates are
/// applied during the scan, exactly as the old pushdown did) and each
/// stage materializes owned `Vec<Row>`s.
fn baseline_pipeline(ord: &Table, cust: &Table, cutoff: f64) -> HashMap<i64, (i64, f64)> {
    let o: Vec<Row> = ord.scan().cloned().collect();
    let c: Vec<Row> = cust
        .scan()
        .filter(|r| acctbal_pred(r, cutoff))
        .cloned()
        .collect();
    let mut ht: HashMap<&Value, Vec<&Row>> = HashMap::with_capacity(c.len());
    for r in &c {
        ht.entry(r.get(C_CUSTKEY)).or_default().push(r);
    }
    let mut joined: Vec<Row> = Vec::new();
    for r in &o {
        if let Some(matches) = ht.get(r.get(O_CUSTKEY)) {
            for m in matches {
                joined.push(r.concat(m));
            }
        }
    }
    aggregate(joined.iter())
}

/// The overhauled chain: storage hands out `SharedRow` handles, stages
/// move handles, and only join output materializes new rows.
fn shared_pipeline(ord: &Table, cust: &Table, cutoff: f64) -> HashMap<i64, (i64, f64)> {
    let o: Vec<SharedRow> = ord.scan_shared().collect();
    let c: Vec<SharedRow> = cust
        .scan_shared()
        .filter(|r| acctbal_pred(r, cutoff))
        .collect();
    let mut ht: HashMap<&Value, Vec<&SharedRow>> = HashMap::with_capacity(c.len());
    for r in &c {
        ht.entry(r.get(C_CUSTKEY)).or_default().push(r);
    }
    let mut joined: Vec<SharedRow> = Vec::new();
    for r in &o {
        if let Some(matches) = ht.get(r.get(O_CUSTKEY)) {
            for m in matches {
                joined.push(SharedRow::new(r.concat(m)));
            }
        }
    }
    aggregate(joined.iter().map(|r| &**r))
}

struct PipelineResult {
    rows: usize,
    baseline_rps: f64,
    shared_rps: f64,
}

impl PipelineResult {
    fn speedup(&self) -> f64 {
        self.shared_rps / self.baseline_rps
    }
}

fn bench_pipeline(ord: &Table, cust: &Table) -> PipelineResult {
    let cutoff = acctbal_cutoff(cust);
    assert_eq!(
        baseline_pipeline(ord, cust, cutoff),
        shared_pipeline(ord, cust, cutoff),
        "both pipelines must agree before being timed"
    );
    let rows = ord.len() + cust.len();
    let t_base = median_secs(15, || {
        black_box(baseline_pipeline(ord, cust, cutoff));
    });
    let t_shared = median_secs(15, || {
        black_box(shared_pipeline(ord, cust, cutoff));
    });
    PipelineResult {
        rows,
        baseline_rps: rows as f64 / t_base,
        shared_rps: rows as f64 / t_shared,
    }
}

struct OrderLimitResult {
    rows: usize,
    ns_full_sort: f64,
    ns_topk: f64,
}

impl OrderLimitResult {
    fn speedup(&self) -> f64 {
        self.ns_full_sort / self.ns_topk
    }
}

fn bench_order_limit() -> OrderLimitResult {
    let stmt = parse_select(
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
         ORDER BY l_quantity DESC, l_orderkey, l_linenumber LIMIT 10",
    )
    .unwrap();
    let columns = vec![
        "l_orderkey".to_owned(),
        "l_linenumber".to_owned(),
        "l_quantity".to_owned(),
    ];
    // Synthetic coordinator result set, large enough that the sort —
    // not the per-sample input clone — dominates the full-sort side.
    let mut s: u64 = 0x5EED_BE57;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let rows: Vec<Row> = (0..200_000)
        .map(|i| {
            Row::new(vec![
                Value::Int((next() % 1000) as i64),
                Value::Int(i),
                Value::Int((next() % 50) as i64),
            ])
        })
        .collect();
    let n = rows.len();
    // Both closures clone the input rows, so the measured difference is
    // full sort vs bounded heap.
    let t_full = median_secs(15, || {
        let mut snapshot = rows.clone();
        snapshot.sort_by(|a, b| {
            b.get(2)
                .cmp(a.get(2))
                .then_with(|| a.get(0).cmp(b.get(0)))
                .then_with(|| a.get(1).cmp(b.get(1)))
        });
        snapshot.truncate(10);
        black_box(snapshot);
    });
    let t_topk = median_secs(15, || {
        let mut rs = ResultSet {
            columns: columns.clone(),
            rows: rows.clone(),
        };
        assert!(bestpeer_sql::apply_order_limit(&stmt, &mut rs));
        black_box(rs);
    });
    OrderLimitResult {
        rows: n,
        ns_full_sort: t_full * 1e9,
        ns_topk: t_topk * 1e9,
    }
}

/// BATON hops for republishing one peer's indices after a single table
/// changed, measured both ways on identical 10-peer networks.
fn bench_index_refresh() -> (u32, u32) {
    let build = || {
        let cfg = NetworkConfig {
            range_index_columns: vec![("orders".to_owned(), "o_orderkey".to_owned())],
            ..NetworkConfig::default()
        };
        let mut net = BestPeerNetwork::new(schema::all_tables(), cfg);
        for node in 0..10 {
            let id = net.join(&format!("business-{node}")).unwrap();
            let data = DbGen::new(TpchConfig::tiny(node as u64).with_rows(400)).generate();
            net.load_peer(id, data, 1).unwrap();
        }
        net
    };
    let empty_supplier = |net: &mut BestPeerNetwork| {
        let id = net.peer_ids()[0];
        let db = &mut net.peer_mut(id).unwrap().db;
        let schema = db.table("supplier").unwrap().schema().clone();
        db.drop_table("supplier").unwrap();
        db.create_table(schema).unwrap();
        id
    };

    // Old semantics: unpublish by the (already-changed) database, then
    // republish everything — what `publish_indices` did before delta
    // maintenance.
    let mut full_net = build();
    let id = empty_supplier(&mut full_net);
    let db = full_net.peer(id).unwrap().db.clone();
    let range_cols = full_net.config().range_index_columns.clone();
    let overlay = full_net.overlay_mut();
    let hops_full = indexer::unpublish_peer(overlay, id, &db).unwrap()
        + indexer::publish_peer(overlay, id, &db, &range_cols).unwrap();

    // New semantics: diff against the remembered entry set.
    let mut delta_net = build();
    let id = empty_supplier(&mut delta_net);
    let hops_delta = delta_net.publish_indices(id).unwrap();

    (hops_full, hops_delta)
}

/// Order-sensitive digest of a result set (row order matters: the
/// access path must not reorder results, not just keep their content).
fn result_digest(rs: &ResultSet) -> u64 {
    let mut h = rs.rows.len() as u64 ^ ((rs.columns.len() as u64) << 32);
    for row in &rs.rows {
        for v in row.values() {
            h = bestpeer_common::mix64(h ^ stable_hash(v));
        }
    }
    h
}

struct PlanResult {
    rows: usize,
    ns_seq: f64,
    ns_index: f64,
    wide_fallback: bool,
}

impl PlanResult {
    fn speedup(&self) -> f64 {
        self.ns_seq / self.ns_index
    }
    /// The gated metric: capped so the committed baseline asserts "the
    /// index is much faster" without tracking machine-dependent ratios.
    fn capped_speedup(&self) -> f64 {
        self.speedup().min(25.0)
    }
}

/// Cost-based access-path selection over the orders table: the same
/// point-lookup statement against a database without indices (planner
/// must run a SeqScan) and one with a secondary index on `o_custkey`
/// (planner must pick the IndexScan), plus the fallback check that a
/// wide range on the indexed column still sequential-scans.
fn bench_plan(ord: &Table) -> PlanResult {
    let build = |with_index: bool| {
        let mut db = Database::new();
        db.create_table(schema::orders()).unwrap();
        db.bulk_insert("orders", ord.scan().cloned().collect())
            .unwrap();
        if with_index {
            db.create_index("orders", "o_custkey").unwrap();
        }
        db
    };
    let plain = build(false);
    let indexed = build(true);

    let (key, min_key) = ord
        .scan()
        .filter_map(|r| match r.get(O_CUSTKEY) {
            Value::Int(k) => Some(*k),
            _ => None,
        })
        .fold((i64::MIN, i64::MAX), |(first, min), k| {
            (if first == i64::MIN { k } else { first }, min.min(k))
        });
    let point = parse_select(&format!(
        "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {key}"
    ))
    .unwrap();

    // The access path is an implementation detail: both databases must
    // produce digest-identical results, with the planner choosing the
    // index only where it exists.
    let (rs_seq, st_seq) = execute_select(&point, &plain).unwrap();
    let (rs_idx, st_idx) = execute_select(&point, &indexed).unwrap();
    assert_eq!(
        result_digest(&rs_seq),
        result_digest(&rs_idx),
        "access-path choice changed the result"
    );
    assert_eq!(st_seq.index_scans, 0, "no index exists to scan");
    assert!(
        st_idx.index_scans >= 1,
        "planner must choose the index for a point lookup: {st_idx:?}"
    );

    // A range covering essentially the whole key domain is above the
    // selectivity threshold: the planner must fall back to SeqScan even
    // though the index could answer it.
    let wide = parse_select(&format!(
        "SELECT o_orderkey FROM orders WHERE o_custkey >= {min_key}"
    ))
    .unwrap();
    let (_, st_wide) = execute_select(&wide, &indexed).unwrap();
    let wide_fallback = st_wide.index_scans == 0 && st_wide.full_scans >= 1;

    let t_seq = median_secs(15, || {
        black_box(execute_select(&point, &plain).unwrap());
    });
    let t_idx = median_secs(15, || {
        black_box(execute_select(&point, &indexed).unwrap());
    });
    PlanResult {
        rows: ord.len(),
        ns_seq: t_seq * 1e9,
        ns_index: t_idx * 1e9,
        wide_fallback,
    }
}
