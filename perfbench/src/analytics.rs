//! `analytics`: ad hoc Q1–Q5 (§6.1) over 8 in-process peers.
//!
//! Each loop step generates one query *instance*: the next of Q1–Q5 in
//! rotation, its date literals shifted by a seeded offset of up to
//! three days, plus a predicate that holds on every row but carries the
//! instance number — so no two instances share a pushed-down subquery,
//! the result cache never hits and every query does full owner and
//! submitter work. The instance runs on all four engines, each from a
//! different submitter, and the four answers must agree.

use std::time::Instant;

use bestpeer::common::rng::Rng;
use bestpeer::common::PeerId;
use bestpeer::core::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::sql::ResultSet;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

use crate::trace::{layer_metrics, shadow_query, Snap, Tracer};
use crate::util::{
    canonical, full_read_role, quantile, ratio, same_answer, shifted_date, timed, SetupTimes,
};
use crate::{Config, Report};

/// Peers in the network.
const PEERS: usize = 8;
/// TPC-H generator seed (the data is fixed; the workload seed drives
/// the queries).
pub const DATA_SEED: u64 = 42;
/// Engines every instance runs on, with their report labels.
const ENGINES: [EngineChoice; 4] = [
    EngineChoice::Basic,
    EngineChoice::ParallelP2P,
    EngineChoice::MapReduce,
    EngineChoice::Adaptive,
];
/// Metric labels of [`ENGINES`], in the same order.
pub const ENGINE_LABELS: [&str; 4] = ["basic", "parallel-p2p", "mapreduce", "adaptive"];

/// An always-true predicate on `table` naming instance `k`: by
/// construction of the generator `l_quantity` ≤ 50, `o_totalprice` <
/// 500,000, `ps_supplycost` < 1,000, `p_retailprice` < 2,000 and the
/// account balances < 10,000. It rides along with the table's pushed
/// down subquery, so no two instances share a result-cache key.
pub fn mark(table: &str, k: u64) -> String {
    let (col, bound) = match table {
        "lineitem" => ("l_quantity", 51),
        "orders" => ("o_totalprice", 500_000),
        "partsupp" => ("ps_supplycost", 1_000),
        "part" => ("p_retailprice", 2_000),
        "customer" => ("c_acctbal", 10_000),
        "supplier" => ("s_acctbal", 10_000),
        other => unreachable!("no instance mark for {other}"),
    };
    format!(" AND {col} < {}", bound + k)
}

/// Q1–Q5 (`bestpeer::tpch::queries`) with date literals moved by
/// `shift` days and every table carrying instance `k`'s [`mark`].
pub fn instance_sql(q: usize, shift: i32, k: u64) -> String {
    let d = |base: &str| shifted_date(base, shift);
    let m = |tables: &[&str]| tables.iter().map(|t| mark(t, k)).collect::<String>();
    match q {
        0 => format!(
            "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice \
             FROM lineitem \
             WHERE l_shipdate > DATE '{}' AND l_commitdate > DATE '{}'{}",
            d("1998-11-05"),
            d("1998-10-01"),
            m(&["lineitem"])
        ),
        1 => format!(
            "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM lineitem \
             WHERE l_shipdate > DATE '{}'{}",
            d("1998-09-01"),
            m(&["lineitem"])
        ),
        2 => format!(
            "SELECT l_orderkey, o_orderdate, l_quantity, l_extendedprice \
             FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '{}'{}",
            d("1998-06-01"),
            m(&["lineitem", "orders"])
        ),
        3 => format!(
            "SELECT p_type, SUM(ps_supplycost * ps_availqty) AS total_cost, COUNT(*) AS parts \
             FROM partsupp, part \
             WHERE ps_partkey = p_partkey AND p_size < 10{} \
             GROUP BY p_type",
            m(&["partsupp", "part"])
        ),
        _ => format!(
            "SELECT c_mktsegment, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS items \
             FROM customer, orders, lineitem, supplier \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
               AND o_orderdate > DATE '{}'{} \
             GROUP BY c_mktsegment",
            d("1996-01-01"),
            m(&["customer", "orders", "lineitem", "supplier"])
        ),
    }
}

/// Build the network: `PEERS` businesses, each with one TPC-H partition
/// and the Table 4 secondary indices, default configuration.
fn build(rows: usize, t: &mut SetupTimes) -> BestPeerNetwork {
    let mut net = timed(&mut t.link, || {
        let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
        net.define_role(full_read_role());
        net
    });
    for node in 0..PEERS {
        let id = timed(&mut t.link, || net.join(&format!("business-{node}"))).expect("join");
        let cfg = TpchConfig {
            lineitem_rows: rows,
            seed: DATA_SEED,
            node_index: node as u64,
            nation: None,
        };
        let data = timed(&mut t.dbgen, || DbGen::new(cfg).generate());
        timed(&mut t.load, || net.load_peer(id, data, 1)).expect("load");
        timed(&mut t.index, || {
            for (table, col) in schema::secondary_indices() {
                net.peer_mut(id)
                    .expect("joined")
                    .db
                    .create_index(table, col)
                    .expect("index");
            }
        });
    }
    timed(&mut t.stats, || net.collect_statistics(&[])).expect("statistics");
    net
}

/// The closed loop's state.
struct Loop {
    net: BestPeerNetwork,
    ids: Vec<PeerId>,
    rng: Rng,
    instance: u64,
    adaptive: u64,
    adaptive_p2p: u64,
    /// Traced per-(engine, query) latencies, ms.
    per_engine: Vec<Vec<f64>>,
}

impl Loop {
    /// Generate the next instance and run it on every engine. Latencies
    /// are recorded only when `timed`.
    fn step(&mut self, r: &mut Report, timed: bool) {
        let k = self.instance;
        self.instance += 1;
        let q = (k % 5) as usize;
        let shift = self.rng.random_range(-3..=3i32);
        let sql = instance_sql(q, shift, k);
        r.inputs.add(sql.as_bytes());
        let mut answers: Vec<(usize, ResultSet)> = Vec::new();
        for (e, &engine) in ENGINES.iter().enumerate() {
            let submitter = self.ids[(k as usize + e) % self.ids.len()];
            let start = Instant::now();
            let out = self.net.submit_query(submitter, &sql, "R", engine, 0);
            let end = Instant::now();
            r.attempted += 1;
            if !timed {
                match out {
                    Ok(out) => answers.push((e, out.result)),
                    Err(err) => r.fail(format!("warm-up {} Q{}: {err}", ENGINE_LABELS[e], q + 1)),
                }
                continue;
            }
            let ms = (end - start).as_secs_f64() * 1e3;
            r.busy_s += ms / 1e3;
            r.query_ms.push(ms);
            match out {
                Ok(out) => {
                    if engine == EngineChoice::Adaptive {
                        self.adaptive += 1;
                        self.adaptive_p2p += u64::from(out.engine == EngineChoice::ParallelP2P);
                    }
                    if let Some(tr) = r.tracer.as_mut() {
                        self.per_engine[e * 5 + q].push(ms);
                        let qid = r.query_ms.len() as u64;
                        let root = tr.span(qid, None, "query", start, end);
                        tr.note_report(&out.report);
                        let role = self.net.bootstrap().role("R").expect("role").clone();
                        if let Err(err) = shadow_query(
                            tr,
                            qid,
                            root,
                            &mut self.net,
                            submitter,
                            &sql,
                            &role,
                            true,
                            None,
                            &out,
                        ) {
                            r.notes.push(format!("shadow calls failed: {err}"));
                        }
                    }
                    answers.push((e, out.result));
                }
                Err(err) => r.fail(format!("{} Q{}: {err}", ENGINE_LABELS[e], q + 1)),
            }
        }
        // Answer check, outside the timed region: every engine's answer
        // must equal the first engine's, ignoring row order.
        if let Some((_, first)) = answers.first() {
            let want = canonical(first);
            let columns = first.columns.clone();
            for (e, rs) in &answers[1..] {
                if !same_answer(rs, &columns, &want) {
                    r.fail(format!(
                        "{} Q{} answer differs from {}",
                        ENGINE_LABELS[*e],
                        q + 1,
                        ENGINE_LABELS[answers[0].0]
                    ));
                }
            }
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let mut kept = None;
    for _ in 0..cfg.setups {
        drop(kept.take());
        let mut t = SetupTimes::default();
        let net = build(cfg.rows, &mut t);
        let ids = net.peer_ids();
        let mut lp = Loop {
            net,
            ids,
            rng: Rng::seed_from_u64(cfg.seed ^ 0xA11A_1E7C),
            instance: 0,
            adaptive: 0,
            adaptive_p2p: 0,
            per_engine: vec![Vec::new(); ENGINES.len() * 5],
        };
        // Warm-up: one instance of each query on every engine.
        let mut warm = Report::default();
        timed(&mut t.warmup, || {
            for _ in 0..5 {
                lp.step(&mut warm, false);
            }
        });
        r.absorb_warmup(warm);
        r.setups.push(t);
        kept = Some(lp);
    }
    let mut lp = kept.expect("at least one set-up");
    if cfg.trace {
        r.tracer = Some(Tracer::default());
    }
    let before = Snap::take(&lp.net);
    while !r.done(cfg) {
        lp.step(&mut r, true);
    }
    if let Some(tr) = &r.tracer {
        r.layer = layer_metrics(tr, &lp.net, &before, r.query_ms.len(), 0);
        r.layer.insert(
            "adaptive.p2p_ratio".into(),
            ratio(lp.adaptive_p2p as f64, lp.adaptive as f64),
        );
        for (e, label) in ENGINE_LABELS.iter().enumerate() {
            for q in 0..5 {
                r.layer.insert(
                    format!("engine.{label}.Q{}_ms", q + 1),
                    quantile(&lp.per_engine[e * 5 + q], 0.5),
                );
            }
        }
    }
    r.notes.push(format!(
        "{PEERS} peers x {} lineitem rows; {} instances x {} engines",
        cfg.rows,
        lp.instance,
        ENGINES.len()
    ));
    r
}
