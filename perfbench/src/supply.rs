//! `supply_chain` and `refresh_mix`: the §6.2 supply-chain network.
//!
//! Sixteen peers: a supplier and a retailer for each of eight nations,
//! with range indices on every nation key, so each query pins exactly
//! one owner. Retailer peers send the light supplier query, supplier
//! peers the heavy retailer query, from the pool of cross-side
//! `(submitter, nation)` templates drawn Zipf-distributed over a seeded
//! rank order. A seeded few percent of queries are one-off variants (an
//! always-true predicate carrying a fresh number), which the result
//! cache cannot have seen: a steady miss rate, well above the tail
//! percentile. `refresh_mix` loads the retailers through the loader
//! from production databases instead, and between queries a seeded
//! schedule changes about 1% of one retailer's production rows and
//! refreshes that peer. Every answer is compared with `execute_select`
//! run directly on the owner's current database.

use std::collections::BTreeMap;
use std::time::Instant;

use bestpeer::common::rng::Rng;
use bestpeer::common::{PeerId, Row, TableSchema, Value};
use bestpeer::core::schema_mapping::SchemaMapping;
use bestpeer::core::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer::sql::{execute_select, parse_select};
use bestpeer::storage::{Database, Snapshot};
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;

use crate::analytics::{mark, DATA_SEED};
use crate::trace::{layer_metrics, shadow_query, Snap, Tracer};
use crate::util::{canonical, full_read_role, permutation, same_answer, timed, SetupTimes, Zipf};
use crate::{Config, Report};

/// Nations, hence suppliers and retailers each.
const NATIONS: usize = 8;
/// Zipf skew over the template pool.
const THETA: f64 = 1.0;
/// Share of queries that are one-off variants (result-cache misses).
const ONE_OFF: f64 = 0.03;
/// Queries between two refreshes, drawn uniformly.
const REFRESH_GAP: std::ops::RangeInclusive<u64> = 10..=30;
/// Share of a retailer's production rows one refresh changes.
const CHANGE: f64 = 0.01;

const SUPPLIER_TABLES: [&str; 3] = ["supplier", "partsupp", "part"];
const RETAILER_TABLES: [&str; 3] = ["lineitem", "orders", "customer"];

/// The supplier query of `bestpeer::tpch::queries`, optionally with a
/// one-off mark.
fn supplier_sql(nation: usize, one_off: Option<u64>) -> String {
    format!(
        "SELECT s_suppkey, s_name, ps_availqty, ps_supplycost \
         FROM supplier, partsupp \
         WHERE s_suppkey = ps_suppkey AND ps_availqty < 500 \
           AND s_nationkey = {nation} AND ps_nationkey = {nation}{}",
        one_off.map_or(String::new(), |k| mark("partsupp", k))
    )
}

/// The retailer query of `bestpeer::tpch::queries`, optionally with a
/// one-off mark.
fn retailer_sql(nation: usize, one_off: Option<u64>) -> String {
    format!(
        "SELECT c_custkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem \
         WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey \
           AND c_nationkey = {nation} AND o_nationkey = {nation} AND l_nationkey = {nation}{} \
         GROUP BY c_custkey",
        one_off.map_or(String::new(), |k| mark("lineitem", k))
    )
}

/// One single-nation query and its expected answer on the owner's
/// current data (recomputed after the owner refreshes).
struct Base {
    nation: usize,
    /// Queries retailer tables (owned by a retailer peer).
    retail: bool,
    owner: PeerId,
    expected: Option<(Vec<String>, Vec<Row>)>,
}

impl Base {
    fn sql(&self, one_off: Option<u64>) -> String {
        if self.retail {
            retailer_sql(self.nation, one_off)
        } else {
            supplier_sql(self.nation, one_off)
        }
    }
}

/// A retailer's production database and the keys a refresh may touch.
struct Production {
    db: Database,
    lineitem_keys: Vec<Vec<Value>>,
    order_keys: Vec<Vec<Value>>,
}

struct Env {
    net: BestPeerNetwork,
    retailers: Vec<PeerId>,
    bases: Vec<Base>,
    /// `(submitter, base)` templates in seeded Zipf rank order.
    pool: Vec<(PeerId, usize)>,
    production: Vec<Production>,
    mapping: SchemaMapping,
}

fn schemas_of(names: &[&str]) -> Vec<TableSchema> {
    schema::all_tables()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect()
}

fn build(rows: usize, refresh: bool, rng: &mut Rng, t: &mut SetupTimes) -> Env {
    let range_cols: Vec<(String, String)> = schema::all_tables()
        .iter()
        .filter_map(|s| schema::nationkey_column(&s.name).map(|c| (s.name.clone(), c.to_owned())))
        .collect();
    let mut net = timed(&mut t.link, || {
        let mut net = BestPeerNetwork::new(
            schema::all_tables(),
            NetworkConfig {
                range_index_columns: range_cols,
                ..NetworkConfig::default()
            },
        );
        net.define_role(full_read_role());
        net
    });
    let gen = |node: usize, nation: usize, tables: &[&str]| {
        let cfg = TpchConfig {
            lineitem_rows: rows,
            seed: DATA_SEED,
            node_index: node as u64,
            nation: Some(nation as i64),
        };
        let names: Vec<String> = tables.iter().map(|s| s.to_string()).collect();
        DbGen::new(cfg).generate_tables(&names)
    };
    let mut suppliers = Vec::new();
    for n in 0..NATIONS {
        let id = timed(&mut t.link, || net.join(&format!("supplier-{n}"))).expect("join");
        let data = timed(&mut t.dbgen, || gen(n, n, &SUPPLIER_TABLES));
        timed(&mut t.load, || net.load_peer(id, data, 1)).expect("load");
        timed(&mut t.index, || {
            net.peer_mut(id)
                .expect("joined")
                .db
                .create_index("partsupp", "ps_availqty")
        })
        .expect("index");
        suppliers.push(id);
    }
    let retail_schemas = schemas_of(&RETAILER_TABLES);
    let mapping = SchemaMapping::identity(&retail_schemas);
    let mut retailers = Vec::new();
    let mut production = Vec::new();
    for n in 0..NATIONS {
        let id = timed(&mut t.link, || net.join(&format!("retailer-{n}"))).expect("join");
        let data = timed(&mut t.dbgen, || gen(NATIONS + n, n, &RETAILER_TABLES));
        if refresh {
            let keys = |table: &str, arity: usize| -> Vec<Vec<Value>> {
                data[table]
                    .iter()
                    .map(|r| r.values()[..arity].to_vec())
                    .collect()
            };
            let (lineitem_keys, order_keys) = (keys("lineitem", 2), keys("orders", 1));
            let mut db = Database::new();
            timed(&mut t.load, || {
                for s in &retail_schemas {
                    db.create_table(s.clone())?;
                }
                for (table, rows) in data {
                    db.bulk_insert(&table, rows)?;
                }
                net.refresh_from_production(id, &db, mapping.clone())
            })
            .expect("initial refresh");
            production.push(Production {
                db,
                lineitem_keys,
                order_keys,
            });
        } else {
            timed(&mut t.load, || net.load_peer(id, data, 1)).expect("load");
        }
        retailers.push(id);
    }
    timed(&mut t.stats, || net.collect_statistics(&[])).expect("statistics");

    let mut bases = Vec::new();
    // Templates per side: retailers ask suppliers, suppliers ask
    // retailers (§6.2.3).
    let mut sides = [Vec::new(), Vec::new()];
    for nation in 0..NATIONS {
        for (retail, owner, submitters) in [
            (false, suppliers[nation], &retailers),
            (true, retailers[nation], &suppliers),
        ] {
            bases.push(Base {
                nation,
                retail,
                owner,
                expected: None,
            });
            sides[usize::from(retail)].extend(submitters.iter().map(|&s| (s, bases.len() - 1)));
        }
    }
    // Seeded rank order within each side, the sides interleaved, so
    // every seed puts the same weight on light and heavy templates.
    let [light, heavy] = sides.map(|side| {
        let order = permutation(side.len(), rng);
        order.into_iter().map(|i| side[i]).collect::<Vec<_>>()
    });
    let pool = light
        .into_iter()
        .zip(heavy)
        .flat_map(|(a, b)| [a, b])
        .collect();
    Env {
        net,
        retailers,
        bases,
        pool,
        production,
        mapping,
    }
}

/// The closed loop's state.
struct Loop {
    env: Env,
    rng: Rng,
    zipf: Zipf,
    refresh: bool,
    queries: u64,
    next_refresh: u64,
    one_offs: u64,
}

impl Loop {
    /// One timed query (and, when due, the refresh before it).
    fn step(&mut self, r: &mut Report) {
        if self.refresh && self.queries >= self.next_refresh {
            self.refresh_one(r);
            self.next_refresh = self.queries + self.rng.random_range(REFRESH_GAP);
        }
        self.queries += 1;
        let (submitter, b) = self.env.pool[self.zipf.sample(&mut self.rng)];
        let one_off = self.rng.random_bool(ONE_OFF).then(|| {
            self.one_offs += 1;
            self.queries
        });
        let sql = self.env.bases[b].sql(one_off);
        r.inputs.add(sql.as_bytes());
        let net = &mut self.env.net;
        let start = Instant::now();
        let out = net.submit_query(submitter, &sql, "R", EngineChoice::Basic, 0);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        r.attempted += 1;
        r.busy_s += ms / 1e3;
        r.query_ms.push(ms);
        let out = match out {
            Ok(out) => out,
            Err(e) => return r.fail(format!("query {sql}: {e}")),
        };
        if let Some(tr) = r.tracer.as_mut() {
            let qid = r.query_ms.len() as u64;
            let root = tr.span(qid, None, "query", start, end);
            tr.note_report(&out.report);
            let role = net.bootstrap().role("R").expect("role").clone();
            let serve = out.report.cache_misses > 0 || out.report.cache_hits == 0;
            if let Err(e) = shadow_query(
                tr, qid, root, net, submitter, &sql, &role, serve, None, &out,
            ) {
                r.notes.push(format!("shadow calls failed: {e}"));
            }
        }
        // Answer check, outside the timed region.
        let base = &mut self.env.bases[b];
        if base.expected.is_none() {
            let stmt = parse_select(&base.sql(None)).expect("template parses");
            let db = &net.peer(base.owner).expect("owner").db;
            match execute_select(&stmt, db) {
                Ok((rs, _)) => base.expected = Some((rs.columns.clone(), canonical(&rs))),
                Err(e) => return r.fail(format!("reference {sql}: {e}")),
            }
        }
        let (columns, rows) = base.expected.as_ref().expect("computed above");
        if !same_answer(&out.result, columns, rows) {
            r.fail(format!("wrong answer from {}: {sql}", base.owner));
        }
    }

    /// Change about 1% of one retailer's production rows and refresh it.
    fn refresh_one(&mut self, r: &mut Report) {
        let idx = self.rng.random_range(0..self.env.retailers.len());
        let id = self.env.retailers[idx];
        let prod = &mut self.env.production[idx];
        let prior = r.tracer.is_some().then(|| {
            let tables = self
                .env
                .mapping
                .extract_all(&prod.db, self.env.net.bootstrap().global_schemas())
                .expect("extract");
            tables
                .into_iter()
                .map(|(t, rows)| (t, Snapshot::build(rows)))
                .collect::<BTreeMap<_, _>>()
        });
        for (table, keys, col) in [
            ("lineitem", &prod.lineitem_keys, 5),
            ("orders", &prod.order_keys, 3),
        ] {
            let n = ((keys.len() as f64) * CHANGE).ceil() as usize;
            for _ in 0..n {
                let key = &keys[self.rng.random_range(0..keys.len())];
                let factor = 1.0 + self.rng.random_range(-0.05..0.05);
                let mut vals = prod
                    .db
                    .table(table)
                    .expect("production table")
                    .get_by_key(key)
                    .cloned()
                    .expect("production row")
                    .into_values();
                let v = vals[col].as_f64().expect("price") * factor;
                vals[col] = Value::Float(v);
                r.inputs
                    .add(format!("{idx}:{table}:{key:?}:{v}").as_bytes());
                prod.db.delete_by_key(table, key).expect("delete");
                prod.db.insert(table, Row::new(vals)).expect("insert");
            }
        }
        let net = &mut self.env.net;
        if r.tracer.is_some() {
            // Start the refresh's WAL counters from zero.
            net.peer_mut(id).expect("retailer").db.drain_wal_stats();
        }
        let start = Instant::now();
        let out = net.refresh_from_production(id, &prod.db, self.env.mapping.clone());
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        r.attempted += 1;
        r.busy_s += ms / 1e3;
        r.refresh_ms.push(ms);
        for b in self.env.bases.iter_mut().filter(|b| b.owner == id) {
            b.expected = None;
        }
        let report = match out {
            Ok(report) => report,
            Err(e) => return r.fail(format!("refresh of {id}: {e}")),
        };
        let Some(tr) = r.tracer.as_mut() else { return };
        // Refresh ids carry the top bit, so they never collide with
        // query ids.
        let qid = r.refresh_ms.len() as u64 | 1 << 63;
        let root = tr.span(qid, None, "refresh", start, end);
        tr.add(
            "loader.rows_changed",
            (report.inserts + report.deletes) as f64,
        );
        if let Some(w) = net.peer_mut(id).expect("retailer").db.drain_wal_stats() {
            tr.add("wal.appends", w.appends as f64);
            tr.add("wal.fsyncs", w.fsyncs as f64);
            tr.add("wal.bytes", w.bytes as f64);
        }
        let globals = net.bootstrap().global_schemas().to_vec();
        let (extracted, _) = tr.time(qid, Some(root), "loader.extract", || {
            self.env.mapping.extract_all(&prod.db, &globals)
        });
        let mut prior = prior.expect("traced");
        tr.time(qid, Some(root), "storage.snapshot", || {
            for (table, rows) in extracted.expect("extract") {
                let newer = Snapshot::build(rows);
                prior.remove(&table).unwrap_or_default().diff(&newer);
            }
        });
        let (published, _) = tr.time(qid, Some(root), "index.publish", || net.publish_indices(id));
        if let Err(e) = published {
            r.notes.push(format!("shadow publish failed: {e}"));
        }
    }
}

/// Run the workload; `refresh` selects `refresh_mix`.
pub fn run(cfg: &Config, refresh: bool) -> Report {
    let mut r = Report::default();
    let mut kept = None;
    for _ in 0..cfg.setups {
        drop(kept.take());
        let mut t = SetupTimes::default();
        let mut rng =
            Rng::seed_from_u64(cfg.seed ^ if refresh { 0x05EF_2E54 } else { 0x005A_991E });
        let env = build(cfg.rows, refresh, &mut rng, &mut t);
        let mut lp = Loop {
            zipf: Zipf::new(env.pool.len(), THETA),
            env,
            rng,
            refresh,
            queries: 0,
            next_refresh: 0,
            one_offs: 0,
        };
        // Warm-up: every template once, in pool order.
        let mut warm = Report::default();
        timed(&mut t.warmup, || {
            for i in 0..lp.env.pool.len() {
                let (submitter, b) = lp.env.pool[i];
                let sql = lp.env.bases[b].sql(None);
                warm.inputs.add(sql.as_bytes());
                warm.attempted += 1;
                if let Err(e) =
                    lp.env
                        .net
                        .submit_query(submitter, &sql, "R", EngineChoice::Basic, 0)
                {
                    warm.fail(format!("warm-up {sql}: {e}"));
                }
            }
        });
        lp.next_refresh = lp.rng.random_range(REFRESH_GAP);
        r.absorb_warmup(warm);
        r.setups.push(t);
        kept = Some(lp);
    }
    let mut lp = kept.expect("at least one set-up");
    if cfg.trace {
        r.tracer = Some(Tracer::default());
    }
    let before = Snap::take(&lp.env.net);
    while !r.done(cfg) {
        lp.step(&mut r);
    }
    if let Some(tr) = &r.tracer {
        let refreshes = r.refresh_ms.len();
        r.layer = layer_metrics(tr, &lp.env.net, &before, r.query_ms.len(), refreshes);
        let per_refresh = |name: &str| crate::util::ratio(tr.sum(name), refreshes as f64);
        for (metric, sum) in [
            ("loader.extract_us", "loader.extract"),
            ("storage.snapshot_us", "storage.snapshot"),
            ("index.publish_us", "index.publish"),
            ("loader.rows_changed_per_refresh", "loader.rows_changed"),
            ("wal.appends_per_refresh", "wal.appends"),
            ("wal.fsyncs_per_refresh", "wal.fsyncs"),
            ("wal.bytes_per_refresh", "wal.bytes"),
        ] {
            r.layer.insert(metric.into(), per_refresh(sum));
        }
    }
    r.notes.push(format!(
        "{} suppliers + {} retailers x {} lineitem rows; {} templates, zipf {THETA}, {} one-off queries",
        NATIONS,
        NATIONS,
        cfg.rows,
        lp.env.pool.len(),
        lp.one_offs
    ));
    r
}
