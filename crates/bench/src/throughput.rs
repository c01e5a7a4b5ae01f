//! Figures 12–14: the supply-chain throughput benchmark (§6.2).
//!
//! A network of suppliers and retailers (half each), every peer hosting
//! exactly one nation's partition of its sub-schema, with range indices
//! on the nation-key columns "to avoid accessing suppliers or retailers
//! which do not host data of interest" (§6.2.2). Supplier peers send
//! *retailer queries* (heavy: two joins + aggregation) and retailer
//! peers send *supplier queries* (light: indexed selection + join); the
//! nation key pins each query to a single peer, so the single-peer
//! optimization applies and the network scales out (§6.2.3).

use bestpeer_common::rng::Rng;
use bestpeer_common::{stable_hash, Value};
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::RouterConfig;
use bestpeer_simnet::{driver, Cluster, Trace};
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::{queries, schema};

use crate::scale::{zipf_cdf, zipf_sample};
use crate::setup::{full_read_role, resource_config, BenchConfig};

/// Which side of the supply chain is being queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Light-weight supplier queries, sent by retailer peers (Fig. 13).
    Supplier,
    /// Heavy-weight retailer queries, sent by supplier peers (Fig. 14).
    Retailer,
}

/// Build the §6.2.1 supply-chain network: `n/2` suppliers and `n/2`
/// retailers, one nation each. The result cache is off: the Figure
/// 12–14 traces are collected once per `(submitter, nation)` pair and
/// replayed by the open-loop driver, so a warmed trace would mispredict
/// the steady-state cost of its template. Use
/// [`build_supply_chain_cached`] for repeated-template workloads.
pub fn build_supply_chain(n: usize, bench: &BenchConfig) -> BestPeerNetwork {
    build_supply_chain_cached(n, bench, false)
}

/// [`build_supply_chain`] with an explicit result-cache switch (the
/// cache benchmark builds one network per setting).
pub fn build_supply_chain_cached(
    n: usize,
    bench: &BenchConfig,
    result_cache: bool,
) -> BestPeerNetwork {
    build_supply_chain_config(n, bench, result_cache, true, RouterConfig::default())
}

/// The routing benchmark's variant of [`build_supply_chain`]: both
/// query-path caches are off, so every locate is a live BATON lookup
/// and the only difference between the two networks under comparison is
/// the routing advisor itself (`advisor` toggles it). Overlay-hop and
/// latency deltas then measure exactly what learned routing saves.
pub fn build_supply_chain_routing(n: usize, bench: &BenchConfig, advisor: bool) -> BestPeerNetwork {
    let router = RouterConfig {
        enabled: advisor,
        ..RouterConfig::default()
    };
    build_supply_chain_config(n, bench, false, false, router)
}

fn build_supply_chain_config(
    n: usize,
    bench: &BenchConfig,
    result_cache: bool,
    index_cache: bool,
    router: RouterConfig,
) -> BestPeerNetwork {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "need an even number of peers"
    );
    let nations = n / 2;
    let range_cols: Vec<(String, String)> = schema::all_tables()
        .iter()
        .filter_map(|t| schema::nationkey_column(&t.name).map(|c| (t.name.clone(), c.to_owned())))
        .collect();
    let mut net = BestPeerNetwork::new(
        schema::all_tables(),
        NetworkConfig {
            range_index_columns: range_cols,
            result_cache,
            index_cache,
            router,
            ..NetworkConfig::default()
        },
    );
    net.define_role(full_read_role());

    let supplier_tables: Vec<String> = ["supplier", "partsupp", "part"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let retailer_tables: Vec<String> = ["lineitem", "orders", "customer"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    for nation in 0..nations {
        let sid = net.join(&format!("supplier-{nation}")).unwrap();
        let cfg = TpchConfig {
            lineitem_rows: bench.rows_per_node,
            seed: bench.seed,
            node_index: nation as u64,
            nation: Some(nation as i64),
        };
        let data = DbGen::new(cfg).generate_tables(&supplier_tables);
        net.load_peer(sid, data, 1).unwrap();
        // Database-level DDL so the index is WAL-logged.
        net.peer_mut(sid)
            .unwrap()
            .db
            .create_index("partsupp", "ps_availqty")
            .unwrap();
    }
    for nation in 0..nations {
        let rid = net.join(&format!("retailer-{nation}")).unwrap();
        let cfg = TpchConfig {
            lineitem_rows: bench.rows_per_node,
            seed: bench.seed,
            node_index: (nations + nation) as u64,
            nation: Some(nation as i64),
        };
        let data = DbGen::new(cfg).generate_tables(&retailer_tables);
        net.load_peer(rid, data, 1).unwrap();
    }
    net
}

/// Collect the pool of query traces for one benchmark round: every
/// cross-side `(submitter, nation)` pair, with warmed index caches (the
/// paper warms up for 20 minutes before measuring).
pub fn collect_traces(net: &mut BestPeerNetwork, kind: WorkloadKind) -> Vec<Trace> {
    let ids = net.peer_ids();
    let nations = ids.len() / 2;
    let (submitters, target_nations): (Vec<_>, Vec<i64>) = match kind {
        // Retailer round: retailer peers (second half) query suppliers.
        WorkloadKind::Supplier => (ids[nations..].to_vec(), (0..nations as i64).collect()),
        // Supplier round: supplier peers (first half) query retailers.
        WorkloadKind::Retailer => (ids[..nations].to_vec(), (0..nations as i64).collect()),
    };
    let mut traces = Vec::new();
    for round in 0..2 {
        if round == 1 {
            traces.clear(); // keep only the warmed round
        }
        for (i, &submitter) in submitters.iter().enumerate() {
            // Deterministic "random" nation choice: rotate per submitter.
            for (j, &nation) in target_nations.iter().enumerate() {
                if (i + j) % target_nations.len().max(1) != 0 && round == 0 {
                    continue; // fewer warm-up queries
                }
                let sql = match kind {
                    WorkloadKind::Supplier => queries::supplier_query(nation),
                    WorkloadKind::Retailer => queries::retailer_query(nation),
                };
                let out = net
                    .submit_query(submitter, &sql, "R", EngineChoice::Basic, 0)
                    .expect("throughput query");
                traces.push(out.trace);
            }
        }
    }
    traces
}

/// One point of the Figure 12 scalability series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Network size (suppliers + retailers).
    pub nodes: usize,
    /// Saturated throughput of the light supplier workload, q/s.
    pub supplier_qps: f64,
    /// Saturated throughput of the heavy retailer workload, q/s.
    pub retailer_qps: f64,
}

/// Figure 12: saturated throughput versus network size.
pub fn run_scalability(cluster_sizes: &[usize], bench: &BenchConfig) -> Vec<ScalePoint> {
    cluster_sizes
        .iter()
        .map(|&n| {
            let mut net = build_supply_chain(n, bench);
            let sup = collect_traces(&mut net, WorkloadKind::Supplier);
            let ret = collect_traces(&mut net, WorkloadKind::Retailer);
            let cfg = resource_config(bench);
            ScalePoint {
                nodes: n,
                supplier_qps: saturated_qps(cfg, &sup),
                retailer_qps: saturated_qps(cfg, &ret),
            }
        })
        .collect()
}

/// One point of a Figure 13/14 latency-versus-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Offered load, q/s.
    pub offered_qps: f64,
    /// Achieved throughput, q/s.
    pub achieved_qps: f64,
    /// Mean latency, seconds.
    pub mean_latency_secs: f64,
    /// p99 latency, seconds.
    pub p99_latency_secs: f64,
}

/// Figures 13–14: sweep the offered load on a fixed-size network and
/// report the latency curve up to saturation.
pub fn run_latency_curve(
    nodes: usize,
    kind: WorkloadKind,
    bench: &BenchConfig,
    steps: usize,
) -> Vec<CurvePoint> {
    let mut net = build_supply_chain(nodes, bench);
    let traces = collect_traces(&mut net, kind);
    let cfg = resource_config(bench);
    let cap = saturated_qps(cfg, &traces);
    (1..=steps)
        .map(|i| {
            let qps = cap * 1.2 * i as f64 / steps as f64;
            let point = driver::run_open_loop(cfg, &traces, qps, queries_for(qps));
            CurvePoint {
                offered_qps: point.offered_qps,
                achieved_qps: point.achieved_qps,
                mean_latency_secs: point.mean_latency.as_secs_f64(),
                p99_latency_secs: point.p99_latency.as_secs_f64(),
            }
        })
        .collect()
}

fn queries_for(qps: f64) -> usize {
    // Enough arrivals to observe queueing without unbounded runtime.
    ((qps * 10.0) as usize).clamp(200, 4_000)
}

/// Outcome of one repeated-template workload run (the cache benchmark
/// runs the same seeded sequence with the result cache on and off and
/// compares these).
#[derive(Debug, Clone, Default)]
pub struct RepeatedRun {
    /// Per-query simulated latency in seconds, in submission order.
    pub latencies_secs: Vec<f64>,
    /// Per-query result digests, in submission order — byte-identical
    /// results produce equal digests, so two runs of the same sequence
    /// can be diffed without keeping every row around.
    pub digests: Vec<u64>,
    /// Result-cache hits summed over all queries.
    pub cache_hits: u64,
    /// Result-cache misses summed over all queries.
    pub cache_misses: u64,
    /// Queries answered at least partially from the result cache.
    pub warm_queries: u64,
    /// BATON overlay routing hops summed over all queries.
    pub overlay_hops: u64,
    /// Queries whose peer location was answered by the routing advisor
    /// (BATON lookup bypassed).
    pub advisor_queries: u64,
}

impl RepeatedRun {
    /// Mean simulated latency across the run, seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.latencies_secs.is_empty() {
            return 0.0;
        }
        self.latencies_secs.iter().sum::<f64>() / self.latencies_secs.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the per-query latencies, seconds
    /// (nearest-rank over the sorted run; 0 for an empty run).
    pub fn latency_quantile_secs(&self, q: f64) -> f64 {
        if self.latencies_secs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_secs.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// A deterministic digest of a result set (column names + all rows).
fn result_digest(rs: &bestpeer_sql::exec::ResultSet) -> u64 {
    stable_hash(&Value::str(format!("{:?}\u{1}{:?}", rs.columns, rs.rows)))
}

/// The repeated-query workload of the cache benchmark: `queries`
/// arrivals whose templates are drawn Zipf(`theta`)-distributed from the
/// cross-side `(submitter, nation)` template pool, so a small set of hot
/// templates dominates — the regime §5.2's caching targets. Equal seeds
/// produce equal template sequences regardless of cache configuration,
/// which is what makes warm-versus-cold result diffing meaningful.
pub fn run_repeated_templates(
    net: &mut BestPeerNetwork,
    kind: WorkloadKind,
    bench: &BenchConfig,
    queries: usize,
    theta: f64,
    seed: u64,
) -> RepeatedRun {
    let ids = net.peer_ids();
    let nations = ids.len() / 2;
    let submitters: Vec<_> = match kind {
        WorkloadKind::Supplier => ids[nations..].to_vec(),
        WorkloadKind::Retailer => ids[..nations].to_vec(),
    };
    let mut pool = Vec::new();
    for &submitter in &submitters {
        for nation in 0..nations as i64 {
            let sql = match kind {
                WorkloadKind::Supplier => queries::supplier_query(nation),
                WorkloadKind::Retailer => queries::retailer_query(nation),
            };
            pool.push((submitter, sql));
        }
    }
    assert!(!pool.is_empty(), "need at least one template");
    let cdf = zipf_cdf(pool.len(), theta);

    let sim = Cluster::new(resource_config(bench));
    let mut rng = Rng::seed_from_u64(seed);
    let mut run = RepeatedRun::default();
    for _ in 0..queries {
        let (submitter, sql) = &pool[zipf_sample(&mut rng, &cdf)];
        let out = net
            .submit_query(*submitter, sql, "R", EngineChoice::Basic, 0)
            .expect("repeated-template query");
        run.latencies_secs
            .push(sim.single_query_latency(&out.trace).as_secs_f64());
        run.digests.push(result_digest(&out.result));
        run.cache_hits += out.report.cache_hits;
        run.cache_misses += out.report.cache_misses;
        if out.report.is_warm() {
            run.warm_queries += 1;
        }
        run.overlay_hops += out.report.overlay_hops;
        if out.report.advisor_hit {
            run.advisor_queries += 1;
        }
    }
    run
}

/// Find the saturated throughput by doubling the offered rate until the
/// achieved rate stops keeping up, then refining once.
pub fn saturated_qps(cfg: bestpeer_simnet::ResourceConfig, traces: &[Trace]) -> f64 {
    let mut rate = 2.0;
    let mut best = 0.0f64;
    for _ in 0..24 {
        let p = driver::run_open_loop(cfg, traces, rate, queries_for(rate));
        best = best.max(p.achieved_qps);
        if p.achieved_qps < 0.85 * rate {
            break;
        }
        rate *= 2.0;
    }
    // Refine between rate/2 and rate.
    for f in [0.55, 0.7, 0.85] {
        let r = rate * f;
        let p = driver::run_open_loop(cfg, traces, r, queries_for(r));
        best = best.max(p.achieved_qps);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            rows_per_node: 1_200,
            seed: 11,
        }
    }

    #[test]
    fn all_throughput_queries_hit_a_single_peer() {
        let mut net = build_supply_chain(6, &tiny());
        for kind in [WorkloadKind::Supplier, WorkloadKind::Retailer] {
            let traces = collect_traces(&mut net, kind);
            assert!(!traces.is_empty());
            for t in &traces {
                let has_single_peer_phase = t.phases.iter().any(|p| p.label == "single-peer-exec");
                assert!(
                    has_single_peer_phase,
                    "{kind:?} query must use the single-peer optimization: {:?}",
                    t.phases.iter().map(|p| p.label.clone()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn throughput_scales_with_network_size() {
        // 2 owners -> 6 owners per workload side. Per-nation data volumes
        // vary (ps_availqty selectivity is random per peer), so expect
        // clearly-super-2x rather than exactly 3x.
        let pts = run_scalability(&[4, 12], &tiny());
        assert!(pts[1].supplier_qps > 2.0 * pts[0].supplier_qps, "{pts:?}");
        assert!(pts[1].retailer_qps > 2.0 * pts[0].retailer_qps, "{pts:?}");
    }

    #[test]
    fn retailer_workload_is_heavier_than_supplier() {
        let pts = run_scalability(&[6], &tiny());
        assert!(
            pts[0].supplier_qps > pts[0].retailer_qps,
            "light supplier queries must sustain more q/s: {pts:?}"
        );
    }

    #[test]
    fn repeated_templates_hit_the_cache_without_diverging() {
        let run_with = |cache: bool| {
            let mut net = build_supply_chain_cached(4, &tiny(), cache);
            run_repeated_templates(&mut net, WorkloadKind::Supplier, &tiny(), 40, 1.2, 99)
        };
        let cold = run_with(false);
        let warm = run_with(true);
        assert_eq!(cold.digests, warm.digests, "results must be identical");
        assert_eq!(cold.cache_hits, 0);
        assert!(warm.cache_hits > 0, "repeated templates must hit: {warm:?}");
        assert!(
            warm.mean_latency_secs() < cold.mean_latency_secs(),
            "warm {} vs cold {}",
            warm.mean_latency_secs(),
            cold.mean_latency_secs()
        );
    }

    #[test]
    fn latency_curve_rises_toward_saturation() {
        let curve = run_latency_curve(4, WorkloadKind::Supplier, &tiny(), 4);
        assert_eq!(curve.len(), 4);
        assert!(
            curve.last().unwrap().mean_latency_secs > curve.first().unwrap().mean_latency_secs,
            "{curve:?}"
        );
    }
}
