//! The traced run's instrumentation, all from outside the program.
//!
//! Every timed request (a `submit_query` or a loader refresh) becomes a
//! root span. After it returns, the benchmark calls each layer's public
//! entry point again on the same inputs and records those *shadow*
//! calls as child spans with the request's id: parse, locate (through a
//! fresh cache-disabled `PeerLocator`, so the network's caches stay
//! untouched), decompose/plan, each owner's serve with its execution,
//! the result codec, the wire round trip for remote owners, and the
//! simulator's trace replay. A layer's self time is its span's duration
//! minus its children's; the root's self time is what no shadow call
//! covers (engine staging and submitter processing). Spans stay in
//! memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bestpeer::common::{Error, PeerId, Result, TableSchema};
use bestpeer::core::indexer::PeerLocator;
use bestpeer::core::{BestPeerNetwork, NodeService, NormalPeer, QueryOutput, Role};
use bestpeer::simnet::Cluster;
use bestpeer::sql::ast::SelectStmt;
use bestpeer::sql::decompose::decompose;
use bestpeer::sql::{execute_select_with, parse_select, plan_physical, NoStats, ResultSet};
use bestpeer::telemetry::QueryReport;
use bestpeer::transport::{Request, Response, TcpTransport, Transport};

/// Span names whose self time is reported as a share of request time.
pub const LAYERS: &[&str] = &[
    "query",
    "refresh",
    "sql.parse",
    "sql.plan",
    "locate",
    "owner.serve",
    "sql.exec",
    "codec.encode",
    "codec.decode",
    "transport.subquery",
    "simnet.replay",
    "loader.extract",
    "storage.snapshot",
    "index.publish",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    qid: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store plus summed per-layer counters and samples.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Record a finished span; its duration is also summed under its
    /// name (µs). Returns the span id.
    pub fn span(
        &mut self,
        qid: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            qid,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.add(name, (span.end_ns - span.start_ns) as f64 / 1e3);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        qid: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let r = f();
        let id = self.span(qid, parent, name, start, Instant::now());
        (r, id)
    }

    /// A span's duration, µs.
    pub fn dur_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Add to a summed counter.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// A summed counter (0 if never touched).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Keep one sample for a median.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// The samples kept under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time per span name, µs: each span's duration minus the
    /// durations of its children.
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"qid\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.qid, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }

    /// Fold the deterministic counters of one real query's report.
    pub fn note_report(&mut self, r: &QueryReport) {
        self.add("locate.hops", r.overlay_hops as f64);
        self.add("rescache.hits", r.cache_hits as f64);
        self.add("rescache.misses", r.cache_misses as f64);
        self.add("simnet.network_bytes", r.network_bytes() as f64);
        self.sample("simnet.sim_latency_s", r.total_latency.as_secs_f64());
    }
}

/// A peer served by a `NodeService` behind a TCP server in this process.
#[derive(Debug, Clone)]
pub struct RemoteOwner {
    /// `host:port` of its server.
    pub addr: String,
    /// The node, for timing the owner's side of a call in-process.
    pub node: Arc<NodeService>,
}

/// The remote owners of a network and the transport that reaches them.
#[derive(Debug, Clone)]
pub struct Remotes {
    /// The coordinator's transport (shared connection pool).
    pub transport: Arc<TcpTransport>,
    /// Remote owners by peer id.
    pub owners: BTreeMap<PeerId, RemoteOwner>,
}

/// Time the layers of one completed query with shadow calls on its
/// inputs. `serve` is false when the real query never reached an owner
/// (answered from the result cache), so no owner work is shadowed.
#[allow(clippy::too_many_arguments)]
pub fn shadow_query(
    tr: &mut Tracer,
    qid: u64,
    root: usize,
    net: &mut BestPeerNetwork,
    submitter: PeerId,
    sql: &str,
    role: &Role,
    serve: bool,
    remotes: Option<&Remotes>,
    out: &QueryOutput,
) -> Result<()> {
    let (stmt, _) = tr.time(qid, Some(root), "sql.parse", || parse_select(sql));
    let stmt = stmt?;
    let mut locator = PeerLocator::new(false);
    let (located, _) = tr.time(qid, Some(root), "locate", || {
        locator.peers_for_query_from(net.overlay_mut(), Some(submitter), &stmt)
    });
    let located = located?;

    let plan_start = Instant::now();
    let mut owners: Vec<PeerId> = located.iter().flat_map(|(_, ps)| ps.clone()).collect();
    owners.sort_unstable();
    owners.dedup();
    let units: Vec<(PeerId, SelectStmt)> = if net.config().single_peer_opt && owners.len() == 1 {
        vec![(owners[0], stmt.clone())]
    } else {
        let globals = net.bootstrap().global_schemas();
        let schemas: Vec<TableSchema> = stmt
            .from
            .iter()
            .map(|t| {
                globals
                    .iter()
                    .find(|s| &s.name == t)
                    .cloned()
                    .ok_or_else(|| Error::Catalog(format!("no global table {t}")))
            })
            .collect::<Result<_>>()?;
        let d = decompose(&stmt, &schemas)?;
        d.parts
            .iter()
            .zip(&located)
            .flat_map(|(part, (_, ps))| ps.iter().map(|p| (*p, part.subquery.clone())))
            .collect()
    };
    for (owner, sub) in &units {
        match remotes.and_then(|r| r.owners.get(owner)) {
            Some(r) => plan_physical(sub, &r.node.network().peer(*owner)?.db, &NoStats)?,
            None => plan_physical(sub, &net.peer(*owner)?.db, &NoStats)?,
        };
    }
    tr.span(qid, Some(root), "sql.plan", plan_start, Instant::now());

    if serve {
        if let Some(r) = remotes {
            for (id, owner) in &r.owners {
                if owners.contains(id) {
                    let (pong, ping) = tr.time(qid, None, "transport.ping", || {
                        r.transport.call(&owner.addr, &Request::Ping)
                    });
                    pong?;
                    let us = tr.dur_us(ping);
                    tr.sample("transport.ping_rtt_us", us);
                }
            }
        }
        for (owner, sub) in &units {
            let rs = match remotes.and_then(|r| r.owners.get(owner).map(|o| (r, o))) {
                Some((r, o)) => {
                    let req = Request::Subquery {
                        sql: sub.to_string(),
                        role: role.encode(),
                        query_ts: 0,
                    };
                    let (resp, call) = tr.time(qid, Some(root), "transport.subquery", || {
                        r.transport.call(&o.addr, &req)
                    });
                    let resp = resp?;
                    let us = tr.dur_us(call);
                    tr.sample("transport.subquery_rtt_us", us);
                    tr.add("transport.calls", 1.0);
                    tr.add(
                        "transport.bytes",
                        (req.encode().len() + resp.encode().len()) as f64,
                    );
                    serve_local(tr, qid, call, o.node.network().peer(*owner)?, sub, role)?;
                    match resp {
                        Response::Rows { columns, rows, .. } => ResultSet { columns, rows },
                        other => return Err(Error::Network(format!("unexpected reply {other:?}"))),
                    }
                }
                None => serve_local(tr, qid, root, net.peer(*owner)?, sub, role)?,
            };
            let (bytes, _) = tr.time(qid, Some(root), "codec.encode", || rs.encode());
            let (back, _) = tr.time(qid, Some(root), "codec.decode", || {
                ResultSet::decode(&bytes)
            });
            back?;
        }
    }

    let cluster = Cluster::new(net.config().resources);
    tr.time(qid, Some(root), "simnet.replay", || {
        cluster.single_query_latency(&out.trace)
    });
    // Shadow executions run on the pool too; keep their task counts out
    // of the next real query's registry delta.
    bestpeer::common::pool::drain_counters();
    Ok(())
}

/// An owner serving one subquery, with its execution as a child span.
fn serve_local(
    tr: &mut Tracer,
    qid: u64,
    parent: usize,
    peer: &NormalPeer,
    sub: &SelectStmt,
    role: &Role,
) -> Result<ResultSet> {
    let (served, serve) = tr.time(qid, Some(parent), "owner.serve", || {
        peer.serve_subquery(sub, role, 0)
    });
    let (rs, _) = served?;
    let (exec, _) = tr.time(qid, Some(serve), "sql.exec", || {
        execute_select_with(sub, &peer.db, &NoStats)
    });
    let (_, stats) = exec?;
    tr.add("sql.rows_scanned", stats.rows_scanned as f64);
    Ok(rs)
}

/// Registry counters read before and after a traced loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    rows_cloned: u64,
    pool_tasks: u64,
    pool_busy_ns: u64,
    evictions: u64,
    delta_entries: u64,
    router_hits: u64,
    router_misses: u64,
    router_demotions: u64,
}

impl Snap {
    /// Read the network's monotone counters.
    pub fn take(net: &BestPeerNetwork) -> Snap {
        let m = net.metrics();
        let r = net.advisor().stats();
        Snap {
            rows_cloned: m.counter("exec.rows_cloned"),
            pool_tasks: m.counter("pool.tasks"),
            pool_busy_ns: m.counter("pool.busy_ns"),
            evictions: m.counter("cache.result.evictions"),
            delta_entries: m.counter("index.delta_inserts") + m.counter("index.delta_removes"),
            router_hits: r.hits,
            router_misses: r.misses,
            router_demotions: r.demotions,
        }
    }
}

/// The per-layer metrics every workload derives the same way from its
/// tracer and the network's counters over the traced loop.
pub fn layer_metrics(
    tr: &Tracer,
    net: &BestPeerNetwork,
    before: &Snap,
    queries: usize,
    refreshes: usize,
) -> BTreeMap<String, f64> {
    use crate::util::{quantile, ratio};
    let after = Snap::take(net);
    let q = queries as f64;
    let query_us = tr.sum("query");
    let request_us = query_us + tr.sum("refresh");
    let self_us = tr.self_us();
    let per_q = |name: &str| ratio(tr.sum(name), q);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("sql.parse_us", per_q("sql.parse"));
    put("sql.plan_us", per_q("sql.plan"));
    put("sql.exec_us", per_q("sql.exec"));
    put("sql.rows_scanned_per_query", per_q("sql.rows_scanned"));
    put(
        "sql.rows_cloned_per_query",
        ratio((after.rows_cloned - before.rows_cloned) as f64, q),
    );
    put("owner.serve_us", per_q("owner.serve"));
    put("owner.serve_share", ratio(tr.sum("owner.serve"), query_us));
    put(
        "engine.residual_share",
        ratio(self_us.get("query").copied().unwrap_or(0.0), query_us),
    );
    put("locate.us", per_q("locate"));
    put("locate.hops_per_query", per_q("locate.hops"));
    let router_hits = (after.router_hits - before.router_hits) as f64;
    let router_lookups = router_hits + (after.router_misses - before.router_misses) as f64;
    put("router.hit_ratio", ratio(router_hits, router_lookups));
    put("router.lookups", router_lookups);
    put(
        "router.demotions",
        (after.router_demotions - before.router_demotions) as f64,
    );
    let hits = tr.sum("rescache.hits");
    let lookups = hits + tr.sum("rescache.misses");
    put("rescache.hit_ratio", ratio(hits, lookups));
    put("rescache.lookups", lookups);
    put("rescache.misses", tr.sum("rescache.misses"));
    put(
        "rescache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    put(
        "rescache.bytes",
        net.metrics().gauge("cache.result.bytes").unwrap_or(0.0),
    );
    put(
        "index.delta_entries_per_refresh",
        ratio(
            (after.delta_entries - before.delta_entries) as f64,
            refreshes as f64,
        ),
    );
    put(
        "transport.ping_rtt_us",
        quantile(tr.samples("transport.ping_rtt_us"), 0.5),
    );
    put(
        "transport.subquery_rtt_us",
        quantile(tr.samples("transport.subquery_rtt_us"), 0.5),
    );
    put(
        "transport.bytes_per_subquery",
        ratio(tr.sum("transport.bytes"), tr.sum("transport.calls")),
    );
    put("codec.encode_us", per_q("codec.encode"));
    put("codec.decode_us", per_q("codec.decode"));
    put(
        "pool.tasks_per_query",
        ratio((after.pool_tasks - before.pool_tasks) as f64, q),
    );
    let workers = net.metrics().gauge("pool.workers").unwrap_or(1.0);
    put(
        "pool.busy_share",
        ratio(
            (after.pool_busy_ns - before.pool_busy_ns) as f64 / 1e3,
            query_us * workers,
        ),
    );
    put("simnet.replay_us", per_q("simnet.replay"));
    put(
        "simnet.sim_latency_p50_s",
        quantile(tr.samples("simnet.sim_latency_s"), 0.5),
    );
    put(
        "simnet.network_bytes_per_query",
        per_q("simnet.network_bytes"),
    );
    for layer in LAYERS {
        let own = self_us.get(layer).copied().unwrap_or(0.0);
        put(&format!("self.{layer}_share"), ratio(own, request_us));
    }
    m
}
