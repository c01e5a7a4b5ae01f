//! `remote`: a coordinator network plus two peers behind real sockets.
//!
//! Peers 100 and 200 each live in their own `BestPeerNetwork`, served by
//! a `TcpServer` + `NodeService` on 127.0.0.1 in this process; the
//! coordinator hosts peer 0 and reaches the others through a pooled
//! `TcpTransport` (at most one connection per core). The loop runs
//! instance-marked, date-shifted Q1–Q4 on the Basic and ParallelP2P
//! engines (the two that serve remote peers). Every answer must equal,
//! byte for byte, the answer of an in-process twin network holding the
//! same three peers, built during set-up.

use std::sync::Arc;
use std::time::Instant;

use bestpeer::common::rng::Rng;
use bestpeer::common::PeerId;
use bestpeer::core::indexer;
use bestpeer::core::{BestPeerNetwork, EngineChoice, NetworkConfig, NodeService};
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;
use bestpeer::transport::Transport;
use bestpeer::transport::{Request, Response, ServerHandle, TcpConfig, TcpServer, TcpTransport};

use crate::analytics::{instance_sql, DATA_SEED};
use crate::trace::{layer_metrics, shadow_query, RemoteOwner, Remotes, Snap, Tracer};
use crate::util::{full_read_role, timed, SetupTimes};
use crate::{Config, Report};

/// Peers served over TCP (node 0 is local to the coordinator).
const REMOTE_NODES: [u64; 2] = [1, 2];
/// Engines that serve remote peers, with their labels.
const ENGINES: [(EngineChoice, &str); 2] = [
    (EngineChoice::Basic, "basic"),
    (EngineChoice::ParallelP2P, "parallel-p2p"),
];

/// Add node `node`'s peer (id `node * 100`) with its TPC-H partition and
/// the Table 4 indices to `net`.
fn add_peer(net: &mut BestPeerNetwork, node: u64, rows: usize, t: &mut SetupTimes) -> PeerId {
    let id = timed(&mut t.link, || {
        net.bootstrap_mut().set_next_peer_id(node * 100);
        net.join(&format!("business-{node}"))
    })
    .expect("join");
    let cfg = TpchConfig {
        lineitem_rows: rows,
        seed: DATA_SEED,
        node_index: node,
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
    id
}

fn new_network() -> BestPeerNetwork {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    net
}

struct Env {
    net: BestPeerNetwork,
    local: PeerId,
    twin: BestPeerNetwork,
    remotes: Remotes,
    servers: Vec<ServerHandle>,
}

impl Env {
    /// Close the coordinator's pooled connections, then stop and join
    /// every server.
    fn shutdown(self) {
        drop((self.net, self.twin, self.remotes));
        for server in self.servers {
            server.stop();
        }
    }
}

fn build(rows: usize, t: &mut SetupTimes) -> Env {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tcp = TcpConfig {
        max_idle_per_remote: cores,
        max_in_flight_per_remote: cores,
        ..TcpConfig::default()
    };
    let transport = Arc::new(TcpTransport::with_config(tcp));
    let mut servers = Vec::new();
    let mut owners = std::collections::BTreeMap::new();
    for node in REMOTE_NODES {
        let mut net = new_network();
        let id = add_peer(&mut net, node, rows, t);
        let (server, node_svc) = timed(&mut t.link, || {
            net.set_transport(Arc::new(TcpTransport::with_config(tcp)));
            let svc = Arc::new(NodeService::new(net, id));
            let server = TcpServer::bind("127.0.0.1:0", svc.clone()).map(TcpServer::spawn);
            (server, svc)
        });
        let server = server.expect("bind loopback");
        owners.insert(
            id,
            RemoteOwner {
                addr: server.addr().to_string(),
                node: node_svc,
            },
        );
        servers.push(server);
    }
    let mut net = new_network();
    let local = add_peer(&mut net, 0, rows, t);
    timed(&mut t.link, || {
        net.set_transport(transport.clone());
        for owner in owners.values() {
            let Response::Inventory {
                peer,
                load_ts,
                entries,
            } = transport
                .call(&owner.addr, &Request::Inventory)
                .expect("inventory")
            else {
                panic!("unexpected inventory reply");
            };
            let entries = indexer::decode_entries(&entries).expect("entries");
            net.register_remote_peer(PeerId::new(peer), &owner.addr, load_ts, entries)
                .expect("register");
        }
    });
    let mut twin = new_network();
    for node in [0, REMOTE_NODES[0], REMOTE_NODES[1]] {
        add_peer(&mut twin, node, rows, t);
    }
    Env {
        net,
        local,
        twin,
        remotes: Remotes { transport, owners },
        servers,
    }
}

/// The closed loop's state.
struct Loop {
    env: Env,
    rng: Rng,
    instance: u64,
}

impl Loop {
    /// The next of Q1–Q4 on both engines. All queries come from the
    /// one local submitter, so each engine gets an instance of its own:
    /// the second must not read the first one's cached fetches.
    fn step(&mut self, r: &mut Report, timed: bool) {
        let q = (self.instance / 2 % 4) as usize;
        for (engine, label) in ENGINES {
            let k = self.instance;
            self.instance += 1;
            let shift = self.rng.random_range(-3..=3i32);
            let sql = instance_sql(q, shift, k);
            r.inputs.add(sql.as_bytes());
            let env = &mut self.env;
            let start = Instant::now();
            let out = env.net.submit_query(env.local, &sql, "R", engine, 0);
            let end = Instant::now();
            r.attempted += 1;
            if timed {
                let ms = (end - start).as_secs_f64() * 1e3;
                r.busy_s += ms / 1e3;
                r.query_ms.push(ms);
            }
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    r.fail(format!("{label} Q{}: {e}", q + 1));
                    continue;
                }
            };
            if let (true, Some(tr)) = (timed, r.tracer.as_mut()) {
                let qid = r.query_ms.len() as u64;
                let root = tr.span(qid, None, "query", start, end);
                tr.note_report(&out.report);
                let role = env.net.bootstrap().role("R").expect("role").clone();
                if let Err(e) = shadow_query(
                    tr,
                    qid,
                    root,
                    &mut env.net,
                    env.local,
                    &sql,
                    &role,
                    true,
                    Some(&env.remotes),
                    &out,
                ) {
                    r.notes.push(format!("shadow calls failed: {e}"));
                }
            }
            // Answer check, outside the timed region.
            let twin_local = env.twin.peer_ids()[0];
            match env.twin.submit_query(twin_local, &sql, "R", engine, 0) {
                Ok(want) if want.result.digest() == out.result.digest() => {}
                Ok(_) => r.fail(format!(
                    "{label} Q{} differs from the in-process twin",
                    q + 1
                )),
                Err(e) => r.fail(format!("twin {label} Q{}: {e}", q + 1)),
            }
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let mut kept: Option<Loop> = None;
    for _ in 0..cfg.setups {
        if let Some(lp) = kept.take() {
            lp.env.shutdown();
        }
        let mut t = SetupTimes::default();
        let env = build(cfg.rows, &mut t);
        let mut lp = Loop {
            env,
            rng: Rng::seed_from_u64(cfg.seed ^ 0x07C9_0E7E),
            instance: 0,
        };
        let mut warm = Report::default();
        timed(&mut t.warmup, || {
            for _ in 0..4 {
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
    let before = Snap::take(&lp.env.net);
    while !r.done(cfg) {
        lp.step(&mut r, true);
    }
    if let Some(tr) = &r.tracer {
        r.layer = layer_metrics(tr, &lp.env.net, &before, r.query_ms.len(), 0);
        r.notes.push(format!(
            "query_p50_ms {} next to transport.ping_rtt_us {} and transport.subquery_rtt_us {} \
             ({} pings, {} subquery calls)",
            crate::util::quantile(&r.query_ms, 0.5),
            r.layer["transport.ping_rtt_us"],
            r.layer["transport.subquery_rtt_us"],
            tr.samples("transport.ping_rtt_us").len(),
            tr.samples("transport.subquery_rtt_us").len(),
        ));
    }
    r.notes.push(format!(
        "1 local + {} TCP peers x {} lineitem rows; {} instances",
        REMOTE_NODES.len(),
        cfg.rows,
        lp.instance
    ));
    lp.env.shutdown();
    r
}
