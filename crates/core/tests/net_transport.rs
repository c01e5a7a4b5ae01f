//! Cross-transport consistency: the same queries over the same data
//! must produce byte-identical result digests whether every peer lives
//! in one process (the deterministic simnet path) or two of the three
//! peers are served by `NodeService`s behind real TCP sockets on
//! loopback.

use std::sync::Arc;

use bestpeer_common::{PeerId, Row, Value};
use bestpeer_core::network::{BestPeerNetwork, EngineChoice, NetworkConfig};
use bestpeer_core::{indexer, NodeService, Role};
use bestpeer_sql::parser::MAX_EXPR_DEPTH;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::schema;
use bestpeer_transport::{
    Handler, Request, Response, ServerHandle, TcpServer, TcpTransport, Transport,
};

const ROWS: usize = 300;

/// Order-determined queries (no ties at the LIMIT cutoff), all over
/// tables every peer holds a partition of.
const QUERIES: &[&str] = &[
    "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
     WHERE l_quantity > 45 \
     ORDER BY l_quantity DESC, l_orderkey, l_linenumber LIMIT 10",
    "SELECT l_nationkey, SUM(l_quantity) AS qty FROM lineitem \
     GROUP BY l_nationkey ORDER BY qty DESC LIMIT 3",
    "SELECT l_orderkey, l_linenumber, o_orderdate, l_quantity \
     FROM lineitem, orders \
     WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1998-06-01' \
     ORDER BY o_orderdate DESC, l_orderkey, l_linenumber LIMIT 8",
    "SELECT l_nationkey, SUM(l_extendedprice) AS v FROM lineitem \
     GROUP BY l_nationkey ORDER BY l_nationkey",
];

const ENGINES: &[EngineChoice] = &[EngineChoice::Basic, EngineChoice::ParallelP2P];

fn full_read_role() -> Role {
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
    let as_slices: Vec<(&str, &[&str])> =
        borrowed.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read("R", &as_slices)
}

/// One network hosting the peer for `node_index`, ids starting at
/// `id_base`, loaded with the deterministic tiny TPC-H fixture.
fn build_network(node_index: u64, id_base: u64) -> (BestPeerNetwork, PeerId) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    net.bootstrap_mut().set_next_peer_id(id_base);
    let id = net.join(&format!("business-{node_index}")).unwrap();
    let data = DbGen::new(TpchConfig::tiny(node_index).with_rows(ROWS)).generate();
    net.load_peer(id, data, 1).unwrap();
    for (t, c) in schema::secondary_indices() {
        net.peer_mut(id).unwrap().db.create_index(t, c).unwrap();
    }
    (net, id)
}

/// Serve `node_index`'s network over TCP on an ephemeral loopback port.
fn spawn_node(node_index: u64, id_base: u64) -> ServerHandle {
    let (mut net, id) = build_network(node_index, id_base);
    net.set_transport(Arc::new(TcpTransport::new()));
    let service = Arc::new(NodeService::new(net, id));
    TcpServer::bind("127.0.0.1:0", service).unwrap().spawn()
}

/// Fetch a served node's inventory and register it at the coordinator.
fn link(net: &mut BestPeerNetwork, transport: &TcpTransport, addr: &str) -> PeerId {
    let resp = transport.call(addr, &Request::Inventory).unwrap();
    let Response::Inventory {
        peer,
        load_ts,
        entries,
    } = resp
    else {
        panic!("unexpected inventory reply: {resp:?}");
    };
    let entries = indexer::decode_entries(&entries).unwrap();
    let id = PeerId::new(peer);
    net.register_remote_peer(id, addr, load_ts, entries)
        .unwrap();
    id
}

/// The in-process reference: all three peers in one network, no
/// sockets anywhere. Returns one digest per (query, engine).
fn reference_digests() -> Vec<u64> {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    for node in 0..3u64 {
        net.bootstrap_mut().set_next_peer_id(node * 100);
        let id = net.join(&format!("business-{node}")).unwrap();
        let data = DbGen::new(TpchConfig::tiny(node).with_rows(ROWS)).generate();
        net.load_peer(id, data, 1).unwrap();
        for (t, c) in schema::secondary_indices() {
            net.peer_mut(id).unwrap().db.create_index(t, c).unwrap();
        }
    }
    let submitter = net.peer_ids()[0];
    let mut digests = Vec::new();
    for sql in QUERIES {
        for &engine in ENGINES {
            let out = net.submit_query(submitter, sql, "R", engine, 0).unwrap();
            digests.push(out.result.digest());
        }
    }
    digests
}

#[test]
fn tcp_loopback_digests_match_the_in_process_reference() {
    // Peers 100 and 200 live behind real sockets; peer 0 is local to
    // the coordinator. Identical fixtures, identical queries — the
    // result digests must be byte-identical to the all-in-process run.
    let node1 = spawn_node(1, 100);
    let node2 = spawn_node(2, 200);
    let (mut net, local) = build_network(0, 0);
    let transport = Arc::new(TcpTransport::new());
    net.set_transport(transport.clone());
    link(&mut net, &transport, &node1.addr().to_string());
    link(&mut net, &transport, &node2.addr().to_string());

    let want = reference_digests();
    let mut got = Vec::new();
    for sql in QUERIES {
        for &engine in ENGINES {
            let out = net.submit_query(local, sql, "R", engine, 0).unwrap();
            assert_eq!(out.attempts, 1, "no faults scheduled: {sql}");
            got.push(out.result.digest());
        }
    }
    assert_eq!(
        got, want,
        "TCP loopback produced different answers than the in-process run"
    );

    // Warm result caches serve repeats without re-shipping: the second
    // pass must agree digest-for-digest too.
    let mut warm = Vec::new();
    for sql in QUERIES {
        for &engine in ENGINES {
            let out = net.submit_query(local, sql, "R", engine, 0).unwrap();
            warm.push(out.result.digest());
        }
    }
    assert_eq!(warm, want, "warm-cache pass diverged");

    node1.stop();
    node2.stop();
}

#[test]
fn remote_load_is_visible_to_the_next_query() {
    // Regression: remote results used to be cached under the load
    // timestamp reported at registration, which nothing ever updates,
    // so a warm cache kept answering from the remote's old data.
    let node1 = spawn_node(1, 100);
    let addr = node1.addr().to_string();
    let (mut net, local) = build_network(0, 0);
    let transport = Arc::new(TcpTransport::new());
    net.set_transport(transport.clone());
    link(&mut net, &transport, &addr);

    let count = |net: &mut BestPeerNetwork| -> i64 {
        let out = net
            .submit_query(
                local,
                "SELECT COUNT(*) AS n FROM lineitem",
                "R",
                EngineChoice::Basic,
                0,
            )
            .unwrap();
        out.result.rows[0].get(0).as_int().unwrap()
    };
    let n = count(&mut net);
    assert_eq!(count(&mut net), n, "warm repeat agrees");

    // One new lineitem row at the remote, under a fresh order key.
    let data = DbGen::new(TpchConfig::tiny(1).with_rows(ROWS)).generate();
    let mut values = data["lineitem"][0].values().to_vec();
    values[0] = Value::Int(9_999_999);
    let resp = transport
        .call(
            &addr,
            &Request::Load {
                table: "lineitem".into(),
                timestamp: 2,
                rows: vec![Row::new(values)],
            },
        )
        .unwrap();
    assert_eq!(resp, Response::Ok);

    assert_eq!(count(&mut net), n + 1, "the remote's new row is counted");
    node1.stop();
}

/// A `Subquery` and a `Query` for `depth` parentheses around `depth - 1`
/// additions under a comparison, answered by a node's service on a
/// thread with the 2 MiB stack `TcpServer` gives each connection.
fn serve_nested_sql(depth: usize) -> [Response; 2] {
    let (net, id) = build_network(1, 100);
    let service = NodeService::new(net, id);
    let sql = format!(
        "SELECT l_orderkey FROM lineitem WHERE {}l_quantity{}{} > 45",
        "(".repeat(depth),
        " + 0".repeat(depth.min(MAX_EXPR_DEPTH) - 1),
        ")".repeat(depth)
    );
    let requests = [
        Request::Subquery {
            sql: sql.clone(),
            role: full_read_role().encode(),
            query_ts: 0,
        },
        Request::Query {
            sql,
            role: "R".into(),
        },
    ];
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, || requests.map(|req| service.handle(req)))
            .unwrap()
            .join()
            .unwrap()
    })
}

#[test]
fn deeply_nested_sql_is_a_parse_error_not_a_dead_node() {
    for resp in serve_nested_sql(2_000) {
        match resp {
            Response::Err { kind, .. } => assert_eq!(kind, "parse"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn sql_at_the_depth_limit_is_answered() {
    for resp in serve_nested_sql(MAX_EXPR_DEPTH) {
        match resp {
            Response::Rows { rows, .. } => assert!(!rows.is_empty()),
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

#[test]
fn mr_and_adaptive_refuse_remote_peers() {
    let node1 = spawn_node(1, 100);
    let (mut net, local) = build_network(0, 0);
    let transport = Arc::new(TcpTransport::new());
    net.set_transport(transport.clone());
    link(&mut net, &transport, &node1.addr().to_string());
    for engine in [EngineChoice::MapReduce, EngineChoice::Adaptive] {
        let err = net
            .submit_query(local, QUERIES[0], "R", engine, 0)
            .unwrap_err();
        assert_eq!(err.kind(), "plan", "{engine:?} must be rejected, got {err}");
    }
    node1.stop();
}

#[test]
fn departed_remote_is_dropped_from_routing_and_pool() {
    let node1 = spawn_node(1, 100);
    let addr = node1.addr().to_string();
    let (mut net, local) = build_network(0, 0);
    let transport = Arc::new(TcpTransport::new());
    net.set_transport(transport.clone());
    let remote_id = link(&mut net, &transport, &addr);

    // Prime the pool with a live connection.
    let out = net
        .submit_query(local, QUERIES[0], "R", EngineChoice::Basic, 0)
        .unwrap();
    assert_eq!(out.attempts, 1);
    assert!(transport.idle_connections(&addr) > 0, "connection pooled");

    // Departure withdraws the remote's index entries and evicts its
    // pooled connections; the query now runs over local data alone.
    net.leave(remote_id).unwrap();
    assert_eq!(transport.idle_connections(&addr), 0, "pool evicted");
    let out = net
        .submit_query(local, QUERIES[0], "R", EngineChoice::Basic, 0)
        .unwrap();
    assert_eq!(out.attempts, 1, "no dead-peer stalls after leave()");

    node1.stop();
}

#[test]
fn crashed_remote_surfaces_unavailable_through_retry() {
    // Kill the remote's process (server stops listening) without
    // telling the coordinator: the transport maps the dead socket to
    // `unavailable`, the retry loop burns its budget, and the query
    // fails with the retry policy's timeout — exactly like a crashed
    // local peer.
    let node1 = spawn_node(1, 100);
    let addr = node1.addr().to_string();
    let mut config = NetworkConfig::default();
    config.retry.max_attempts = 2; // keep the failure path quick
    let mut net = BestPeerNetwork::new(schema::all_tables(), config);
    net.define_role(full_read_role());
    let local = net.join("business-0").unwrap();
    let data = DbGen::new(TpchConfig::tiny(0).with_rows(ROWS)).generate();
    net.load_peer(local, data, 1).unwrap();
    let transport = Arc::new(TcpTransport::new());
    net.set_transport(transport.clone());
    link(&mut net, &transport, &addr);
    node1.stop();

    let err = net
        .submit_query(local, QUERIES[0], "R", EngineChoice::Basic, 0)
        .unwrap_err();
    assert_eq!(
        err.kind(),
        "timeout",
        "retry budget exhausted against the dead remote, got {err}"
    );
}
