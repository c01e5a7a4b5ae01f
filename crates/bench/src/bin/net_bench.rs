//! TCP transport benchmark: framed round-trip throughput and
//! pushed-down subquery latency over a real loopback socket.
//!
//! ```text
//! net_bench [--pings N] [--subqueries N] [--out PATH]
//! ```
//!
//! Two measurements, written to `BENCH_net.json` (default) and printed
//! to stdout:
//!
//! - **ping** — `N` request/response frames through one pooled
//!   connection; `frames_per_sec` is wall-clock framed-RPC throughput.
//! - **subquery** — `N` pushed-down subqueries against a
//!   `NodeService`-backed server; p50/p99 round-trip latency in
//!   microseconds. The binary *hard-asserts* every wire result digests
//!   byte-identical to serving the same statement in process — a
//!   latency number for a wrong answer is worthless.
//!
//! The binary also *hard-asserts* that the subquery p50 RTT stays under
//! [`MAX_P50_RTT_US`] (10 ms), a quarter of Linux's 40 ms delayed-ACK
//! timer: a frame held back by Nagle's algorithm waits for that timer,
//! so a wire stall fails here instead of passing unnoticed. Loopback
//! serves this subquery in well under a millisecond. The numbers are
//! wall-clock measurements of real sockets and vary with host load, so
//! `BENCH_net.json` is not compared against a committed baseline by
//! `scripts/bench_compare.sh`; the absolute bound is the gate.

use bestpeer_bench::setup::full_read_role;
use bestpeer_bench::Flags;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bestpeer_common::Row;
use bestpeer_core::network::{BestPeerNetwork, NetworkConfig};
use bestpeer_core::NodeService;
use bestpeer_sql::exec::ResultSet;
use bestpeer_sql::parse_select;
use bestpeer_tpch::dbgen::{DbGen, TpchConfig};
use bestpeer_tpch::schema;
use bestpeer_transport::{Request, Response, TcpServer, TcpTransport, Transport};

const ROWS: usize = 500;
/// Ceiling on the subquery p50 round trip, in microseconds.
const MAX_P50_RTT_US: u64 = 10_000;
const SUBQUERY: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
     WHERE l_quantity > 40 \
     ORDER BY l_quantity DESC, l_orderkey, l_linenumber LIMIT 20";

fn build_node() -> (NodeService, ResultSet) {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let id = net.join("bench").unwrap();
    let data: BTreeMap<String, Vec<Row>> =
        DbGen::new(TpchConfig::tiny(0).with_rows(ROWS)).generate();
    net.load_peer(id, data, 1).unwrap();
    for (t, c) in schema::secondary_indices() {
        net.peer_mut(id).unwrap().db.create_index(t, c).unwrap();
    }
    // The in-process reference answer the wire results must match.
    let stmt = parse_select(SUBQUERY).unwrap();
    let role = full_read_role();
    let (reference, _) = net
        .peer(id)
        .unwrap()
        .serve_subquery(&stmt, &role, 0)
        .unwrap();
    (NodeService::new(net, id), reference)
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let flags = Flags::parse(&["--pings", "--subqueries", "--out"], &[]);
    let pings: u64 = flags.get("--pings", 2_000);
    let subqueries: u64 = flags.get("--subqueries", 200);
    let out = flags.get("--out", "BENCH_net.json".to_owned());

    let (service, reference) = build_node();
    let server = TcpServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let transport = TcpTransport::new();

    // Warm the pool so connect cost stays out of the steady-state numbers.
    assert!(matches!(
        transport.call(&addr, &Request::Ping).unwrap(),
        Response::Pong
    ));

    let started = Instant::now();
    for _ in 0..pings {
        match transport.call(&addr, &Request::Ping) {
            Ok(Response::Pong) => {}
            other => panic!("ping failed: {other:?}"),
        }
    }
    let ping_secs = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let frames_per_sec = pings as f64 / ping_secs;

    let role_blob = full_read_role().encode();
    let want_digest = reference.digest();
    let mut rtts_us: Vec<u64> = Vec::with_capacity(subqueries as usize);
    for _ in 0..subqueries {
        let req = Request::Subquery {
            sql: SUBQUERY.to_string(),
            role: role_blob.clone(),
            query_ts: 0,
        };
        let t0 = Instant::now();
        let resp = transport.call(&addr, &req).unwrap();
        rtts_us.push(t0.elapsed().as_micros() as u64);
        match resp {
            Response::Rows { columns, rows, .. } => {
                let rs = ResultSet { columns, rows };
                assert_eq!(
                    rs.digest(),
                    want_digest,
                    "wire result diverged from the in-process answer"
                );
            }
            other => panic!("subquery failed: {other:?}"),
        }
    }
    rtts_us.sort_unstable();
    let p50 = percentile(&rtts_us, 0.50);
    let p99 = percentile(&rtts_us, 0.99);

    handle.stop();

    assert!(
        p50 < MAX_P50_RTT_US,
        "subquery p50 RTT {p50} us is not under {MAX_P50_RTT_US} us: \
         frames are stalling on the wire (Nagle's algorithm vs. delayed ACK)"
    );

    let json = format!(
        "{{\n  \"config\": {{\"pings\": {pings}, \"subqueries\": {subqueries}, \"fixture_rows\": {ROWS}}},\n  \
         \"ping\": {{\"frames_per_sec\": {frames_per_sec:.1}, \"wall_secs\": {ping_secs:.6}}},\n  \
         \"subquery\": {{\"p50_rtt_us\": {p50}, \"p99_rtt_us\": {p99}, \"digest_checked\": true}}\n}}\n",
    );
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_net.json");
    eprintln!("wrote {out}");
}
