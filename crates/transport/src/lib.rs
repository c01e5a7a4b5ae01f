//! Peer-to-peer messaging for BestPeer++ behind a [`Transport`] trait.
//!
//! The paper's BestPeer++ is a deployed service: ERP peers exchange
//! subqueries and index updates over real sockets on commodity cloud
//! nodes (paper §3). This crate is the boundary between the
//! deterministic in-process world (simnet virtual time, byte-identical
//! traces) and that deployment reality:
//!
//! - [`proto`] — the request/response messages and their hardened
//!   binary encoding (`common::codec`'s checked reads over borrowed
//!   bytes).
//! - [`frame`] — length-prefixed, checksummed frames over a byte
//!   stream, with hostile-length caps enforced before allocation.
//! - [`tcp`] — [`tcp::TcpTransport`], a `std::net` client runtime with
//!   per-remote connection pooling, bounded in-flight requests
//!   (backpressure), and connect/read timeouts mapped onto
//!   `Error::{Unavailable, Timeout}` so `core`'s retry policy works
//!   unchanged over real sockets.
//! - [`server`] — [`server::TcpServer`], a threaded accept loop that
//!   frames requests into a [`Handler`].
//! - [`local`] — [`local::LocalTransport`], in-process routing that
//!   still round-trips every message through the wire codec, for
//!   codec-equivalence tests.
//!
//! Everything that made the reproduction deterministic stays
//! deterministic: the simnet path never touches this crate, and query
//! *results* are bitwise identical whichever transport carries them —
//! only wall-clock timing differs.

pub mod frame;
pub mod local;
pub mod proto;
pub mod server;
pub mod tcp;

use bestpeer_common::Result;

pub use frame::{FrameConfig, DEFAULT_MAX_FRAME_BYTES};
pub use local::LocalTransport;
pub use proto::{Request, Response};
pub use server::{ServerHandle, TcpServer};
pub use tcp::{TcpConfig, TcpTransport};

/// A client-side channel to remote peers, addressed by `host:port`
/// strings.
///
/// Implementations must be usable from multiple threads at once: the
/// parallel fetch paths in `core` issue concurrent calls against one
/// shared transport.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Send `req` to the node at `addr` and wait for its response.
    ///
    /// Transient failures surface as `Error::Unavailable` (peer dead or
    /// unreachable) or `Error::Timeout` (peer too slow) so existing
    /// retry logic applies; a `Response::Err` payload is returned as
    /// `Ok` — interpreting remote errors is the caller's job.
    fn call(&self, addr: &str, req: &Request) -> Result<Response>;

    /// Drop pooled state for `addr` (a peer that left or crashed), so
    /// subsequent calls re-resolve instead of reusing dead sockets.
    fn evict(&self, addr: &str);
}

/// The server-side request dispatcher a node plugs into a
/// [`server::TcpServer`] or [`local::LocalTransport`].
pub trait Handler: Send + Sync + std::fmt::Debug {
    /// Answer one request. Must not panic on any input: hostile bytes
    /// are rejected by the decode layer, but semantically invalid
    /// requests should map to [`Response::Err`].
    fn handle(&self, req: Request) -> Response;
}
