//! A threaded TCP server that frames requests into a [`Handler`].
//!
//! One OS thread per connection — the workload is a handful of peers
//! exchanging subqueries, not a C10K frontend, and `std::net` blocking
//! I/O keeps the crate dependency-free. Connections are served until
//! the client closes or a frame fails to parse; a malformed frame gets
//! a best-effort `Response::Err` before the connection drops.

use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle connection thread re-checks the stop flag. Served
/// streams get this as their read timeout so shutdown is bounded even
/// when clients hold pooled connections open.
const STOP_POLL_INTERVAL: Duration = Duration::from_millis(100);

use bestpeer_common::{Error, Result};

use crate::frame::{map_io_error, read_frame, write_frame, FrameConfig};
use crate::proto::{Request, Response};
use crate::Handler;

/// A bound-but-not-yet-serving TCP server.
pub struct TcpServer {
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    frame_cfg: FrameConfig,
}

impl fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

/// Control handle for a spawned [`TcpServer`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and attach a
    /// request handler.
    pub fn bind(addr: &str, handler: Arc<dyn Handler>) -> Result<TcpServer> {
        let listener = TcpListener::bind(addr).map_err(map_io_error)?;
        Ok(TcpServer {
            listener,
            handler,
            frame_cfg: FrameConfig::default(),
        })
    }

    /// The address the server is bound to (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has a local addr")
    }

    /// Start the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
            for stream in self.listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(STOP_POLL_INTERVAL));
                // Replies go out as soon as they are written, as on the
                // client side (`TcpTransport::connect`).
                let _ = stream.set_nodelay(true);
                let handler = Arc::clone(&self.handler);
                let frame_cfg = self.frame_cfg;
                let stop_conn = Arc::clone(&stop_accept);
                // Finished connections' handles would otherwise pile up
                // until shutdown.
                conn_threads.retain(|t| !t.is_finished());
                conn_threads.push(std::thread::spawn(move || {
                    serve_connection(stream, handler, frame_cfg, stop_conn);
                }));
            }
            for t in conn_threads {
                let _ = t.join();
            }
        });
        ServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        }
    }
}

/// Serve one connection until the client closes, an I/O error occurs,
/// or a `Shutdown` request arrives (which also stops the accept loop).
fn serve_connection(
    mut stream: TcpStream,
    handler: Arc<dyn Handler>,
    frame_cfg: FrameConfig,
    stop: Arc<AtomicBool>,
) {
    loop {
        let payload = match read_frame(&mut stream, &frame_cfg) {
            Ok(p) => p,
            // An idle connection (a client's pooled stream between
            // requests) hits the read timeout: re-check the stop flag
            // and keep waiting. A timeout *mid-frame* would desync the
            // stream, but the next header read then fails the checksum
            // or length check and the connection is dropped — bounded
            // damage, one stalled client's connection.
            Err(e) if e.kind() == "timeout" => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // Clean close, dead peer, or hostile bytes: either way this
            // connection is done. Best-effort error reply for a decode
            // failure so a confused-but-alive client sees *something*.
            Err(e) => {
                if e.kind() == "codec" {
                    let _ = write_frame(&mut stream, &Response::from_error(&e).encode());
                }
                return;
            }
        };
        let (resp, shutdown) = match Request::decode(&payload) {
            Ok(Request::Shutdown) => (Response::Ok, true),
            Ok(req) => (handler.handle(req), false),
            Err(e) => (Response::from_error(&e), false),
        };
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            // Nudge the blocking accept() so the loop observes the flag.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signal the accept loop to stop and wait for it to finish.
    /// In-flight connections are joined, so handlers complete.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Wait for the server to exit on its own (e.g. after a client sent
    /// `Request::Shutdown`).
    pub fn wait(mut self) -> Result<()> {
        if let Some(t) = self.accept_thread.take() {
            t.join()
                .map_err(|_| Error::Internal("server accept thread panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use crate::Transport;

    #[derive(Debug)]
    struct Pinger;
    impl Handler for Pinger {
        fn handle(&self, req: Request) -> Response {
            match req {
                Request::Ping => Response::Pong,
                other => Response::Err {
                    kind: "internal".into(),
                    message: format!("unexpected {other:?}"),
                },
            }
        }
    }

    #[test]
    fn serves_on_ephemeral_port() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Pinger)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let t = TcpTransport::new();
        assert_eq!(t.call(&addr, &Request::Ping).unwrap(), Response::Pong);
        handle.stop();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Pinger)).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let t = TcpTransport::new();
        assert_eq!(t.call(&addr, &Request::Shutdown).unwrap(), Response::Ok);
        handle.wait().unwrap();
    }

    #[test]
    fn malformed_frame_gets_error_reply() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Pinger)).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        // Valid frame, garbage request payload.
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &[0xFF, 0xEE]).unwrap();
        let resp = Response::decode(&read_frame(&mut stream, &FrameConfig::default()).unwrap());
        assert!(matches!(resp.unwrap(), Response::Err { kind, .. } if kind == "codec"));

        handle.stop();
    }
}
