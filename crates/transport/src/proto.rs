//! The request/response protocol spoken between BestPeer++ nodes.
//!
//! Messages are encoded with `common::codec` and travel as single
//! [frames](crate::frame). Layering is deliberate:
//! this crate knows about rows and values (they live in
//! `bestpeer-common`) but nothing about SQL plans, roles, or index
//! entries — those cross the wire as pre-encoded opaque byte blobs
//! produced and consumed by `bestpeer-core`, and execution statistics
//! travel as self-describing named counters.
//!
//! Every read goes through `common::codec`'s checked cursor over the
//! frame's bytes, and every count is checked against the bytes left
//! *before* allocation: these bytes come from untrusted sockets.

use bestpeer_common::codec::{
    self, finish, get_bytes, get_count, get_str, get_u64, get_u8, put_bytes, put_str,
};
use bestpeer_common::{Error, Result, Row};

/// A request sent to a remote node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / round-trip probe.
    Ping,
    /// Execute one already-decomposed subquery against the node's local
    /// peer, under the submitter's role (opaque, core-encoded) at the
    /// given snapshot timestamp. This is the serve-loop workhorse.
    Subquery {
        /// The subquery as SQL text (statements round-trip through
        /// `Display` + `parse_select`).
        sql: String,
        /// Core-encoded `Role` blob enforced at the data owner.
        role: Vec<u8>,
        /// Snapshot timestamp for the staleness check.
        query_ts: u64,
    },
    /// Submit a full query to the node's network (client mode): the
    /// node plans, fans out, and returns the merged result.
    Query {
        /// Full SQL text.
        sql: String,
        /// Name of a role already defined on the serving node.
        role: String,
    },
    /// Ask the node for its peer id, load timestamp, and the BATON
    /// index entries it publishes (core-encoded blob).
    Inventory,
    /// Register a remote peer with the serving node so its planner can
    /// route subqueries there.
    AddRemote {
        /// The remote peer's id (raw).
        peer: u64,
        /// `host:port` the remote node listens on.
        addr: String,
        /// The remote peer's data load timestamp.
        load_ts: u64,
        /// Core-encoded index entries the remote publishes.
        entries: Vec<u8>,
    },
    /// Bulk-load rows into one table of the node's local peer.
    Load {
        /// Target table name.
        table: String,
        /// Load timestamp to install after the bulk insert.
        timestamp: u64,
        /// The rows.
        rows: Vec<Row>,
    },
    /// Install a core-encoded `Role` definition on the node.
    DefineRole {
        /// Core-encoded role blob.
        role: Vec<u8>,
    },
    /// Report table sizes for distributed statistics collection.
    Stats,
    /// Ask the node to stop serving and exit.
    Shutdown,
}

/// A response returned by a remote node.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A result set plus the execution statistics the remote spent
    /// producing it (named counters, merged into the submitter's
    /// `ExecStats` by core).
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Row>,
        /// Named execution counters, e.g. `("bytes_scanned", 1024)`.
        stats: Vec<(String, u64)>,
    },
    /// Generic success for requests with no payload to return.
    Ok,
    /// The remote failed; `(kind, message)` reconstructs the exact
    /// `Error` variant via `Error::from_kind`, so kind-keyed retry
    /// behavior survives the wire.
    Err {
        /// `Error::kind()` of the remote failure.
        kind: String,
        /// `Error::message()` of the remote failure.
        message: String,
    },
    /// Reply to [`Request::Inventory`].
    Inventory {
        /// The node's local peer id (raw).
        peer: u64,
        /// The node's data load timestamp.
        load_ts: u64,
        /// Core-encoded index entries the node publishes.
        entries: Vec<u8>,
    },
    /// Reply to [`Request::Stats`]: per-table `(name, rows, bytes)`.
    Stats {
        /// The node's data load timestamp.
        load_ts: u64,
        /// Per-table `(name, live_rows, live_bytes)`.
        tables: Vec<(String, u64, u64)>,
    },
}

const REQ_PING: u8 = 0;
const REQ_SUBQUERY: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_INVENTORY: u8 = 3;
const REQ_ADD_REMOTE: u8 = 4;
const REQ_LOAD: u8 = 5;
const REQ_DEFINE_ROLE: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_SHUTDOWN: u8 = 8;

const RESP_PONG: u8 = 0;
const RESP_ROWS: u8 = 1;
const RESP_OK: u8 = 2;
const RESP_ERR: u8 = 3;
const RESP_INVENTORY: u8 = 4;
const RESP_STATS: u8 = 5;

/// Append `rows` as a length-prefixed `codec` batch (the layout
/// `codec::put_bytes` gives an encoded batch), encoding the rows in
/// place and patching the length prefix afterwards.
fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    codec::encode_batch_into(buf, rows);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn get_rows(buf: &mut &[u8]) -> Result<Vec<Row>> {
    codec::decode_batch(get_bytes(buf)?)
}

/// Encoded size of a `u32` count followed by length-prefixed strings.
fn strings_len<'s>(strings: impl Iterator<Item = &'s String>) -> usize {
    4 + strings.map(|s| 4 + s.len()).sum::<usize>()
}

impl Request {
    /// Encode this request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            Request::Ping => buf.push(REQ_PING),
            Request::Subquery {
                sql,
                role,
                query_ts,
            } => {
                buf.push(REQ_SUBQUERY);
                put_str(&mut buf, sql);
                put_bytes(&mut buf, role);
                buf.extend_from_slice(&query_ts.to_le_bytes());
            }
            Request::Query { sql, role } => {
                buf.push(REQ_QUERY);
                put_str(&mut buf, sql);
                put_str(&mut buf, role);
            }
            Request::Inventory => buf.push(REQ_INVENTORY),
            Request::AddRemote {
                peer,
                addr,
                load_ts,
                entries,
            } => {
                buf.push(REQ_ADD_REMOTE);
                buf.extend_from_slice(&peer.to_le_bytes());
                put_str(&mut buf, addr);
                buf.extend_from_slice(&load_ts.to_le_bytes());
                put_bytes(&mut buf, entries);
            }
            Request::Load {
                table,
                timestamp,
                rows,
            } => {
                buf.push(REQ_LOAD);
                put_str(&mut buf, table);
                buf.extend_from_slice(&timestamp.to_le_bytes());
                put_rows(&mut buf, rows);
            }
            Request::DefineRole { role } => {
                buf.push(REQ_DEFINE_ROLE);
                put_bytes(&mut buf, role);
            }
            Request::Stats => buf.push(REQ_STATS),
            Request::Shutdown => buf.push(REQ_SHUTDOWN),
        }
        buf
    }

    /// Decode a request from one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut buf = payload;
        let req = match get_u8(&mut buf)? {
            REQ_PING => Request::Ping,
            REQ_SUBQUERY => Request::Subquery {
                sql: get_str(&mut buf)?,
                role: get_bytes(&mut buf)?.to_vec(),
                query_ts: get_u64(&mut buf)?,
            },
            REQ_QUERY => Request::Query {
                sql: get_str(&mut buf)?,
                role: get_str(&mut buf)?,
            },
            REQ_INVENTORY => Request::Inventory,
            REQ_ADD_REMOTE => Request::AddRemote {
                peer: get_u64(&mut buf)?,
                addr: get_str(&mut buf)?,
                load_ts: get_u64(&mut buf)?,
                entries: get_bytes(&mut buf)?.to_vec(),
            },
            REQ_LOAD => Request::Load {
                table: get_str(&mut buf)?,
                timestamp: get_u64(&mut buf)?,
                rows: get_rows(&mut buf)?,
            },
            REQ_DEFINE_ROLE => Request::DefineRole {
                role: get_bytes(&mut buf)?.to_vec(),
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(Error::Codec(format!("unknown request tag {other}"))),
        };
        finish(buf, "request")?;
        Ok(req)
    }
}

impl Response {
    /// Encode this response as one frame payload. A `Rows` reply is
    /// written in one pass into a buffer of exactly its encoded size.
    pub fn encode(&self) -> Vec<u8> {
        let capacity = match self {
            Response::Rows {
                columns,
                rows,
                stats,
            } => {
                1 + strings_len(columns.iter())
                    + 4
                    + codec::batch_encoded_size(rows) as usize
                    + strings_len(stats.iter().map(|(name, _)| name))
                    + 8 * stats.len()
            }
            _ => 64,
        };
        let mut buf = Vec::with_capacity(capacity);
        match self {
            Response::Pong => buf.push(RESP_PONG),
            Response::Rows {
                columns,
                rows,
                stats,
            } => {
                buf.push(RESP_ROWS);
                buf.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                for c in columns {
                    put_str(&mut buf, c);
                }
                put_rows(&mut buf, rows);
                buf.extend_from_slice(&(stats.len() as u32).to_le_bytes());
                for (name, v) in stats {
                    put_str(&mut buf, name);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Ok => buf.push(RESP_OK),
            Response::Err { kind, message } => {
                buf.push(RESP_ERR);
                put_str(&mut buf, kind);
                put_str(&mut buf, message);
            }
            Response::Inventory {
                peer,
                load_ts,
                entries,
            } => {
                buf.push(RESP_INVENTORY);
                buf.extend_from_slice(&peer.to_le_bytes());
                buf.extend_from_slice(&load_ts.to_le_bytes());
                put_bytes(&mut buf, entries);
            }
            Response::Stats { load_ts, tables } => {
                buf.push(RESP_STATS);
                buf.extend_from_slice(&load_ts.to_le_bytes());
                buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
                for (name, rows, bytes) in tables {
                    put_str(&mut buf, name);
                    buf.extend_from_slice(&rows.to_le_bytes());
                    buf.extend_from_slice(&bytes.to_le_bytes());
                }
            }
        }
        buf
    }

    /// Decode a response from one frame payload. A `Rows` reply's batch
    /// is decoded straight from the payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut buf = payload;
        let resp = match get_u8(&mut buf)? {
            RESP_PONG => Response::Pong,
            RESP_ROWS => {
                // Each column name occupies at least its 4 length bytes.
                let ncols = get_count(&mut buf, 4)?;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(get_str(&mut buf)?);
                }
                let rows = get_rows(&mut buf)?;
                // Each counter is at least 4 name-length bytes + 8 value bytes.
                let nstats = get_count(&mut buf, 12)?;
                let mut stats = Vec::with_capacity(nstats);
                for _ in 0..nstats {
                    stats.push((get_str(&mut buf)?, get_u64(&mut buf)?));
                }
                Response::Rows {
                    columns,
                    rows,
                    stats,
                }
            }
            RESP_OK => Response::Ok,
            RESP_ERR => Response::Err {
                kind: get_str(&mut buf)?,
                message: get_str(&mut buf)?,
            },
            RESP_INVENTORY => Response::Inventory {
                peer: get_u64(&mut buf)?,
                load_ts: get_u64(&mut buf)?,
                entries: get_bytes(&mut buf)?.to_vec(),
            },
            RESP_STATS => {
                let load_ts = get_u64(&mut buf)?;
                // Each table entry is at least 4 name-length bytes + 16
                // counter bytes.
                let ntables = get_count(&mut buf, 20)?;
                let mut tables = Vec::with_capacity(ntables);
                for _ in 0..ntables {
                    tables.push((get_str(&mut buf)?, get_u64(&mut buf)?, get_u64(&mut buf)?));
                }
                Response::Stats { load_ts, tables }
            }
            other => return Err(Error::Codec(format!("unknown response tag {other}"))),
        };
        finish(buf, "response")?;
        Ok(resp)
    }

    /// Wrap a core `Result` outcome: errors become [`Response::Err`]
    /// carrying `(kind, message)` for exact reconstruction.
    pub fn from_error(e: &Error) -> Response {
        Response::Err {
            kind: e.kind().to_owned(),
            message: e.message().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::Value;

    fn sample_rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(1), Value::str("alpha")]),
            Row::new(vec![Value::Int(2), Value::Null]),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Subquery {
                sql: "SELECT a FROM t WHERE a < 3".into(),
                role: vec![1, 2, 3],
                query_ts: 42,
            },
            Request::Query {
                sql: "SELECT * FROM t".into(),
                role: "analyst".into(),
            },
            Request::Inventory,
            Request::AddRemote {
                peer: 7,
                addr: "127.0.0.1:9000".into(),
                load_ts: 10,
                entries: vec![9, 8],
            },
            Request::Load {
                table: "nation".into(),
                timestamp: 5,
                rows: sample_rows(),
            },
            Request::DefineRole { role: vec![4, 5] },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong,
            Response::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: sample_rows(),
                stats: vec![("bytes_scanned".into(), 128), ("rows_output".into(), 2)],
            },
            Response::Ok,
            Response::Err {
                kind: "unavailable".into(),
                message: "peer 3 is down".into(),
            },
            Response::Inventory {
                peer: 3,
                load_ts: 9,
                entries: vec![1],
            },
            Response::Stats {
                load_ts: 9,
                tables: vec![("nation".into(), 25, 3200)],
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn rows_reply_is_built_once_in_an_exactly_sized_buffer() {
        let columns: Vec<String> = vec!["a".into(), "bé".into()];
        let stats: Vec<(String, u64)> = vec![("bytes_scanned".into(), 128)];
        let bytes = Response::Rows {
            columns: columns.clone(),
            rows: sample_rows(),
            stats: stats.clone(),
        }
        .encode();
        // The layout: tag, columns, the batch as a length-prefixed
        // blob, then the named counters.
        let mut want = vec![RESP_ROWS];
        want.extend_from_slice(&(columns.len() as u32).to_le_bytes());
        for c in &columns {
            put_str(&mut want, c);
        }
        put_bytes(&mut want, &codec::encode_batch(&sample_rows()));
        want.extend_from_slice(&(stats.len() as u32).to_le_bytes());
        for (name, v) in &stats {
            put_str(&mut want, name);
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bytes, want);
        assert_eq!(bytes.capacity(), bytes.len(), "no growth slack");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0xAB);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Ok.encode();
        bytes.push(0xAB);
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_counts_fail_before_allocation() {
        // Rows response claiming u32::MAX columns with a tiny payload.
        let mut buf = vec![RESP_ROWS];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&buf).is_err());

        // Stats response claiming a billion tables.
        let mut buf = vec![RESP_STATS];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1_000_000_000u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(Response::decode(&buf).is_err());
    }
}
