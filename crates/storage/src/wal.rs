//! Redo-only write-ahead log with group commit and checkpoints.
//!
//! In the paper every BestPeer++ instance delegates durability to its
//! local MySQL server; this module is the from-scratch substitute. Each
//! peer's [`crate::Database`] appends one redo record per logical
//! mutation (insert / delete / truncate / DDL / load-timestamp advance)
//! to a [`Wal`], which frames the record, checksums it with the pinned
//! [`bestpeer_common::stable_hash_bytes`] function, and hands the bytes
//! to a [`LogDevice`]. A crash discards everything the device has not
//! synced (except a configurable torn prefix — see [`LogDevice::crash`]);
//! recovery replays checkpoint + log into a byte-identical database.
//!
//! ## On-device layout
//!
//! The log is a flat byte stream of framed records:
//!
//! ```text
//! [len: u32 le][lsn: u64 le][checksum: u64 le][payload: len bytes]
//! ```
//!
//! `len` counts only the payload. `checksum` is `stable_hash_bytes` over
//! `lsn_le ++ payload` (hashed part by part, never copied into one
//! buffer), so a record whose frame was torn mid-write (or whose bytes
//! rotted) fails verification. LSNs are assigned
//! monotonically starting at 1 and never reused.
//!
//! The checkpoint is a separate object (file / buffer) holding a full
//! serialization of table state as of some LSN, written atomically;
//! writing a checkpoint truncates the log. Replay = decode checkpoint
//! (if any), then apply every log record with `lsn > checkpoint.lsn`.
//!
//! ## Torn tails vs corruption
//!
//! Replay distinguishes two failure shapes at the log tail:
//!
//! - a *torn tail* — the final frame is incomplete or its checksum does
//!   not verify. This is the expected residue of a crash mid-write;
//!   replay stops cleanly before the torn frame and reports it.
//! - *corruption* — a frame's checksum verifies but its payload does not
//!   decode, LSNs regress, or the checkpoint itself is damaged. This
//!   means the log cannot be trusted at all; replay returns an error and
//!   the caller falls back to a BATON replica (see `core::network`).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use bestpeer_common::codec::{
    self, checked_count, finish, get_count, get_str, get_u16, get_u32, get_u64, get_u8, put_str,
};
use bestpeer_common::{
    stable_hash_bytes, stable_hash_parts, ColumnDef, ColumnType, Error, Result, Row, TableSchema,
    Value,
};

/// Log sequence number. Monotonic per [`Wal`], starting at 1; 0 means
/// "nothing logged yet".
pub type Lsn = u64;

/// Frame overhead per record: `len` + `lsn` + `checksum`.
const FRAME_HEADER: usize = 4 + 8 + 8;

/// Magic prefix of a checkpoint image (guards against replaying a
/// checkpoint written by some future incompatible layout).
const CHECKPOINT_MAGIC: u32 = 0xBE57_C4B0;

// -------------------------------------------------------------------------
// Log device
// -------------------------------------------------------------------------

/// The byte sink under a [`Wal`]: an append-only log plus one atomically
/// replaceable checkpoint object.
///
/// Appends go to a volatile buffer; only [`sync`](LogDevice::sync) makes
/// them durable. [`crash`](LogDevice::crash) models a process kill: the
/// unsynced buffer is dropped except its first `keep_unsynced` bytes,
/// which *do* reach the durable log — that is how a torn (partially
/// persisted) final record is injected.
/// (`Send + Sync` because owners serve subqueries on scoped pool
/// workers, which share the peers; mutation — and thus logging — stays
/// on the single coordinator thread.)
pub trait LogDevice: fmt::Debug + Send + Sync {
    /// Buffer one frame, `header` then `payload`, at the end of the log
    /// (volatile until `sync`).
    fn append(&mut self, header: &[u8], payload: &[u8]) -> Result<()>;
    /// Make all buffered appends durable (fsync).
    fn sync(&mut self) -> Result<()>;
    /// The durable log contents (synced bytes only).
    fn read_log(&self) -> Result<Vec<u8>>;
    /// Discard the durable log and any buffered appends.
    fn truncate_log(&mut self) -> Result<()>;
    /// Atomically replace the checkpoint object.
    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<()>;
    /// The current checkpoint object, if one was ever written.
    fn read_checkpoint(&self) -> Result<Option<Vec<u8>>>;
    /// Simulate a process kill: persist the first `keep_unsynced` bytes
    /// of the buffered (unsynced) appends — a torn write — and drop the
    /// rest of the buffer.
    fn crash(&mut self, keep_unsynced: usize) -> Result<()>;
    /// Downcast hook so tests can reach device-specific knobs.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Deterministic in-memory [`LogDevice`].
///
/// Durability is modeled, not real: `durable` holds synced bytes,
/// `buffered` holds appends since the last sync. The device keeps a
/// virtual-time ledger in microseconds (the same unit simnet's
/// `SimTime` is built from) charging a fixed cost per appended KiB and
/// per fsync, so benches can report deterministic "wall-clock" figures
/// independent of the host machine.
#[derive(Debug, Clone)]
pub struct MemDevice {
    durable: Vec<u8>,
    buffered: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
    /// Virtual microseconds charged per 1024 bytes appended.
    append_us_per_kib: u64,
    /// Virtual microseconds charged per sync.
    fsync_us: u64,
    virtual_us: u64,
}

impl Default for MemDevice {
    fn default() -> Self {
        MemDevice::new()
    }
}

impl MemDevice {
    /// A fresh device with the default virtual-time model (25 us per
    /// appended KiB, 100 us per fsync — a fast local SSD).
    pub fn new() -> Self {
        MemDevice {
            durable: Vec::new(),
            buffered: Vec::new(),
            checkpoint: None,
            append_us_per_kib: 25,
            fsync_us: 100,
            virtual_us: 0,
        }
    }

    /// Total virtual time spent in appends + fsyncs, in the microsecond
    /// unit simnet's `SimTime` uses. Deterministic for a given op
    /// sequence.
    pub fn virtual_us(&self) -> u64 {
        self.virtual_us
    }

    /// Bytes in the durable log (tests / benches).
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// Flip one bit of the durable log (fault injection: bit rot /
    /// deliberate corruption). Out-of-range offsets are ignored.
    pub fn corrupt_log_byte(&mut self, offset: usize) {
        if let Some(b) = self.durable.get_mut(offset) {
            *b ^= 0x40;
        }
    }

    /// Flip one bit of the checkpoint object (fault injection).
    pub fn corrupt_checkpoint_byte(&mut self, offset: usize) {
        if let Some(b) = self.checkpoint.as_mut().and_then(|c| c.get_mut(offset)) {
            *b ^= 0x40;
        }
    }
}

impl LogDevice for MemDevice {
    fn append(&mut self, header: &[u8], payload: &[u8]) -> Result<()> {
        self.buffered.extend_from_slice(header);
        self.buffered.extend_from_slice(payload);
        // One charge per frame; ceiling division so even a 1-byte
        // append costs time.
        let len = (header.len() + payload.len()) as u64;
        self.virtual_us += self.append_us_per_kib * len.div_ceil(1024);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.durable.append(&mut self.buffered);
        self.virtual_us += self.fsync_us;
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>> {
        Ok(self.durable.clone())
    }

    fn truncate_log(&mut self) -> Result<()> {
        self.durable.clear();
        self.buffered.clear();
        Ok(())
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<()> {
        self.checkpoint = Some(bytes.to_vec());
        self.virtual_us +=
            self.fsync_us + self.append_us_per_kib * (bytes.len() as u64).div_ceil(1024);
        Ok(())
    }

    fn read_checkpoint(&self) -> Result<Option<Vec<u8>>> {
        Ok(self.checkpoint.clone())
    }

    fn crash(&mut self, keep_unsynced: usize) -> Result<()> {
        let keep = keep_unsynced.min(self.buffered.len());
        self.durable.extend_from_slice(&self.buffered[..keep]);
        self.buffered.clear();
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// File-backed [`LogDevice`] for integration tests against a real
/// filesystem: `wal.log` (append-only) and `wal.ckpt` (replaced via
/// write-to-temp + rename) inside one directory.
#[derive(Debug)]
pub struct FileDevice {
    dir: PathBuf,
    buffered: Vec<u8>,
}

impl FileDevice {
    /// Open (creating if needed) a device rooted at `dir`. Reopening the
    /// same directory sees the previously synced log and checkpoint —
    /// that is the point: a process restart test builds a new
    /// `FileDevice` over the old directory and replays.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Internal(format!("wal dir {}: {e}", dir.display())))?;
        Ok(FileDevice {
            dir,
            buffered: Vec::new(),
        })
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn ckpt_path(&self) -> PathBuf {
        self.dir.join("wal.ckpt")
    }

    fn io_err(&self, what: &str, e: std::io::Error) -> Error {
        Error::Internal(format!("wal {} in {}: {e}", what, self.dir.display()))
    }

    fn persist(&mut self, upto: usize) -> Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path())
            .map_err(|e| self.io_err("open", e))?;
        f.write_all(&self.buffered[..upto])
            .map_err(|e| self.io_err("write", e))?;
        f.sync_all().map_err(|e| self.io_err("fsync", e))?;
        self.buffered.clear();
        Ok(())
    }
}

impl LogDevice for FileDevice {
    fn append(&mut self, header: &[u8], payload: &[u8]) -> Result<()> {
        self.buffered.extend_from_slice(header);
        self.buffered.extend_from_slice(payload);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let n = self.buffered.len();
        self.persist(n)
    }

    fn read_log(&self) -> Result<Vec<u8>> {
        match std::fs::read(self.log_path()) {
            Ok(v) => Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(self.io_err("read", e)),
        }
    }

    fn truncate_log(&mut self) -> Result<()> {
        self.buffered.clear();
        match std::fs::remove_file(self.log_path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(self.io_err("truncate", e)),
        }
    }

    fn write_checkpoint(&mut self, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join("wal.ckpt.tmp");
        std::fs::write(&tmp, bytes).map_err(|e| self.io_err("checkpoint write", e))?;
        std::fs::rename(&tmp, self.ckpt_path()).map_err(|e| self.io_err("checkpoint rename", e))
    }

    fn read_checkpoint(&self) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.ckpt_path()) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(self.io_err("checkpoint read", e)),
        }
    }

    fn crash(&mut self, keep_unsynced: usize) -> Result<()> {
        let keep = keep_unsynced.min(self.buffered.len());
        self.persist(keep)?;
        self.buffered.clear();
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// -------------------------------------------------------------------------
// Redo records
// -------------------------------------------------------------------------

/// One logical redo operation. Records are written *after* the in-memory
/// apply succeeds (the log never contains failed operations), so replay
/// applies every decoded record unconditionally — an apply error during
/// replay therefore indicates corruption, not a legitimately failed op.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Create a table (schema DDL).
    CreateTable(TableSchema),
    /// Drop a table.
    DropTable(String),
    /// Insert one row.
    Insert { table: String, row: Row },
    /// Delete the row with this primary key.
    DeleteByKey { table: String, key: Vec<Value> },
    /// Delete one live row equal to `row` (tables without a primary key).
    DeleteExact { table: String, row: Row },
    /// Remove every row of a table, keeping schema and index definitions.
    Truncate(String),
    /// Build a secondary index on `table.column`.
    CreateIndex { table: String, column: String },
    /// Advance the database's load timestamp.
    SetLoadTimestamp(u64),
}

const OP_CREATE_TABLE: u8 = 1;
const OP_DROP_TABLE: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_DELETE_BY_KEY: u8 = 4;
const OP_DELETE_EXACT: u8 = 5;
const OP_TRUNCATE: u8 = 6;
const OP_CREATE_INDEX: u8 = 7;
const OP_SET_LOAD_TS: u8 = 8;

fn column_type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
        ColumnType::Date => 3,
    }
}

fn column_type_from_tag(tag: u8) -> Result<ColumnType> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Float,
        2 => ColumnType::Str,
        3 => ColumnType::Date,
        other => return Err(Error::Codec(format!("wal: bad column type tag {other}"))),
    })
}

/// Serialize a schema (used by both `CreateTable` records and checkpoint
/// table images).
pub(crate) fn encode_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, &schema.name);
    buf.extend_from_slice(&(schema.columns.len() as u16).to_le_bytes());
    for c in &schema.columns {
        put_str(buf, &c.name);
        buf.push(column_type_tag(c.ty));
    }
    buf.extend_from_slice(&(schema.primary_key.len() as u16).to_le_bytes());
    for &k in &schema.primary_key {
        buf.extend_from_slice(&(k as u16).to_le_bytes());
    }
}

pub(crate) fn decode_schema(buf: &mut &[u8]) -> Result<TableSchema> {
    let name = get_str(buf)?;
    // A column is at least its name's 4 length bytes and its type tag.
    let n = get_u16(buf)? as usize;
    let mut columns = Vec::with_capacity(checked_count(buf, n, 5)?);
    for _ in 0..n {
        let cname = get_str(buf)?;
        columns.push(ColumnDef::new(cname, column_type_from_tag(get_u8(buf)?)?));
    }
    let n = get_u16(buf)? as usize;
    let mut primary_key = Vec::with_capacity(checked_count(buf, n, 2)?);
    for _ in 0..n {
        primary_key.push(get_u16(buf)? as usize);
    }
    TableSchema::new(name, columns, primary_key)
}

/// Payload encoders taking borrowed arguments. The `Database` mutation
/// hot path builds record payloads through these so a row never has to
/// be cloned just to be logged; [`WalOp::encode`] delegates here, which
/// keeps encode and decode in lockstep.
pub(crate) mod payload {
    use super::*;

    /// A payload that starts with its op tag and a table name, with
    /// room for a typical row behind them.
    fn named(tag: u8, table: &str) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        buf.push(tag);
        put_str(&mut buf, table);
        buf
    }

    pub(crate) fn create_table(schema: &TableSchema) -> Vec<u8> {
        let mut buf = vec![OP_CREATE_TABLE];
        encode_schema(&mut buf, schema);
        buf
    }

    pub(crate) fn drop_table(name: &str) -> Vec<u8> {
        named(OP_DROP_TABLE, name)
    }

    pub(crate) fn insert(table: &str, row: &Row) -> Vec<u8> {
        let mut buf = named(OP_INSERT, table);
        codec::encode_row(&mut buf, row);
        buf
    }

    pub(crate) fn delete_by_key(table: &str, key: &[Value]) -> Vec<u8> {
        let mut buf = named(OP_DELETE_BY_KEY, table);
        buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
        for v in key {
            codec::encode_value(&mut buf, v);
        }
        buf
    }

    pub(crate) fn delete_exact(table: &str, row: &Row) -> Vec<u8> {
        let mut buf = named(OP_DELETE_EXACT, table);
        codec::encode_row(&mut buf, row);
        buf
    }

    pub(crate) fn truncate(name: &str) -> Vec<u8> {
        named(OP_TRUNCATE, name)
    }

    pub(crate) fn create_index(table: &str, column: &str) -> Vec<u8> {
        let mut buf = named(OP_CREATE_INDEX, table);
        put_str(&mut buf, column);
        buf
    }

    pub(crate) fn set_load_timestamp(ts: u64) -> Vec<u8> {
        let mut buf = vec![OP_SET_LOAD_TS];
        buf.extend_from_slice(&ts.to_le_bytes());
        buf
    }
}

impl WalOp {
    /// Encode to the record payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalOp::CreateTable(schema) => payload::create_table(schema),
            WalOp::DropTable(name) => payload::drop_table(name),
            WalOp::Insert { table, row } => payload::insert(table, row),
            WalOp::DeleteByKey { table, key } => payload::delete_by_key(table, key),
            WalOp::DeleteExact { table, row } => payload::delete_exact(table, row),
            WalOp::Truncate(name) => payload::truncate(name),
            WalOp::CreateIndex { table, column } => payload::create_index(table, column),
            WalOp::SetLoadTimestamp(ts) => payload::set_load_timestamp(*ts),
        }
    }

    /// Decode from record payload bytes.
    pub fn decode(payload: &[u8]) -> Result<WalOp> {
        let mut buf = payload;
        let op = match get_u8(&mut buf)? {
            OP_CREATE_TABLE => WalOp::CreateTable(decode_schema(&mut buf)?),
            OP_DROP_TABLE => WalOp::DropTable(get_str(&mut buf)?),
            OP_INSERT => WalOp::Insert {
                table: get_str(&mut buf)?,
                row: codec::decode_row(&mut buf)?,
            },
            OP_DELETE_BY_KEY => {
                let table = get_str(&mut buf)?;
                // A key value is at least its tag byte.
                let n = get_u16(&mut buf)? as usize;
                let mut key = Vec::with_capacity(checked_count(buf, n, 1)?);
                for _ in 0..n {
                    key.push(codec::decode_value(&mut buf)?);
                }
                WalOp::DeleteByKey { table, key }
            }
            OP_DELETE_EXACT => WalOp::DeleteExact {
                table: get_str(&mut buf)?,
                row: codec::decode_row(&mut buf)?,
            },
            OP_TRUNCATE => WalOp::Truncate(get_str(&mut buf)?),
            OP_CREATE_INDEX => WalOp::CreateIndex {
                table: get_str(&mut buf)?,
                column: get_str(&mut buf)?,
            },
            OP_SET_LOAD_TS => WalOp::SetLoadTimestamp(get_u64(&mut buf)?),
            other => return Err(Error::Codec(format!("wal: unknown op tag {other}"))),
        };
        finish(buf, "wal record")?;
        Ok(op)
    }
}

// -------------------------------------------------------------------------
// Checkpoint image
// -------------------------------------------------------------------------

/// One table inside a [`CheckpointImage`]: schema, indexed columns
/// (sorted), and live rows in slot order.
#[derive(Debug, Clone)]
pub struct TableImage {
    /// The table's schema.
    pub schema: TableSchema,
    /// Indexed column names, sorted (`HashMap` iteration order must not
    /// leak into the image bytes).
    pub indexed: Vec<String>,
    /// Live rows in slot order — the order a scan observes.
    pub rows: Vec<Row>,
}

/// A decoded checkpoint: full table state as of `last_lsn`.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// LSN of the last record covered by this image.
    pub last_lsn: Lsn,
    /// The database's load timestamp at checkpoint time.
    pub load_timestamp: u64,
    /// Per-table images, in table-name order.
    pub tables: Vec<TableImage>,
}

impl CheckpointImage {
    /// Serialize with a trailing checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = CHECKPOINT_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&self.last_lsn.to_le_bytes());
        buf.extend_from_slice(&self.load_timestamp.to_le_bytes());
        buf.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            encode_schema(&mut buf, &t.schema);
            buf.extend_from_slice(&(t.indexed.len() as u16).to_le_bytes());
            for c in &t.indexed {
                put_str(&mut buf, c);
            }
            buf.extend_from_slice(&(t.rows.len() as u32).to_le_bytes());
            for r in &t.rows {
                codec::encode_row(&mut buf, r);
            }
        }
        let checksum = stable_hash_bytes(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decode and verify. Any mismatch — bad magic, short buffer, failed
    /// checksum — is corruption (`Err`), never a clean stop: a
    /// checkpoint is written atomically, so unlike the log tail it has
    /// no legitimate torn state.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointImage> {
        let (mut buf, checksum) = bytes
            .split_last_chunk::<8>()
            .ok_or_else(|| Error::Codec("wal: checkpoint too short".into()))?;
        if stable_hash_bytes(buf) != u64::from_le_bytes(*checksum) {
            return Err(Error::Codec("wal: checkpoint checksum mismatch".into()));
        }
        if get_u32(&mut buf)? != CHECKPOINT_MAGIC {
            return Err(Error::Codec("wal: bad checkpoint magic".into()));
        }
        let last_lsn = get_u64(&mut buf)?;
        let load_timestamp = get_u64(&mut buf)?;
        // A table image is at least its name's 4 length bytes, three
        // u16 counts (columns, key columns, indexed names) and a u32 row
        // count.
        let ntables = get_count(&mut buf, 14)?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let schema = decode_schema(&mut buf)?;
            // An indexed name is at least its 4 length bytes.
            let n = get_u16(&mut buf)? as usize;
            let mut indexed = Vec::with_capacity(checked_count(buf, n, 4)?);
            for _ in 0..n {
                indexed.push(get_str(&mut buf)?);
            }
            // A row is at least its 2 arity bytes.
            let nrows = get_count(&mut buf, 2)?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                rows.push(codec::decode_row(&mut buf)?);
            }
            tables.push(TableImage {
                schema,
                indexed,
                rows,
            });
        }
        finish(buf, "checkpoint")?;
        Ok(CheckpointImage {
            last_lsn,
            load_timestamp,
            tables,
        })
    }
}

// -------------------------------------------------------------------------
// Replay
// -------------------------------------------------------------------------

/// Everything recovered from a device: the checkpoint (if any) and the
/// decoded log suffix.
#[derive(Debug)]
pub struct Replay {
    /// The checkpoint image, if one was written.
    pub checkpoint: Option<CheckpointImage>,
    /// Log records with `lsn > checkpoint.last_lsn`, in LSN order.
    pub records: Vec<(Lsn, WalOp)>,
    /// True when the log ended in a torn (incomplete or
    /// checksum-failing) frame that replay cleanly discarded.
    pub torn_tail: bool,
    /// Highest LSN recovered (checkpoint LSN if the log adds nothing).
    pub last_lsn: Lsn,
}

/// The checksum a log frame carries: `stable_hash_bytes` over
/// `lsn_le ++ payload`, hashed in two parts so the payload is never
/// copied just to be hashed.
fn frame_checksum(lsn: Lsn, payload: &[u8]) -> u64 {
    stable_hash_parts(&[&lsn.to_le_bytes(), payload])
}

/// The header that precedes `payload` in its log frame: payload length,
/// LSN and [`frame_checksum`], little-endian.
fn frame_header(lsn: Lsn, payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..12].copy_from_slice(&lsn.to_le_bytes());
    header[12..].copy_from_slice(&frame_checksum(lsn, payload).to_le_bytes());
    header
}

/// Read the next frame off `buf`: its LSN and payload, or `None` when
/// the frame is cut short or its checksum fails (a torn write).
fn next_frame<'a>(buf: &mut &'a [u8]) -> Option<(Lsn, &'a [u8])> {
    let len = get_u32(buf).ok()? as usize;
    let lsn = get_u64(buf).ok()?;
    let checksum = get_u64(buf).ok()?;
    let payload = codec::get_slice(buf, len).ok()?;
    (frame_checksum(lsn, payload) == checksum).then_some((lsn, payload))
}

/// Decode the durable log bytes into records.
///
/// Stops cleanly (`torn_tail = true`) at an incomplete final frame or a
/// frame whose checksum fails — the signature of a torn write. Returns
/// `Err` for damage that a single torn tail cannot explain: a
/// non-monotonic LSN, or a verified record whose payload will not
/// decode.
type DecodedLog = (Vec<(Lsn, WalOp)>, bool, Lsn);

fn decode_log(bytes: &[u8], after: Lsn) -> Result<DecodedLog> {
    let mut records = Vec::new();
    let mut buf = bytes;
    let mut last = after;
    while !buf.is_empty() {
        let Some((lsn, payload)) = next_frame(&mut buf) else {
            return Ok((records, true, last));
        };
        if lsn <= last {
            return Err(Error::Codec(format!(
                "wal: LSN regressed ({lsn} after {last}) — log corrupt"
            )));
        }
        // A verified frame must decode; if it does not, the log is
        // corrupt (records are only ever written for applied ops).
        records.push((lsn, WalOp::decode(payload)?));
        last = lsn;
    }
    Ok((records, false, last))
}

// -------------------------------------------------------------------------
// The log itself
// -------------------------------------------------------------------------

/// Counters for the telemetry registry, drained by the network layer
/// into `wal.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Device syncs issued (group commit batches fsyncs).
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Payload + frame bytes appended.
    pub bytes: u64,
}

/// The write-ahead log attached to one [`crate::Database`].
///
/// Group commit: `append` buffers a framed record on the device;
/// `commit` syncs once `group_window` records are pending (a window of
/// 1 — the default — syncs every record, the strict-durability mode the
/// deterministic tests rely on). Auto-checkpoint: once the log grows
/// past `checkpoint_threshold` bytes, the owning database is expected to
/// write a checkpoint (it polls [`Wal::wants_checkpoint`] after each
/// commit), which truncates the log.
#[derive(Debug)]
pub struct Wal {
    device: Box<dyn LogDevice>,
    next_lsn: Lsn,
    group_window: u64,
    pending: u64,
    checkpoint_threshold: u64,
    log_bytes: u64,
    stats: WalStats,
}

impl Wal {
    /// A log over `device`. `group_window` = records per fsync (min 1);
    /// `checkpoint_threshold` = log bytes that trigger an automatic
    /// checkpoint (0 disables auto-checkpointing).
    pub fn new(device: Box<dyn LogDevice>, group_window: u64, checkpoint_threshold: u64) -> Self {
        Wal {
            device,
            next_lsn: 1,
            group_window: group_window.max(1),
            pending: 0,
            checkpoint_threshold,
            log_bytes: 0,
            stats: WalStats::default(),
        }
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Reset LSN allocation after recovery installed state as of
    /// `last_lsn`.
    pub fn set_next_lsn(&mut self, next: Lsn) {
        self.next_lsn = next.max(1);
    }

    /// Records per fsync.
    pub fn group_window(&self) -> u64 {
        self.group_window
    }

    /// Append one op as a framed record. Volatile until the next
    /// `commit`/`flush` (or a torn-write crash persists a prefix).
    pub fn append(&mut self, op: &WalOp) -> Result<Lsn> {
        self.append_payload(&op.encode())
    }

    /// Append a pre-encoded payload (the `Database` hot path builds
    /// payloads from borrowed rows via [`payload`]).
    pub(crate) fn append_payload(&mut self, payload: &[u8]) -> Result<Lsn> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.device.append(&frame_header(lsn, payload), payload)?;
        let bytes = (FRAME_HEADER + payload.len()) as u64;
        self.pending += 1;
        self.log_bytes += bytes;
        self.stats.appends += 1;
        self.stats.bytes += bytes;
        Ok(lsn)
    }

    /// Group-commit point: sync the device once `group_window` records
    /// are pending. Call after each logical operation (bulk operations
    /// append many records, then commit once).
    pub fn commit(&mut self) -> Result<()> {
        if self.pending >= self.group_window {
            self.flush()?;
        }
        Ok(())
    }

    /// Unconditionally sync pending records.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending > 0 {
            self.device.sync()?;
            self.pending = 0;
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// Whether the log has outgrown its checkpoint threshold.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint_threshold > 0 && self.log_bytes >= self.checkpoint_threshold
    }

    /// Install `image` as the new checkpoint and truncate the log.
    /// Pending (unsynced) records are flushed first so nothing the
    /// caller already applied can be lost by the truncation.
    pub fn write_checkpoint(&mut self, image: &CheckpointImage) -> Result<()> {
        self.flush()?;
        self.device.write_checkpoint(&image.encode())?;
        self.device.truncate_log()?;
        self.log_bytes = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Simulate a process kill: drop unsynced appends except a torn
    /// prefix of `keep_unsynced` bytes (0 = clean kill-9 between
    /// fsyncs).
    pub fn crash(&mut self, keep_unsynced: usize) -> Result<()> {
        self.device.crash(keep_unsynced)?;
        self.pending = 0;
        Ok(())
    }

    /// Read checkpoint + durable log back into a [`Replay`].
    pub fn replay(&self) -> Result<Replay> {
        let checkpoint = match self.device.read_checkpoint()? {
            Some(bytes) => Some(CheckpointImage::decode(&bytes)?),
            None => None,
        };
        let after = checkpoint.as_ref().map_or(0, |c| c.last_lsn);
        let log = self.device.read_log()?;
        let (mut records, torn_tail, last_lsn) = decode_log(&log, 0)?;
        // Records at or below the checkpoint LSN are already reflected
        // in the image (a checkpoint truncates the log, so this only
        // happens when a crash interleaved oddly); skip them.
        records.retain(|(lsn, _)| *lsn > after);
        Ok(Replay {
            checkpoint,
            records,
            torn_tail,
            last_lsn: last_lsn.max(after),
        })
    }

    /// Drain the stats counters (telemetry pulls these periodically).
    pub fn drain_stats(&mut self) -> WalStats {
        std::mem::take(&mut self.stats)
    }

    /// Current durable-log size estimate in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// The underlying device (tests reach `MemDevice` knobs through
    /// [`LogDevice::as_any_mut`]).
    pub fn device_mut(&mut self) -> &mut dyn LogDevice {
        self.device.as_mut()
    }
}

/// Build a checkpoint image from raw table state. Lives here (not on
/// `Database`) so the encoder and decoder stay next to each other.
pub(crate) fn image_of_tables(
    tables: &BTreeMap<String, crate::table::Table>,
    load_timestamp: u64,
    last_lsn: Lsn,
) -> CheckpointImage {
    let tables = tables
        .values()
        .map(|t| {
            let mut indexed: Vec<String> = t.indexed_columns().map(str::to_owned).collect();
            indexed.sort_unstable();
            TableImage {
                schema: t.schema().clone(),
                indexed,
                rows: t.scan().cloned().collect(),
            }
        })
        .collect();
    CheckpointImage {
        last_lsn,
        load_timestamp,
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Str),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn row(id: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(id), Value::str(v)])
    }

    #[test]
    fn ops_round_trip() {
        let ops = vec![
            WalOp::CreateTable(schema("t")),
            WalOp::DropTable("t".into()),
            WalOp::Insert {
                table: "t".into(),
                row: row(1, "a"),
            },
            WalOp::DeleteByKey {
                table: "t".into(),
                key: vec![Value::Int(1)],
            },
            WalOp::DeleteExact {
                table: "t".into(),
                row: row(2, "b"),
            },
            WalOp::Truncate("t".into()),
            WalOp::CreateIndex {
                table: "t".into(),
                column: "v".into(),
            },
            WalOp::SetLoadTimestamp(99),
        ];
        for op in ops {
            let enc = op.encode();
            assert_eq!(WalOp::decode(&enc).unwrap(), op, "round trip {op:?}");
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 1, 0);
        for i in 0..5 {
            wal.append(&WalOp::Insert {
                table: "t".into(),
                row: row(i, "x"),
            })
            .unwrap();
            wal.commit().unwrap();
        }
        let rep = wal.replay().unwrap();
        assert_eq!(rep.records.len(), 5);
        assert!(!rep.torn_tail);
        assert_eq!(rep.last_lsn, 5);
        assert_eq!(rep.records[0].0, 1);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 4, 0);
        for i in 0..8 {
            wal.append(&WalOp::SetLoadTimestamp(i)).unwrap();
            wal.commit().unwrap();
        }
        let stats = wal.drain_stats();
        assert_eq!(stats.appends, 8);
        assert_eq!(stats.fsyncs, 2, "8 records / window 4 = 2 fsyncs");
    }

    #[test]
    fn crash_discards_unsynced_tail() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 100, 0);
        wal.append(&WalOp::SetLoadTimestamp(1)).unwrap();
        wal.flush().unwrap();
        wal.append(&WalOp::SetLoadTimestamp(2)).unwrap();
        wal.crash(0).unwrap();
        let rep = wal.replay().unwrap();
        assert_eq!(rep.records.len(), 1, "unsynced record lost");
        assert!(!rep.torn_tail, "clean kill leaves no torn frame");
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 100, 0);
        wal.append(&WalOp::SetLoadTimestamp(1)).unwrap();
        wal.flush().unwrap();
        wal.append(&WalOp::SetLoadTimestamp(2)).unwrap();
        // Persist only 7 bytes of the second frame: a torn write.
        wal.crash(7).unwrap();
        let rep = wal.replay().unwrap();
        assert_eq!(rep.records.len(), 1);
        assert!(rep.torn_tail);
        assert_eq!(rep.last_lsn, 1);
    }

    #[test]
    fn tail_with_valid_length_but_bad_checksum_stops_cleanly() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 1, 0);
        wal.append(&WalOp::SetLoadTimestamp(1)).unwrap();
        wal.commit().unwrap();
        wal.append(&WalOp::SetLoadTimestamp(2)).unwrap();
        wal.commit().unwrap();
        // Flip a payload bit of the *final* record: the length prefix
        // stays valid but the checksum no longer verifies.
        let dev = wal
            .device_mut()
            .as_any_mut()
            .downcast_mut::<MemDevice>()
            .unwrap();
        let len = dev.durable_len();
        dev.corrupt_log_byte(len - 1);
        let rep = wal
            .replay()
            .expect("bad tail checksum is torn, not corrupt");
        assert_eq!(rep.records.len(), 1);
        assert!(rep.torn_tail);
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 1, 0);
        wal.append(&WalOp::SetLoadTimestamp(1)).unwrap();
        wal.commit().unwrap();
        wal.append(&WalOp::SetLoadTimestamp(2)).unwrap();
        wal.commit().unwrap();
        // Corrupting a *middle* record makes everything after it
        // unreachable; the decoded stream stops early. That alone looks
        // like a torn tail, so instead corrupt the LSN ordering: append
        // a frame with a duplicate LSN by hand.
        let payload = WalOp::SetLoadTimestamp(3).encode();
        let lsn: u64 = 1; // regresses
        wal.device_mut()
            .append(&frame_header(lsn, &payload), &payload)
            .unwrap();
        wal.device_mut().sync().unwrap();
        assert!(wal.replay().is_err(), "LSN regression is corruption");
    }

    #[test]
    fn checkpoint_image_round_trip_and_corruption() {
        let img = CheckpointImage {
            last_lsn: 7,
            load_timestamp: 3,
            tables: vec![TableImage {
                schema: schema("t"),
                indexed: vec!["v".into()],
                rows: vec![row(1, "a"), row(2, "b")],
            }],
        };
        let enc = img.encode();
        let dec = CheckpointImage::decode(&enc).unwrap();
        assert_eq!(dec.last_lsn, 7);
        assert_eq!(dec.load_timestamp, 3);
        assert_eq!(dec.tables.len(), 1);
        assert_eq!(dec.tables[0].rows.len(), 2);
        assert_eq!(dec.tables[0].indexed, vec!["v".to_string()]);

        let mut bad = enc.clone();
        bad[10] ^= 0x01;
        assert!(CheckpointImage::decode(&bad).is_err());
        assert!(CheckpointImage::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn hostile_checkpoint_count_fails_before_allocation() {
        // A 48-byte image with a valid checksum that declares u32::MAX
        // tables: a codec error, never a Vec sized from the count.
        let mut image = CHECKPOINT_MAGIC.to_le_bytes().to_vec();
        image.extend_from_slice(&7u64.to_le_bytes());
        image.extend_from_slice(&3u64.to_le_bytes());
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        image.extend_from_slice(&[0; 16]);
        let checksum = stable_hash_bytes(&image);
        image.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(image.len(), 48);
        let err = CheckpointImage::decode(&image).unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn checkpoint_truncates_log() {
        let mut wal = Wal::new(Box::new(MemDevice::new()), 1, 0);
        wal.append(&WalOp::SetLoadTimestamp(1)).unwrap();
        wal.commit().unwrap();
        let img = CheckpointImage {
            last_lsn: 1,
            load_timestamp: 1,
            tables: Vec::new(),
        };
        wal.write_checkpoint(&img).unwrap();
        assert_eq!(wal.log_bytes(), 0);
        let rep = wal.replay().unwrap();
        assert!(rep.records.is_empty());
        assert_eq!(rep.last_lsn, 1, "checkpoint carries the LSN");
        assert_eq!(rep.checkpoint.unwrap().load_timestamp, 1);
    }

    #[test]
    fn mem_device_virtual_time_is_deterministic() {
        let run = || {
            let mut wal = Wal::new(Box::new(MemDevice::new()), 2, 0);
            for i in 0..10 {
                wal.append(&WalOp::SetLoadTimestamp(i)).unwrap();
                wal.commit().unwrap();
            }
            wal.device_mut()
                .as_any_mut()
                .downcast_mut::<MemDevice>()
                .unwrap()
                .virtual_us()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a > 0);
    }
}
