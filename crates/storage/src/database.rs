//! A catalog of tables — one `Database` per peer / worker.

use std::collections::BTreeMap;

use bestpeer_common::{codec, stable_hash_bytes, Error, Result, Row, TableSchema, Value};

use crate::table::Table;
use crate::wal::{self, image_of_tables, Lsn, Replay, Wal, WalOp, WalStats};

/// What [`Database::crash`] recovered after dropping volatile state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOutcome {
    /// No WAL is attached: the in-memory state survives, modeling the
    /// pre-durability peers whose "disk" was their memory image.
    NoWal,
    /// Checkpoint + log replayed cleanly into a byte-identical database.
    Replayed {
        /// Log records applied on top of the checkpoint.
        records: u64,
        /// Whether a torn final record was discarded.
        torn_tail: bool,
    },
    /// The checkpoint or log interior is corrupt. Volatile state was
    /// dropped; the caller must recover from a replica.
    Corrupt,
}

/// A named collection of tables. Each normal peer hosts one `Database`
/// holding its horizontal partition of the global schema; each HadoopDB
/// worker hosts one for its chunk.
///
/// When a [`Wal`] is attached, every logical mutation that goes through
/// the `Database` API (create/drop table, insert, delete, truncate,
/// index DDL, load-timestamp advance) is redo-logged *after* it applies
/// — the log never contains failed operations — and group-committed.
/// [`Database::table_mut`] remains as an unlogged escape hatch for
/// worker-local databases that never crash-recover.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Logical timestamp of the last data load; compared against query
    /// timestamps per the snapshot semantics of Definition 2.
    load_timestamp: u64,
    /// LSN of the last mutation this image reflects (0 = nothing
    /// logged). Travels with clones so recovery can compare freshness.
    last_lsn: Lsn,
    /// The attached redo log, if this database is durable.
    wal: Option<Wal>,
}

impl Clone for Database {
    /// Clones are logical snapshots (index publish, cloud backup): they
    /// carry the tables and the LSN watermark but never the physical
    /// log device, which stays with the live instance.
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            load_timestamp: self.load_timestamp,
            last_lsn: self.last_lsn,
            wal: None,
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table from its schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::Catalog(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::create_table(&schema));
        self.tables.insert(schema.name.clone(), Table::new(schema));
        self.log_applied(payload)
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::Catalog(format!("no table `{name}` to drop")))?;
        let payload = self.wal.is_some().then(|| wal::payload::drop_table(name));
        self.log_applied(payload)
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::Catalog(format!("no such table `{name}`")))
    }

    /// Mutably borrow a table.
    ///
    /// Mutations made through this handle bypass the WAL; use the
    /// `Database`-level operations on durable (peer) databases so the
    /// change survives a crash.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::Catalog(format!("no such table `{name}`")))
    }

    /// Whether the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Tables that currently hold at least one row.
    pub fn non_empty_tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().filter(|t| !t.is_empty())
    }

    /// Insert one row into `table`.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::insert(table, &row));
        self.table_mut(table)?.insert(row)?;
        self.log_applied(payload)
    }

    /// Bulk-insert rows into `table`; all-or-nothing is *not* guaranteed
    /// (matches MySQL bulk loading); returns the number inserted before
    /// any error. The whole batch is one group-commit: N records, one
    /// fsync.
    pub fn bulk_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let logging = self.wal.is_some();
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::Catalog(format!("no such table `{table}`")))?;
        let mut payloads = Vec::new();
        let mut n = 0;
        let mut failed = None;
        for row in rows {
            let payload = logging.then(|| wal::payload::insert(table, &row));
            match t.insert(row) {
                Ok(_) => {
                    if let Some(p) = payload {
                        payloads.push(p);
                    }
                    n += 1;
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if !payloads.is_empty() {
            self.append_and_commit(payloads)?;
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// Delete the row with the given primary key. Returns the removed
    /// row.
    pub fn delete_by_key(&mut self, table: &str, key: &[Value]) -> Result<Row> {
        let removed = self.table_mut(table)?.delete_by_key(key)?;
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::delete_by_key(table, key));
        self.log_applied(payload)?;
        Ok(removed)
    }

    /// Delete one live row equal to `row` (content match; the path for
    /// tables without a primary key). Returns whether a row was removed
    /// — a missing row is not an error, matching the snapshot applier's
    /// skip-if-absent semantics.
    pub fn delete_exact(&mut self, table: &str, row: &Row) -> Result<bool> {
        let t = self.table_mut(table)?;
        let Some(rid) = t.find_row_id(row) else {
            return Ok(false);
        };
        t.delete_row(rid)?;
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::delete_exact(table, row));
        self.log_applied(payload)?;
        Ok(true)
    }

    /// Remove every row of `table`, keeping its schema and index
    /// definitions.
    pub fn truncate_table(&mut self, table: &str) -> Result<()> {
        self.table_mut(table)?.truncate();
        let payload = self.wal.is_some().then(|| wal::payload::truncate(table));
        self.log_applied(payload)
    }

    /// Create a secondary index on `table.column` (logged DDL, unlike
    /// going through [`Database::table_mut`]).
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_index(column)?;
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::create_index(table, column));
        self.log_applied(payload)
    }

    /// Total bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(Table::byte_size).sum()
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// The logical timestamp of the most recent completed data load.
    pub fn load_timestamp(&self) -> u64 {
        self.load_timestamp
    }

    /// Record that a data load completed at logical time `ts`
    /// (monotonic: earlier timestamps are ignored and not logged).
    pub fn set_load_timestamp(&mut self, ts: u64) -> Result<()> {
        if ts <= self.load_timestamp {
            return Ok(());
        }
        self.load_timestamp = ts;
        let payload = self
            .wal
            .is_some()
            .then(|| wal::payload::set_load_timestamp(ts));
        self.log_applied(payload)
    }

    // ---------------------------------------------------------------
    // Durability
    // ---------------------------------------------------------------

    /// Attach a WAL and write a baseline checkpoint of the current
    /// contents (so replay never needs state from before attachment).
    /// The log numbers its records after the image's `last_lsn`.
    pub fn attach_wal(&mut self, mut wal: Wal) -> Result<()> {
        wal.set_next_lsn(self.last_lsn + 1);
        self.wal = Some(wal);
        self.checkpoint()
    }

    /// Re-attach a WAL *without* checkpointing — a restarted process
    /// continuing to log into the device it replayed from.
    pub fn adopt_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Whether a WAL is attached.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// The attached WAL (tests and benches reach device knobs here).
    pub fn wal_mut(&mut self) -> Option<&mut Wal> {
        self.wal.as_mut()
    }

    /// LSN of the last mutation this image reflects.
    pub fn last_lsn(&self) -> Lsn {
        self.last_lsn
    }

    /// Drain the WAL's telemetry counters, if one is attached.
    pub fn drain_wal_stats(&mut self) -> Option<WalStats> {
        self.wal.as_mut().map(Wal::drain_stats)
    }

    /// Serialize the full table state into the WAL's checkpoint slot
    /// and truncate the log. Errors when no WAL is attached.
    pub fn checkpoint(&mut self) -> Result<()> {
        let image = image_of_tables(&self.tables, self.load_timestamp, self.last_lsn);
        match self.wal.as_mut() {
            Some(w) => w.write_checkpoint(&image),
            None => Err(Error::Internal("checkpoint: no wal attached".into())),
        }
    }

    /// Simulate a process kill: the device drops unsynced appends
    /// (except a torn prefix of `torn_keep` bytes), all volatile table
    /// state is discarded, and checkpoint + log are replayed back in.
    /// With a healthy log the result is byte-identical to the pre-crash
    /// durable state.
    pub fn crash(&mut self, torn_keep: usize) -> CrashOutcome {
        if self.wal.is_none() {
            return CrashOutcome::NoWal;
        }
        let crashed = self.wal.as_mut().expect("checked above").crash(torn_keep);
        if crashed.is_err() {
            return self.clear_corrupt();
        }
        let replay = match self.wal.as_ref().expect("checked above").replay() {
            Ok(r) => r,
            Err(_) => return self.clear_corrupt(),
        };
        match Database::from_replay(&replay) {
            Ok((db, records)) => {
                self.tables = db.tables;
                self.load_timestamp = db.load_timestamp;
                self.last_lsn = replay.last_lsn;
                if let Some(w) = self.wal.as_mut() {
                    w.set_next_lsn(replay.last_lsn + 1);
                }
                CrashOutcome::Replayed {
                    records,
                    torn_tail: replay.torn_tail,
                }
            }
            Err(_) => self.clear_corrupt(),
        }
    }

    fn clear_corrupt(&mut self) -> CrashOutcome {
        self.tables.clear();
        self.load_timestamp = 0;
        self.last_lsn = 0;
        if let Some(w) = self.wal.as_mut() {
            w.set_next_lsn(1);
        }
        CrashOutcome::Corrupt
    }

    /// Replay the attached WAL into a fresh database image without
    /// touching `self`, returning the image and the number of log
    /// records applied. `Err` when no WAL is attached or the log or
    /// checkpoint is corrupt.
    pub fn replay_attached(&self) -> Result<(Database, u64)> {
        match &self.wal {
            Some(w) => Database::from_replay(&w.replay()?),
            None => Err(Error::Internal("replay: no wal attached".into())),
        }
    }

    /// Install a recovered image (WAL replay or replica restore) into
    /// this database, keeping the attached device. When the image did
    /// *not* come from this WAL (`rewrite_checkpoint`), the log is
    /// superseded: a fresh checkpoint is written so stale records can
    /// never replay over the restored state.
    pub fn install_recovered(&mut self, src: Database, rewrite_checkpoint: bool) -> Result<()> {
        self.tables = src.tables;
        self.load_timestamp = src.load_timestamp;
        self.last_lsn = src.last_lsn;
        if let Some(w) = self.wal.as_mut() {
            w.set_next_lsn(self.last_lsn + 1);
        }
        if rewrite_checkpoint && self.wal.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Build a database image from a decoded replay: checkpoint tables
    /// first, then redo records in LSN order. Returns the image and the
    /// number of log records applied. Errors indicate corruption (the
    /// log never contains failed operations, so every record must
    /// apply).
    pub fn from_replay(replay: &Replay) -> Result<(Database, u64)> {
        let mut db = Database::new();
        if let Some(cp) = &replay.checkpoint {
            db.load_timestamp = cp.load_timestamp;
            for img in &cp.tables {
                db.create_table(img.schema.clone())?;
                let t = db.table_mut(&img.schema.name)?;
                for col in &img.indexed {
                    t.create_index(col)?;
                }
                for row in &img.rows {
                    t.insert(row.clone())?;
                }
            }
        }
        let mut records = 0u64;
        for (_, op) in &replay.records {
            db.apply_op(op)?;
            records += 1;
        }
        db.last_lsn = replay.last_lsn;
        Ok((db, records))
    }

    fn apply_op(&mut self, op: &WalOp) -> Result<()> {
        match op {
            WalOp::CreateTable(schema) => self.create_table(schema.clone()),
            WalOp::DropTable(name) => self.drop_table(name),
            WalOp::Insert { table, row } => self.insert(table, row.clone()),
            WalOp::DeleteByKey { table, key } => self.delete_by_key(table, key).map(|_| ()),
            WalOp::DeleteExact { table, row } => self.delete_exact(table, row).map(|_| ()),
            WalOp::Truncate(name) => self.truncate_table(name),
            WalOp::CreateIndex { table, column } => self.create_index(table, column),
            WalOp::SetLoadTimestamp(ts) => self.set_load_timestamp(*ts),
        }
    }

    /// A stable content digest: schemas, sorted index definitions, live
    /// rows in scan order, and the load timestamp. Two databases with
    /// equal digests answer every query identically — the witness the
    /// recovery tests use for "byte-identical".
    pub fn digest(&self) -> u64 {
        let mut buf = self.load_timestamp.to_le_bytes().to_vec();
        buf.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in self.tables.values() {
            wal::encode_schema(&mut buf, t.schema());
            let mut indexed: Vec<&str> = t.indexed_columns().collect();
            indexed.sort_unstable();
            buf.extend_from_slice(&(indexed.len() as u16).to_le_bytes());
            for col in indexed {
                codec::put_str(&mut buf, col);
            }
            buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
            for row in t.scan() {
                codec::encode_row(&mut buf, row);
            }
        }
        stable_hash_bytes(&buf)
    }

    fn log_applied(&mut self, payload: Option<Vec<u8>>) -> Result<()> {
        match payload {
            Some(p) => self.append_and_commit(vec![p]),
            None => Ok(()),
        }
    }

    fn append_and_commit(&mut self, payloads: Vec<Vec<u8>>) -> Result<()> {
        let wal = self
            .wal
            .as_mut()
            .expect("payloads are only built when a wal is attached");
        let mut last = 0;
        for p in &payloads {
            last = wal.append_payload(p)?;
        }
        wal.commit()?;
        let wants = wal.wants_checkpoint();
        self.last_lsn = last;
        if wants {
            self.checkpoint()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemDevice;
    use bestpeer_common::{ColumnDef, ColumnType, Value};

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

    fn durable_db() -> Database {
        let mut db = Database::new();
        db.attach_wal(Wal::new(Box::new(MemDevice::new()), 1, 0))
            .unwrap();
        db
    }

    #[test]
    fn create_and_drop() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        assert!(db.create_table(schema("a")).is_err());
        assert!(db.has_table("a"));
        db.drop_table("a").unwrap();
        assert!(!db.has_table("a"));
        assert!(db.drop_table("a").is_err());
        assert!(db.table("a").is_err());
    }

    #[test]
    fn bulk_insert_counts() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        let rows: Vec<Row> = (0..5)
            .map(|i| Row::new(vec![Value::Int(i), Value::str("x")]))
            .collect();
        assert_eq!(db.bulk_insert("a", rows).unwrap(), 5);
        assert_eq!(db.total_rows(), 5);
        assert!(db.total_bytes() > 0);
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new();
        db.create_table(schema("zebra")).unwrap();
        db.create_table(schema("ant")).unwrap();
        assert_eq!(db.table_names().collect::<Vec<_>>(), vec!["ant", "zebra"]);
    }

    #[test]
    fn load_timestamp_is_monotonic() {
        let mut db = Database::new();
        db.set_load_timestamp(5).unwrap();
        db.set_load_timestamp(3).unwrap();
        assert_eq!(db.load_timestamp(), 5);
        db.set_load_timestamp(9).unwrap();
        assert_eq!(db.load_timestamp(), 9);
    }

    #[test]
    fn non_empty_tables_filters() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        db.insert("b", Row::new(vec![Value::Int(1), Value::str("x")]))
            .unwrap();
        let names: Vec<_> = db
            .non_empty_tables()
            .map(|t| t.schema().name.clone())
            .collect();
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn crash_without_wal_keeps_memory() {
        let mut db = Database::new();
        db.create_table(schema("a")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        assert_eq!(db.crash(0), CrashOutcome::NoWal);
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn crash_replays_to_byte_identical_state() {
        let mut db = durable_db();
        db.create_table(schema("a")).unwrap();
        db.create_index("a", "v").unwrap();
        db.insert("a", row(1, "x")).unwrap();
        db.insert("a", row(2, "y")).unwrap();
        db.delete_by_key("a", &[Value::Int(1)]).unwrap();
        db.set_load_timestamp(7).unwrap();
        let before = db.digest();
        let lsn = db.last_lsn();
        match db.crash(0) {
            CrashOutcome::Replayed { records, torn_tail } => {
                assert_eq!(records, 6, "attach checkpoint covers nothing; 6 ops logged");
                assert!(!torn_tail);
            }
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.digest(), before);
        assert_eq!(db.last_lsn(), lsn);
        assert_eq!(db.load_timestamp(), 7);
        assert!(db.table("a").unwrap().index_on("v").is_some());
        // The database stays writable with continuing LSNs.
        db.insert("a", row(3, "z")).unwrap();
        assert_eq!(db.last_lsn(), lsn + 1);
    }

    #[test]
    fn checkpoint_then_crash_replays_checkpoint_plus_tail() {
        let mut db = durable_db();
        db.create_table(schema("a")).unwrap();
        for i in 0..4 {
            db.insert("a", row(i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
        db.insert("a", row(10, "tail")).unwrap();
        let before = db.digest();
        match db.crash(0) {
            CrashOutcome::Replayed { records, .. } => {
                assert_eq!(records, 1, "only the post-checkpoint insert replays");
            }
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.digest(), before);
    }

    #[test]
    fn checkpoint_of_empty_database_round_trips() {
        let mut db = durable_db();
        db.checkpoint().unwrap();
        let before = db.digest();
        assert_eq!(
            db.crash(0),
            CrashOutcome::Replayed {
                records: 0,
                torn_tail: false
            }
        );
        assert_eq!(db.digest(), before);
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn checkpoint_after_drop_table_forgets_the_table() {
        let mut db = durable_db();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        db.drop_table("a").unwrap();
        db.checkpoint().unwrap();
        let before = db.digest();
        match db.crash(0) {
            CrashOutcome::Replayed { records, .. } => assert_eq!(records, 0),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.digest(), before);
        assert!(!db.has_table("a"));
        assert!(db.has_table("b"));
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let mut db = Database::new();
        db.attach_wal(Wal::new(Box::new(MemDevice::new()), 100, 0))
            .unwrap();
        db.create_table(schema("a")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        // Force the synced prefix to cover the first two ops only.
        db.wal_mut().unwrap().flush().unwrap();
        let digest_synced = db.digest();
        db.insert("a", row(2, "y")).unwrap();
        // Crash keeping 5 bytes of the unsynced insert: a torn record.
        match db.crash(5) {
            CrashOutcome::Replayed { torn_tail, .. } => assert!(torn_tail),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.digest(), digest_synced, "torn record rolled back");
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn corrupt_checkpoint_reports_corrupt() {
        let mut db = durable_db();
        db.create_table(schema("a")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        db.checkpoint().unwrap();
        let dev = db
            .wal_mut()
            .unwrap()
            .device_mut()
            .as_any_mut()
            .downcast_mut::<MemDevice>()
            .unwrap();
        dev.corrupt_checkpoint_byte(20);
        assert_eq!(db.crash(0), CrashOutcome::Corrupt);
        assert_eq!(db.total_rows(), 0, "volatile state dropped");
    }

    #[test]
    fn clone_is_a_snapshot_without_the_wal() {
        let mut db = durable_db();
        db.create_table(schema("a")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        let snap = db.clone();
        assert!(!snap.has_wal());
        assert_eq!(snap.last_lsn(), db.last_lsn());
        assert_eq!(snap.digest(), db.digest());
    }

    #[test]
    fn auto_checkpoint_truncates_the_log() {
        let mut db = Database::new();
        // Tiny threshold: every commit triggers a checkpoint.
        db.attach_wal(Wal::new(Box::new(MemDevice::new()), 1, 8))
            .unwrap();
        db.create_table(schema("a")).unwrap();
        db.insert("a", row(1, "x")).unwrap();
        assert_eq!(db.wal_mut().unwrap().log_bytes(), 0, "log truncated");
        let before = db.digest();
        match db.crash(0) {
            CrashOutcome::Replayed { records, .. } => {
                assert_eq!(records, 0, "everything lives in the checkpoint")
            }
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.digest(), before);
    }
}
