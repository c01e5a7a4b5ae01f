//! The embedded relational storage engine hosted by every peer.
//!
//! In the paper each BestPeer++ instance runs a dedicated MySQL server
//! (and each HadoopDB worker a PostgreSQL server). This crate is the
//! from-scratch substitute: a small but real relational engine with
//!
//! - typed heap tables with primary-key enforcement ([`table::Table`]),
//! - B-tree secondary indices supporting point and range scans
//!   ([`index::SecondaryIndex`]),
//! - a snapshot store plus the Rabin-fingerprint sort-merge *snapshot
//!   differential* algorithm the data loader uses to keep extracted data
//!   consistent with the production system (paper §4.2, refs \[8\] \[18\]),
//! - a redo-only write-ahead log with group commit, checkpoints, and
//!   torn-write-tolerant replay ([`wal`]) standing in for the durability
//!   MySQL's InnoDB provides under each paper instance.
//!
//! There is no separate statistics layer: the planner's table sizes,
//! histograms and range-index bounds read a [`table::Table`] directly
//! (`len`, `byte_size`, `column_min_max`, `scan`).

pub mod database;
pub mod fingerprint;
pub mod index;
pub mod snapshot;
pub mod table;
pub mod wal;

pub use database::{CrashOutcome, Database};
pub use snapshot::{ChangeSet, Snapshot};
pub use table::{RowId, Table};
pub use wal::{FileDevice, LogDevice, Lsn, MemDevice, Wal, WalOp, WalStats};
