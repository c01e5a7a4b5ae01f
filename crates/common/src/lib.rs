//! Common types shared by every BestPeer++ crate.
//!
//! This crate defines the vocabulary of the whole system: SQL values and
//! rows ([`value::Value`], [`row::Row`]), relational schemas
//! ([`schema::TableSchema`]), identifiers for peers and cloud instances
//! ([`ids`]), the shared error type ([`error::Error`]), and a compact
//! binary codec used to measure (and actually perform) tuple shipping
//! between peers ([`codec`]), whose checked reads every decoder in the
//! workspace is built from.
//!
//! Everything here is dependency-free (the workspace builds with no
//! registry access): the seeded PRNG ([`rng`]) is implemented in-tree,
//! so the substrate crates (BATON overlay, storage engine, MapReduce
//! engine, ...) can share types without pulling each other in.

pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod pool;
pub mod rng;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{Error, Result};
pub use hash::{mix64, stable_hash, stable_hash_bytes, stable_hash_parts};
pub use ids::{InstanceId, PeerId, UserId};
pub use row::{Row, SharedRow};
pub use schema::{ColumnDef, ColumnType, TableSchema};
pub use value::Value;
