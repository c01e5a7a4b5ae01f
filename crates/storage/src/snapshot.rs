//! Snapshots and the snapshot-differential algorithm.
//!
//! The data loader keeps extracted data consistent with the production
//! system by comparing consecutive snapshots (paper §4.2): every tuple is
//! fingerprinted to a 32-bit integer with Rabin fingerprinting, each
//! snapshot is sorted by fingerprint, and a sort-merge over the two
//! sorted snapshots reveals the changes (the algorithm of
//! Garcia-Molina & Labio \[8\]).
//!
//! An update to a tuple changes its fingerprint, so it surfaces as one
//! delete (the old image) plus one insert (the new image) — exactly what
//! the loader needs to apply to the peer's local database.

use std::cmp::Ordering;

use bestpeer_common::codec;
use bestpeer_common::Row;

use crate::fingerprint::Rabin;

/// A fingerprint-sorted snapshot of one table's contents.
///
/// Stored "in a separate database" on the normal peer in the paper; here
/// it is an owned, immutable value the loader keeps per table.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(fingerprint, row)` pairs sorted by fingerprint, then row — the
    /// secondary sort makes the merge robust to fingerprint collisions.
    entries: Vec<(u32, Row)>,
}

impl Snapshot {
    /// Fingerprint and sort `rows` into a snapshot.
    pub fn build<I>(rows: I) -> Self
    where
        I: IntoIterator<Item = Row>,
    {
        let mut fp = Rabin::new();
        let mut buf = Vec::new();
        let mut entries: Vec<(u32, Row)> = rows
            .into_iter()
            .map(|row| {
                buf.clear();
                codec::encode_row(&mut buf, &row);
                fp.reset();
                fp.update(&buf);
                (fp.finish(), row)
            })
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        Snapshot { entries }
    }

    /// Number of tuples in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort-merge this (older) snapshot with `newer`, producing the
    /// changes that transform `self` into `newer`.
    pub fn diff(&self, newer: &Snapshot) -> ChangeSet {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        let (mut i, mut j) = (0, 0);
        let old = &self.entries;
        let new = &newer.entries;
        while i < old.len() && j < new.len() {
            let ord = old[i]
                .0
                .cmp(&new[j].0)
                .then_with(|| old[i].1.cmp(&new[j].1));
            match ord {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    deletes.push(old[i].1.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    inserts.push(new[j].1.clone());
                    j += 1;
                }
            }
        }
        deletes.extend(old[i..].iter().map(|(_, r)| r.clone()));
        inserts.extend(new[j..].iter().map(|(_, r)| r.clone()));
        ChangeSet { inserts, deletes }
    }
}

/// The tuple-level changes between two snapshots of one table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// Tuples present only in the newer snapshot.
    pub inserts: Vec<Row>,
    /// Tuples present only in the older snapshot.
    pub deletes: Vec<Row>,
}

impl ChangeSet {
    /// True when the snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of change operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::Value;

    fn row(id: i64, qty: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(qty), Value::str("item")])
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let rows = vec![row(1, 10), row(2, 20), row(3, 30)];
        let a = Snapshot::build(rows.clone());
        let b = Snapshot::build(rows);
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn insert_only() {
        let a = Snapshot::build(vec![row(1, 10)]);
        let b = Snapshot::build(vec![row(1, 10), row(2, 20)]);
        let d = a.diff(&b);
        assert_eq!(d.inserts, vec![row(2, 20)]);
        assert!(d.deletes.is_empty());
    }

    #[test]
    fn delete_only() {
        let a = Snapshot::build(vec![row(1, 10), row(2, 20)]);
        let b = Snapshot::build(vec![row(2, 20)]);
        let d = a.diff(&b);
        assert_eq!(d.deletes, vec![row(1, 10)]);
        assert!(d.inserts.is_empty());
    }

    #[test]
    fn update_appears_as_delete_plus_insert() {
        let a = Snapshot::build(vec![row(1, 10), row(2, 20)]);
        let b = Snapshot::build(vec![row(1, 99), row(2, 20)]);
        let d = a.diff(&b);
        assert_eq!(d.deletes, vec![row(1, 10)]);
        assert_eq!(d.inserts, vec![row(1, 99)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn diff_is_insensitive_to_input_order() {
        let a = Snapshot::build(vec![row(3, 30), row(1, 10), row(2, 20)]);
        let b = Snapshot::build(vec![row(2, 20), row(3, 31), row(1, 10)]);
        let d = a.diff(&b);
        assert_eq!(d.deletes, vec![row(3, 30)]);
        assert_eq!(d.inserts, vec![row(3, 31)]);
    }

    #[test]
    fn empty_old_snapshot_inserts_everything() {
        let a = Snapshot::default();
        assert!(a.is_empty());
        let b = Snapshot::build(vec![row(1, 1), row(2, 2)]);
        let d = a.diff(&b);
        assert_eq!(d.inserts.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn duplicate_rows_are_matched_pairwise() {
        // Two identical tuples in old, one in new: exactly one delete.
        let a = Snapshot::build(vec![row(1, 1), row(1, 1)]);
        let b = Snapshot::build(vec![row(1, 1)]);
        let d = a.diff(&b);
        assert_eq!(d.deletes.len(), 1);
        assert!(d.inserts.is_empty());
    }
}
