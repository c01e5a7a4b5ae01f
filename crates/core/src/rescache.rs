//! The remote-fetch result cache (level 2 of the caching subsystem).
//!
//! The paper's §5.2 index-entry cache (level 1, [`crate::indexer::PeerLocator`])
//! remembers *where* data lives; this module remembers *what came back*.
//! Repeated queries in the Figure 12–14 throughput workloads fetch
//! identical remote partitions on every submission — following ViP2P's
//! observation that materializing prior results is the biggest lever for
//! repeated-workload throughput in a P2P overlay, each processing peer
//! keeps a byte-budgeted LRU of subquery results keyed by
//! `(owner peer, pushed-down statement fingerprint)`.
//!
//! Correctness protocol (see DESIGN.md §12):
//!
//! - every entry records the owner's `load_timestamp` at fill time; a
//!   lookup whose owner has since advanced its snapshot misses (the
//!   entry is dropped on the spot);
//! - the network invalidates per owner peer when that peer republishes
//!   indices, departs, or is touched by a fault record — driven by the
//!   same delta notifications that maintain level 1;
//! - full purges remain the fallback for crash/recovery and
//!   lossy-insert windows, mirroring the locator's fallback rules.
//!
//! Determinism: recency is a logical counter (no wall clock), eviction
//! order is therefore a pure function of the access sequence, and equal
//! workloads produce equal hit/miss/eviction streams.
//!
//! Residency: an entry holds the result's compact
//! [`ResultSet::encode`] bytes — the encoding the wire carries — rather
//! than a `Vec<Row>` of heap-allocated `Value`s, which takes about four
//! times the bytes the budget charges. The charge stays
//! [`ResultSet::byte_size`]; the encoding adds only a tag byte per value
//! and two arity bytes per row, so resident bytes stay within about
//! 1.1–1.3× of the budget. A hit decodes a fresh `ResultSet`.

use std::collections::BTreeMap;

use bestpeer_common::{stable_hash, PeerId, Value};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::ResultSet;

/// Counters a [`ResultCache`] keeps about itself. `bytes` is a gauge
/// (current residency); the rest are monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real fetch (includes entries
    /// dropped because the owner's snapshot advanced).
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to make room within the byte budget.
    pub evictions: u64,
    /// Entries dropped by invalidation notifications.
    pub invalidations: u64,
    /// Bytes currently resident.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// The global tables the cached statement read (invalidation scope).
    tables: Vec<String>,
    /// The result's [`ResultSet::encode`] bytes.
    encoded: Vec<u8>,
    /// The budget charge: the result's [`ResultSet::byte_size`].
    bytes: u64,
    /// The owner's `load_timestamp` when the entry was filled.
    load_ts: u64,
    /// Logical recency stamp (LRU victim = smallest).
    last_used: u64,
}

/// A byte-budgeted, deterministic LRU of remote subquery results, held
/// by each processing (submitting) peer.
#[derive(Debug)]
pub struct ResultCache {
    enabled: bool,
    budget: u64,
    entries: BTreeMap<(PeerId, u64), CacheEntry>,
    clock: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `budget` bytes of result payload;
    /// `enabled == false` makes every operation a no-op (the ablation
    /// and cache-off benchmark configurations).
    pub fn new(enabled: bool, budget: u64) -> Self {
        ResultCache {
            enabled,
            budget,
            entries: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache key of a pushed-down statement executed at `owner`
    /// under `role`: a stable fingerprint of the rendered SQL (the AST's
    /// `Display` is canonical) plus the role name, so equal statements
    /// collide intentionally and different roles never share results.
    pub fn fingerprint(stmt: &SelectStmt, role: &str) -> u64 {
        stable_hash(&Value::str(format!("{stmt}\u{1}{role}")))
    }

    /// Look up a cached result for (`owner`, `fingerprint`), valid only
    /// if the owner's current `load_ts` equals the entry's fill-time
    /// snapshot. A snapshot mismatch drops the entry and misses. A hit
    /// decodes the stored encoding into a fresh result.
    pub fn get(&mut self, owner: PeerId, fingerprint: u64, load_ts: u64) -> Option<ResultSet> {
        if !self.enabled {
            return None;
        }
        let key = (owner, fingerprint);
        match self.entries.get_mut(&key) {
            Some(e) if e.load_ts == load_ts => {
                self.clock += 1;
                e.last_used = self.clock;
                self.stats.hits += 1;
                Some(ResultSet::decode(&e.encoded).expect("cache holds its own encodings"))
            }
            Some(_) => {
                let e = self.entries.remove(&key).expect("present");
                self.stats.bytes -= e.bytes;
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admit a result fetched from `owner`, keeping its encoding.
    /// Results larger than the whole budget are not admitted; otherwise
    /// least-recently-used entries are evicted until the new entry fits.
    pub fn insert(
        &mut self,
        owner: PeerId,
        fingerprint: u64,
        tables: Vec<String>,
        rs: &ResultSet,
        load_ts: u64,
    ) {
        if !self.enabled {
            return;
        }
        let bytes = rs.byte_size();
        if bytes > self.budget {
            return;
        }
        let key = (owner, fingerprint);
        if let Some(old) = self.entries.remove(&key) {
            self.stats.bytes -= old.bytes;
        }
        while self.stats.bytes + bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies an entry");
            let e = self.entries.remove(&victim).expect("present");
            self.stats.bytes -= e.bytes;
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.entries.insert(
            key,
            CacheEntry {
                tables,
                encoded: rs.encode(),
                bytes,
                load_ts,
                last_used: self.clock,
            },
        );
        self.stats.bytes += bytes;
        self.stats.insertions += 1;
    }

    /// Bytes currently cached for statements that read `table`, across
    /// all owners — what the cost model divides by the table's global
    /// size to estimate the warm fraction of a plan's base reads.
    pub fn table_bytes(&self, table: &str) -> u64 {
        self.entries
            .values()
            .filter(|e| e.tables.iter().any(|t| t == table))
            .map(|e| e.bytes)
            .sum()
    }

    /// Drop every entry fetched from `owner` (the peer republished its
    /// indices, departed, or was touched by a fault record).
    pub fn invalidate_peer(&mut self, owner: PeerId) {
        self.retain(|(p, _), _| *p != owner);
    }

    /// Drop `owner`'s entries whose statement read any of `tables`
    /// (fine-grained notification carrying the changed tables).
    pub fn invalidate_peer_tables(&mut self, owner: PeerId, tables: &[String]) {
        self.retain(|(p, _), e| *p != owner || !e.tables.iter().any(|t| tables.contains(t)));
    }

    /// Drop everything — the crash/recovery and lossy-window fallback,
    /// mirroring the locator's full invalidation.
    pub fn purge_all(&mut self) {
        self.retain(|_, _| false);
    }

    fn retain(&mut self, keep: impl Fn(&(PeerId, u64), &CacheEntry) -> bool) {
        let before = self.entries.len();
        let mut freed = 0;
        self.entries.retain(|k, e| {
            let kept = keep(k, e);
            if !kept {
                freed += e.bytes;
            }
            kept
        });
        self.stats.bytes -= freed;
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::Row;

    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: vec!["a".to_owned()],
            rows: (0..n)
                .map(|i| Row::new(vec![Value::Int(i as i64)]))
                .collect(),
        }
    }

    fn peer(n: u64) -> PeerId {
        PeerId::new(n)
    }

    #[test]
    fn hit_returns_the_inserted_result() {
        let mut c = ResultCache::new(true, 1 << 20);
        c.insert(peer(1), 7, vec!["t".into()], &rs(3), 5);
        let got = c.get(peer(1), 7, 5).expect("hit");
        assert_eq!(got.rows, rs(3).rows);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn hits_decode_every_value_kind_and_shape_exactly() {
        let every_kind = ResultSet {
            columns: vec!["v".to_owned(), "w".to_owned()],
            rows: vec![
                Row::new(vec![Value::Null, Value::Int(i64::MIN)]),
                Row::new(vec![Value::Int(i64::MAX), Value::Float(-0.0)]),
                Row::new(vec![Value::Float(f64::NAN), Value::Date(-719_162)]),
                Row::new(vec![Value::str(""), Value::str("añ€😀")]),
            ],
        };
        let zero_rows = ResultSet {
            columns: vec!["a".to_owned(), "b".to_owned()],
            rows: vec![],
        };
        let zero_columns = ResultSet {
            columns: vec![],
            rows: vec![Row::new(vec![]), Row::new(vec![])],
        };
        let mut c = ResultCache::new(true, 1 << 20);
        for (fp, want) in [&every_kind, &zero_rows, &zero_columns]
            .into_iter()
            .enumerate()
        {
            c.insert(peer(1), fp as u64, vec![], want, 0);
            let got = c.get(peer(1), fp as u64, 0).expect("hit");
            // Digests, not `==`: NaN is unequal to itself.
            assert_eq!(got.digest(), want.digest());
            assert_eq!(got.columns, want.columns);
            assert_eq!(got.len(), want.len());
        }
        assert_eq!(c.stats().hits, 3);
        let charged: u64 = [&every_kind, &zero_rows, &zero_columns]
            .iter()
            .map(|r| r.byte_size())
            .sum();
        assert_eq!(c.stats().bytes, charged, "the charge stays byte_size");
    }

    #[test]
    fn snapshot_advance_invalidates_on_lookup() {
        let mut c = ResultCache::new(true, 1 << 20);
        c.insert(peer(1), 7, vec!["t".into()], &rs(3), 5);
        assert!(c.get(peer(1), 7, 6).is_none(), "stale load_ts must miss");
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.get(peer(1), 7, 5).is_none(), "entry is gone");
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_within_budget() {
        let one = rs(1).byte_size();
        let mut c = ResultCache::new(true, 2 * one);
        c.insert(peer(1), 1, vec![], &rs(1), 0);
        c.insert(peer(1), 2, vec![], &rs(1), 0);
        assert!(c.get(peer(1), 1, 0).is_some()); // touch 1; 2 is now LRU
        c.insert(peer(1), 3, vec![], &rs(1), 0);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(peer(1), 2, 0).is_none(), "LRU victim");
        assert!(c.get(peer(1), 1, 0).is_some());
        assert!(c.get(peer(1), 3, 0).is_some());
        assert!(c.stats().bytes <= 2 * one);
    }

    #[test]
    fn oversized_results_are_not_admitted() {
        let mut c = ResultCache::new(true, 8);
        c.insert(peer(1), 1, vec![], &rs(100), 0);
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn invalidation_is_scoped_to_peer_and_tables() {
        let mut c = ResultCache::new(true, 1 << 20);
        c.insert(peer(1), 1, vec!["orders".into()], &rs(1), 0);
        c.insert(peer(1), 2, vec!["customer".into()], &rs(1), 0);
        c.insert(peer(2), 3, vec!["orders".into()], &rs(1), 0);
        c.invalidate_peer_tables(peer(1), &["orders".to_owned()]);
        assert!(c.get(peer(1), 1, 0).is_none(), "peer 1 orders dropped");
        assert!(c.get(peer(1), 2, 0).is_some(), "peer 1 customer kept");
        assert!(c.get(peer(2), 3, 0).is_some(), "peer 2 untouched");
        c.invalidate_peer(peer(2));
        assert!(c.get(peer(2), 3, 0).is_none());
    }

    #[test]
    fn purge_drops_everything_and_zeroes_residency() {
        let mut c = ResultCache::new(true, 1 << 20);
        c.insert(peer(1), 1, vec![], &rs(2), 0);
        c.insert(peer(2), 2, vec![], &rs(2), 0);
        c.purge_all();
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().invalidations, 2);
        assert!(c.get(peer(1), 1, 0).is_none());
    }

    #[test]
    fn disabled_cache_never_hits_or_admits() {
        let mut c = ResultCache::new(false, 1 << 20);
        c.insert(peer(1), 1, vec![], &rs(1), 0);
        assert!(c.get(peer(1), 1, 0).is_none());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn fingerprint_separates_statements_and_roles() {
        let a = bestpeer_sql::parse_select("SELECT a FROM t").unwrap();
        let b = bestpeer_sql::parse_select("SELECT b FROM t").unwrap();
        assert_eq!(
            ResultCache::fingerprint(&a, "R"),
            ResultCache::fingerprint(&a, "R")
        );
        assert_ne!(
            ResultCache::fingerprint(&a, "R"),
            ResultCache::fingerprint(&b, "R")
        );
        assert_ne!(
            ResultCache::fingerprint(&a, "R"),
            ResultCache::fingerprint(&a, "S")
        );
    }
}
