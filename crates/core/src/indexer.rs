//! The data indexer: BATON index entries and peer location (paper §4.3).
//!
//! Three index types, exactly as in Table 2:
//!
//! | index  | key         | value                                   |
//! |--------|-------------|------------------------------------------|
//! | table  | table name  | the peers storing data of the table      |
//! | column | column name | (owner peer, tables containing the column)|
//! | range  | table name  | (column, min–max value, owner peer)       |
//!
//! Query processing uses them with priority **Range > Column > Table**
//! ("we will use the more accurate index whenever possible", §4.3), and
//! peers cache index entries in memory "to speed up the search for data
//! owner peers, instead of traversing the BATON structure" (§5.2).

use std::collections::{BTreeMap, HashSet};

use bestpeer_baton::{hash_key, Key, Overlay};
use bestpeer_common::{PeerId, Result, Value};
use bestpeer_sql::ast::{CmpOp, SelectStmt};
use bestpeer_storage::Database;

/// A table-index entry: this peer stores part of `table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableIndexEntry {
    /// Global table name.
    pub table: String,
    /// Owner peer.
    pub peer: PeerId,
}

/// A column-index entry: this peer's copy of some tables has `column`
/// populated (multi-tenant peers may lack columns, paper footnote 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnIndexEntry {
    /// Global column name.
    pub column: String,
    /// Owner peer.
    pub peer: PeerId,
    /// The tables at this peer that contain the column.
    pub tables: Vec<String>,
}

/// A range-index entry: the owner's values of `table.column` lie within
/// `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeIndexEntry {
    /// Global table name (the BATON key).
    pub table: String,
    /// The indexed column.
    pub column: String,
    /// Minimum value at the owner.
    pub min: Value,
    /// Maximum value at the owner.
    pub max: Value,
    /// Owner peer.
    pub peer: PeerId,
}

/// Any index entry stored in BATON.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexEntry {
    /// Table index.
    Table(TableIndexEntry),
    /// Column index.
    Column(ColumnIndexEntry),
    /// Range index.
    Range(RangeIndexEntry),
}

impl IndexEntry {
    /// The owner peer of this entry.
    pub fn peer(&self) -> PeerId {
        match self {
            IndexEntry::Table(e) => e.peer,
            IndexEntry::Column(e) => e.peer,
            IndexEntry::Range(e) => e.peer,
        }
    }
}

/// Encode a published entry set for the wire. A `bestpeer-node`
/// answering `Inventory` ships its entries to other processes as this
/// opaque blob; the transport layer never interprets it. Layout
/// (little-endian): `u32` count, then per entry the BATON key, a type
/// tag, and the tag-specific fields.
pub fn encode_entries(entries: &[(Key, IndexEntry)]) -> Vec<u8> {
    use bestpeer_common::{codec, codec::put_str};
    let mut buf = Vec::with_capacity(32 + entries.len() * 32);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, entry) in entries {
        buf.extend_from_slice(&key.to_le_bytes());
        match entry {
            IndexEntry::Table(e) => {
                buf.push(0);
                put_str(&mut buf, &e.table);
                buf.extend_from_slice(&e.peer.raw().to_le_bytes());
            }
            IndexEntry::Column(e) => {
                buf.push(1);
                put_str(&mut buf, &e.column);
                buf.extend_from_slice(&e.peer.raw().to_le_bytes());
                buf.extend_from_slice(&(e.tables.len() as u32).to_le_bytes());
                for t in &e.tables {
                    put_str(&mut buf, t);
                }
            }
            IndexEntry::Range(e) => {
                buf.push(2);
                put_str(&mut buf, &e.table);
                put_str(&mut buf, &e.column);
                codec::encode_value(&mut buf, &e.min);
                codec::encode_value(&mut buf, &e.max);
                buf.extend_from_slice(&e.peer.raw().to_le_bytes());
            }
        }
    }
    buf
}

/// Decode an entry set encoded by [`encode_entries`]. Every count and
/// length is checked against the bytes left before allocation — these
/// blobs arrive over untrusted sockets.
pub fn decode_entries(payload: &[u8]) -> Result<Vec<(Key, IndexEntry)>> {
    use bestpeer_common::codec::{decode_value, finish, get_count, get_str, get_u64, get_u8};
    use bestpeer_common::Error;
    let mut buf = payload;
    // An entry is at least its 8 key bytes + 1 tag byte.
    let n = get_count(&mut buf, 9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = get_u64(&mut buf)?;
        let entry = match get_u8(&mut buf)? {
            0 => IndexEntry::Table(TableIndexEntry {
                table: get_str(&mut buf)?,
                peer: PeerId::new(get_u64(&mut buf)?),
            }),
            1 => {
                let column = get_str(&mut buf)?;
                let peer = PeerId::new(get_u64(&mut buf)?);
                // Each table name occupies at least its 4 length bytes.
                let ntables = get_count(&mut buf, 4)?;
                let mut tables = Vec::with_capacity(ntables);
                for _ in 0..ntables {
                    tables.push(get_str(&mut buf)?);
                }
                IndexEntry::Column(ColumnIndexEntry {
                    column,
                    peer,
                    tables,
                })
            }
            2 => IndexEntry::Range(RangeIndexEntry {
                table: get_str(&mut buf)?,
                column: get_str(&mut buf)?,
                min: decode_value(&mut buf)?,
                max: decode_value(&mut buf)?,
                peer: PeerId::new(get_u64(&mut buf)?),
            }),
            other => {
                return Err(Error::Codec(format!("unknown index entry tag {other}")));
            }
        };
        out.push((key, entry));
    }
    finish(buf, "entry set")?;
    Ok(out)
}

/// The overlay specialized to index entries.
pub type IndexOverlay = Overlay<IndexEntry>;

/// BATON key of the table index for `table`.
pub fn table_key(table: &str) -> Key {
    hash_key(&format!("T:{table}"))
}

/// BATON key of the column index for `column`.
pub fn column_key(column: &str) -> Key {
    hash_key(&format!("C:{column}"))
}

/// BATON key of the range index for `table` (the paper keys range
/// indices by table name; the column lives in the value).
pub fn range_key(table: &str) -> Key {
    hash_key(&format!("R:{table}"))
}

/// The complete index-entry set one peer should have published for its
/// current database: a table entry and per-column entries for every
/// non-empty table, plus range entries for the columns in
/// `range_columns` (§6.2.2 builds them on nation keys). Deterministic
/// order (tables sorted, then columns sorted, then configured ranges).
///
/// This is the unit of delta index maintenance: the network remembers
/// the last published set per peer and, on refresh, only touches the
/// overlay for entries that changed.
pub fn peer_entries(
    peer: PeerId,
    db: &Database,
    range_columns: &[(String, String)],
) -> Result<Vec<(Key, IndexEntry)>> {
    let mut out = Vec::new();
    let mut columns: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for table in db.non_empty_tables() {
        let name = table.schema().name.clone();
        out.push((
            table_key(&name),
            IndexEntry::Table(TableIndexEntry {
                table: name.clone(),
                peer,
            }),
        ));
        for col in table.schema().column_names() {
            columns
                .entry(col.to_owned())
                .or_default()
                .push(name.clone());
        }
    }
    for (column, tables) in columns {
        out.push((
            column_key(&column),
            IndexEntry::Column(ColumnIndexEntry {
                column,
                peer,
                tables,
            }),
        ));
    }
    for (table, column) in range_columns {
        if !db.has_table(table) || db.table(table)?.is_empty() {
            continue;
        }
        if let Some((min, max)) = db.table(table)?.column_min_max(column)? {
            out.push((
                range_key(table),
                IndexEntry::Range(RangeIndexEntry {
                    table: table.clone(),
                    column: column.clone(),
                    min,
                    max,
                    peer,
                }),
            ));
        }
    }
    Ok(out)
}

/// Insert a batch of index entries into the overlay; returns hops.
pub fn publish_entries(overlay: &mut IndexOverlay, entries: &[(Key, IndexEntry)]) -> Result<u32> {
    let mut hops = 0;
    for (key, entry) in entries {
        hops += overlay.insert(*key, entry.clone())?;
    }
    Ok(hops)
}

/// Remove a batch of previously published entries (exact match on the
/// remembered entry, scoped to `peer`); returns hops.
pub fn remove_entries(
    overlay: &mut IndexOverlay,
    peer: PeerId,
    entries: &[(Key, IndexEntry)],
) -> Result<u32> {
    let mut hops = 0;
    for (key, entry) in entries {
        let (_, h) = overlay.remove(*key, |e| e.peer() == peer && e == entry)?;
        hops += h;
    }
    Ok(hops)
}

/// Publish all index entries for one peer's database. Returns the
/// routing hops spent.
pub fn publish_peer(
    overlay: &mut IndexOverlay,
    peer: PeerId,
    db: &Database,
    range_columns: &[(String, String)],
) -> Result<u32> {
    publish_entries(overlay, &peer_entries(peer, db, range_columns)?)
}

/// Remove every index entry the peer may have published under its
/// current database (departure / full-republish sweep). Probes the
/// table, range, and column keys of every non-empty table and strips
/// all of the peer's entries there; range entries live under the same
/// per-table keys regardless of which columns are configured, so no
/// range-column list is needed.
pub fn unpublish_peer(overlay: &mut IndexOverlay, peer: PeerId, db: &Database) -> Result<u32> {
    let mut hops = 0;
    let mut columns: HashSet<String> = HashSet::new();
    for table in db.non_empty_tables() {
        let name = &table.schema().name;
        let (_, h) = overlay.remove(table_key(name), |e| e.peer() == peer)?;
        hops += h;
        let (_, h) = overlay.remove(range_key(name), |e| e.peer() == peer)?;
        hops += h;
        for col in table.schema().column_names() {
            columns.insert(col.to_owned());
        }
    }
    for column in columns {
        let (_, h) = overlay.remove(column_key(&column), |e| e.peer() == peer)?;
        hops += h;
    }
    Ok(hops)
}

/// Which index answered a peer lookup (for tests and the ablation
/// benchmark on index priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexUsed {
    /// The range index pruned by predicate overlap.
    Range,
    /// The column index.
    Column,
    /// The table index (worst case: every owner of the table).
    Table,
}

/// Locator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocatorStats {
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses (BATON searches).
    pub cache_misses: u64,
    /// Total BATON hops spent on misses.
    pub hops: u64,
}

/// Locates the peers holding data relevant to a query, with the
/// in-memory index-entry cache of §5.2.
#[derive(Debug, Default)]
pub struct PeerLocator {
    cache: BTreeMap<Key, Vec<IndexEntry>>,
    cache_enabled: bool,
    stats: LocatorStats,
}

impl PeerLocator {
    /// A locator; `cache_enabled` toggles the §5.2 optimization (the
    /// ablation benchmark runs both ways).
    pub fn new(cache_enabled: bool) -> Self {
        PeerLocator {
            cache: BTreeMap::new(),
            cache_enabled,
            stats: LocatorStats::default(),
        }
    }

    /// Locator statistics.
    pub fn stats(&self) -> LocatorStats {
        self.stats
    }

    /// Drop all cached entries — the fallback notification for
    /// crash/recovery and lossy-insert windows, where the set of
    /// changed keys is unknown.
    pub fn invalidate(&mut self) {
        self.cache.clear();
    }

    /// Drop only the cache lines under `keys` (fine-grained
    /// invalidation: `publish_indices` knows exactly which BATON keys
    /// its delta touched, so an unrelated peer's refresh no longer
    /// evicts the whole cache).
    pub fn invalidate_keys(&mut self, keys: &[Key]) {
        for k in keys {
            self.cache.remove(k);
        }
    }

    fn lookup(
        &mut self,
        overlay: &mut IndexOverlay,
        origin: Option<PeerId>,
        key: Key,
    ) -> Result<Vec<IndexEntry>> {
        if self.cache_enabled {
            if let Some(hit) = self.cache.get(&key) {
                self.stats.cache_hits += 1;
                return Ok(hit.clone());
            }
        }
        // A P2P search starts at the requesting peer's own overlay node
        // (hops = its tree distance to the key's owner); entry points
        // outside the overlay fall back to routing from the root.
        let (entries, hops) = match origin.filter(|p| overlay.contains(*p)) {
            Some(from) => overlay.search_exact_from(from, key)?,
            None => overlay.search_exact(key)?,
        };
        self.stats.cache_misses += 1;
        self.stats.hops += u64::from(hops);
        if self.cache_enabled {
            self.cache.insert(key, entries.clone());
        }
        Ok(entries)
    }

    /// The peers that must be contacted for `table` given the query's
    /// predicates, and which index type made the decision. Routes from
    /// the overlay root; queries use
    /// [`PeerLocator::peers_for_table_from`] with the submitting peer.
    pub fn peers_for_table(
        &mut self,
        overlay: &mut IndexOverlay,
        stmt: &SelectStmt,
        table: &str,
    ) -> Result<(Vec<PeerId>, IndexUsed)> {
        self.peers_for_table_from(overlay, None, stmt, table)
    }

    /// [`PeerLocator::peers_for_table`] with an explicit search origin:
    /// BATON lookups route from `origin`'s overlay node (the submitting
    /// peer), falling back to the root when `origin` is `None` or not
    /// in the overlay.
    pub fn peers_for_table_from(
        &mut self,
        overlay: &mut IndexOverlay,
        origin: Option<PeerId>,
        stmt: &SelectStmt,
        table: &str,
    ) -> Result<(Vec<PeerId>, IndexUsed)> {
        // 1. Range index: intersect owners whose [min,max] overlaps each
        //    sargable predicate on a range-indexed column.
        let range_entries = self.lookup(overlay, origin, range_key(table))?;
        if !range_entries.is_empty() {
            let mut result: Option<HashSet<PeerId>> = None;
            for p in &stmt.predicates {
                let Some((cref, op, lit)) = p.as_column_literal() else {
                    continue;
                };
                let indexed: Vec<&RangeIndexEntry> = range_entries
                    .iter()
                    .filter_map(|e| match e {
                        IndexEntry::Range(r) if r.column == cref.column => Some(r),
                        _ => None,
                    })
                    .collect();
                if indexed.is_empty() {
                    continue;
                }
                let matching: HashSet<PeerId> = indexed
                    .iter()
                    .filter(|r| range_matches(&r.min, &r.max, op, lit))
                    .map(|r| r.peer)
                    .collect();
                result = Some(match result {
                    None => matching,
                    Some(acc) => acc.intersection(&matching).copied().collect(),
                });
            }
            if let Some(peers) = result {
                let mut peers: Vec<PeerId> = peers.into_iter().collect();
                peers.sort_unstable();
                return Ok((peers, IndexUsed::Range));
            }
        }

        // 2. Column index: peers whose copy of `table` has every column
        //    the query references on this table.
        let table_schema_cols: Vec<&str> = stmt
            .all_referenced_columns()
            .into_iter()
            .filter(|c| c.table.as_deref().is_none_or(|t| t == table))
            .map(|c| c.column.as_str())
            .collect();
        let mut column_result: Option<HashSet<PeerId>> = None;
        let mut saw_column_index = false;
        for col in &table_schema_cols {
            let entries = self.lookup(overlay, origin, column_key(col))?;
            let owners: HashSet<PeerId> = entries
                .iter()
                .filter_map(|e| match e {
                    IndexEntry::Column(c)
                        if c.column == *col && c.tables.iter().any(|t| t == table) =>
                    {
                        Some(c.peer)
                    }
                    _ => None,
                })
                .collect();
            if owners.is_empty() {
                continue;
            }
            saw_column_index = true;
            column_result = Some(match column_result {
                None => owners,
                Some(acc) => acc.intersection(&owners).copied().collect(),
            });
        }
        if saw_column_index {
            let mut peers: Vec<PeerId> = column_result.unwrap_or_default().into_iter().collect();
            peers.sort_unstable();
            return Ok((peers, IndexUsed::Column));
        }

        // 3. Table index: every owner of the table.
        let entries = self.lookup(overlay, origin, table_key(table))?;
        let mut peers: Vec<PeerId> = entries
            .iter()
            .filter_map(|e| match e {
                IndexEntry::Table(t) if t.table == table => Some(t.peer),
                _ => None,
            })
            .collect();
        peers.sort_unstable();
        peers.dedup();
        Ok((peers, IndexUsed::Table))
    }

    /// Locate peers for every table of the statement (routing from the
    /// overlay root; queries use [`PeerLocator::peers_for_query_from`]).
    pub fn peers_for_query(
        &mut self,
        overlay: &mut IndexOverlay,
        stmt: &SelectStmt,
    ) -> Result<Vec<(String, Vec<PeerId>)>> {
        self.peers_for_query_from(overlay, None, stmt)
    }

    /// Locate peers for every table of the statement, with BATON
    /// lookups routed from `origin`'s overlay node.
    pub fn peers_for_query_from(
        &mut self,
        overlay: &mut IndexOverlay,
        origin: Option<PeerId>,
        stmt: &SelectStmt,
    ) -> Result<Vec<(String, Vec<PeerId>)>> {
        stmt.from
            .iter()
            .map(|t| {
                Ok((
                    t.clone(),
                    self.peers_for_table_from(overlay, origin, stmt, t)?.0,
                ))
            })
            .collect()
    }
}

/// Could an owner whose column values span `[min, max]` contain a value
/// satisfying `col op lit`?
fn range_matches(min: &Value, max: &Value, op: CmpOp, lit: &Value) -> bool {
    match op {
        CmpOp::Eq => min <= lit && lit <= max,
        CmpOp::Ne => true, // a span almost always contains a non-equal value
        CmpOp::Lt => min < lit,
        CmpOp::Le => min <= lit,
        CmpOp::Gt => max > lit,
        CmpOp::Ge => max >= lit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema};
    use bestpeer_sql::parse_select;

    fn db_for(nation: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("o_orderkey", ColumnType::Int),
                    ColumnDef::new("o_nationkey", ColumnType::Int),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..5 {
            db.insert(
                "orders",
                Row::new(vec![Value::Int(nation * 100 + i), Value::Int(nation)]),
            )
            .unwrap();
        }
        db
    }

    fn network(n: u64) -> (IndexOverlay, Vec<Database>) {
        let mut overlay = IndexOverlay::new(true);
        let mut dbs = Vec::new();
        for i in 0..n {
            overlay.join(PeerId::new(i)).unwrap();
        }
        for i in 0..n {
            let db = db_for(i as i64);
            publish_peer(
                &mut overlay,
                PeerId::new(i),
                &db,
                &[("orders".into(), "o_nationkey".into())],
            )
            .unwrap();
            dbs.push(db);
        }
        (overlay, dbs)
    }

    #[test]
    fn range_index_prunes_to_single_peer() {
        let (mut overlay, _) = network(6);
        let mut loc = PeerLocator::new(true);
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_nationkey = 3").unwrap();
        let (peers, used) = loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(used, IndexUsed::Range);
        assert_eq!(peers, vec![PeerId::new(3)]);
    }

    #[test]
    fn range_index_handles_inequalities() {
        let (mut overlay, _) = network(6);
        let mut loc = PeerLocator::new(true);
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_nationkey >= 4").unwrap();
        let (peers, used) = loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(used, IndexUsed::Range);
        assert_eq!(peers, vec![PeerId::new(4), PeerId::new(5)]);
    }

    #[test]
    fn column_index_when_no_range_predicate_applies() {
        let (mut overlay, _) = network(4);
        let mut loc = PeerLocator::new(true);
        // Predicate on o_orderkey, which has no range index: the range
        // lookup yields no applicable entries, so the column index wins.
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_orderkey > 100").unwrap();
        let (peers, used) = loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(used, IndexUsed::Column);
        assert_eq!(peers.len(), 4);
    }

    #[test]
    fn table_index_fallback() {
        let mut overlay = IndexOverlay::new(true);
        for i in 0..3 {
            overlay.join(PeerId::new(i)).unwrap();
        }
        // Publish only table entries (no columns): simulate a legacy peer.
        for i in 0..3 {
            overlay
                .insert(
                    table_key("orders"),
                    IndexEntry::Table(TableIndexEntry {
                        table: "orders".into(),
                        peer: PeerId::new(i),
                    }),
                )
                .unwrap();
        }
        let mut loc = PeerLocator::new(true);
        let stmt = parse_select("SELECT o_orderkey FROM orders").unwrap();
        let (peers, used) = loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(used, IndexUsed::Table);
        assert_eq!(peers.len(), 3);
    }

    #[test]
    fn cache_avoids_repeated_searches() {
        let (mut overlay, _) = network(5);
        let mut loc = PeerLocator::new(true);
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_nationkey = 2").unwrap();
        loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        let misses_after_first = loc.stats().cache_misses;
        loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(
            loc.stats().cache_misses,
            misses_after_first,
            "second lookup cached"
        );
        assert!(loc.stats().cache_hits > 0);
        loc.invalidate();
        loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert!(loc.stats().cache_misses > misses_after_first);
    }

    #[test]
    fn no_cache_always_searches() {
        let (mut overlay, _) = network(5);
        let mut loc = PeerLocator::new(false);
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_nationkey = 2").unwrap();
        loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert_eq!(loc.stats().cache_hits, 0);
        assert!(loc.stats().cache_misses >= 2);
    }

    #[test]
    fn unpublish_removes_peer_everywhere() {
        let (mut overlay, dbs) = network(4);
        unpublish_peer(&mut overlay, PeerId::new(1), &dbs[1]).unwrap();
        let mut loc = PeerLocator::new(false);
        let stmt = parse_select("SELECT o_orderkey FROM orders").unwrap();
        let (peers, _) = loc.peers_for_table(&mut overlay, &stmt, "orders").unwrap();
        assert!(!peers.contains(&PeerId::new(1)));
        assert_eq!(peers.len(), 3);
    }

    #[test]
    fn peers_for_query_covers_all_tables() {
        let (mut overlay, _) = network(3);
        let mut loc = PeerLocator::new(true);
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE o_nationkey = 1").unwrap();
        let located = loc.peers_for_query(&mut overlay, &stmt).unwrap();
        assert_eq!(located.len(), 1);
        assert_eq!(located[0].0, "orders");
        assert_eq!(located[0].1, vec![PeerId::new(1)]);
    }

    #[test]
    fn range_matches_semantics() {
        let (lo, hi) = (Value::Int(10), Value::Int(20));
        assert!(range_matches(&lo, &hi, CmpOp::Eq, &Value::Int(15)));
        assert!(!range_matches(&lo, &hi, CmpOp::Eq, &Value::Int(25)));
        assert!(range_matches(&lo, &hi, CmpOp::Gt, &Value::Int(15)));
        assert!(!range_matches(&lo, &hi, CmpOp::Gt, &Value::Int(20)));
        assert!(range_matches(&lo, &hi, CmpOp::Ge, &Value::Int(20)));
        assert!(range_matches(&lo, &hi, CmpOp::Lt, &Value::Int(11)));
        assert!(!range_matches(&lo, &hi, CmpOp::Lt, &Value::Int(10)));
        assert!(range_matches(&lo, &hi, CmpOp::Ne, &Value::Int(15)));
    }

    #[test]
    fn entry_encoding_round_trips() {
        let entries = vec![
            (
                table_key("nation"),
                IndexEntry::Table(TableIndexEntry {
                    table: "nation".into(),
                    peer: PeerId::new(3),
                }),
            ),
            (
                column_key("n_name"),
                IndexEntry::Column(ColumnIndexEntry {
                    column: "n_name".into(),
                    peer: PeerId::new(3),
                    tables: vec!["nation".into(), "region".into()],
                }),
            ),
            (
                range_key("nation"),
                IndexEntry::Range(RangeIndexEntry {
                    table: "nation".into(),
                    column: "n_nationkey".into(),
                    min: Value::Int(0),
                    max: Value::Int(24),
                    peer: PeerId::new(3),
                }),
            ),
        ];
        let encoded = encode_entries(&entries);
        assert_eq!(decode_entries(&encoded).unwrap(), entries);
        for cut in 0..encoded.len() {
            assert!(decode_entries(&encoded[..cut]).is_err(), "cut {cut}");
        }
        // Hostile count fails before allocation.
        let mut hostile = encoded.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_entries(&hostile).is_err());
    }
}
