//! The materializing executor.
//!
//! [`execute_select`] lowers a statement to a cost-based [`PhysPlan`]
//! (access-path selection, cardinality-ordered joins, projection
//! pruning — see [`crate::phys`]) and walks it bottom-up with
//! [`run_physical`], materializing each operator's output. Index scans
//! drive off a secondary index when the planner estimates the matching
//! fraction below [`crate::phys::INDEX_SELECTIVITY_THRESHOLD`] — this
//! is what makes the paper's Q1/Q2 fast on both systems (§6.1.6: "both
//! systems benefit from the secondary indices built on l_shipdate and
//! l_commitdate") — and fetch their row ids sorted ascending, so the
//! visible row sequence never depends on which access path ran.
//!
//! Two hot-path properties:
//!
//! - **Zero-copy operator pipeline.** Operators exchange [`SharedRow`]
//!   handles (`Arc<Row>`), so a scan→filter→sort→limit chain moves
//!   reference-counted pointers instead of deep-cloning each tuple per
//!   stage. Rows are deep-copied at most once, at the [`ResultSet`]
//!   boundary, and only when the row is still aliased by table storage.
//! - **Bounded top-K.** `ORDER BY … LIMIT k` (the shape of all five
//!   benchmark queries, Figures 6–10) is answered with a size-`k`
//!   binary heap instead of a full sort, preserving the full sort's
//!   stable tie-break (original input position) exactly.
//!
//! Execution returns [`ExecStats`] (rows/bytes scanned, index usage,
//! sharing/clone counts) that the pay-as-you-go cost accounting and the
//! telemetry layer consume. Byte accounting always charges *logical*
//! row bytes, independent of how many handles share an allocation.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use bestpeer_common::{codec, mix64, stable_hash, Error, Result, Row, SharedRow, Value};
use bestpeer_storage::{Database, RowId, Table};

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::phys::{plan_physical, PhysPlan};
use crate::plan::{AggItem, Binding, Columns, NoStats, ResolvedExpr, SelectivityEstimator};

/// A materialized query result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Total encoded bytes of the result rows (cost accounting).
    pub fn byte_size(&self) -> u64 {
        self.rows.iter().map(Row::byte_size).sum()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Canonical binary encoding: `u32` column count, each column name
    /// as `u32` length + UTF-8 bytes, then the rows as one
    /// `codec::encode_batch` batch. Deterministic — the same logical
    /// result always produces the same bytes, which is what makes
    /// [`ResultSet::digest`] comparable across transports and
    /// processes. Built in one pass into a buffer of exactly the
    /// encoded size, so a caller that keeps it holds no growth slack.
    pub fn encode(&self) -> Vec<u8> {
        let header: usize = 4 + self.columns.iter().map(|c| 4 + c.len()).sum::<usize>();
        let mut buf = Vec::with_capacity(header + codec::batch_encoded_size(&self.rows) as usize);
        buf.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for c in &self.columns {
            codec::put_str(&mut buf, c);
        }
        codec::encode_batch_into(&mut buf, &self.rows);
        buf
    }

    /// Decode an encoding produced by [`ResultSet::encode`], straight
    /// from `payload`. Counts and lengths are checked against the bytes
    /// left before allocation; result sets can arrive over untrusted
    /// sockets.
    pub fn decode(payload: &[u8]) -> Result<ResultSet> {
        let mut buf = payload;
        // Each column name occupies at least its 4 length bytes.
        let ncols = codec::get_count(&mut buf, 4)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            columns.push(codec::get_str(&mut buf)?);
        }
        let rows = codec::decode_batch(buf)?;
        Ok(ResultSet { columns, rows })
    }

    /// Drop the last `n` columns: the hidden ORDER BY keys of
    /// [`expose_order_keys`], once ORDER BY and LIMIT have run.
    pub fn drop_trailing_columns(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let keep = self.columns.len() - n;
        self.columns.truncate(keep);
        for row in &mut self.rows {
            let mut values = std::mem::take(row).into_values();
            values.truncate(keep);
            *row = Row::new(values);
        }
    }

    /// A stable 64-bit digest of the full result (column names, row
    /// order, and values). Two result sets digest equal iff their
    /// canonical encodings are byte-identical — the acceptance check
    /// for "same answer over simnet, loopback TCP, and separate
    /// processes".
    pub fn digest(&self) -> u64 {
        bestpeer_common::stable_hash_bytes(&self.encode())
    }
}

/// Counters describing the physical work done by one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Bytes read from base tables.
    pub bytes_scanned: u64,
    /// Rows produced by the root operator.
    pub rows_output: u64,
    /// Number of scans answered via a secondary index.
    pub index_scans: u64,
    /// Number of scans that had to read the full table.
    pub full_scans: u64,
    /// Rows emitted from scans as shared handles (no deep copy).
    pub rows_shared: u64,
    /// Rows deep-copied at the result boundary because table storage
    /// still aliased them (operator-built rows detach for free).
    pub rows_cloned: u64,
    /// `ORDER BY … LIMIT k` sorts answered by the bounded top-K heap
    /// instead of a full sort.
    pub topk_short_circuits: u64,
}

impl ExecStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.rows_output += other.rows_output;
        self.index_scans += other.index_scans;
        self.full_scans += other.full_scans;
        self.rows_shared += other.rows_shared;
        self.rows_cloned += other.rows_cloned;
        self.topk_short_circuits += other.topk_short_circuits;
    }
}

/// Parse-plan-execute convenience for a full `SELECT`, planned without
/// external statistics (index statistics still drive access-path
/// choice).
pub fn execute_select(stmt: &SelectStmt, db: &Database) -> Result<(ResultSet, ExecStats)> {
    execute_select_with(stmt, db, &NoStats)
}

/// Execute `stmt` through the cost-based physical planner, with a
/// caller-provided selectivity estimator (histograms in
/// `bestpeer-core`) informing join order and access-path choice.
pub fn execute_select_with(
    stmt: &SelectStmt,
    db: &Database,
    est: &dyn SelectivityEstimator,
) -> Result<(ResultSet, ExecStats)> {
    let plan = plan_physical(stmt, db, est)?;
    let mut stats = ExecStats::default();
    let shared = run_physical(&plan, db, &mut stats)?;
    stats.rows_output = shared.len() as u64;
    // Detach the pipeline output into an owned result. Rows built by an
    // operator (join/aggregate/project output) are uniquely held and
    // unwrap for free; rows still aliased by table storage are cloned
    // here — exactly once per result row.
    let rows: Vec<Row> = shared
        .into_iter()
        .map(|r| {
            SharedRow::try_unwrap(r).unwrap_or_else(|still_shared| {
                stats.rows_cloned += 1;
                (*still_shared).clone()
            })
        })
        .collect();
    Ok((
        ResultSet {
            columns: plan.output_names(),
            rows,
        },
        stats,
    ))
}

/// Execute a physical plan, materializing its output as shared row
/// handles.
//
// The operators it walks into are `#[inline(never)]`: inlined here,
// their bodies would enlarge the stack frame of every recursion level.
pub fn run_physical(
    plan: &PhysPlan,
    db: &Database,
    stats: &mut ExecStats,
) -> Result<Vec<SharedRow>> {
    match plan {
        PhysPlan::SeqScan {
            table,
            filters,
            binding,
            ..
        } => {
            stats.full_scans += 1;
            seq_scan_rows(db.table(table)?, filters, binding, stats)
        }
        PhysPlan::IndexScan {
            table,
            column,
            bounds,
            driving,
            filters,
            binding,
            ..
        } => {
            let t = db.table(table)?;
            let mut ids = bounds.lookup(t, column).ok_or_else(|| {
                Error::Internal(format!("planned index `{table}.{column}` is missing"))
            })?;
            // The index yields ids in key order with per-key order
            // depending on delete history (`swap_remove`). RowId order
            // is insertion order — the sequential scan's order — so
            // sorting keeps access-path choice invisible in results.
            ids.sort_unstable();
            stats.index_scans += 1;
            index_scan_rows(t, &ids, *driving, filters, binding, stats)
        }
        PhysPlan::Prune { input, cols, .. } => {
            let rows = run_physical(input, db, stats)?;
            Ok(prune_rows(&rows, cols))
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let l = run_physical(left, db, stats)?;
            let r = run_physical(right, db, stats)?;
            Ok(hash_join(&l, &r, *left_key, *right_key))
        }
        PhysPlan::CrossJoin { left, right, .. } => {
            let l = run_physical(left, db, stats)?;
            let r = run_physical(right, db, stats)?;
            let mut out = Vec::with_capacity(l.len() * r.len());
            for a in &l {
                for b in &r {
                    out.push(SharedRow::new(a.concat(b)));
                }
            }
            Ok(out)
        }
        PhysPlan::Filter {
            input,
            predicates,
            binding,
        } => {
            let rows = run_physical(input, db, stats)?;
            filter_rows(rows, predicates, binding)
        }
        PhysPlan::Aggregate {
            input, group, aggs, ..
        } => {
            let rows = run_physical(input, db, stats)?;
            let out = aggregate_rows(&rows, input.binding(), group, aggs)?;
            Ok(out.into_iter().map(SharedRow::new).collect())
        }
        PhysPlan::Sort {
            input,
            keys,
            binding,
        } => {
            let mut rows = run_physical(input, db, stats)?;
            sort_shared(&mut rows, keys, binding)?;
            Ok(rows)
        }
        PhysPlan::Project { input, exprs, .. } => {
            let rows = run_physical(input, db, stats)?;
            project_rows(&rows, exprs, input.binding())
        }
        // `LIMIT k` directly above a sort (with or without an intervening
        // row-wise projection) becomes a bounded top-K: the heap keeps
        // exactly the k rows a full sort + truncate would keep, in the
        // same order. Projection commutes with truncation because it is
        // 1:1 and order-preserving.
        PhysPlan::Limit { input, n, .. } => match &**input {
            PhysPlan::Sort {
                input: sorted,
                keys,
                binding,
            } => {
                let rows = run_physical(sorted, db, stats)?;
                top_k_shared(rows, keys, binding, *n, stats)
            }
            PhysPlan::Project {
                input: projected,
                exprs,
                ..
            } if matches!(&**projected, PhysPlan::Sort { .. }) => {
                let PhysPlan::Sort {
                    input: sorted,
                    keys,
                    binding,
                } = &**projected
                else {
                    unreachable!("guarded by matches!")
                };
                let rows = run_physical(sorted, db, stats)?;
                let rows = top_k_shared(rows, keys, binding, *n, stats)?;
                project_rows(&rows, exprs, binding)
            }
            _ => {
                let mut rows = run_physical(input, db, stats)?;
                rows.truncate(*n);
                Ok(rows)
            }
        },
    }
}

/// Narrow each row to the kept column positions (projection pruning).
/// 1:1 and order-preserving.
fn prune_rows(rows: &[SharedRow], cols: &[usize]) -> Vec<SharedRow> {
    rows.iter()
        .map(|row| SharedRow::new(Row::new(cols.iter().map(|&i| row.get(i).clone()).collect())))
        .collect()
}

/// Evaluate projection expressions over each row (1:1, order-preserving).
fn project_rows(rows: &[SharedRow], exprs: &[Expr], b: &Binding) -> Result<Vec<SharedRow>> {
    let exprs = ResolvedExpr::bind_all(exprs, b);
    rows.iter()
        .map(|row| Ok(SharedRow::new(Row::new(key_values(&exprs, row)?))))
        .collect()
}

/// Keep the rows every predicate holds on, in input order.
#[inline(never)]
fn filter_rows(rows: Vec<SharedRow>, preds: &[Expr], b: &Binding) -> Result<Vec<SharedRow>> {
    let preds = &ResolvedExpr::bind_all(preds, b);
    let mut out = Vec::new();
    for row in rows {
        if all_true(preds, &row)? {
            out.push(row);
        }
    }
    Ok(out)
}

fn all_true(preds: &[ResolvedExpr], row: &Row) -> Result<bool> {
    for p in preds {
        if !p.holds(row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate `exprs` over one row into owned values (an output row, a
/// sort key, or a group key).
fn key_values(exprs: &[ResolvedExpr], row: &Row) -> Result<Vec<Value>> {
    exprs
        .iter()
        .map(|e| e.value(row).map(Cow::into_owned))
        .collect()
}

/// Fetch `ids` (pre-sorted ascending) and apply every filter except the
/// driving predicate, which the index probe already satisfied.
#[inline(never)]
fn index_scan_rows(
    table: &Table,
    ids: &[RowId],
    driving: usize,
    filters: &[Expr],
    binding: &Binding,
    stats: &mut ExecStats,
) -> Result<Vec<SharedRow>> {
    let residuals: Vec<ResolvedExpr> = filters
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != driving)
        .map(|(_, p)| ResolvedExpr::bind(p, binding))
        .collect();
    let mut out = Vec::new();
    for &rid in ids {
        let row = table
            .get_shared(rid)
            .ok_or_else(|| Error::Internal(format!("dangling index row id {rid}")))?;
        stats.rows_scanned += 1;
        stats.bytes_scanned += row.byte_size();
        if all_true(&residuals, &row)? {
            stats.rows_shared += 1;
            out.push(row);
        }
    }
    Ok(out)
}

/// Full-table scan + filter in RowId order.
#[inline(never)]
fn seq_scan_rows(
    table: &Table,
    filters: &[Expr],
    binding: &Binding,
    stats: &mut ExecStats,
) -> Result<Vec<SharedRow>> {
    let filters = &ResolvedExpr::bind_all(filters, binding);
    let mut out = Vec::new();
    for row in table.scan_shared() {
        stats.rows_scanned += 1;
        stats.bytes_scanned += row.byte_size();
        if all_true(filters, &row)? {
            stats.rows_shared += 1;
            out.push(row);
        }
    }
    Ok(out)
}

/// In-memory hash join (build on the smaller side; output rows always
/// carry left fields first). A NULL key matches nothing, as in a
/// `WHERE a = b` filter, so build rows with one are left out of the
/// table. Empty inputs return immediately without building a table.
/// Output comes in probe order, and a probe row's matches in build-input
/// order.
#[inline(never)]
fn hash_join(
    left: &[SharedRow],
    right: &[SharedRow],
    left_key: usize,
    right_key: usize,
) -> Vec<SharedRow> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    let swap = left.len() > right.len();
    let (build, bkey, probe, pkey) = if swap {
        (right, right_key, left, left_key)
    } else {
        (left, left_key, right, right_key)
    };
    let mut ht: HashMap<&Value, Vec<&SharedRow>> = HashMap::with_capacity(build.len());
    for row in build.iter().filter(|r| !r.get(bkey).is_null()) {
        ht.entry(row.get(bkey)).or_default().push(row);
    }
    let mut out = Vec::with_capacity(build.len().min(probe.len()));
    for p in probe {
        if let Some(matches) = ht.get(p.get(pkey)) {
            for b in matches {
                out.push(SharedRow::new(if swap { p.concat(b) } else { b.concat(p) }));
            }
        }
    }
    out
}

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Value),
    Avg { sum: Value, count: i64 },
    Min(Value),
    Max(Value),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(Value::Null),
            AggFunc::Avg => Acc::Avg {
                sum: Value::Null,
                count: 0,
            },
            AggFunc::Min => Acc::Min(Value::Null),
            AggFunc::Max => Acc::Max(Value::Null),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) counts every row; COUNT(expr) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::Sum(s) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *s = s.checked_add(val)?;
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum = sum.checked_add(val)?;
                        *count += 1;
                    }
                }
            }
            Acc::Min(m) => {
                if let Some(val) = v {
                    if !val.is_null() && (m.is_null() || val < m) {
                        *m = val.clone();
                    }
                }
            }
            Acc::Max(m) => {
                if let Some(val) = v {
                    if !val.is_null() && (m.is_null() || val > m) {
                        *m = val.clone();
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum(s) => s,
            Acc::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    match sum.as_f64() {
                        Ok(s) => Value::Float(s / count as f64),
                        Err(_) => Value::Null,
                    }
                }
            }
            Acc::Min(m) | Acc::Max(m) => m,
        }
    }
}

/// Grouped aggregation over materialized rows: output rows carry the
/// group-key values followed by the aggregate values (the binding of an
/// `Aggregate` plan node). Public so the distributed engines (the SMS
/// reducers, the submitter's join stage) can aggregate shuffled tuples
/// that never lived in a table, or joined tuples never built as rows.
/// Groups come out in first-seen order.
#[inline(never)]
pub fn aggregate_rows<R: Columns>(
    rows: &[R],
    input_binding: &Binding,
    group: &[Expr],
    aggs: &[AggItem],
) -> Result<Vec<Row>> {
    let bound = &BoundAggs::new(input_binding, group, aggs);
    let mut table = GroupTable::new(bound);
    let mut key = Vec::with_capacity(bound.group.len());
    for row in rows {
        table.update_row(row, bound, &mut key)?;
    }
    Ok(table.finish())
}

/// Collision-safe fingerprint of a group-key tuple. The group table is
/// keyed on this hash with an equality check against the stored key, so
/// a row's key is looked up borrowed and copied only for a new group.
fn fingerprint_key<K: Borrow<Value>>(key: &[K]) -> u64 {
    key.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, v| {
        mix64(h ^ stable_hash(v.borrow()))
    })
}

/// An aggregation bound to its input once per execution: the group
/// keys, and each aggregate's function and argument (`None` for
/// `COUNT(*)`).
struct BoundAggs {
    group: Vec<ResolvedExpr>,
    aggs: Vec<(AggFunc, Option<ResolvedExpr>)>,
}

impl BoundAggs {
    fn new(input_binding: &Binding, group: &[Expr], aggs: &[AggItem]) -> BoundAggs {
        let arg = |a: &AggItem| a.arg.as_ref().map(|e| ResolvedExpr::bind(e, input_binding));
        BoundAggs {
            group: ResolvedExpr::bind_all(group, input_binding),
            aggs: aggs.iter().map(|a| (a.func, arg(a))).collect(),
        }
    }

    fn fresh_accs(&self) -> Vec<Acc> {
        self.aggs.iter().map(|(func, _)| Acc::new(*func)).collect()
    }
}

/// Grouping state keyed by key fingerprints, preserving first-seen
/// group order. Fingerprint collisions chain through `index` and are
/// resolved by comparing against the stored key tuples.
struct GroupTable {
    index: HashMap<u64, Vec<usize>>,
    states: Vec<(Vec<Value>, Vec<Acc>)>,
}

impl GroupTable {
    fn new(bound: &BoundAggs) -> GroupTable {
        let mut t = GroupTable {
            index: HashMap::new(),
            states: Vec::new(),
        };
        if bound.group.is_empty() {
            // Global aggregate: exactly one group even over zero rows.
            t.index.insert(fingerprint_key::<Value>(&[]), vec![0]);
            t.states.push((Vec::new(), bound.fresh_accs()));
        }
        t
    }

    /// The slot for `key`, creating one with fresh accumulators (and a
    /// copy of the key) if the group is new.
    fn slot<K: Borrow<Value>>(&mut self, key: &[K], bound: &BoundAggs) -> usize {
        let chain = self.index.entry(fingerprint_key(key)).or_default();
        for &s in chain.iter() {
            if self.states[s].0.iter().eq(key.iter().map(K::borrow)) {
                return s;
            }
        }
        let s = self.states.len();
        chain.push(s);
        let owned = key.iter().map(|v| v.borrow().clone()).collect();
        self.states.push((owned, bound.fresh_accs()));
        s
    }

    /// Fold one row in. `key` is scratch space for the row's borrowed
    /// group key, reused across rows.
    fn update_row<'a, R: Columns + ?Sized>(
        &mut self,
        row: &'a R,
        bound: &'a BoundAggs,
        key: &mut Vec<Cow<'a, Value>>,
    ) -> Result<()> {
        key.clear();
        for g in &bound.group {
            key.push(g.value(row)?);
        }
        let slot = self.slot(key, bound);
        for (acc, (_, arg)) in self.states[slot].1.iter_mut().zip(&bound.aggs) {
            match arg {
                Some(e) => acc.update(Some(&*e.value(row)?))?,
                None => acc.update(None)?,
            }
        }
        Ok(())
    }

    fn finish(self) -> Vec<Row> {
        self.states
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                Row::new(key)
            })
            .collect()
    }
}

/// Compare two precomputed key tuples under per-dimension descending
/// flags. Shared by the full sort, the bounded top-K heap, and the
/// coordinator-side [`apply_order_limit`] so all three agree exactly.
fn cmp_keys(a: &[Value], b: &[Value], desc: &[bool]) -> Ordering {
    for ((x, y), d) in a.iter().zip(b.iter()).zip(desc) {
        let ord = x.cmp(y);
        let ord = if *d { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Full sort of shared handles: reorders `Arc`s (refcount bumps), never
/// deep-copies a row. Ties break on original input position, matching
/// the executor's historical stable-sort semantics.
#[inline(never)]
fn sort_shared(rows: &mut Vec<SharedRow>, keys: &[(Expr, bool)], b: &Binding) -> Result<()> {
    let (exprs, desc) = bind_sort_keys(keys, b);
    // Precompute key tuples to keep comparisons fallible-free.
    let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        keyed.push((key_values(&exprs, row)?, i));
    }
    keyed.sort_by(|(ka, ia), (kb, ib)| cmp_keys(ka, kb, &desc).then(ia.cmp(ib)));
    *rows = keyed.into_iter().map(|(_, i)| rows[i].clone()).collect();
    Ok(())
}

/// Bind sort keys to `b`, split from their descending flags.
fn bind_sort_keys(keys: &[(Expr, bool)], b: &Binding) -> (Vec<ResolvedExpr>, Arc<[bool]>) {
    let exprs = keys.iter().map(|(e, _)| ResolvedExpr::bind(e, b)).collect();
    (exprs, keys.iter().map(|(_, d)| *d).collect())
}

/// One candidate in the bounded top-K heap. Ordering follows the sort
/// sequence (keys under `desc`, then original position), so the heap's
/// maximum is the *worst* row currently kept and `into_sorted_vec`
/// yields the final sequence directly.
struct TopKEntry<T> {
    key: Vec<Value>,
    idx: usize,
    payload: T,
    desc: Arc<[bool]>,
}

impl<T> PartialEq for TopKEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for TopKEntry<T> {}
impl<T> PartialOrd for TopKEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TopKEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.key, &other.key, &self.desc).then(self.idx.cmp(&other.idx))
    }
}

/// Keep the first `k` rows of the sorted sequence using a bounded binary
/// heap: once the heap holds `k` entries, a candidate that sorts after
/// its current worst is skipped, and any other replaces that worst.
/// O(n log k) time, O(min(n, k)) space; output is byte-identical to
/// full-sort-then-truncate because the comparator is total (original
/// position breaks every tie). The heap is sized by its input, not by
/// `k`: a LIMIT far above the row count reserves nothing for it.
fn bounded_top_k<T>(
    items: impl Iterator<Item = (Vec<Value>, T)>,
    desc: Arc<[bool]>,
    k: usize,
) -> Vec<T> {
    let cap = k.min(items.size_hint().0) + 1;
    let mut heap: BinaryHeap<TopKEntry<T>> = BinaryHeap::with_capacity(cap);
    for (idx, (key, payload)) in items.enumerate() {
        if heap.len() == k {
            // Full (or k = 0): only a candidate that sorts before the
            // current worst can enter.
            let enters = heap.peek().is_some_and(|worst| {
                cmp_keys(&key, &worst.key, &desc).then(idx.cmp(&worst.idx)) == Ordering::Less
            });
            if !enters {
                continue;
            }
        }
        heap.push(TopKEntry {
            key,
            idx,
            payload,
            desc: Arc::clone(&desc),
        });
        if heap.len() > k {
            heap.pop();
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|e| e.payload)
        .collect()
}

/// Bounded top-K over shared handles (`LIMIT k` over a sort in the local
/// plan tree).
fn top_k_shared(
    rows: Vec<SharedRow>,
    keys: &[(Expr, bool)],
    b: &Binding,
    k: usize,
    stats: &mut ExecStats,
) -> Result<Vec<SharedRow>> {
    if rows.len() > k {
        stats.topk_short_circuits += 1;
    }
    let (exprs, desc) = bind_sort_keys(keys, b);
    let mut items = Vec::with_capacity(rows.len());
    for row in rows {
        items.push((key_values(&exprs, &row)?, row));
    }
    Ok(bounded_top_k(items.into_iter(), desc, k))
}

/// Coordinator-side `ORDER BY` / `LIMIT` over an assembled result set.
///
/// The distributed engines (basic partial-aggregation, parallel,
/// MapReduce) assemble their final rows outside a local plan tree, so
/// the planner's Sort/Limit operators never run; each engine must apply
/// ordering and truncation itself over `rs`. This is the one shared
/// implementation — every engine funnels through it so all engines
/// agree with the single-site executor on row order and truncation.
///
/// Order keys are evaluated against the *output* columns of `rs`, which
/// requires rewriting them from table-space to output-space:
/// projection expressions map to their output names, aggregate calls
/// and group expressions map to their display columns, and table
/// qualification is stripped when the bare name identifies exactly one
/// output column. Keys that still fail to evaluate sort as NULL rather
/// than erroring — a coordinator must not reject rows it already paid
/// to ship.
///
/// Under `ORDER BY … LIMIT k` with more than `k` assembled rows, the
/// sort is answered by the bounded top-K heap rather than a full sort;
/// the output sequence is identical (the comparator is total, breaking
/// ties on assembled position, exactly like the stable sort it
/// replaces). Returns `true` when the heap short-circuit fired, so
/// engines can surface the count in telemetry.
pub fn apply_order_limit(stmt: &SelectStmt, rs: &mut ResultSet) -> bool {
    let mut used_topk = false;
    if !stmt.order_by.is_empty() {
        let binding = Binding::from_cols(rs.columns.iter().map(|c| (None, c.clone())).collect());
        let keys: Vec<(Expr, bool)> = stmt
            .order_by
            .iter()
            .map(|k| (order_key_expr(&k.expr, stmt, &rs.columns), k.desc))
            .collect();
        let (exprs, desc) = bind_sort_keys(&keys, &binding);
        let n_in = rs.rows.len();
        let rows = std::mem::take(&mut rs.rows);
        // Key evaluation is infallible here: failures sort as NULL.
        let kvs: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| {
                exprs
                    .iter()
                    .map(|e| e.value(r).map_or(Value::Null, Cow::into_owned))
                    .collect()
            })
            .collect();
        let keyed = kvs.into_iter().zip(rows);
        match stmt.limit {
            Some(k) if n_in > k => {
                used_topk = true;
                rs.rows = bounded_top_k(keyed, desc, k);
            }
            _ => {
                let mut keyed: Vec<(Vec<Value>, Row)> = keyed.collect();
                // sort_by is stable: assembled order holds on ties.
                keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, &desc));
                rs.rows = keyed.into_iter().map(|(_, r)| r).collect();
            }
        }
    }
    if let Some(n) = stmt.limit {
        rs.rows.truncate(n);
    }
    used_topk
}

/// The statement every engine runs for `stmt`, and how many hidden
/// columns it adds for ORDER BY keys that are not in its output.
///
/// Engines that assemble their answer outside a local plan sort the
/// assembled output ([`apply_order_limit`]), where a key the statement
/// does not project cannot be evaluated. So each key that is neither a
/// projected expression nor the bare name of an output column is
/// appended, with SELECT-list aliases substituted, as a hidden trailing
/// projection, and the caller drops the hidden columns once ORDER BY
/// and LIMIT have run ([`ResultSet::drop_trailing_columns`]). A
/// statement with no such key comes back unchanged. `SELECT *` outputs
/// every column, so its keys always evaluate; an aggregate key of a
/// non-aggregate statement stays as it is, since projecting it would
/// make the statement an aggregate.
pub fn expose_order_keys(mut stmt: SelectStmt) -> (SelectStmt, usize) {
    let visible = stmt.projections.len();
    if visible == 0 || stmt.order_by.is_empty() {
        return (stmt, 0);
    }
    let aggregate = stmt.is_aggregate();
    let mut keys = std::mem::take(&mut stmt.order_by);
    for key in &mut keys {
        let items = &stmt.projections[..visible];
        let named = matches!(&key.expr, Expr::Column(c)
            if c.table.is_none() && items.iter().any(|it| it.output_name() == c.column));
        if named || (key.expr.contains_agg() && !aggregate) {
            continue;
        }
        let e = crate::plan::substitute_aliases(&key.expr, items);
        if items.iter().any(|it| it.expr == e) {
            continue;
        }
        if !stmt.projections[visible..].iter().any(|it| it.expr == e) {
            stmt.projections.push(SelectItem {
                expr: e.clone(),
                alias: None,
            });
        }
        key.expr = e;
    }
    stmt.order_by = keys;
    let hidden = stmt.projections.len() - visible;
    (stmt, hidden)
}

/// Rewrite one ORDER BY key from table-space to the output-column space
/// of an assembled result set (columns `out`).
fn order_key_expr(e: &Expr, stmt: &SelectStmt, out: &[String]) -> Expr {
    // A key that is exactly a projected expression sorts by that output
    // column (covers `ORDER BY sum(x)` when projected with any alias).
    for it in &stmt.projections {
        if &it.expr == e {
            let name = it.output_name();
            if out.contains(&name) {
                return Expr::col(name);
            }
        }
    }
    // Aggregate output carries group/aggregate display columns; map the
    // key's aggregate calls and group expressions onto them.
    let e = if stmt.is_aggregate() {
        crate::plan::rewrite_post_agg(e, &stmt.group_by)
    } else {
        e.clone()
    };
    strip_unique_qualifiers(e, out)
}

/// Replace `t.c` with `c` wherever exactly one output column is named
/// `c` — assembled results bind columns unqualified, so a qualified ref
/// would otherwise fail to resolve.
fn strip_unique_qualifiers(e: Expr, out: &[String]) -> Expr {
    match e {
        Expr::Column(c) => {
            if c.table.is_some() && out.iter().filter(|n| **n == c.column).count() == 1 {
                Expr::col(c.column)
            } else {
                Expr::Column(c)
            }
        }
        Expr::Cmp { left, op, right } => Expr::Cmp {
            left: Box::new(strip_unique_qualifiers(*left, out)),
            op,
            right: Box::new(strip_unique_qualifiers(*right, out)),
        },
        Expr::Arith { left, op, right } => Expr::Arith {
            left: Box::new(strip_unique_qualifiers(*left, out)),
            op,
            right: Box::new(strip_unique_qualifiers(*right, out)),
        },
        Expr::And(a, b) => Expr::And(
            Box::new(strip_unique_qualifiers(*a, out)),
            Box::new(strip_unique_qualifiers(*b, out)),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(strip_unique_qualifiers(*a, out)),
            Box::new(strip_unique_qualifiers(*b, out)),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use bestpeer_common::{ColumnDef, ColumnType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "lineitem",
                vec![
                    ColumnDef::new("l_orderkey", ColumnType::Int),
                    ColumnDef::new("l_quantity", ColumnType::Int),
                    ColumnDef::new("l_price", ColumnType::Float),
                    ColumnDef::new("l_shipdate", ColumnType::Date),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("o_orderkey", ColumnType::Int),
                    ColumnDef::new("o_status", ColumnType::Str),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
        for (ok, qty, price, day) in [
            (1, 5, 10.0, 100),
            (1, 3, 20.0, 200),
            (2, 7, 30.0, 300),
            (3, 1, 5.0, 400),
        ] {
            db.insert(
                "lineitem",
                Row::new(vec![
                    Value::Int(ok),
                    Value::Int(qty),
                    Value::Float(price),
                    Value::Date(day),
                ]),
            )
            .unwrap();
        }
        for (ok, st) in [(1, "open"), (2, "done"), (3, "open")] {
            db.insert("orders", Row::new(vec![Value::Int(ok), Value::str(st)]))
                .unwrap();
        }
        db
    }

    fn query(sql: &str, db: &Database) -> ResultSet {
        let stmt = parse_select(sql).unwrap();
        execute_select(&stmt, db).unwrap().0
    }

    #[test]
    fn simple_selection_and_projection() {
        let db = db();
        let rs = query(
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 3",
            &db,
        );
        assert_eq!(rs.columns, vec!["l_orderkey", "l_quantity"]);
        assert_eq!(rs.len(), 2);
        assert!(rs.rows.iter().all(|r| r.get(1).as_int().unwrap() > 3));
    }

    #[test]
    fn select_star_expands() {
        let db = db();
        let rs = query("SELECT * FROM orders", &db);
        assert_eq!(rs.columns, vec!["o_orderkey", "o_status"]);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn equi_join_matches_pairs() {
        let db = db();
        let rs = query(
            "SELECT l_orderkey, o_status FROM lineitem, orders WHERE l_orderkey = o_orderkey",
            &db,
        );
        assert_eq!(rs.len(), 4);
        for row in &rs.rows {
            let ok = row.get(0).as_int().unwrap();
            let expected = if ok == 2 { "done" } else { "open" };
            assert_eq!(row.get(1).as_str().unwrap(), expected);
        }
    }

    /// `l` and `r` hold `x` and `y` for `0..n`, with every tenth key NULL.
    fn null_key_db(n: i64) -> Database {
        let mut db = Database::new();
        for (t, c) in [("l", "x"), ("r", "y")] {
            let schema =
                TableSchema::new(t, vec![ColumnDef::new(c, ColumnType::Int)], vec![]).unwrap();
            db.create_table(schema).unwrap();
            let rows = (0..n).map(|i| {
                let key = if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                Row::new(vec![key])
            });
            db.bulk_insert(t, rows.collect()).unwrap();
        }
        db
    }

    #[test]
    fn null_join_keys_match_nothing() {
        // A handful of NULL keys on each side, then 500.
        for n in [40, 5000] {
            let db = null_key_db(n);
            let rs = query("SELECT x, y FROM l, r WHERE x = y", &db);
            assert_eq!(rs.len() as i64, n - n / 10, "n = {n}");
            assert!(rs
                .rows
                .iter()
                .all(|r| !r.get(0).is_null() && r.get(0) == r.get(1)));
        }
    }

    #[test]
    fn join_with_extra_filter() {
        let db = db();
        let rs = query(
            "SELECT l_quantity FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_status = 'open' AND l_quantity >= 3",
            &db,
        );
        let mut q: Vec<i64> = rs.rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        q.sort_unstable();
        assert_eq!(q, vec![3, 5]);
    }

    #[test]
    fn global_aggregates() {
        let db = db();
        let rs = query(
            "SELECT COUNT(*), SUM(l_quantity), AVG(l_price), MIN(l_quantity), MAX(l_quantity) \
             FROM lineitem",
            &db,
        );
        assert_eq!(rs.len(), 1);
        let r = &rs.rows[0];
        assert_eq!(r.get(0), &Value::Int(4));
        assert_eq!(r.get(1), &Value::Int(16));
        assert_eq!(r.get(2), &Value::Float((10.0 + 20.0 + 30.0 + 5.0) / 4.0));
        assert_eq!(r.get(3), &Value::Int(1));
        assert_eq!(r.get(4), &Value::Int(7));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let db = db();
        let rs = query(
            "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity > 999",
            &db,
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), &Value::Int(0));
        assert!(rs.rows[0].get(1).is_null());
    }

    #[test]
    fn group_by_with_order_and_limit() {
        let db = db();
        let rs = query(
            "SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem \
             GROUP BY l_orderkey ORDER BY q DESC LIMIT 2",
            &db,
        );
        assert_eq!(rs.columns, vec!["l_orderkey", "q"]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].get(0), &Value::Int(1)); // sum 8
        assert_eq!(rs.rows[0].get(1), &Value::Int(8));
        assert_eq!(rs.rows[1].get(0), &Value::Int(2)); // sum 7
    }

    #[test]
    fn arithmetic_in_aggregate() {
        let db = db();
        let rs = query("SELECT SUM(l_quantity * l_price) FROM lineitem", &db);
        assert_eq!(
            rs.rows[0].get(0),
            &Value::Float(5.0 * 10.0 + 3.0 * 20.0 + 7.0 * 30.0 + 5.0)
        );
    }

    #[test]
    fn index_scan_is_used_for_selective_range() {
        let mut db = db();
        db.table_mut("lineitem")
            .unwrap()
            .create_index("l_shipdate")
            .unwrap();
        // Day 350 of days 100..400: interpolated fraction 1/6, well
        // under the threshold, so the planner drives off the index.
        let stmt =
            parse_select("SELECT l_orderkey FROM lineitem WHERE l_shipdate > DATE '1970-12-17'")
                .unwrap();
        let (rs, stats) = execute_select(&stmt, &db).unwrap();
        assert_eq!(stats.index_scans, 1);
        assert_eq!(stats.full_scans, 0);
        // Only day 400 matches; only that row was touched.
        assert_eq!(rs.len(), 1);
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn wide_range_on_indexed_column_falls_back_to_seq_scan() {
        let mut db = db();
        db.table_mut("lineitem")
            .unwrap()
            .create_index("l_shipdate")
            .unwrap();
        // Day ~181 of days 100..400: estimated fraction ~0.73 — driving
        // the index would fetch most of the table row-by-row, so the
        // planner chooses the sequential scan despite the index.
        let stmt =
            parse_select("SELECT l_orderkey FROM lineitem WHERE l_shipdate > DATE '1970-07-01'")
                .unwrap();
        let (rs, stats) = execute_select(&stmt, &db).unwrap();
        assert_eq!(stats.index_scans, 0);
        assert_eq!(stats.full_scans, 1);
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn index_point_lookup_is_used() {
        let mut db = db();
        db.table_mut("lineitem")
            .unwrap()
            .create_index("l_shipdate")
            .unwrap();
        // 4 distinct keys: eq fraction 0.25, exactly at the threshold.
        let stmt =
            parse_select("SELECT l_orderkey FROM lineitem WHERE l_shipdate = DATE '1970-04-11'")
                .unwrap();
        let (rs, stats) = execute_select(&stmt, &db).unwrap();
        assert_eq!(stats.index_scans, 1);
        assert_eq!(rs.len(), 1);
        assert_eq!(stats.rows_scanned, 1);
    }

    /// The satellite regression: the same query must return the same
    /// byte sequence of rows with and without an index, even after
    /// deletes have perturbed per-key posting-list order through
    /// `swap_remove`.
    #[test]
    fn index_choice_never_reorders_results() {
        let build = |with_index: bool| -> Database {
            let mut db = Database::new();
            db.create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("k", ColumnType::Int),
                        ColumnDef::new("v", ColumnType::Int),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
            if with_index {
                db.table_mut("t").unwrap().create_index("k").unwrap();
            }
            // Key 1 holds three rows; keys 2..=20 one each (20 distinct
            // keys → eq fraction 0.05, range fractions small).
            let mut id = 0;
            for v in 0..3 {
                db.insert(
                    "t",
                    Row::new(vec![Value::Int(id), Value::Int(1), Value::Int(v)]),
                )
                .unwrap();
                id += 1;
            }
            for k in 2..=20 {
                db.insert(
                    "t",
                    Row::new(vec![Value::Int(id), Value::Int(k), Value::Int(100 + k)]),
                )
                .unwrap();
                id += 1;
            }
            // Deleting the first key-1 row makes the index's posting
            // list for key 1 swap the last entry into front position —
            // key order would now differ from insertion order.
            db.table_mut("t")
                .unwrap()
                .delete_by_key(&[Value::Int(0)])
                .unwrap();
            db
        };
        let indexed = build(true);
        let plain = build(false);
        for sql in [
            "SELECT v FROM t WHERE k = 1",
            "SELECT id, v FROM t WHERE k <= 2",
        ] {
            let stmt = parse_select(sql).unwrap();
            let (with_idx, si) = execute_select(&stmt, &indexed).unwrap();
            let (without, sp) = execute_select(&stmt, &plain).unwrap();
            assert_eq!(si.index_scans, 1, "{sql} should use the index");
            assert_eq!(sp.full_scans, 1);
            assert_eq!(with_idx.rows, without.rows, "{sql} row sequence differs");
        }
    }

    #[test]
    fn full_scan_without_index() {
        let db = db();
        let stmt = parse_select("SELECT l_orderkey FROM lineitem WHERE l_quantity = 7").unwrap();
        let (rs, stats) = execute_select(&stmt, &db).unwrap();
        assert_eq!(stats.full_scans, 1);
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn order_by_plain_column_non_aggregate() {
        let db = db();
        let rs = query("SELECT l_quantity FROM lineitem ORDER BY l_price DESC", &db);
        let q: Vec<i64> = rs.rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(q, vec![7, 3, 5, 1]);
    }

    #[test]
    fn cross_join_fallback() {
        let db = db();
        let rs = query("SELECT l_orderkey, o_orderkey FROM lineitem, orders", &db);
        assert_eq!(rs.len(), 12);
    }

    #[test]
    fn count_star_versus_count_column() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("t", vec![ColumnDef::new("x", ColumnType::Int)], vec![]).unwrap(),
        )
        .unwrap();
        db.insert("t", Row::new(vec![Value::Int(1)])).unwrap();
        db.insert("t", Row::new(vec![Value::Null])).unwrap();
        let rs = query("SELECT COUNT(*), COUNT(x) FROM t", &db);
        assert_eq!(rs.rows[0].get(0), &Value::Int(2));
        assert_eq!(rs.rows[0].get(1), &Value::Int(1));
    }

    fn small_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        for (a, b) in [(3, 30), (1, 10), (2, 20)] {
            db.insert("t", Row::new(vec![Value::Int(a), Value::Int(b)]))
                .unwrap();
        }
        db
    }

    /// A LIMIT far above the row count sorts what there is: the top-K
    /// heap is sized by its input, so it reserves nothing for the LIMIT.
    #[test]
    fn huge_limit_over_few_rows_returns_them_in_order() {
        let db = small_db();
        let (rs, stats) = execute_select(
            &parse_select("SELECT a FROM t ORDER BY a LIMIT 1000000000").unwrap(),
            &db,
        )
        .unwrap();
        let a: Vec<i64> = rs.rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(a, [1, 2, 3]);
        assert_eq!(
            stats.topk_short_circuits, 0,
            "3 rows never exceed the LIMIT"
        );
    }

    fn try_query(sql: &str, db: &Database) -> Result<ResultSet> {
        Ok(execute_select(&parse_select(sql).unwrap(), db)?.0)
    }

    #[test]
    fn unresolved_projection_fails_only_when_a_row_reaches_it() {
        let db = small_db();
        let rs = try_query("SELECT zzz FROM t WHERE a > 100", &db).unwrap();
        assert!(rs.is_empty());
        let err = try_query("SELECT zzz FROM t", &db).unwrap_err();
        assert_eq!(err.kind(), "plan", "{err}");
    }

    #[test]
    fn ill_typed_conjunct_fails_only_when_the_left_one_holds() {
        let db = small_db();
        let rs = try_query("SELECT a FROM t WHERE a > 100 AND b + 'x' > 1", &db).unwrap();
        assert!(rs.is_empty());
        let err = try_query("SELECT a FROM t WHERE a > 1 AND b + 'x' > 1", &db).unwrap_err();
        assert_eq!(err.kind(), "type", "{err}");
    }

    #[test]
    fn unresolved_order_key_keeps_the_assembled_order() {
        let rows: Vec<Row> = (0..6)
            .map(|i| Row::new(vec![Value::Int(5 - i), Value::Int(i)]))
            .collect();
        let mut rs = ResultSet {
            columns: vec!["a".into(), "b".into()],
            rows: rows.clone(),
        };
        let stmt = parse_select("SELECT a, b FROM t ORDER BY zzz LIMIT 3").unwrap();
        // Every key sorts as NULL, so position breaks every tie.
        assert!(apply_order_limit(&stmt, &mut rs));
        assert_eq!(rs.rows, rows[..3]);
    }

    /// What a distributed engine does with `sql`: run it without
    /// ORDER BY or LIMIT (the assembled output), then order, truncate
    /// and drop the hidden columns at the coordinator.
    fn assembled(sql: &str, db: &Database) -> (ResultSet, usize) {
        let (stmt, hidden) = expose_order_keys(parse_select(sql).unwrap());
        let unordered = SelectStmt {
            order_by: Vec::new(),
            limit: None,
            ..stmt.clone()
        };
        let (mut rs, _) = execute_select(&unordered, db).unwrap();
        apply_order_limit(&stmt, &mut rs);
        rs.drop_trailing_columns(hidden);
        (rs, hidden)
    }

    #[test]
    fn unprojected_order_keys_ride_along_as_hidden_columns() {
        let db = db();
        for (sql, want_hidden) in [
            // Unqualified and qualified unprojected keys, an expression
            // over an alias, and keys already in the output.
            (
                "SELECT l_orderkey AS k, l_quantity FROM lineitem \
                 ORDER BY l_price DESC, k, lineitem.l_shipdate, k + l_quantity LIMIT 3",
                3,
            ),
            (
                "SELECT o_status, COUNT(*) AS n FROM lineitem, orders \
                 WHERE l_orderkey = o_orderkey GROUP BY o_status ORDER BY SUM(l_price) DESC",
                1,
            ),
            (
                "SELECT l_orderkey FROM lineitem ORDER BY l_orderkey DESC",
                0,
            ),
            (
                "SELECT * FROM lineitem ORDER BY l_price * 2 DESC LIMIT 2",
                0,
            ),
        ] {
            let (got, hidden) = assembled(sql, &db);
            assert_eq!(hidden, want_hidden, "{sql}");
            assert_eq!(got, query(sql, &db), "{sql}");
        }
        // A statement with nothing to expose comes back unchanged.
        let plain = parse_select("SELECT l_orderkey AS k FROM lineitem ORDER BY k").unwrap();
        assert_eq!(expose_order_keys(plain.clone()), (plain, 0));
    }

    #[test]
    fn result_set_encoding_round_trips_and_digests() {
        let rs = ResultSet {
            columns: vec!["a".into(), "revenue".into()],
            rows: vec![
                Row::new(vec![Value::Int(1), Value::Float(2.5)]),
                Row::new(vec![Value::str("x"), Value::Null]),
            ],
        };
        let encoded = rs.encode();
        assert_eq!(ResultSet::decode(&encoded).unwrap(), rs);
        assert_eq!(rs.digest(), ResultSet::decode(&encoded).unwrap().digest());

        // Digest is sensitive to column names, row order, and values.
        let mut renamed = rs.clone();
        renamed.columns[0] = "b".into();
        assert_ne!(renamed.digest(), rs.digest());
        let mut reordered = rs.clone();
        reordered.rows.reverse();
        assert_ne!(reordered.digest(), rs.digest());

        // Hostile header: absurd column count fails before allocation.
        let mut hostile = vec![0u8; 4];
        hostile.copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ResultSet::decode(&hostile).is_err());
        for cut in 0..encoded.len() {
            assert!(ResultSet::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn result_set_encoding_layout_is_pinned_and_exactly_sized() {
        let rs = ResultSet {
            columns: vec!["a".into()],
            rows: vec![
                Row::new(vec![Value::Int(-2)]),
                Row::new(vec![Value::str("xy")]),
            ],
        };
        let encoded = rs.encode();
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            1, 0, 0, 0, 1, 0, 0, 0, b'a',                // one column, "a"
            2, 0, 0, 0,                                   // two rows
            1, 0, 1, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // [Int(-2)]
            1, 0, 3, 2, 0, 0, 0, b'x', b'y',              // [Str("xy")]
        ];
        assert_eq!(encoded, want);
        assert_eq!(encoded.capacity(), encoded.len(), "no growth slack");
    }
}
