//! The submitter's join-and-aggregate stage over fetched parts.
//!
//! The fetch-and-process engine (§5.2) and the parallel P2P engine
//! (§5.3) both finish a query over the parts of a [`Decomposition`]:
//! each base table's rows, already filtered and pruned by its owners
//! and fetched owner by owner. [`JoinStage`] joins them where they
//! landed. Each part's fetched rows stay in one vector, and a joined
//! tuple is one `u32` row index per part joined so far, held in a flat
//! vector with that stride. A join level hashes the running tuples on
//! its left key once and probes every fetched batch of the next part
//! against that one table, with the batches fanned out on pool workers
//! once they hold more than `FAN_OUT_ROWS` rows.
//! Residual predicates are checked per candidate pair through
//! [`Columns`], and aggregation and the output projection read tuples
//! the same way, so no joined row is ever built: only output rows are.
//!
//! **Charged bytes.** The engines charge joined tuples as if they were
//! shipped as rows. A tuple's size is the sum of its rows'
//! [`codec::row_encoded_size`] minus 2 per extra part (one arity
//! prefix per row), which is exactly the encoded size of the
//! concatenated row. A right row is sized only when it joins.
//!
//! **Row order.** Batches come out in input order, a batch's right rows
//! in their order, and each right row's matches in intermediate order
//! (a cross join is left-major within each batch): the order of a hash
//! join of the whole intermediate against each owner's partition, the
//! replicated join of §5.3, so ParallelP2P's answers keep that order.

use std::collections::HashMap;

use bestpeer_common::{codec, pool, stable_hash, Result, Row, Value};

use crate::ast::Expr;
use crate::decompose::Decomposition;
use crate::exec::aggregate_rows;
use crate::plan::{AggItem, Columns, OutputStage, ResolvedExpr};

/// The end of a hash chain.
const END: u32 = u32::MAX;

/// Rows above which [`fan_out`] runs its items on pool workers. Below
/// it, spawning the workers costs more than the work: a 2-worker call
/// took ≈75 µs on a 2-core VM.
const FAN_OUT_ROWS: usize = 4096;

/// Fetched parts joined in place; see the [module docs](self).
#[derive(Debug)]
pub struct JoinStage<'d> {
    decomp: &'d Decomposition,
    /// Each joined part's fetched rows, in join order: slot 0 holds
    /// `decomp.parts[0]`, slot `k` the part of `decomp.joins[k - 1]`.
    parts: Vec<Vec<Row>>,
    /// Where each column of the running binding lives: `(slot, column)`.
    cols: Vec<(usize, usize)>,
    /// The joined tuples, `parts.len()` row indices each (one per slot).
    tuples: Vec<u32>,
    /// Each tuple's encoded size as one concatenated row.
    sizes: Vec<u64>,
}

/// One tuple seen as a row of the running binding.
#[derive(Debug, Clone, Copy)]
struct View<'a> {
    stage: &'a JoinStage<'a>,
    /// One row index per slot.
    idx: &'a [u32],
}

impl Columns for View<'_> {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        let (slot, col) = self.stage.cols[i];
        self.stage.parts[slot][self.idx[slot] as usize].get(col)
    }
}

/// One probe task's output: the joined tuples' indices and sizes.
type Probed = Result<(Vec<u32>, Vec<u64>)>;

/// One group-by partition's output from [`JoinStage::aggregate`]: its
/// tuples' encoded batch bytes and its group rows.
pub type Partition = (u64, Vec<Row>);

impl<'d> JoinStage<'d> {
    /// An empty stage over `decomp`'s parts; [`JoinStage::push`] adds
    /// them in join order.
    pub fn new(decomp: &'d Decomposition) -> Self {
        JoinStage {
            decomp,
            parts: Vec::new(),
            cols: Vec::new(),
            tuples: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Add the next part in join order, given its fetched rows as
    /// `batches` (one per owner, in owner order). The first part's rows
    /// become the tuples; each later part joins through the next step
    /// of `decomp.joins`. Returns each batch's output as encoded batch
    /// bytes: its own rows for the first part, the tuples it joined for
    /// a later one. Fails with the first residual error, in batch order.
    pub fn push(&mut self, batches: Vec<Vec<Row>>) -> Result<Vec<u64>> {
        let slot = self.parts.len();
        let part = match slot {
            0 => 0,
            _ => self.decomp.joins[slot - 1].part,
        };
        let mut bounds = Vec::with_capacity(batches.len());
        let mut rows = Vec::with_capacity(batches.iter().map(Vec::len).sum());
        for batch in batches {
            bounds.push((rows.len(), rows.len() + batch.len()));
            rows.extend(batch);
        }
        self.parts.push(rows);
        let arity = self.decomp.parts[part].binding.arity();
        self.cols.extend((0..arity).map(|c| (slot, c)));
        if slot == 0 {
            self.sizes = self.parts[0].iter().map(codec::row_encoded_size).collect();
            self.tuples = (0..self.sizes.len() as u32).collect();
            let batch_bytes =
                |&(lo, hi): &(usize, usize)| 4 + self.sizes[lo..hi].iter().sum::<u64>();
            return Ok(bounds.iter().map(batch_bytes).collect());
        }
        let probed = self.join(slot, &bounds);
        let mut tuples = Vec::new();
        let mut sizes = Vec::new();
        let mut out = Vec::with_capacity(probed.len());
        for p in probed {
            let (idx, size) = p?;
            out.push(4 + size.iter().sum::<u64>());
            tuples.extend(idx);
            sizes.extend(size);
        }
        self.tuples = tuples;
        self.sizes = sizes;
        Ok(out)
    }

    /// Join the running tuples with the rows in `slot` through
    /// `decomp.joins[slot - 1]`: one hash table over the tuples' left
    /// key, probed by each batch of `bounds`.
    fn join(&self, slot: usize, bounds: &[(usize, usize)]) -> Vec<Probed> {
        let step = &self.decomp.joins[slot - 1];
        let residuals = ResolvedExpr::bind_all(&step.residuals, &step.out_binding);
        let right = &self.parts[slot];
        // Chains link tuples with equal keys in tuple order: built back
        // to front, each insert pushes onto its chain's head.
        let mut heads: HashMap<&Value, u32> = HashMap::new();
        let mut next = Vec::new();
        if let Some((l, _)) = step.keys {
            let (ls, lc) = self.cols[l];
            heads.reserve(self.sizes.len());
            next = vec![END; self.sizes.len()];
            for t in (0..self.sizes.len()).rev() {
                let key = self.parts[ls][self.tuples[t * slot + ls] as usize].get(lc);
                if !key.is_null() {
                    if let Some(h) = heads.insert(key, t as u32) {
                        next[t] = h;
                    }
                }
            }
        }
        fan_out(right.len(), bounds, |_, &(lo, hi)| {
            let mut emit = Emit {
                stage: self,
                slot,
                residuals: &residuals,
                cand: vec![0; slot + 1],
                idx: Vec::new(),
                sizes: Vec::new(),
            };
            match step.keys {
                Some((_, rk)) => {
                    for (r, row) in (lo..hi).zip(&right[lo..hi]) {
                        let Some(&head) = heads.get(row.get(rk)) else {
                            continue;
                        };
                        let mut right_size = None;
                        let mut t = head;
                        while t != END {
                            emit.pair(t as usize, r, &mut right_size)?;
                            t = next[t as usize];
                        }
                    }
                }
                None => {
                    for t in 0..self.sizes.len() {
                        for r in lo..hi {
                            emit.pair(t, r, &mut None)?;
                        }
                    }
                }
            }
            Ok((emit.idx, emit.sizes))
        })
    }

    /// The encoded size of the joined tuples as one batch of rows.
    pub fn bytes(&self) -> u64 {
        4 + self.sizes.iter().sum::<u64>()
    }

    /// Every tuple, in order, as a row of the running binding.
    fn views(&self) -> impl Iterator<Item = View<'_>> {
        let stride = self.parts.len().max(1);
        self.tuples
            .chunks(stride)
            .map(|idx| View { stage: self, idx })
    }

    /// Project every tuple through `out`, the output stage of a
    /// non-aggregate statement over the final binding, in tuple order.
    pub fn project(&self, out: &OutputStage) -> Result<Vec<Row>> {
        self.views().map(|v| out.project(&v)).collect()
    }

    /// Aggregate the tuples in `n` hash partitions: a tuple goes to
    /// partition `stable_hash(first group key) % n` (to partition 0
    /// without GROUP BY or with `n` = 1), and the partitions aggregate
    /// on pool workers once there are more than `FAN_OUT_ROWS` tuples.
    /// Returns per partition its tuples' encoded batch bytes and its
    /// group rows, or `None` when it outputs nothing: an empty partition
    /// of a grouped aggregate, or an empty one other than partition 0
    /// of a global aggregate, which outputs its one row over no tuples.
    pub fn aggregate(
        &self,
        group: &[Expr],
        aggs: &[AggItem],
        n: usize,
    ) -> Result<Vec<Option<Partition>>> {
        let binding = self.decomp.final_binding();
        let n = n.max(1);
        let mut partitions: Vec<(u64, Vec<View<'_>>)> = vec![(4, Vec::new()); n];
        let first_key = group
            .first()
            .filter(|_| n > 1)
            .map(|g| ResolvedExpr::bind(g, binding));
        for (view, size) in self.views().zip(&self.sizes) {
            let slot = match &first_key {
                Some(g) => (stable_hash(&*g.value(&view)?) % n as u64) as usize,
                None => 0,
            };
            partitions[slot].0 += size;
            partitions[slot].1.push(view);
        }
        fan_out(self.sizes.len(), &partitions, |slot, (bytes, views)| {
            if views.is_empty() && (!group.is_empty() || slot != 0) {
                return Ok(None);
            }
            Ok(Some((*bytes, aggregate_rows(views, binding, group, aggs)?)))
        })
        .into_iter()
        .collect()
    }
}

/// `pool::run_tasks` over `items` when they hold more than
/// [`FAN_OUT_ROWS`] rows; inline otherwise. Results come back in item
/// order either way.
fn fan_out<T: Sync, R: Send>(
    rows: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    if rows > FAN_OUT_ROWS {
        pool::run_tasks(items, f)
    } else {
        items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
    }
}

/// One probe task's state: candidate pairs in, joined tuples out.
struct Emit<'a, 'd> {
    stage: &'a JoinStage<'d>,
    /// The slot being joined in: the stride of the running tuples.
    slot: usize,
    residuals: &'a [ResolvedExpr],
    /// The candidate tuple's indices, for residual checks.
    cand: Vec<u32>,
    idx: Vec<u32>,
    sizes: Vec<u64>,
}

impl Emit<'_, '_> {
    /// Emit tuple `t` joined with right row `r` if every residual holds.
    /// `right_size` caches `r`'s encoded size across its matches.
    fn pair(&mut self, t: usize, r: usize, right_size: &mut Option<u64>) -> Result<()> {
        let st = self.stage;
        let left = &st.tuples[t * self.slot..(t + 1) * self.slot];
        if !self.residuals.is_empty() {
            self.cand[..self.slot].copy_from_slice(left);
            self.cand[self.slot] = r as u32;
            let view = View {
                stage: st,
                idx: &self.cand,
            };
            for p in self.residuals {
                if !p.holds(&view)? {
                    return Ok(());
                }
            }
        }
        let size =
            *right_size.get_or_insert_with(|| codec::row_encoded_size(&st.parts[self.slot][r]));
        self.idx.extend_from_slice(left);
        self.idx.push(r as u32);
        self.sizes.push(st.sizes[t] + size - 2);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::parser::parse_select;
    use crate::plan::Binding;
    use bestpeer_common::{ColumnDef, ColumnType, TableSchema};

    fn schema(name: &str, cols: &[&str]) -> TableSchema {
        TableSchema::new(
            name,
            cols.iter()
                .map(|c| ColumnDef::new(*c, ColumnType::Int))
                .collect(),
            vec![],
        )
        .unwrap()
    }

    fn rows(vals: &[&[i64]]) -> Vec<Row> {
        vals.iter()
            .map(|r| Row::new(r.iter().map(|v| Value::Int(*v)).collect()))
            .collect()
    }

    fn ints(rows: &[Row]) -> Vec<Vec<i64>> {
        rows.iter()
            .map(|r| r.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    }

    /// The reference the stage replaces: a hash join of the whole
    /// intermediate against each batch, building every joined row.
    fn reference(left: &[Row], batch: &[Row], keys: Option<(usize, usize)>) -> Vec<Row> {
        let mut out = Vec::new();
        match keys {
            Some((lk, rk)) => {
                for r in batch {
                    for l in left {
                        if !l.get(lk).is_null() && l.get(lk) == r.get(rk) {
                            out.push(l.concat(r));
                        }
                    }
                }
            }
            None => {
                for l in left {
                    for r in batch {
                        out.push(l.concat(r));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn equi_join_keeps_per_batch_intermediate_order_and_sizes() {
        let stmt = parse_select("SELECT a, x, b, c FROM t, u WHERE a = b").unwrap();
        let d = decompose(&stmt, &[schema("t", &["a", "x"]), schema("u", &["b", "c"])]).unwrap();
        let left = rows(&[&[1, 10], &[2, 20], &[1, 30], &[3, 40]]);
        let batches = [rows(&[&[1, 100], &[3, 101]]), rows(&[&[2, 200], &[1, 201]])];
        let mut stage = JoinStage::new(&d);
        let first = stage
            .push(vec![left[..1].to_vec(), left[1..].to_vec()])
            .unwrap();
        assert_eq!(
            first,
            vec![
                codec::batch_encoded_size(&left[..1]),
                codec::batch_encoded_size(&left[1..])
            ]
        );
        let out = stage.push(batches.to_vec()).unwrap();
        let mut want = Vec::new();
        for (b, bytes) in batches.iter().zip(&out) {
            let joined = reference(&left, b, Some((0, 0)));
            assert_eq!(*bytes, codec::batch_encoded_size(&joined));
            want.extend(joined);
        }
        assert_eq!(stage.bytes(), codec::batch_encoded_size(&want));
        let star = parse_select("SELECT * FROM t, u WHERE a = b").unwrap();
        let all = OutputStage::new(&star, d.final_binding());
        assert_eq!(ints(&stage.project(&all).unwrap()), ints(&want));
    }

    #[test]
    fn cross_join_is_left_major_per_batch_and_checks_residuals() {
        let stmt = parse_select("SELECT a, b FROM t, u WHERE a < b").unwrap();
        let d = decompose(&stmt, &[schema("t", &["a"]), schema("u", &["b"])]).unwrap();
        assert!(d.joins[0].keys.is_none());
        let mut stage = JoinStage::new(&d);
        stage.push(vec![rows(&[&[1], &[5], &[2]])]).unwrap();
        stage
            .push(vec![rows(&[&[3], &[0]]), rows(&[&[6]])])
            .unwrap();
        let out = OutputStage::new(&stmt, d.final_binding());
        let got = ints(&stage.project(&out).unwrap());
        assert_eq!(got, [[1, 3], [2, 3], [1, 6], [5, 6], [2, 6]]);
    }

    #[test]
    fn null_keys_match_nothing_and_residual_errors_surface() {
        let stmt = parse_select("SELECT a FROM t, u WHERE a = b AND x + y > 0").unwrap();
        let d = decompose(&stmt, &[schema("t", &["a", "x"]), schema("u", &["b", "y"])]).unwrap();
        let null_row = Row::new(vec![Value::Null, Value::Int(1)]);
        let mut stage = JoinStage::new(&d);
        stage.push(vec![vec![null_row.clone()]]).unwrap();
        stage.push(vec![vec![null_row]]).unwrap();
        assert_eq!(stage.bytes(), 4, "NULL = NULL joins nothing");

        let mut stage = JoinStage::new(&d);
        stage.push(vec![rows(&[&[1, 1]])]).unwrap();
        let bad = Row::new(vec![Value::Int(1), Value::str("s")]);
        let err = stage.push(vec![vec![bad]]).unwrap_err();
        assert_eq!(err.kind(), "type");
    }

    #[test]
    fn aggregate_partitions_by_first_group_key() {
        let stmt = parse_select("SELECT g, SUM(v) AS s FROM t, u WHERE k = j GROUP BY g").unwrap();
        let d = decompose(&stmt, &[schema("t", &["k", "g"]), schema("u", &["j", "v"])]).unwrap();
        let mut stage = JoinStage::new(&d);
        stage
            .push(vec![rows(&[&[1, 7], &[2, 8], &[3, 7]])])
            .unwrap();
        stage
            .push(vec![rows(&[&[1, 10], &[2, 20], &[3, 30], &[3, 5]])])
            .unwrap();
        let out = OutputStage::new(&stmt, d.final_binding());
        let [Some((bytes, groups))] = &stage.aggregate(&stmt.group_by, &out.aggs, 1).unwrap()[..]
        else {
            panic!("one partition")
        };
        assert_eq!(*bytes, stage.bytes());
        assert_eq!(ints(groups), [[7, 45], [8, 20]]);
        // Partitioned: every group lands whole in one partition, and the
        // partitions' bytes sum to the tuples' bytes plus one batch
        // header per extra partition.
        let parts = stage.aggregate(&stmt.group_by, &out.aggs, 4).unwrap();
        let mut all: Vec<Vec<i64>> = Vec::new();
        let mut bytes = 0;
        for (b, g) in parts.iter().flatten() {
            bytes += b - 4;
            all.extend(ints(g));
        }
        all.sort();
        assert_eq!(all, [[7, 45], [8, 20]]);
        assert_eq!(bytes + 4, stage.bytes());
        // A global aggregate over no tuples still outputs its one row.
        let global = parse_select("SELECT COUNT(*) AS n FROM t, u WHERE k = j").unwrap();
        let mut empty = JoinStage::new(&d);
        empty.push(vec![Vec::new()]).unwrap();
        empty.push(vec![Vec::new()]).unwrap();
        let out = OutputStage::new(&global, &Binding::new());
        let parts = empty.aggregate(&[], &out.aggs, 3).unwrap();
        assert_eq!(parts.iter().flatten().count(), 1);
        assert_eq!(ints(&parts[0].as_ref().unwrap().1), [[0]]);
    }
}
