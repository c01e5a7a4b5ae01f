//! Randomized-property tests over the core invariants, spanning crates.
//! Each test draws bounded random cases from a fixed seed (the in-tree
//! `common::rng` generator), so failures are reproducible and the suite
//! runs offline with no proptest dependency.

use bestpeer::baton::Overlay;
use bestpeer::common::rng::Rng;
use bestpeer::common::{ColumnDef, ColumnType, PeerId, Row, TableSchema, Value};
use bestpeer::sql::{execute_select, parse_select};
use bestpeer::storage::{Database, Snapshot};

// ---------------------------------------------------------------
// BATON: structural invariants survive arbitrary churn, and every
// stored item remains findable.
// ---------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    Join(u64),
    Leave(u64),
    Insert(u64, u64),
    Balance(u64),
}

fn random_churn(rng: &mut Rng) -> Vec<ChurnOp> {
    let len = rng.random_range(1..60usize);
    (0..len)
        .map(|_| match rng.random_range(0..4u32) {
            0 => ChurnOp::Join(rng.random_range(0..64u64)),
            1 => ChurnOp::Leave(rng.random_range(0..64u64)),
            2 => ChurnOp::Insert(rng.next_u64(), rng.next_u64()),
            _ => ChurnOp::Balance(rng.random_range(0..64u64)),
        })
        .collect()
}

#[test]
fn baton_invariants_hold_under_churn() {
    let mut rng = Rng::seed_from_u64(0x0B57_0001);
    for case in 0..64 {
        let ops = random_churn(&mut rng);
        let mut overlay: Overlay<u64> = Overlay::new(true);
        overlay.join(PeerId::new(1_000)).unwrap(); // anchor member
        let mut inserted: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                ChurnOp::Join(p) => {
                    let _ = overlay.join(PeerId::new(p));
                }
                ChurnOp::Leave(p) => {
                    if overlay.len() > 1 {
                        let _ = overlay.leave(PeerId::new(p));
                    }
                }
                ChurnOp::Insert(k, v) => {
                    let k = k % (u64::MAX - 1);
                    overlay.insert(k, v).unwrap();
                    inserted.push((k, v));
                }
                ChurnOp::Balance(p) => {
                    if overlay.contains(PeerId::new(p)) {
                        let _ = overlay.balance_with_adjacent(PeerId::new(p), 1.5);
                    }
                }
            }
            overlay.validate().unwrap();
        }
        // No item is ever lost, whatever the membership history was.
        assert_eq!(overlay.total_items(), inserted.len() as u64, "case {case}");
        for (k, v) in inserted {
            let (values, _) = overlay.search_exact(k).unwrap();
            assert!(values.contains(&v), "case {case}: lost item {k}");
        }
    }
}

// -----------------------------------------------------------
// Snapshot differential: applying the diff of (old, new) onto a
// multiset equal to `old` always yields `new`.
// -----------------------------------------------------------

#[test]
fn snapshot_diff_transforms_old_into_new() {
    let mut rng = Rng::seed_from_u64(0x0B57_0002);
    let random_rows = |rng: &mut Rng| -> Vec<Row> {
        let len = rng.random_range(0..40usize);
        (0..len)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.random_range(0..50i64)),
                    Value::Int(rng.random_range(0..1000i64)),
                ])
            })
            .collect()
    };
    for case in 0..64 {
        let old_rows = random_rows(&mut rng);
        let new_rows = random_rows(&mut rng);
        let diff = Snapshot::build(old_rows.clone()).diff(&Snapshot::build(new_rows.clone()));
        // Apply to a multiset.
        let mut state = old_rows.clone();
        for d in &diff.deletes {
            let pos = state.iter().position(|r| r == d);
            assert!(pos.is_some(), "case {case}: delete of a row not in old");
            state.swap_remove(pos.unwrap());
        }
        state.extend(diff.inserts.iter().cloned());
        let mut want = new_rows;
        state.sort();
        want.sort();
        assert_eq!(state, want, "case {case}");
    }
}

// -----------------------------------------------------------
// Distributed aggregation: partial + combine over any partitioning
// equals centralized evaluation.
// -----------------------------------------------------------

#[test]
fn partial_aggregation_is_partition_invariant() {
    let mut rng = Rng::seed_from_u64(0x0B57_0003);
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Int),
        ],
        vec![],
    )
    .unwrap();
    let stmt = parse_select(
        "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k",
    )
    .unwrap();
    let dist = bestpeer::sql::split_aggregate(&stmt).unwrap();
    for case in 0..48 {
        let len = rng.random_range(0..60usize);
        let rows: Vec<(i64, i64)> = (0..len)
            .map(|_| (rng.random_range(0..8i64), rng.random_range(-100..100i64)))
            .collect();
        let cut = rng.random_range(0..60usize).min(rows.len());

        let mut partial_rows = Vec::new();
        for part in [&rows[..cut], &rows[cut..]] {
            let mut db = Database::new();
            db.create_table(schema.clone()).unwrap();
            for (k, v) in part {
                db.insert("t", Row::new(vec![Value::Int(*k), Value::Int(*v)]))
                    .unwrap();
            }
            let (rs, _) = execute_select(&dist.partial, &db).unwrap();
            partial_rows.extend(rs.rows);
        }
        let mut distributed = dist.combine.apply(&partial_rows).unwrap();

        let mut db = Database::new();
        db.create_table(schema.clone()).unwrap();
        for (k, v) in &rows {
            db.insert("t", Row::new(vec![Value::Int(*k), Value::Int(*v)]))
                .unwrap();
        }
        let (mut central, _) = execute_select(&stmt, &db).unwrap();
        distributed.rows.sort();
        central.rows.sort();
        assert_eq!(distributed.rows, central.rows, "case {case}");
    }
}

// -----------------------------------------------------------
// Wire codec: any row batch survives the round trip.
// -----------------------------------------------------------

#[test]
fn codec_round_trips_any_batch() {
    let mut rng = Rng::seed_from_u64(0x0B57_0004);
    let random_value = |rng: &mut Rng| match rng.random_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => {
            // Any non-NaN bit pattern (NaN breaks the total order the
            // comparison relies on).
            let mut f = f64::from_bits(rng.next_u64());
            if f.is_nan() {
                f = 0.0;
            }
            Value::Float(f)
        }
        3 => Value::Date(rng.next_u64() as i32),
        _ => {
            let len = rng.random_range(0..20usize);
            let alphabet: Vec<char> = ('a'..='z')
                .chain('A'..='Z')
                .chain('0'..='9')
                .chain([' '])
                .collect();
            Value::Str(
                (0..len)
                    .map(|_| alphabet[rng.random_range(0..alphabet.len())])
                    .collect(),
            )
        }
    };
    for case in 0..64 {
        let n_rows = rng.random_range(0..20usize);
        let rows: Vec<Row> = (0..n_rows)
            .map(|_| {
                let arity = rng.random_range(0..6usize);
                Row::new((0..arity).map(|_| random_value(&mut rng)).collect())
            })
            .collect();
        let encoded = bestpeer::common::codec::encode_batch(&rows);
        assert_eq!(
            encoded.len() as u64,
            bestpeer::common::codec::batch_encoded_size(&rows),
            "case {case}"
        );
        let decoded = bestpeer::common::codec::decode_batch(&encoded).unwrap();
        assert_eq!(decoded, rows, "case {case}");
    }
}
