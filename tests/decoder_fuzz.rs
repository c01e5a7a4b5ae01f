//! Seeded mutation fuzz over every decoder that reads bytes from a
//! socket or a log: row batches, `ResultSet`, `Role`, index entry sets,
//! `Request`, `Response`, `WalOp` and `CheckpointImage`.
//!
//! Every mutation of a valid encoding — each truncation, bit flips,
//! inflated counts and lengths, spliced runs — is handed to every
//! decoder. Each decode must return a value or an `Err`, never panic or
//! abort, and its peak allocation must stay under 64 bytes per input
//! byte plus 4 KiB: a count read from the input never sizes more memory
//! than the input could fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bestpeer::common::codec;
use bestpeer::common::rng::Rng;
use bestpeer::common::{
    stable_hash_bytes, ColumnDef, ColumnType, PeerId, Result, Row, TableSchema, Value,
};
use bestpeer::core::indexer::{
    self, ColumnIndexEntry, IndexEntry, RangeIndexEntry, TableIndexEntry,
};
use bestpeer::core::{AccessRule, Role};
use bestpeer::sql::ResultSet;
use bestpeer::storage::wal::{CheckpointImage, TableImage};
use bestpeer::storage::WalOp;
use bestpeer::transport::{Request, Response};

/// The system allocator, counting live bytes and their peak. This file
/// holds a single test, so no other test thread allocates while a
/// decode is measured.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller, who upholds `alloc`'s
        // contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

type Decoder = fn(&[u8]) -> Result<()>;

/// Every decoder under test. The checkpoint's input is an image body:
/// it is sealed with a fresh checksum first, so that mutations reach
/// the body instead of failing the checksum.
const DECODERS: [(&str, Decoder); 8] = [
    ("batch", |b| codec::decode_batch(b).map(drop)),
    ("result set", |b| ResultSet::decode(b).map(drop)),
    ("role", |b| Role::decode(b).map(drop)),
    ("entries", |b| indexer::decode_entries(b).map(drop)),
    ("request", |b| Request::decode(b).map(drop)),
    ("response", |b| Response::decode(b).map(drop)),
    ("wal op", |b| WalOp::decode(b).map(drop)),
    ("checkpoint", |b| {
        CheckpointImage::decode(&seal(b)).map(drop)
    }),
];

fn seal(body: &[u8]) -> Vec<u8> {
    let mut image = body.to_vec();
    image.extend_from_slice(&stable_hash_bytes(body).to_le_bytes());
    image
}

fn rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::str(format!("row-{i}")),
                Value::Float(i as f64 * 0.5),
                Value::Date(10_000 + i as i32),
                Value::Null,
            ])
        })
        .collect()
}

fn schema(name: &str) -> TableSchema {
    let columns = vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::new("name", ColumnType::Str),
        ColumnDef::new("price", ColumnType::Float),
        ColumnDef::new("day", ColumnType::Date),
        ColumnDef::new("note", ColumnType::Str),
    ];
    TableSchema::new(name, columns, vec![0, 3]).unwrap()
}

/// Valid encodings, each with the index of its own decoder.
fn corpus() -> Vec<(usize, Vec<u8>)> {
    let role = Role {
        name: "analyst".into(),
        rules: vec![
            AccessRule::read("lineitem", "l_quantity").with_range(Value::Int(1), Value::Int(30)),
            AccessRule::read("orders", "o_comment").read_write(),
            AccessRule::read("nation", "n_name").with_range(Value::str("A"), Value::str("M")),
        ],
    };
    let entries = vec![
        (
            11,
            IndexEntry::Table(TableIndexEntry {
                table: "lineitem".into(),
                peer: PeerId::new(3),
            }),
        ),
        (
            12,
            IndexEntry::Column(ColumnIndexEntry {
                column: "l_quantity".into(),
                peer: PeerId::new(3),
                tables: vec!["lineitem".into(), "partsupp".into()],
            }),
        ),
        (
            13,
            IndexEntry::Range(RangeIndexEntry {
                table: "orders".into(),
                column: "o_orderdate".into(),
                min: Value::Date(8_000),
                max: Value::Date(10_500),
                peer: PeerId::new(4),
            }),
        ),
    ];
    let checkpoint = CheckpointImage {
        last_lsn: 42,
        load_timestamp: 7,
        tables: vec![
            TableImage {
                schema: schema("parts"),
                indexed: vec!["name".into(), "price".into()],
                rows: rows(4),
            },
            TableImage {
                schema: schema("stock"),
                indexed: Vec::new(),
                rows: rows(2),
            },
        ],
    }
    .encode();
    let wal_ops = [
        WalOp::CreateTable(schema("parts")),
        WalOp::Insert {
            table: "parts".into(),
            row: rows(1).remove(0),
        },
        WalOp::DeleteByKey {
            table: "parts".into(),
            key: vec![Value::Int(7), Value::Date(10_007)],
        },
        WalOp::CreateIndex {
            table: "parts".into(),
            column: "price".into(),
        },
    ];
    let requests = [
        Request::Subquery {
            sql: "SELECT a FROM t".into(),
            role: vec![0; 16],
            query_ts: 1,
        },
        Request::AddRemote {
            peer: 7,
            addr: "127.0.0.1:9000".into(),
            load_ts: 10,
            entries: indexer::encode_entries(&entries),
        },
        Request::Load {
            table: "parts".into(),
            timestamp: 5,
            rows: rows(3),
        },
    ];
    let responses = [
        Response::Rows {
            columns: vec!["a".into()],
            rows: vec![
                Row::new(vec![Value::Int(1), Value::str("alpha")]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
            stats: vec![("rows_output".into(), 2)],
        },
        Response::Stats {
            load_ts: 9,
            tables: vec![("nation".into(), 25, 3200), ("region".into(), 5, 400)],
        },
        Response::Inventory {
            peer: 3,
            load_ts: 9,
            entries: vec![1, 2, 3],
        },
        Response::Err {
            kind: "unavailable".into(),
            message: "peer 3 is down".into(),
        },
    ];
    let result = ResultSet {
        columns: vec![
            "id".into(),
            "name".into(),
            "price".into(),
            "day".into(),
            "note".into(),
        ],
        rows: rows(6),
    };
    let mut corpus = vec![
        (0, codec::encode_batch(&rows(20))),
        (1, result.encode()),
        (2, role.encode()),
        (3, indexer::encode_entries(&entries)),
        (7, checkpoint[..checkpoint.len() - 8].to_vec()),
    ];
    corpus.extend(requests.iter().map(|r| (4, r.encode())));
    corpus.extend(responses.iter().map(|r| (5, r.encode())));
    corpus.extend(wal_ops.iter().map(|op| (6, op.encode())));
    corpus
}

/// One random mutation of `input`: bit flips (in a random prefix, half
/// the time), an inflated little-endian count or length at a random
/// offset, or a run spliced in from `donor`.
fn mutate(rng: &mut Rng, input: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    match rng.random_range(0..5u32) {
        0 => {
            if rng.random_bool(0.5) {
                out.truncate(rng.random_range(1..=out.len()));
            }
            for _ in 0..rng.random_range(1..4usize) {
                let pos = rng.random_range(0..out.len());
                out[pos] ^= 1 << rng.random_range(0..8u32);
            }
        }
        kind @ 1..=3 => {
            let patch: &[u8] = match kind {
                1 => &[0xFF, 0xFF],
                2 => &[0xFF, 0xFF, 0xFF, 0x7F],
                _ => &[0xFF, 0xFF, 0xFF, 0xFF],
            };
            let pos = rng.random_range(0..=out.len().saturating_sub(patch.len()));
            let end = (pos + patch.len()).min(out.len());
            out[pos..end].copy_from_slice(&patch[..end - pos]);
        }
        _ => {
            let from = rng.random_range(0..donor.len());
            let run = &donor[from..rng.random_range(from..=donor.len())];
            let at = rng.random_range(0..=out.len());
            let cut = rng.random_range(at..=out.len().min(at + run.len() + 4));
            out.splice(at..cut, run.iter().copied());
        }
    }
    out
}

/// Hand `input` to every decoder: a frame's bytes say nothing
/// trustworthy about their format. Each decode must return, within its
/// allocation bound. Returns how many decoders accepted the input.
fn decode_everywhere(input: &[u8]) -> usize {
    let bound = 64 * input.len() + 4096;
    let mut accepted = 0;
    for (name, decoder) in &DECODERS {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        accepted += usize::from(decoder(input).is_ok());
        let peak = PEAK.load(Relaxed).saturating_sub(base);
        assert!(
            peak <= bound,
            "{name} allocated {peak} bytes at its peak for a {}-byte input \
             (bound {bound}): {input:02x?}",
            input.len()
        );
    }
    accepted
}

#[test]
fn every_decoder_survives_every_mutation_within_its_allocation_bound() {
    let corpus = corpus();
    let mut rng = Rng::seed_from_u64(0xDEC0_DE5F);
    let mut accepted = 0;
    for (own, encoding) in &corpus {
        let (name, decoder) = DECODERS[*own];
        assert!(
            decoder(encoding).is_ok(),
            "{name}: the valid encoding decodes"
        );
        for cut in 0..encoding.len() {
            assert!(
                decoder(&encoding[..cut]).is_err(),
                "{name}: cut at {cut} decodes"
            );
            decode_everywhere(&encoding[..cut]);
        }
        for _ in 0..2_000 {
            let donor = &corpus[rng.random_range(0..corpus.len())].1;
            accepted += decode_everywhere(&mutate(&mut rng, encoding, donor));
        }
    }
    assert!(accepted > 0, "some mutations still decode");
}
