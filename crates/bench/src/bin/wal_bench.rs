//! Write-ahead-log benchmark: append throughput, group-commit batching,
//! and recovery replay over a 100k-record log.
//!
//! ```text
//! wal_bench [--records N] [--out PATH]
//! ```
//!
//! Three measurements, written to `BENCH_wal.json` (default) and
//! printed to stdout:
//!
//! - **strict** — one logged insert per record with a group window of 1
//!   (fsync per commit). Throughput is computed on the in-memory
//!   device's *virtual* time ledger, so the number is deterministic and
//!   safe to gate at a tight tolerance.
//! - **grouped** — the same workload under a group window of 64.
//!   `fsync_batching_speedup` is the appends-per-fsync batching factor
//!   and `append_rows_per_sec` the virtual-time throughput.
//! - **replay** — wall-clock time to replay the full strict log into a
//!   fresh database. The binary *hard-asserts* the replayed digest
//!   matches the live database byte for byte — a throughput number for
//!   a wrong recovery is worthless.
//!
//! `scripts/bench_compare.sh` gates the `*_rows_per_sec` and
//! `*_speedup` fields against `baselines/BENCH_wal.json`.

use bestpeer_bench::Flags;
use std::time::Instant;

use bestpeer_common::schema::{ColumnDef, ColumnType, TableSchema};
use bestpeer_common::{Row, Value};
use bestpeer_storage::{Database, MemDevice, Wal};

fn schema() -> TableSchema {
    TableSchema::new(
        "events",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("payload", ColumnType::Str),
        ],
        vec![0],
    )
    .expect("static schema")
}

fn row(i: u64) -> Row {
    // ~64B payload: enough bytes that the device's per-KiB append cost
    // registers, small enough that 100k rows stay cheap to build.
    Row::new(vec![
        Value::Int(i as i64),
        Value::str(format!("evt-{i:08}-{}", "x".repeat(48))),
    ])
}

struct AppendRun {
    db: Database,
    virtual_secs: f64,
    appends: u64,
    fsyncs: u64,
}

/// Insert `records` rows through the logged path under `window`.
fn run_appends(records: u64, window: u64) -> AppendRun {
    let mut db = Database::new();
    db.attach_wal(Wal::new(Box::new(MemDevice::new()), window, u64::MAX))
        .expect("attach wal");
    db.create_table(schema()).expect("create table");
    for i in 0..records {
        db.insert("events", row(i)).expect("logged insert");
    }
    db.wal_mut().expect("wal attached").flush().expect("flush");
    let stats = db.drain_wal_stats().expect("wal attached");
    let virtual_us = db
        .wal_mut()
        .expect("wal attached")
        .device_mut()
        .as_any_mut()
        .downcast_mut::<MemDevice>()
        .expect("mem device")
        .virtual_us();
    AppendRun {
        db,
        virtual_secs: virtual_us as f64 / 1e6,
        appends: stats.appends,
        fsyncs: stats.fsyncs,
    }
}

fn main() {
    let flags = Flags::parse(&["--records", "--out"], &[]);
    let records: u64 = flags.get("--records", 100_000);
    let out = flags.get("--out", "BENCH_wal.json".to_owned());

    let mut strict = run_appends(records, 1);
    let grouped = run_appends(records, 64);
    let strict_rps = records as f64 / strict.virtual_secs;
    let grouped_rps = records as f64 / grouped.virtual_secs;
    let batching = grouped.appends as f64 / grouped.fsyncs.max(1) as f64;

    // Replay the strict run's full log (checkpoint threshold is MAX, so
    // every record is still in it) and hard-check byte fidelity.
    let live_digest = strict.db.digest();
    let started = Instant::now();
    let replay = strict
        .db
        .wal_mut()
        .expect("wal attached")
        .replay()
        .expect("replay clean log");
    let (recovered, replayed) = Database::from_replay(&replay).expect("rebuild");
    let replay_secs = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    assert_eq!(
        recovered.digest(),
        live_digest,
        "replayed database diverged from the live one"
    );
    assert_eq!(replayed, records + 1, "create_table + every insert");
    assert!(!replay.torn_tail);

    let json = format!(
        "{{\n  \"config\": {{\"records\": {records}}},\n  \
         \"strict\": {{\"append_rows_per_sec\": {strict_rps:.1}, \"virtual_secs\": {:.6}, \"fsyncs\": {}}},\n  \
         \"grouped\": {{\"append_rows_per_sec\": {grouped_rps:.1}, \"virtual_secs\": {:.6}, \"fsyncs\": {}, \"fsync_batching_speedup\": {batching:.2}}},\n  \
         \"replay\": {{\"records\": {replayed}, \"wall_secs\": {replay_secs:.6}, \"replay_rows_per_sec\": {:.1}}}\n}}\n",
        strict.virtual_secs,
        strict.fsyncs,
        grouped.virtual_secs,
        grouped.fsyncs,
        replayed as f64 / replay_secs,
    );
    print!("{json}");
    std::fs::write(&out, &json).expect("write BENCH_wal.json");
    eprintln!("wrote {out}");

    assert!(
        batching >= 8.0,
        "group window 64 must batch well beyond 8 appends per fsync, got {batching:.2}"
    );
    assert!(
        grouped_rps > strict_rps,
        "group commit must beat strict per-record fsyncs"
    );
}
