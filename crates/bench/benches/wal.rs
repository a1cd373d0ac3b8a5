//! Wall-clock benchmarks for the durable WAL tier, plus the
//! machine-readable perf artifact.
//!
//! Besides the criterion group, every run (including the CI `--test`
//! smoke) serializes two curves to `BENCH_wal.json` (default
//! `BENCH_wal.json` in the repository root, where it is committed as
//! the perf trajectory; override with the `BENCH_WAL_JSON` env var),
//! next to the engine/store/live artifacts:
//!
//! * update throughput under each durability mode (no WAL,
//!   fsync-per-record, group commit, batched group commit via
//!   `apply_batch`, OS-buffered);
//! * recovery time vs log length, raw replay vs compacted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{
    wal_recovery_sweep, wal_throughput_sweep, WalRecoverySample, WalThroughputSample, WAL_SHARDS,
    WAL_WRITERS,
};
use pitract_core::tempdir::TempDir;
use pitract_engine::{LiveRelation, ShardBy};
use pitract_relation::{ColType, Relation, Schema, Value};
use pitract_store::SnapshotCatalog;
use pitract_wal::{DurableLiveRelation, SyncPolicy, WalConfig};
use std::hint::black_box;

const ROWS: i64 = 4_000;
const PER_WRITER: i64 = 150;
const RECOVERY_LENS: [usize; 2] = [600, 2_400];

/// Criterion group: the append path itself — one insert+delete cycle on
/// a group-commit node (fsync cost shows up in the measured commit).
fn bench_wal_update(c: &mut Criterion) {
    let root = TempDir::new("walbench");
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 32))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, WAL_SHARDS, &[0, 1])
        .expect("valid sharding spec");
    let node = DurableLiveRelation::create(
        live,
        &catalog,
        "bench",
        root.join("wal"),
        WalConfig {
            sync: SyncPolicy::GroupCommit,
            ..WalConfig::default()
        },
    )
    .expect("fresh durable node");

    let mut group = c.benchmark_group("e18_wal_update");
    let mut key = ROWS;
    group.bench_with_input(BenchmarkId::new("durable_insert_delete", 0), &0, |b, _| {
        b.iter(|| {
            key += 1;
            let gid = black_box(&node)
                .insert(vec![Value::Int(key), Value::str("hot")])
                .unwrap();
            node.delete(gid).unwrap().unwrap();
            gid
        })
    });
    group.finish();
    drop(node);
}

/// Measure both sweeps once and write the JSON artifact.
fn emit_bench_wal_json(c: &mut Criterion) {
    let throughput = wal_throughput_sweep(ROWS, PER_WRITER);
    let recovery = wal_recovery_sweep(ROWS, &RECOVERY_LENS, 1);
    let path = std::env::var("BENCH_WAL_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json").to_string()
    });
    match write_json(&path, &throughput, &recovery) {
        Ok(()) => println!("BENCH_wal.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e18_emit_json", |b| b.iter(|| throughput.len()));
}

fn write_json(
    path: &str,
    throughput: &[WalThroughputSample],
    recovery: &[WalRecoverySample],
) -> std::io::Result<()> {
    let throughput: Vec<_> = throughput
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("mode", s.mode)
                .set("updates", s.updates)
                .set("seconds", rounded(s.seconds, 6))
                .set("updates_per_second", rounded(s.updates_per_second, 1))
        })
        .collect();
    let recovery: Vec<_> = recovery
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("log_len", s.log_len)
                .set("raw_replayed", s.raw_replayed)
                .set("raw_seconds", rounded(s.raw_seconds, 6))
                .set("compacted_replayed", s.compacted_replayed)
                .set("compacted_seconds", rounded(s.compacted_seconds, 6))
        })
        .collect();
    let doc = experiment("wal-durability")
        .set("rows", ROWS)
        .set("shards", WAL_SHARDS)
        .set("writers", WAL_WRITERS)
        .set("available_parallelism", available_parallelism())
        .set("throughput", throughput)
        .set("recovery", recovery);
    write_artifact(path, &doc)
}

criterion_group!(benches, bench_wal_update, emit_bench_wal_json);
criterion_main!(benches);
