//! The pooled executor's perf artifact: one measurement path.
//!
//! Every run (including the CI `--test` smoke) measures the E19 sweep —
//! shard count → inline-vs-pooled throughput on one workload — and
//! serializes it to `BENCH_pool.json` (default `BENCH_pool.json` in the
//! repository root; override with the `BENCH_POOL_JSON` env var), next
//! to the engine/store/live/wal artifacts, so future PRs can diff what
//! running a batch's shard jobs in parallel on a standing pool buys
//! over running them inline.

use criterion::{criterion_group, criterion_main, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{pool_scaling_sweep, PoolSample, POOL_BATCH_QUERIES};

const ROWS: i64 = 1 << 16;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Measure the inline-vs-pooled sweep once and write the JSON artifact.
fn emit_bench_pool_json(c: &mut Criterion) {
    // Best-of-3 per executor per shard count: cheap enough for the
    // `--test` smoke, stable enough that the scaling curve isn't one
    // scheduler hiccup.
    let samples = pool_scaling_sweep(ROWS, &SHARD_COUNTS, 3);
    let path = std::env::var("BENCH_POOL_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_pool.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e19_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[PoolSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("shards", s.shards)
                .set("workers", s.workers)
                .set("inline_seconds", rounded(s.inline_seconds, 6))
                .set("inline_qps", rounded(s.inline_qps, 1))
                .set("pooled_seconds", rounded(s.pooled_seconds, 6))
                .set("pooled_qps", rounded(s.pooled_qps, 1))
        })
        .collect();
    let doc = experiment("pooled-executor-throughput")
        .set("rows", ROWS)
        .set("batch_queries", POOL_BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, emit_bench_pool_json);
criterion_main!(benches);
