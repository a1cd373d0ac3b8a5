//! The sharded batch engine's perf artifact: one measurement path.
//!
//! Every run (including the CI `--test` smoke) measures the E15 sweep
//! and serializes its shard-count → batch-throughput curve to
//! `BENCH_engine.json` (default `BENCH_engine.json` in the
//! repository root; override with the `BENCH_ENGINE_JSON` env var), so
//! future PRs have a perf trajectory to diff against.

use criterion::{criterion_group, criterion_main, Criterion};
use pitract_bench::artifact::{available_parallelism, experiment, rounded, write_artifact};
use pitract_bench::experiments::{shard_throughput_sweep, ShardSample, BATCH_QUERIES};

const ROWS: i64 = 1 << 16;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Measure the sweep once and write the JSON artifact.
fn emit_bench_engine_json(c: &mut Criterion) {
    // Keep the artifact fast to produce in `--test` smoke mode: one timed
    // repetition per shard count.
    let samples = shard_throughput_sweep(ROWS, &SHARD_COUNTS, 1);
    let path = std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    match write_json(&path, &samples) {
        Ok(()) => println!("BENCH_engine.json written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    // Keep the shim's "ran at least one benchmark" accounting honest.
    c.bench_function("e15_emit_json", |b| b.iter(|| samples.len()));
}

fn write_json(path: &str, samples: &[ShardSample]) -> std::io::Result<()> {
    let results: Vec<_> = samples
        .iter()
        .map(|s| {
            pitract_obs::Json::obj()
                .set("shards", s.shards)
                .set("batch_seconds", rounded(s.batch_seconds, 6))
                .set("queries_per_second", rounded(s.queries_per_second, 1))
                .set("total_steps", s.total_steps)
        })
        .collect();
    let doc = experiment("sharded-batch-throughput")
        .set("rows", ROWS)
        .set("batch_queries", BATCH_QUERIES)
        .set("available_parallelism", available_parallelism())
        .set("results", results);
    write_artifact(path, &doc)
}

criterion_group!(benches, emit_bench_engine_json);
criterion_main!(benches);
