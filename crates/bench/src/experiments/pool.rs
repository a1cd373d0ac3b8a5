//! Experiment E19: inline vs pooled serving of the same batch.
//!
//! Every batch runs the same route → pin → run → merge routine; the two
//! serving paths differ only in who runs the per-shard jobs. Inline
//! ([`QueryBatch::execute`]) the caller's thread runs them one after
//! another. The pooled executor ([`pitract_engine::PooledExecutor`])
//! spawns its workers once per serving session and feeds them the jobs
//! over a channel, so a batch's shards are answered in parallel. This
//! experiment runs the same mixed batch both ways across 1/2/4/8
//! shards, verifies every answer against the scan oracle, and reports
//! the throughput side by side.
//!
//! The same sweep backs the `pool` bench target, which serializes the
//! curve to `BENCH_pool.json` next to the other perf artifacts.

use crate::table::{fmt_u64, Table};
use pitract_engine::batch::QueryBatch;
use pitract_engine::shard::{ShardBy, ShardedRelation};
use pitract_engine::PooledExecutor;
use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
use std::sync::Arc;
use std::time::Instant;

/// Queries per batch in the sweep workload (also serialized into the
/// `BENCH_pool.json` perf artifact).
pub const POOL_BATCH_QUERIES: i64 = 512;

/// One measured point of the executor comparison.
#[derive(Debug, Clone)]
pub struct PoolSample {
    /// Shard count S.
    pub shards: usize,
    /// Workers the pooled executor sized itself to for this S.
    pub workers: usize,
    /// Best wall-clock seconds for one batch served inline.
    pub inline_seconds: f64,
    /// Queries per second served inline.
    pub inline_qps: f64,
    /// Best wall-clock seconds for one batch on the pooled executor.
    pub pooled_seconds: f64,
    /// Queries per second on the pooled executor.
    pub pooled_qps: f64,
}

fn workload(n: i64) -> (Relation, QueryBatch) {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 64))])
        .collect();
    let rel = Relation::from_rows(schema, rows).expect("valid rows");
    let batch = QueryBatch::new((0..POOL_BATCH_QUERIES).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 997) % (n + n / 8)),
        1 => {
            let lo = (k * 641) % n;
            SelectionQuery::range_closed(0, lo, lo + 200)
        }
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 64).as_str()),
            SelectionQuery::range_closed(0, (k * 331) % n, (k * 331) % n + 2_000),
        ),
        _ => SelectionQuery::point(0, n + k),
    }));
    (rel, batch)
}

/// Run the executor comparison on an `n`-row relation with `reps` timed
/// repetitions per shard count (best-of), verifying every batch —
/// inline and pooled — against the scan oracle. Shared by E19 and the
/// `pool` bench target.
pub fn pool_scaling_sweep(n: i64, shard_counts: &[usize], reps: usize) -> Vec<PoolSample> {
    let (rel, batch) = workload(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
    shard_counts
        .iter()
        .map(|&shards| {
            let sharded = Arc::new(
                ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, shards, &[0, 1])
                    .expect("valid sharding spec"),
            );
            let mut inline_seconds = f64::MAX;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let result = batch.execute(&sharded).expect("valid batch");
                inline_seconds = inline_seconds.min(t0.elapsed().as_secs_f64());
                assert_eq!(result.answers, oracle, "inline S={shards} diverged");
            }

            let exec = PooledExecutor::with_default_pool(Arc::clone(&sharded));
            let workers = exec.pool().workers();
            // One warm-up batch so worker spin-up (paid once per serving
            // session, which is the point) isn't billed to the sample.
            let warm = exec.execute(&batch).expect("valid batch");
            assert_eq!(warm.answers, oracle, "pooled warm-up S={shards} diverged");
            let mut pooled_seconds = f64::MAX;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let result = exec.execute(&batch).expect("valid batch");
                pooled_seconds = pooled_seconds.min(t0.elapsed().as_secs_f64());
                assert_eq!(result.answers, oracle, "pooled S={shards} diverged");
            }

            PoolSample {
                shards,
                workers,
                inline_seconds,
                inline_qps: batch.len() as f64 / inline_seconds,
                pooled_seconds,
                pooled_qps: batch.len() as f64 / pooled_seconds,
            }
        })
        .collect()
}

/// E19 — inline vs pooled serving: throughput across 1/2/4/8 shards.
pub fn run_e19() -> Table {
    let samples = pool_scaling_sweep(1 << 16, &[1, 2, 4, 8], 3);
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                fmt_u64(s.shards as u64),
                fmt_u64(s.workers as u64),
                fmt_u64(s.inline_qps as u64),
                fmt_u64(s.pooled_qps as u64),
                format!("{:.2}x", s.pooled_qps / s.inline_qps),
            ]
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let best = samples
        .iter()
        .max_by(|a, b| a.pooled_qps.total_cmp(&b.pooled_qps))
        .expect("non-empty sweep");
    Table {
        id: "E19",
        title: "persistent worker pool vs inline serving (engine)",
        paper_claim: "NC serving is a session, not a query: spawn workers once, stream batches",
        headers: [
            "shards",
            "workers",
            "inline q/s",
            "pooled q/s",
            "pooled/inline",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        verdict: format!(
            "pooled executor peaks at S={} ({} q/s) on {cores} core(s); every batch on both \
             paths verified against the scan oracle",
            best.shards, best.pooled_qps as u64
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_both_executors_at_every_shard_count() {
        // Tiny size: the debug-mode smoke run only checks the plumbing.
        let samples = pool_scaling_sweep(2_000, &[1, 2, 4], 1);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.inline_qps > 0.0);
            assert!(s.pooled_qps > 0.0);
            assert!(s.workers >= 1 && s.workers <= s.shards);
        }
    }

    #[test]
    fn e19_runs_and_renders() {
        let t = run_e19();
        let s = t.render();
        assert!(s.contains("E19"));
        assert_eq!(t.rows.len(), 4);
    }
}
