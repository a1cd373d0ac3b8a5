//! Building the durable stack the workloads serve from, and the
//! per-layer figures the traced run derives from its spans.

use crate::gen::{Dataset, ReadBatch, Rng, CALIBRATION_STREAM};
use crate::load::{ReadStats, Server};
use crate::stats::{mean, ratio, Metrics};
use crate::trace::{by_request, Span, READ_BATCH};
use pitract_engine::{BatchServe, LiveRelation, ShardBy};
use pitract_obs::Recorder;
use pitract_relation::Relation;
use pitract_store::SnapshotCatalog;
use pitract_wal::{DurableLiveRelation, SyncPolicy, WalConfig};
use std::path::Path;
use std::time::Instant;

/// Shards of every primary, hash-partitioned on `id`.
pub const SHARDS: usize = 8;
/// Both columns are indexed on every shard.
pub const INDEXED: [usize; 2] = [0, 1];
/// Every workload acknowledges a write only once it is durable.
pub const SYNC: SyncPolicy = SyncPolicy::GroupCommit;
/// Name of the primary's checkpoint in its catalog.
pub const CHECKPOINT: &str = "primary";

pub fn wal_config(segment_bytes: u64) -> WalConfig {
    WalConfig {
        segment_bytes,
        sync: SYNC,
    }
}

pub fn build(rel: &Relation) -> Result<LiveRelation, String> {
    LiveRelation::build(rel, ShardBy::Hash { col: 0 }, SHARDS, &INDEXED).map_err(|e| e.to_string())
}

/// `DurableLiveRelation::create`, observed when a recorder is given.
pub fn create(
    live: LiveRelation,
    catalog: &SnapshotCatalog,
    wal_dir: &Path,
    config: WalConfig,
    recorder: Option<&Recorder>,
) -> Result<DurableLiveRelation, String> {
    match recorder {
        None => DurableLiveRelation::create(live, catalog, CHECKPOINT, wal_dir, config),
        Some(rec) => {
            DurableLiveRelation::create_observed(live, catalog, CHECKPOINT, wal_dir, config, rec)
        }
    }
    .map_err(|e| e.to_string())
}

/// `DurableLiveRelation::recover` after the node was dropped without a
/// final checkpoint, timed.
pub fn recover(
    catalog: &SnapshotCatalog,
    wal_dir: &Path,
    config: WalConfig,
    recorder: Option<&Recorder>,
) -> Result<(DurableLiveRelation, f64), String> {
    let t = Instant::now();
    let node = match recorder {
        None => DurableLiveRelation::recover(catalog, CHECKPOINT, wal_dir, config),
        Some(rec) => {
            DurableLiveRelation::recover_observed(catalog, CHECKPOINT, wal_dir, config, rec)
        }
    }
    .map_err(|e| e.to_string())?;
    Ok((node, t.elapsed().as_secs_f64()))
}

/// Recoveries per run; `recover_s` is their median. Nothing is written
/// in between, so each one replays the same checkpoint and WAL.
pub const RECOVERIES: usize = 7;

/// [`recover`] [`RECOVERIES`] times, dropping each node before the next
/// opens the WAL: the last node, and the median time.
pub fn recover_repeatedly(
    catalog: &SnapshotCatalog,
    wal_dir: &Path,
    config: &WalConfig,
) -> Result<(DurableLiveRelation, f64), String> {
    let mut times = Vec::with_capacity(RECOVERIES);
    let mut node = None;
    for _ in 0..RECOVERIES {
        drop(node.take());
        let (recovered, s) = recover(catalog, wal_dir, config.clone(), None)?;
        times.push(s);
        node = Some(recovered);
    }
    let node = node.ok_or("no recovery ran")?;
    Ok((node, crate::stats::median(&times)))
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The read path's per-layer figures from the spans of the batches a
/// traced server answered, and from their cost reports.
pub fn read_layers(spans: &[Span], reads: &ReadStats, m: &mut Metrics) {
    let mut route = Vec::new();
    let mut pin = Vec::new();
    let mut queue = Vec::new();
    let mut eval = Vec::new();
    let mut eval_max = Vec::new();
    let mut jobs = Vec::new();
    let mut merge = Vec::new();
    for req in by_request(spans).values() {
        if !req.iter().any(|s| s.name == READ_BATCH) {
            continue;
        }
        let find = |name| req.iter().find(|s| s.name == name);
        let evals: Vec<&Span> = req.iter().filter(|s| s.name == "pool.eval").collect();
        if let Some(r) = find("planner.route") {
            route.push(r.ns() as f64 / 1e3);
        }
        let (Some(p), Some(u)) = (find("mvcc.pin"), find("mvcc.unpin")) else {
            continue;
        };
        pin.push((p.ns() + u.ns()) as f64 / 1e3);
        jobs.push(evals.len() as f64);
        for e in &evals {
            queue.push(e.start.saturating_sub(p.end) as f64 / 1e3);
            eval.push(e.ns() as f64 / 1e3);
        }
        if let Some(last) = evals.iter().map(|e| e.end).max() {
            eval_max.push(evals.iter().map(|e| e.ns()).max().unwrap_or(0) as f64 / 1e3);
            merge.push(u.start.saturating_sub(last) as f64 / 1e3);
        }
    }
    m.set("planner.route_us", mean(&route), "us");
    m.set(
        "planner.shards_per_query",
        ratio(reads.shards_probed as f64, reads.queries as f64),
        "count",
    );
    for path in PATHS {
        let (steps, queries) = reads.steps.get(path).copied().unwrap_or_default();
        m.set(
            format!("relation.steps_per_query.{path}"),
            ratio(steps as f64, queries as f64),
            "count",
        );
    }
    m.set("pool.queue_wait_us", mean(&queue), "us");
    m.set("pool.eval_us", mean(&eval), "us");
    m.set("pool.eval_max_us", mean(&eval_max), "us");
    m.set("pool.jobs_per_batch", mean(&jobs), "count");
    m.set("pool.merge_us", mean(&merge), "us");
    m.set(
        "pool.admission_wait_us",
        mean(&reads.admission_wait_us),
        "us",
    );
    m.set("mvcc.pin_us", mean(&pin), "us");
}

/// The access paths the read mix exercises, in the planner's labels.
pub const PATHS: [&str; 3] = ["point-probe", "range-probe", "index-nested-loop"];

/// Nanoseconds of shard evaluation per metered step, for batches that
/// each use one access path only: the paper's cost model next to the
/// clock. `runs` pairs each calibration batch's spans with its steps.
pub fn ns_per_step(path: &str, runs: &[(Vec<Span>, u64)], m: &mut Metrics) {
    let ns: u64 = runs
        .iter()
        .flat_map(|(spans, _)| spans.iter().filter(|s| s.name == "pool.eval"))
        .map(Span::ns)
        .sum();
    let steps: u64 = runs.iter().map(|(_, s)| s).sum();
    m.set(
        format!("relation.ns_per_step.{path}"),
        ratio(ns as f64, steps as f64),
        "ns",
    );
}

/// Single-path batches per access path in the calibration.
const CALIBRATION_BATCHES: usize = 4;
/// Request ids of calibration batches start here, clear of the run's.
const CALIBRATION_REQ: u64 = 1 << 40;

/// Serve single-path batches through a traced server and report the
/// ns per step of each path. Returns the number of answer mismatches.
pub fn calibrate<R: BatchServe + 'static>(
    server: &Server<R>,
    data: &Dataset,
    seed: u64,
    m: &mut Metrics,
) -> u64 {
    let mut rng = Rng::new(seed, CALIBRATION_STREAM);
    let mut mismatches = 0;
    for (kind, path) in PATHS.iter().enumerate() {
        let batches: Vec<ReadBatch> = (0..CALIBRATION_BATCHES)
            .map(|_| data.single_path_batch(&mut rng, kind))
            .collect();
        let mut runs = Vec::new();
        for (i, rb) in batches.iter().enumerate() {
            let req = CALIBRATION_REQ + (kind * CALIBRATION_BATCHES + i) as u64;
            match server.read(rb, req, None) {
                Some((matched, report)) => {
                    mismatches += u64::from(!matched);
                    runs.push((server.spans(), report.total_steps));
                }
                None => mismatches += 1,
            }
        }
        ns_per_step(path, &runs, m);
    }
    mismatches
}
