//! `ingest`: write-heavy traffic on a primary that fits in cache.
//!
//! A 65,536-row durable primary. Two closed-loop writer clients each
//! call `apply_batch` with 16 ops of insert/delete churn, each keeping a
//! bounded window of live rows, so net change stays small while history
//! grows. A round has a fixed op count, no reads, no follower and no
//! checkpoint; at its end the node is dropped and `recover` is timed,
//! then the recovered node must hold exactly the acknowledged ops. The
//! gid critical section, WAL stage/commit/fsync, the update log and the
//! boundedness accounting do all the work, with two writers contending
//! on two cores. Rounds repeat until the run's time is used, each from
//! a fresh node, so every round replays the same history and its
//! growth shows repeatably in memory, disk and recovery time.
//!
//! The read metrics of this workload come from the verification batches
//! served on the recovered node, in an open loop, after each round.

use crate::gen::Dataset;
use crate::load::{check_regions, OpenLoop, ReadStats, Server, Writer};
use crate::stack::{self, secs, CHECKPOINT};
use crate::stats::{mean, median, ratio, Metrics};
use crate::sys::{dir_bytes, TempDir};
use crate::trace::{
    begin_write, now_ns, ReconcileSummary, Span, SpanLog, TracedSink, LIVE_APPLY, WRITE_BATCH,
};
use crate::Phase;
use pitract_engine::LiveRelation;
use pitract_obs::Recorder;
use pitract_store::{Snapshot, SnapshotCatalog};
use pitract_wal::{DurableLiveRelation, WalConfig, WalWriter, WalWriterSink};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: usize = 1 << 16;
pub const WRITERS: usize = 2;
pub const WRITE_OPS: usize = 16;
/// `apply_batch` calls per writer per round: the fixed op count.
pub const BATCHES_PER_WRITER: usize = 2048;
pub const WINDOW: usize = 256;
/// Verification read batches per round, and their offered rate: about
/// a third of what one client sustains on the recovered node (a batch
/// takes about 5 ms on a 2-core box), so a slow stretch of the host does
/// not turn into an open-loop backlog. A round is one latency window, so
/// its 100 reads leave ten samples beyond the p90.
const VERIFY_READS: usize = 100;
const VERIFY_RATE: f64 = 60.0;
const MIN_ROUNDS: usize = 3;
const READ_POOL: usize = 16;
const SEGMENT_BYTES: u64 = 4 << 20;

/// The node a round writes to. Untraced it is what
/// `DurableLiveRelation::create` returns. Traced, the same stack is
/// composed from the same public parts `create` uses, with the WAL sink
/// wrapped so stage and commit are timed: a WAL writer, the bootstrap
/// checkpoint at the WAL's next LSN, and a `WalWriterSink`.
enum Node {
    Durable(DurableLiveRelation),
    Composed(LiveRelation),
}

impl Node {
    fn live(&self) -> &LiveRelation {
        match self {
            Node::Durable(d) => d,
            Node::Composed(live) => live,
        }
    }
}

fn compose(
    mut live: LiveRelation,
    catalog: &SnapshotCatalog,
    wal_dir: &Path,
    config: WalConfig,
    recorder: &Recorder,
    log: Arc<SpanLog>,
) -> Result<Node, String> {
    live.set_recorder(recorder);
    let wal =
        Arc::new(WalWriter::open_observed(wal_dir, config, recorder).map_err(|e| e.to_string())?);
    let mark = wal.next_lsn();
    let frozen = live.freeze();
    catalog
        .save(
            CHECKPOINT,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: mark,
                epoch: frozen.epoch,
            },
        )
        .map_err(|e| e.to_string())?;
    live.confirm_checkpoint(frozen.covered);
    let sink = WalWriterSink::new(Arc::clone(&wal));
    live.set_wal_sink(Some(Arc::new(TracedSink::new(Arc::new(sink), log))));
    Ok(Node::Composed(live))
}

#[derive(Default)]
struct Rounds {
    round_starts: Vec<Instant>,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    create_s: Vec<f64>,
    write_ops_s: Vec<f64>,
    recover_s: Vec<f64>,
    disk_mb: Vec<f64>,
    writers: Vec<Writer>,
    reads: ReadStats,
    mismatches: u64,
    read_late: Vec<f64>,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Phase, String> {
    let data = Dataset::generate(seed, ROWS);
    let rel = data.relation();
    let batches = data.read_batches(seed, READ_POOL);
    let config = stack::wal_config(SEGMENT_BYTES);
    let mut m = Metrics::default();
    let mut all = Rounds::default();
    let mut spans: Vec<Span> = Vec::new();
    let mut layer = LayerSums::default();

    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(started) < seconds {
        rounds += 1;
        let recorder = traced.then(Recorder::new);
        let log = Arc::new(SpanLog::default());
        let dir = TempDir::new("ingest").map_err(|e| e.to_string())?;
        let catalog =
            SnapshotCatalog::open(dir.path().join("catalog")).map_err(|e| e.to_string())?;
        let wal_dir = dir.path().join("wal");

        let t0 = Instant::now();
        all.round_starts.push(t0);
        let live = stack::build(&rel)?;
        all.build_s.push(secs(t0));
        let t1 = Instant::now();
        let node = match &recorder {
            None => Node::Durable(stack::create(
                live,
                &catalog,
                &wal_dir,
                config.clone(),
                None,
            )?),
            Some(rec) => compose(
                live,
                &catalog,
                &wal_dir,
                config.clone(),
                rec,
                Arc::clone(&log),
            )?,
        };
        all.create_s.push(secs(t1));
        all.setup_s.push(secs(t0));

        let mut writers: Vec<Writer> = (0..WRITERS)
            .map(|w| Writer::new(seed, w, WINDOW, WRITE_OPS))
            .collect();
        let t_write = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = writers
                .iter_mut()
                .enumerate()
                .map(|(w, writer)| {
                    let round = rounds;
                    let live = node.live();
                    let log: &SpanLog = &log;
                    scope.spawn(move || -> Result<(), String> {
                        for i in 0..BATCHES_PER_WRITER {
                            let req = ((round as u64) << 40) | ((w as u64 + 1) << 32) | i as u64;
                            if traced {
                                begin_write(req);
                            }
                            let start = now_ns();
                            writer.apply_next(
                                live,
                                Instant::now(),
                                traced.then_some((log, req)),
                            )?;
                            if traced {
                                log.record(req, WRITE_BATCH, None, start, now_ns());
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("writer thread panicked"))
        })?;
        let write_s = secs(t_write);
        let acked: u64 = writers.iter().map(Writer::acked_ops).sum();
        all.write_ops_s.push(acked as f64 / write_s);
        let wal_bytes = dir_bytes(&wal_dir);
        all.disk_mb
            .push((wal_bytes + dir_bytes(catalog.dir())) as f64 / 1e6);

        if let Some(rec) = &recorder {
            let live = node.live();
            layer.update_log_len.push(live.pending_log().len() as f64);
            let report = live.boundedness_report();
            layer.maintenance_records.push(report.len() as f64);
            layer.worst_ratio.push(report.worst_ratio());
            layer.slot_count.push(live.slot_count() as f64);
            let snap = rec.snapshot();
            if let Some(h) = snap.histogram("wal_fsync_micros") {
                layer.fsync_us.push(h.mean());
            }
            if let Some(h) = snap.histogram("wal_group_commit_records") {
                layer.records_per_fsync.push(h.mean());
            }
            layer
                .bytes_per_op
                .push(ratio(wal_bytes as f64, acked as f64));
        }
        drop(node);

        let recover_rec = traced.then(Recorder::new);
        let (recovered, recover_s) =
            stack::recover(&catalog, &wal_dir, config.clone(), recover_rec.as_ref())?;
        all.recover_s.push(recover_s);
        if traced {
            let replayed = recovered.recovery_summary().map_or(0, |r| r.replayed);
            layer.replayed.push(replayed as f64);
        }

        // Exactly the acknowledged ops, under their global ids.
        let live_rows: usize = writers.iter().map(|w| w.live.len()).sum();
        if recovered.len() != ROWS + live_rows {
            all.mismatches += 1;
        }
        let regions: Vec<(usize, &Writer)> = writers.iter().enumerate().collect();
        all.mismatches += check_regions(
            &regions,
            |b| recovered.execute_rows(b),
            |g| recovered.row(g),
        );
        let server = Server::start(Arc::new(recovered), None);
        // One checked batch warms the recovered node before the timed
        // reads, so their tail is the warm node's, not the first fault-in.
        all.reads.mismatches += server
            .read(&batches[0], 0, None)
            .map_or(1, |(matched, _)| u64::from(!matched));
        let mut schedule = OpenLoop::new(VERIFY_RATE);
        let far = Instant::now() + Duration::from_secs(3600);
        for k in 0..VERIFY_READS {
            let Some(due) = schedule.next_due(far) else {
                break;
            };
            let rb = &batches[k % batches.len()];
            all.reads.absorb(due, server.read(rb, 0, None));
        }
        all.read_late.extend(schedule.late_ms);
        drop(server);

        for w in &writers {
            all.mismatches += w.mismatches;
        }
        all.writers.extend(writers);
        spans.extend(log.take());
        drop(dir);
    }

    m.set("setup_s", median(&all.setup_s), "s");
    m.set("setup.build_s", median(&all.build_s), "s");
    m.set("setup.create_s", median(&all.create_s), "s");
    m.set("write_ops_s", median(&all.write_ops_s), "ops/s");
    m.set("recover_s", median(&all.recover_s), "s");
    m.set("disk_mb", median(&all.disk_mb), "MB");
    m.set("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
    // Each round is one window of the latency percentiles.
    Writer::report(&all.writers, &mut m, &all.round_starts);
    all.reads.report(&mut m, &all.round_starts);
    m.samples.insert("rounds".to_string(), rounds);
    let mut reconcile = ReconcileSummary::default();
    let mut written = Vec::new();
    if traced {
        layer.report(&spans, &mut m);
        reconcile.add(&spans, WRITE_BATCH);
        // Every round replays the same history: writing out the last
        // round's spans keeps the trace file to one round's size.
        let last = (rounds as u64) << 40;
        spans.retain(|s| s.req >> 40 == last >> 40);
        written.push(("write", spans));
    }
    Ok(Phase {
        metrics: m,
        mismatches: all.mismatches + all.reads.mismatches,
        spans: written,
        reconcile,
        read_late_ms: all.read_late,
        write_late_ms: Vec::new(),
    })
}

/// Per-round figures of the write path's layers, reported as medians
/// over rounds.
#[derive(Default)]
struct LayerSums {
    update_log_len: Vec<f64>,
    maintenance_records: Vec<f64>,
    worst_ratio: Vec<f64>,
    slot_count: Vec<f64>,
    fsync_us: Vec<f64>,
    records_per_fsync: Vec<f64>,
    bytes_per_op: Vec<f64>,
    replayed: Vec<f64>,
}

impl LayerSums {
    fn report(&self, spans: &[Span], m: &mut Metrics) {
        let of = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / 1e3)
                .collect()
        };
        m.set("wal.stage_us", mean(&of("wal.stage")), "us");
        m.set("wal.commit_us", mean(&of("wal.commit")), "us");
        // apply_batch time outside the sink: the gid critical section,
        // shard maintenance, the update log and the boundedness record.
        let apply: Vec<f64> = crate::trace::by_request(spans)
            .values()
            .filter_map(|req| {
                let root = req.iter().find(|s| s.name == LIVE_APPLY)?;
                let sink: u64 = req
                    .iter()
                    .filter(|s| s.name == "wal.stage" || s.name == "wal.commit")
                    .map(Span::ns)
                    .sum();
                Some(root.ns().saturating_sub(sink) as f64 / 1e3)
            })
            .collect();
        m.set("live.apply_us", mean(&apply), "us");
        m.set("live.update_log_len", median(&self.update_log_len), "count");
        m.set(
            "live.maintenance_records",
            median(&self.maintenance_records),
            "count",
        );
        m.set("live.slot_count", median(&self.slot_count), "count");
        m.set(
            "live.worst_maintenance_ratio",
            median(&self.worst_ratio),
            "ratio",
        );
        m.set("wal.fsync_us", median(&self.fsync_us), "us");
        m.set(
            "wal.records_per_fsync",
            median(&self.records_per_fsync),
            "count",
        );
        m.set("wal.bytes_per_op", median(&self.bytes_per_op), "B");
        m.set("wal.replayed_records", median(&self.replayed), "count");
    }
}
