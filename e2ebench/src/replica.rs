//! `replica`: the full stack, from the primary's WAL to a follower's
//! reads.
//!
//! A 262,144-row durable primary. One open-loop writer calls
//! `apply_batch` with 16 ops; after every fixed number of ops it runs
//! `checkpoint` and then `SegmentPublisher::compact_primary`, whose
//! retention the attached follower pins. One open-loop follower client
//! serves one batch per tick through `PooledExecutor<Follower>` at the
//! follower's applied epoch, then catches up to the primary's durable
//! frontier, so every batch reads the state of at most one tick ago. The
//! batch's latency runs from the tick's due time; the catch-up's poll
//! and mirror fsyncs are timed on their own in the traced run, and delay
//! a batch only when they overrun the tick. Poll, mirror fsync, replay,
//! checkpoint and compaction run only here, and the checkpoint stalls
//! show in the commit tail.
//!
//! Catch-up and the batch run one after the other on the one follower
//! client, so replay never lands while a follower batch is pinned: the
//! follower's MVCC rollback is zero by construction and is not reported.
//!
//! The writer is open loop at a fixed offered rate well below what it
//! sustains, so `write_ops_s` here only checks that the writer keeps up
//! with that rate; write throughput is `ingest`'s measure. The tick rate
//! is about a third of what the stack sustains in a closed loop on a
//! 2-core box, which leaves headroom for the checkpoint's CPU without
//! the open loop building a backlog. Four checkpoints land in every
//! 10-second latency window.

use crate::gen::{region_query, Dataset};
use crate::load::{check_regions, OpenLoop, ReadStats, Server, Writer};
use crate::stack::{self, secs, CHECKPOINT};
use crate::stats::{self, mean, median, ratio, Metrics};
use crate::sys::{dir_bytes, peak_rss_mb, TempDir};
use crate::trace::{now_ns, ReconcileSummary, SpanLog};
use crate::Phase;
use pitract_engine::QueryBatch;
use pitract_obs::Recorder;
use pitract_repl::{Follower, ReplError, SegmentPublisher, SubscriptionId};
use pitract_store::SnapshotCatalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: usize = 1 << 18;
/// Follower ticks (catch-up, then one batch) per second.
pub const READ_RATE: f64 = 12.0;
/// `apply_batch` calls per second offered by the writer.
pub const WRITE_RATE: f64 = 200.0;
pub const WRITE_OPS: usize = 16;
/// Ops between two checkpoint + compaction passes.
pub const CHECKPOINT_OPS: usize = 8_000;
/// Batches written after the last checkpoint, for recovery to replay.
const RECOVERY_TAIL_BATCHES: usize = 250;
pub const WINDOW: usize = 256;
const READ_POOL: usize = 32;
/// Small segments, so closed segments exist for compaction to work on.
const SEGMENT_BYTES: u64 = 256 << 10;
const TICK: &str = "read.tick";

/// What the traced catch-up saw.
#[derive(Default)]
struct Shipping {
    poll_us: Vec<f64>,
    apply_us: Vec<f64>,
    polls: u64,
    empty_polls: u64,
    records: u64,
}

/// The three calls `Follower::catch_up` makes, each timed: poll the
/// publisher, apply the shipment, advance the subscription, until a
/// poll comes back empty.
fn traced_catch_up(
    follower: &Follower,
    publisher: &SegmentPublisher,
    sub: SubscriptionId,
    log: &SpanLog,
    req: u64,
    seen: &mut Shipping,
) -> Result<(), ReplError> {
    loop {
        let from = follower.applied_lsn();
        let t = now_ns();
        let ship = publisher.poll_bytes(from, usize::MAX)?;
        let polled = now_ns();
        log.record(req, "repl.poll", Some(TICK), t, polled);
        seen.poll_us.push((polled - t) as f64 / 1e3);
        seen.polls += 1;
        if ship.is_empty() {
            seen.empty_polls += 1;
            return Ok(());
        }
        seen.records += ship.records() as u64;
        let t = now_ns();
        follower.apply_shipment(&ship)?;
        let applied = now_ns();
        log.record(req, "repl.apply", Some(TICK), t, applied);
        seen.apply_us.push((applied - t) as f64 / 1e3);
        log.time(req, "repl.advance", Some(TICK), || {
            publisher.advance(sub, ship.end());
        });
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Phase, String> {
    let data = Dataset::generate(seed, ROWS);
    let rel = data.relation();
    let batches = data.read_batches(seed, READ_POOL);
    let recorder = traced.then(Recorder::new);
    let follower_rec = traced.then(Recorder::new);
    let config = stack::wal_config(SEGMENT_BYTES);
    let mut m = Metrics::default();
    let err = |e: ReplError| e.to_string();

    // [build, create, bootstrap, whole set-up] seconds per set-up.
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut setup = || -> Result<_, String> {
        let dir = TempDir::new("replica").map_err(|e| e.to_string())?;
        let catalog =
            SnapshotCatalog::open(dir.path().join("catalog")).map_err(|e| e.to_string())?;
        let wal_dir = dir.path().join("wal");
        let t0 = Instant::now();
        let live = stack::build(&rel)?;
        times[0].push(secs(t0));
        let t1 = Instant::now();
        let primary = Arc::new(stack::create(
            live,
            &catalog,
            &wal_dir,
            config.clone(),
            recorder.as_ref(),
        )?);
        times[1].push(secs(t1));
        let t2 = Instant::now();
        let publisher = match &recorder {
            None => SegmentPublisher::new(Arc::clone(&primary)),
            Some(rec) => SegmentPublisher::new_observed(Arc::clone(&primary), rec),
        };
        let mirror = dir.path().join("mirror");
        let follower = Arc::new(
            match &follower_rec {
                None => Follower::bootstrap(&catalog, CHECKPOINT, &mirror, config.clone()),
                Some(rec) => {
                    Follower::bootstrap_observed(&catalog, CHECKPOINT, &mirror, config.clone(), rec)
                }
            }
            .map_err(err)?,
        );
        let sub = follower.attach(&publisher);
        times[2].push(secs(t2));
        let server = Server::start(Arc::clone(&follower), follower_rec.as_ref());
        times[3].push(secs(t0));
        Ok((
            dir, catalog, wal_dir, primary, publisher, follower, sub, server,
        ))
    };
    let (dir, catalog, wal_dir, primary, publisher, follower, sub, server) = setup()?;

    let mut writer = Writer::new(seed, 0, WINDOW, WRITE_OPS);
    let mut reads = ReadStats::default();
    let mut shipping = Shipping::default();
    let (mut checkpoint_ms, mut compact_ms) = (Vec::new(), Vec::new());
    let (mut records_before, mut records_after) = (0usize, 0usize);
    let mut background_failed = 0u64;
    let mut catch_up_failed = 0u64;
    let write_log = SpanLog::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (read_late, write_late, ticks) = std::thread::scope(|scope| {
        let writer = &mut writer;
        let (primary, publisher, catalog) = (&primary, &publisher, &catalog);
        let (checkpoint_ms, compact_ms) = (&mut checkpoint_ms, &mut compact_ms);
        let (records_before, records_after) = (&mut records_before, &mut records_after);
        let background_failed = &mut background_failed;
        let write_log = &write_log;
        let w = scope.spawn(move || {
            let mut schedule = OpenLoop::new(WRITE_RATE);
            let mut since_checkpoint = 0;
            let mut req = 0u64;
            while let Some(due) = schedule.next_due(deadline) {
                req += 1;
                let start = now_ns();
                writer.apply_next(primary, due, traced.then_some((write_log, req)))?;
                if traced {
                    write_log.record(req, crate::trace::WRITE_BATCH, None, start, now_ns());
                }
                since_checkpoint += WRITE_OPS;
                if since_checkpoint < CHECKPOINT_OPS {
                    continue;
                }
                since_checkpoint = 0;
                req += 1;
                let t = Instant::now();
                let saved = write_log.time(req, "wal.checkpoint", None, || {
                    primary.checkpoint(catalog, CHECKPOINT)
                });
                checkpoint_ms.push(secs(t) * 1e3);
                req += 1;
                let t = Instant::now();
                let compacted =
                    write_log.time(req, "wal.compact", None, || publisher.compact_primary());
                compact_ms.push(secs(t) * 1e3);
                match (saved, compacted) {
                    (Ok(_), Ok(report)) => {
                        *records_before += report.records_before;
                        *records_after += report.records_after;
                    }
                    _ => *background_failed += 1,
                }
            }
            Ok::<_, String>(schedule.late_ms)
        });
        let mut schedule = OpenLoop::new(READ_RATE);
        let mut req = 0u64;
        while let Some(due) = schedule.next_due(deadline) {
            req += 1;
            let tick = now_ns();
            let rb = &batches[req as usize % batches.len()];
            reads.absorb(due, server.read(rb, req, Some(TICK)));
            let caught = match &server {
                Server::Traced(exec) => traced_catch_up(
                    &follower,
                    publisher,
                    sub,
                    &exec.relation().log,
                    req,
                    &mut shipping,
                ),
                Server::Plain(_) => follower.catch_up(publisher, sub).map(|_| ()),
            };
            catch_up_failed += u64::from(caught.is_err());
            if let Server::Traced(exec) = &server {
                exec.relation().log.record(req, TICK, None, tick, now_ns());
            }
        }
        let ticks = req;
        let write_late = w.join().expect("writer thread panicked");
        write_late.map(|late| (schedule.late_ms, late, ticks))
    })?;
    let elapsed = secs(started);
    // Taken before the quiesce check, whose batch is not part of the load.
    let read_spans = server.spans();

    // Quiesce: the follower, caught up, must be bit-identical to the
    // primary — the same answers under the same global ids.
    let mut mismatches = reads.mismatches + writer.mismatches;
    if follower.catch_up(&publisher, sub).is_err() {
        mismatches += 1;
    }
    let mut queries: Vec<_> = batches[0].batch.queries().to_vec();
    queries.push(region_query(0));
    let quiesce = QueryBatch::new(queries);
    let on_follower = server.execute_rows(&quiesce).map(|r| r.rows);
    let on_primary = primary.execute_rows(&quiesce).map(|r| r.rows);
    if on_follower.is_err() || on_follower.ok() != on_primary.ok() {
        mismatches += 1;
    }
    mismatches += check_regions(
        &[(0, &writer)],
        |b| follower.execute_rows(b),
        |g| follower.row(g),
    );

    let windows = stats::windows(started, deadline);
    reads.report(&mut m, &windows);
    m.count_ops(
        "checkpoint+compact",
        checkpoint_ms.len() as u64,
        background_failed,
    );
    m.count_ops("catch_up", ticks, catch_up_failed);
    m.set("write_ops_s", writer.acked_ops() as f64 / elapsed, "ops/s");
    m.set(
        "disk_mb",
        (dir_bytes(&wal_dir) + dir_bytes(catalog.dir())) as f64 / 1e6,
        "MB",
    );

    let mut spans = Vec::new();
    let mut reconcile = ReconcileSummary::default();
    if traced {
        stack::read_layers(&read_spans, &reads, &mut m);
        // The follower is quiet now, so single-path batches time only
        // their own access path.
        mismatches += stack::calibrate(&server, &data, seed, &mut m);
        m.set("wal.checkpoint_ms", mean(&checkpoint_ms), "ms");
        m.set("wal.compact_ms", mean(&compact_ms), "ms");
        m.set(
            "wal.compact_drop_share",
            1.0 - ratio(records_after as f64, records_before as f64),
            "ratio",
        );
        m.set("repl.poll_us", mean(&shipping.poll_us), "us");
        m.set("repl.apply_us", mean(&shipping.apply_us), "us");
        m.set(
            "repl.records_per_shipment",
            ratio(
                shipping.records as f64,
                (shipping.polls - shipping.empty_polls) as f64,
            ),
            "count",
        );
        m.set(
            "repl.empty_poll_share",
            ratio(shipping.empty_polls as f64, shipping.polls as f64),
            "ratio",
        );
        reconcile.add(&read_spans, TICK);
        spans.push(("read", read_spans));
        spans.push(("write", write_log.take()));
    }
    // A fixed WAL tail for recovery to replay: a checkpoint, then
    // `RECOVERY_TAIL_BATCHES` closed-loop batches, so where the load's
    // last checkpoint cycle stood when the run ended does not move
    // `recover_s`. The tail's ops are counted; its latencies are not
    // part of the open-loop load's.
    let load_commits = writer.latency_ms.len();
    let load_mismatches = writer.mismatches;
    primary
        .checkpoint(&catalog, CHECKPOINT)
        .map_err(|e| e.to_string())?;
    for _ in 0..RECOVERY_TAIL_BATCHES {
        writer.apply_next(&primary, Instant::now(), None)?;
    }
    writer.latency_ms.truncate(load_commits);
    mismatches += writer.mismatches - load_mismatches;
    Writer::report(std::slice::from_ref(&writer), &mut m, &windows);
    drop(server);
    drop(follower);
    drop(publisher);
    drop(primary);

    let (recovered, recover_s) = stack::recover_repeatedly(&catalog, &wal_dir, &config)?;
    m.set("recover_s", recover_s, "s");
    mismatches += check_regions(
        &[(0, &writer)],
        |b| recovered.execute_rows(b),
        |g| recovered.row(g),
    );
    let stable = &batches[0];
    if recovered.execute_rows(&stable.batch).map(|r| r.rows).ok() != Some(stable.expected.clone()) {
        mismatches += 1;
    }
    drop(recovered);
    drop(dir);

    // Peak memory before the extra set-ups that only time set-up.
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    for _ in 1..setups {
        drop(setup()?);
    }
    m.set("setup.build_s", median(&times[0]), "s");
    m.set("setup.create_s", median(&times[1]), "s");
    m.set("setup.bootstrap_s", median(&times[2]), "s");
    m.set("setup_s", median(&times[3]), "s");

    Ok(Phase {
        metrics: m,
        mismatches,
        spans,
        reconcile,
        read_late_ms: read_late,
        write_late_ms: write_late,
    })
}
