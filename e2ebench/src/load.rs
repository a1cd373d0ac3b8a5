//! Load generation shared by the workloads: the open-loop schedule, the
//! read client and the writers' model of what they have written.

use crate::gen::{region_query, Op, OpStream, ReadBatch};
use crate::stats::{Metrics, FAILED};
use crate::trace::{Span, SpanLog, TracedServe, LIVE_APPLY, READ_BATCH, WRITE_BATCH};
use pitract_engine::{
    Applied, BatchReport, BatchRows, BatchServe, EngineError, LiveRelation, PoolConfig,
    PooledExecutor, QueryBatch, UpdateOp,
};
use pitract_obs::Recorder;
use pitract_relation::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open-loop schedule: request `k` is due at `start + k / rate`,
/// whether or not earlier requests have finished. Latency is counted
/// from the due time, so a stall also charges the requests queued
/// behind it, and how late the generator itself sent each request is
/// reported beside the latencies.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    next: u32,
    pub late_ms: Vec<f64>,
}

impl OpenLoop {
    pub fn new(rate_per_s: f64) -> Self {
        OpenLoop {
            start: Instant::now(),
            period: Duration::from_secs_f64(1.0 / rate_per_s),
            next: 0,
            late_ms: Vec::new(),
        }
    }

    /// Sleep until the next request is due and return its due time, or
    /// `None` once that time is at or past `deadline`.
    pub fn next_due(&mut self, deadline: Instant) -> Option<Instant> {
        let due = self.start + self.period * self.next;
        if due >= deadline {
            return None;
        }
        self.next += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        self.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        Some(due)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A pooled serving session over `R`, traced or not. The traced form
/// serves through a [`TracedServe`] wrapper on the same pool type, with
/// the recorder threaded through the executor's observed constructor.
pub enum Server<R: BatchServe + 'static> {
    Plain(PooledExecutor<R>),
    Traced(PooledExecutor<TracedServe<R>>),
}

impl<R: BatchServe + 'static> Server<R> {
    /// Start the pool; the worker threads keep [`PoolConfig::default`].
    pub fn start(target: Arc<R>, recorder: Option<&Recorder>) -> Self {
        match recorder {
            None => Server::Plain(PooledExecutor::new(target, PoolConfig::default())),
            Some(rec) => Server::Traced(PooledExecutor::new_observed(
                Arc::new(TracedServe::new(target)),
                PoolConfig::default(),
                rec,
            )),
        }
    }

    /// Matching global ids per query, for checks outside the measured
    /// load (traced, its spans go to request 0).
    pub fn execute_rows(&self, batch: &QueryBatch) -> Result<BatchRows, EngineError> {
        match self {
            Server::Plain(exec) => exec.execute_rows(batch),
            Server::Traced(exec) => {
                exec.relation().begin(0);
                exec.execute_rows(batch)
            }
        }
    }

    /// Serve one read batch of Boolean answers as request `req` (the
    /// E15/E17 serving call) and check them against the exact answers.
    /// `None` when the batch failed.
    pub fn read(
        &self,
        rb: &ReadBatch,
        req: u64,
        parent: Option<&'static str>,
    ) -> Option<(bool, BatchReport)> {
        let got = match self {
            Server::Plain(exec) => exec.execute(&rb.batch),
            Server::Traced(exec) => {
                let traced = exec.relation();
                traced.begin(req);
                traced
                    .log
                    .time(req, READ_BATCH, parent, || exec.execute(&rb.batch))
            }
        };
        got.ok().map(|a| (a.answers == rb.answers, a.report))
    }

    pub fn spans(&self) -> Vec<Span> {
        match self {
            Server::Plain(_) => Vec::new(),
            Server::Traced(exec) => exec.relation().log.take(),
        }
    }
}

/// What the read client saw: latencies from the due time, the cost
/// reports' per-layer counts, and every answer mismatch.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// `(due or call time, latency)` per request.
    pub latency_ms: Vec<(Instant, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub queries: u64,
    pub shards_probed: u64,
    /// `(steps, queries)` per access-path label.
    pub steps: HashMap<&'static str, (u64, u64)>,
    pub admission_wait_us: Vec<f64>,
}

impl ReadStats {
    /// Account one served batch, checking its answers against the
    /// precomputed exact ones.
    pub fn absorb(&mut self, due: Instant, got: Option<(bool, BatchReport)>) {
        self.attempted += 1;
        match got {
            Some((matched, report)) => {
                self.latency_ms.push((due, ms(due.elapsed())));
                if !matched {
                    self.mismatches += 1;
                }
                self.queries += report.per_query.len() as u64;
                self.shards_probed += report.shards_probed() as u64;
                for q in &report.per_query {
                    let e = self.steps.entry(q.plan.path.label()).or_default();
                    e.0 += q.steps;
                    e.1 += 1;
                }
                if let Some(w) = report.admission_wait {
                    self.admission_wait_us.push(w.as_secs_f64() * 1e6);
                }
            }
            None => {
                self.failed += 1;
                self.latency_ms.push((due, FAILED));
            }
        }
    }

    pub fn report(&self, m: &mut Metrics, windows: &[Instant]) {
        // Reads are tens to a few hundred per window: p90 is the highest
        // percentile with ten samples beyond it in every workload.
        m.percentiles("read", "ms", 90, &self.latency_ms, windows);
        m.count_ops("read_batch", self.attempted, self.failed);
    }
}

/// One writer: its op stream plus its model of what it has written
/// (key → global id and group of every row it inserted and has not
/// deleted), which is what the checks compare the program against.
#[derive(Debug)]
pub struct Writer {
    index: usize,
    stream: OpStream,
    ops_per_batch: usize,
    pub live: HashMap<i64, (usize, u8)>,
    /// `(due or call time, latency)` per request.
    pub latency_ms: Vec<(Instant, f64)>,
    /// `(attempted, failed)` per op type.
    pub inserts: (u64, u64),
    pub deletes: (u64, u64),
    pub mismatches: u64,
}

fn row_of(key: i64, group: u8) -> Vec<Value> {
    vec![Value::Int(key), Value::str(crate::gen::group_name(group))]
}

impl Writer {
    pub fn new(seed: u64, index: usize, window: usize, ops_per_batch: usize) -> Self {
        Writer {
            index,
            stream: OpStream::new(seed, index, window),
            ops_per_batch,
            live: HashMap::new(),
            latency_ms: Vec::new(),
            inserts: (0, 0),
            deletes: (0, 0),
            mismatches: 0,
        }
    }

    /// Apply the next batch of the stream with one `apply_batch` call
    /// and account it; latency runs from `since` (the due time in an
    /// open loop, the call time in a closed one). Traced, the call is
    /// span [`LIVE_APPLY`] of write request `req` in `log`.
    ///
    /// `Ok(false)` when the batch failed: the ops that landed before the
    /// failure are then read back from the program and kept, the rest
    /// count as failed. `Err` only when that read-back fails too, so the
    /// writer no longer knows what the program holds.
    pub fn apply_next(
        &mut self,
        live: &LiveRelation,
        since: Instant,
        trace: Option<(&SpanLog, u64)>,
    ) -> Result<bool, String> {
        let mut ops = Vec::with_capacity(self.ops_per_batch);
        let mut updates = Vec::with_capacity(self.ops_per_batch);
        for op in self.stream.next_batch(self.ops_per_batch) {
            let update = match op {
                Op::Insert { key, group } => UpdateOp::Insert(row_of(key, group)),
                Op::Delete { key } => match self.live.get(&key) {
                    Some(&(gid, _)) => UpdateOp::Delete(gid),
                    // The stream only deletes keys this model holds
                    // (see `resync`); were one missing, the op is
                    // refused here rather than sent.
                    None => {
                        self.deletes.0 += 1;
                        self.deletes.1 += 1;
                        continue;
                    }
                },
            };
            ops.push(op);
            updates.push(update);
        }
        let applied = match trace {
            Some((log, req)) => log.time(req, LIVE_APPLY, Some(WRITE_BATCH), || {
                live.apply_batch(updates)
            }),
            None => live.apply_batch(updates),
        };
        match applied {
            Ok(applied) => {
                self.latency_ms.push((since, ms(since.elapsed())));
                self.account(&ops, &applied);
                Ok(true)
            }
            Err(_) => {
                self.latency_ms.push((since, FAILED));
                self.resync(live, &ops)?;
                Ok(false)
            }
        }
    }

    /// Account an acknowledged batch, op by op.
    fn account(&mut self, ops: &[Op], applied: &[Applied]) {
        for (i, op) in ops.iter().enumerate() {
            match (op, applied.get(i)) {
                (Op::Insert { key, group }, Some(Applied::Inserted(gid))) => {
                    self.inserts.0 += 1;
                    self.live.insert(*key, (*gid, *group));
                }
                (Op::Delete { key }, Some(Applied::Deleted(row))) => {
                    self.deletes.0 += 1;
                    if let Some((_, group)) = self.live.remove(key) {
                        if row.as_ref() != Some(&row_of(*key, group)) {
                            self.mismatches += 1;
                        }
                    }
                }
                (Op::Insert { key, .. }, _) => {
                    self.inserts.0 += 1;
                    self.inserts.1 += 1;
                    self.stream.forget(*key);
                }
                (Op::Delete { key }, _) => {
                    self.deletes.0 += 1;
                    self.deletes.1 += 1;
                    self.stream.restore(*key);
                }
            }
        }
    }

    /// After a failed `apply_batch`, learn which of its ops landed. The
    /// program keeps a failed batch's applied prefix (and makes it
    /// durable), so the writer reads its region back: an insert whose key
    /// is there landed, under the global id found; a delete whose key is
    /// gone landed. Landed ops count as acknowledged, the others as
    /// failed; the op stream forgets inserts that did not land and takes
    /// back keys whose delete did not land, so it never names a row the
    /// program does not hold. A model that then differs from the region
    /// is a mismatch.
    fn resync(&mut self, live: &LiveRelation, ops: &[Op]) -> Result<(), String> {
        let batch = QueryBatch::new([region_query(self.index)]);
        let rows = live
            .execute_rows(&batch)
            .map_err(|e| format!("writer {} cannot read its region back: {e}", self.index))?;
        let mut present: HashMap<i64, usize> = HashMap::new();
        for &gid in rows.rows.first().map_or(&[][..], Vec::as_slice) {
            match live.row(gid).as_deref() {
                Some([Value::Int(key), ..]) => {
                    present.insert(*key, gid);
                }
                _ => self.mismatches += 1,
            }
        }
        for op in ops {
            match *op {
                Op::Insert { key, group } => {
                    self.inserts.0 += 1;
                    match present.get(&key) {
                        Some(&gid) => {
                            self.live.insert(key, (gid, group));
                        }
                        None => {
                            self.inserts.1 += 1;
                            self.stream.forget(key);
                        }
                    }
                }
                Op::Delete { key } => {
                    self.deletes.0 += 1;
                    if present.contains_key(&key) {
                        self.deletes.1 += 1;
                        self.stream.restore(key);
                    } else {
                        self.live.remove(&key);
                    }
                }
            }
        }
        let model: HashMap<i64, usize> = self.live.iter().map(|(&k, &(gid, _))| (k, gid)).collect();
        if model != present {
            self.mismatches += 1;
        }
        Ok(())
    }

    pub fn acked_ops(&self) -> u64 {
        self.inserts.0 - self.inserts.1 + self.deletes.0 - self.deletes.1
    }

    /// Global ids of this writer's live rows, ascending: the exact
    /// answer of its region query.
    pub fn expected_region(&self) -> Vec<usize> {
        let mut gids: Vec<usize> = self.live.values().map(|(gid, _)| *gid).collect();
        gids.sort_unstable();
        gids
    }

    pub fn report(writers: &[Writer], m: &mut Metrics, windows: &[Instant]) {
        let lat: Vec<(Instant, f64)> = writers
            .iter()
            .flat_map(|w| w.latency_ms.iter().copied())
            .collect();
        m.percentiles("commit", "ms", 99, &lat, windows);
        for w in writers {
            m.count_ops("insert", w.inserts.0, w.inserts.1);
            m.count_ops("delete", w.deletes.0, w.deletes.1);
        }
    }
}

/// Check the writers' regions on any target that answers a batch with
/// global ids, plus the row each acknowledged insert left: exactly the
/// acknowledged ops are present, under their global ids. Returns the
/// number of mismatches.
pub fn check_regions(
    writers: &[(usize, &Writer)],
    rows_of: impl Fn(&QueryBatch) -> Result<BatchRows, EngineError>,
    row: impl Fn(usize) -> Option<Vec<Value>>,
) -> u64 {
    let batch = QueryBatch::new(writers.iter().map(|(i, _)| region_query(*i)));
    let Ok(got) = rows_of(&batch) else {
        return 1;
    };
    let mut mismatches = 0;
    for ((_, w), rows) in writers.iter().zip(&got.rows) {
        if *rows != w.expected_region() {
            mismatches += 1;
        }
        for (&key, &(gid, group)) in &w.live {
            if row(gid) != Some(row_of(key, group)) {
                mismatches += 1;
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Dataset;
    use pitract_engine::{UpdateEntry, WalSink};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A WAL sink that refuses its `fail_at`-th stage and accepts every
    /// other one.
    #[derive(Debug)]
    struct FailingSink {
        staged: AtomicU64,
        fail_at: u64,
    }

    impl WalSink for FailingSink {
        fn stage(&self, _: &UpdateEntry) -> Result<u64, EngineError> {
            let n = self.staged.fetch_add(1, Ordering::SeqCst) + 1;
            if n == self.fail_at {
                Err(EngineError::WalSink {
                    message: "refused by the test sink".to_string(),
                })
            } else {
                Ok(n)
            }
        }

        fn commit(&self, _: u64) -> Result<(), EngineError> {
            Ok(())
        }
    }

    #[test]
    fn a_batch_that_fails_midway_is_read_back_and_counted() {
        const ROWS: usize = 2_000;
        let mut live = crate::stack::build(&Dataset::generate(1, ROWS).relation()).unwrap();
        // 16-op batches over a 32-row window: the 40th stage is the 8th
        // op of the third batch, the first that also deletes.
        live.set_wal_sink(Some(Arc::new(FailingSink {
            staged: AtomicU64::new(0),
            fail_at: 40,
        })));
        let mut w = Writer::new(1, 0, 32, 16);
        let mut failed_batches = 0;
        for _ in 0..200 {
            if !w.apply_next(&live, Instant::now(), None).unwrap() {
                failed_batches += 1;
            }
        }
        assert_eq!(failed_batches, 1);
        assert_eq!(
            w.inserts.1 + w.deletes.1,
            9,
            "the refused op and the eight after it failed"
        );
        assert_eq!(w.inserts.0 + w.deletes.0, 200 * 16);
        assert_eq!(w.mismatches, 0);
        let regions = [(0, &w)];
        assert_eq!(
            check_regions(&regions, |b| live.execute_rows(b), |g| live.row(g)),
            0
        );
        assert_eq!(live.len(), ROWS + w.live.len());
    }
}
