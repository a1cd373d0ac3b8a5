//! Spans for the traced run, recorded from the benchmark's own code
//! around the calls it makes into each layer.
//!
//! A span has a request id, a name, its parent's name, and start and
//! end times in nanoseconds on one process-wide monotonic clock. Spans
//! stay in memory and are written out when the run ends. Where a layer's
//! seam is a public trait the benchmark wraps the real implementation:
//! [`TracedServe`] around a [`BatchServe`] target and [`TracedSink`]
//! around a [`WalSink`]. Elsewhere the caller times the public call with
//! [`SpanLog::time`].

use pitract_core::epoch::Epoch;
use pitract_engine::batch::WorkerResults;
use pitract_engine::planner::QueryPlan;
use pitract_engine::{BatchServe, EngineError, UpdateEntry, WalSink};
use pitract_relation::SelectionQuery;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Largest share of the traced requests' summed wall time that no
/// layer's span covers: the root spans' own self time, which is the
/// benchmark's bookkeeping plus any call the trace does not wrap.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

fn clock_base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Nanoseconds on the span clock.
pub fn now_ns() -> u64 {
    clock_base().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One in-memory span buffer.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn record(
        &self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: u64,
        end: u64,
    ) {
        self.spans
            .lock()
            .expect("span log lock is never held across a panic")
            .push(Span {
                req,
                name,
                parent,
                start,
                end,
            });
    }

    /// Run `f` as span `name` of request `req`.
    pub fn time<T>(
        &self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now_ns();
        let out = f();
        self.record(req, name, parent, start, now_ns());
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log lock is never held across a panic"),
        )
    }
}

/// Span of one `PooledExecutor::execute` call, the read path's entry.
pub const READ_BATCH: &str = "read.batch";
/// Root span of one write request: the benchmark's own step that builds
/// the ops, calls `apply_batch` and accounts the outcome.
pub const WRITE_BATCH: &str = "write.batch";
/// Span of one `LiveRelation::apply_batch` call inside a write request;
/// the WAL sink's stage and commit spans are its children.
pub const LIVE_APPLY: &str = "live.apply_batch";

/// A [`BatchServe`] target whose routing, pinning and per-shard
/// evaluation are recorded as spans of the read batch the client marked
/// with [`TracedServe::begin`]. One client drives a traced target at a
/// time, so the current request id is a single atomic.
pub struct TracedServe<R> {
    inner: Arc<R>,
    pub log: SpanLog,
    current: AtomicU64,
}

impl<R> TracedServe<R> {
    pub fn new(inner: Arc<R>) -> Self {
        TracedServe {
            inner,
            log: SpanLog::default(),
            current: AtomicU64::new(0),
        }
    }

    /// Mark the read batch whose spans the next calls belong to.
    pub fn begin(&self, req: u64) {
        self.current.store(req, Ordering::SeqCst);
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let req = self.current.load(Ordering::SeqCst);
        self.log.time(req, name, Some(READ_BATCH), f)
    }
}

impl<R: BatchServe> BatchServe for TracedServe<R> {
    fn route(
        &self,
        queries: &[SelectionQuery],
    ) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
        self.span("planner.route", || self.inner.route(queries))
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn pin_epoch(&self) -> Option<Epoch> {
        self.span("mvcc.pin", || self.inner.pin_epoch())
    }

    fn unpin_epoch(&self, epoch: Epoch) {
        self.span("mvcc.unpin", || self.inner.unpin_epoch(epoch));
    }

    fn eval_bool(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<bool> {
        self.span("pool.eval", || {
            self.inner.eval_bool(shard, at, queries, assigned)
        })
    }

    fn eval_rows(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<Vec<usize>> {
        self.span("pool.eval", || {
            self.inner.eval_rows(shard, at, queries, assigned)
        })
    }

    fn global_ids(&self, shard: usize, locals: &[usize]) -> Vec<usize> {
        self.inner.global_ids(shard, locals)
    }
}

thread_local! {
    static WRITE_REQ: Cell<u64> = const { Cell::new(0) };
}

/// Mark the `apply_batch` call whose sink spans this thread records next.
pub fn begin_write(req: u64) {
    WRITE_REQ.with(|c| c.set(req));
}

/// A [`WalSink`] whose stage and commit calls are recorded as spans of
/// the calling thread's current `apply_batch`.
#[derive(Debug)]
pub struct TracedSink {
    inner: Arc<dyn WalSink>,
    pub log: Arc<SpanLog>,
}

impl TracedSink {
    pub fn new(inner: Arc<dyn WalSink>, log: Arc<SpanLog>) -> Self {
        TracedSink { inner, log }
    }
}

impl WalSink for TracedSink {
    fn stage(&self, entry: &UpdateEntry) -> Result<u64, EngineError> {
        let req = WRITE_REQ.with(Cell::get);
        self.log.time(req, "wal.stage", Some(LIVE_APPLY), || {
            self.inner.stage(entry)
        })
    }

    fn commit(&self, ticket: u64) -> Result<(), EngineError> {
        let req = WRITE_REQ.with(Cell::get);
        self.log.time(req, "wal.commit", Some(LIVE_APPLY), || {
            self.inner.commit(ticket)
        })
    }
}

/// Spans grouped by request, in request order.
pub fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut out: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        out.entry(s.req).or_default().push(*s);
    }
    out
}

/// Self time per layer for one request.
///
/// A layer's self time is the part of its span that no child span
/// covers. Sibling spans that overlap in time (shard jobs running on
/// several workers at once) share the overlapped interval equally, so
/// every instant of the request is charged exactly once, to the deepest
/// spans active at that instant. The self times therefore sum to the
/// wall time by construction whenever every span lies inside the root,
/// and that sum is not what the check tests. What can fail is:
///
/// - a span that lies outside every span named as its parent
///   (`escaped`), an instrumentation fault;
/// - the root's own self time (`unattributed_ns`), the part of the
///   request that no layer's span covers. The root is the benchmark's
///   own span around the request, so this is its bookkeeping plus any
///   work the trace does not wrap; it must stay within
///   [`RECONCILE_TOLERANCE`] of the wall time.
#[derive(Debug, Default)]
pub struct Reconciled {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, f64>,
    pub unattributed_ns: f64,
    pub escaped: usize,
}

pub fn reconcile(spans: &[Span], root: &'static str) -> Option<Reconciled> {
    let root_span = spans.iter().find(|s| s.name == root)?;
    let escaped = spans
        .iter()
        .filter(|s| {
            s.parent.is_some_and(|p| {
                !spans
                    .iter()
                    .any(|x| x.name == p && x.start <= s.start && s.end <= x.end)
            })
        })
        .count();
    let depth_of = |s: &Span| -> usize {
        let mut depth = 0;
        let mut parent = s.parent;
        while let Some(p) = parent {
            depth += 1;
            if p == root {
                break;
            }
            parent = spans.iter().find(|x| x.name == p).and_then(|x| x.parent);
            if depth > 8 {
                break;
            }
        }
        depth
    };
    let depths: Vec<usize> = spans.iter().map(depth_of).collect();
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].start <= a && spans[i].end >= b)
            .collect();
        let Some(deepest) = active.iter().map(|&i| depths[i]).max() else {
            continue;
        };
        let owners: Vec<usize> = active
            .into_iter()
            .filter(|&i| depths[i] == deepest)
            .collect();
        let share = (b - a) as f64 / owners.len() as f64;
        for i in owners {
            *self_ns.entry(spans[i].name).or_default() += share;
        }
    }
    let unattributed_ns = self_ns.get(root).copied().unwrap_or(0.0);
    Some(Reconciled {
        wall_ns: root_span.ns(),
        self_ns,
        unattributed_ns,
        escaped,
    })
}

/// Reconciliation over every request rooted at `root`: how many
/// requests were checked, the spans found outside their parent, and the
/// wall time no layer's span covers.
#[derive(Debug, Default, Clone)]
pub struct ReconcileSummary {
    pub requests: usize,
    pub escaped: usize,
    /// Wall time of every reconciled request, summed.
    pub wall_ns: f64,
    /// Root self time of every reconciled request, summed.
    pub unattributed_ns: f64,
    /// The largest single request's unattributed share; reported, not
    /// gated, since one preempted bookkeeping step can dominate one
    /// short request.
    pub worst_unattributed_share: f64,
    /// Self time per layer over every reconciled request.
    pub self_ns: BTreeMap<&'static str, f64>,
}

impl ReconcileSummary {
    pub fn add(&mut self, spans: &[Span], root: &'static str) {
        for req in by_request(spans).values() {
            if let Some(r) = reconcile(req, root) {
                self.requests += 1;
                self.escaped += r.escaped;
                self.wall_ns += r.wall_ns as f64;
                self.unattributed_ns += r.unattributed_ns;
                if r.wall_ns > 0 {
                    self.worst_unattributed_share = self
                        .worst_unattributed_share
                        .max(r.unattributed_ns / r.wall_ns as f64);
                }
                for (name, ns) in r.self_ns {
                    *self.self_ns.entry(name).or_default() += ns;
                }
            }
        }
    }

    /// The share of the summed wall time that no layer's span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0.0 {
            0.0
        } else {
            self.unattributed_ns / self.wall_ns
        }
    }

    pub fn holds(&self) -> bool {
        self.escaped == 0 && self.unattributed_share() <= RECONCILE_TOLERANCE
    }
}

/// Write spans as JSON lines under `path`, one object per span.
pub fn write_spans(path: &Path, logs: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (log, spans) in logs {
        for s in *spans {
            writeln!(
                out,
                "{{\"log\":\"{log}\",\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_children_share_their_overlap() {
        let spans = vec![
            span(READ_BATCH, None, 0, 100),
            span("planner.route", Some(READ_BATCH), 0, 10),
            span("pool.eval", Some(READ_BATCH), 20, 80),
            span("pool.eval", Some(READ_BATCH), 30, 60),
        ];
        let r = reconcile(&spans, READ_BATCH).unwrap();
        assert_eq!(r.wall_ns, 100);
        assert_eq!(r.self_ns["planner.route"], 10.0);
        assert_eq!(r.self_ns["pool.eval"], 60.0);
        assert_eq!(r.self_ns[READ_BATCH], 30.0);
        assert_eq!(r.unattributed_ns, 30.0);
    }

    #[test]
    fn time_no_layer_covers_breaks_reconciliation() {
        // Children cover 97 of 100 ns: within the tolerance.
        let covered = vec![
            span(WRITE_BATCH, None, 0, 100),
            span(LIVE_APPLY, Some(WRITE_BATCH), 1, 98),
            span("wal.commit", Some(LIVE_APPLY), 50, 98),
        ];
        let mut summary = ReconcileSummary::default();
        summary.add(&covered, WRITE_BATCH);
        assert!(summary.holds(), "{summary:?}");
        assert!((summary.unattributed_share() - 0.03).abs() < 1e-9);

        // A layer the trace does not wrap leaves 40 % unattributed.
        let uncovered = vec![
            span(WRITE_BATCH, None, 0, 100),
            span(LIVE_APPLY, Some(WRITE_BATCH), 40, 100),
        ];
        let mut summary = ReconcileSummary::default();
        summary.add(&uncovered, WRITE_BATCH);
        assert!(!summary.holds());
        assert!((summary.worst_unattributed_share - 0.4).abs() < 1e-9);
    }

    #[test]
    fn a_span_outside_its_parent_breaks_reconciliation() {
        let spans = vec![
            span(WRITE_BATCH, None, 0, 100),
            span(LIVE_APPLY, Some(WRITE_BATCH), 0, 100),
            span("wal.commit", Some(LIVE_APPLY), 90, 150),
        ];
        let mut summary = ReconcileSummary::default();
        summary.add(&spans, WRITE_BATCH);
        assert_eq!(summary.escaped, 1);
        assert!(!summary.holds());

        // Inside the root but outside its own parent.
        let spans = vec![
            span("read.tick", None, 0, 100),
            span(READ_BATCH, Some("read.tick"), 0, 50),
            span("pool.eval", Some(READ_BATCH), 40, 100),
        ];
        let mut summary = ReconcileSummary::default();
        summary.add(&spans, "read.tick");
        assert_eq!(summary.escaped, 1);
        assert!(!summary.holds());
    }
}
