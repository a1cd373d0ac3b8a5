//! Batched query serving: one routine for every target and every
//! runner.
//!
//! A [`QueryBatch`] is the unit of traffic: many independent selection
//! queries answered together. Every batch — on a [`ShardedRelation`], a
//! [`crate::live::LiveRelation`], a replica or a durable node, served
//! inline or by a [`PooledExecutor`] — goes through the same steps, once:
//!
//! 1. route and validate every query against the target's
//!    [`BatchServe::route`]: a query whose shard-key constraints prove
//!    most shards irrelevant is never shipped to them, so a
//!    well-partitioned point-lookup workload does O(1) shards of work
//!    per query;
//! 2. pin one epoch for the whole batch (versioned targets only;
//!    [`crate::live::LiveRelation::execute_read_committed`] skips it);
//! 3. invert the routing into per-shard work lists;
//! 4. run one job per touched shard, each with its own [`Meter`] — the
//!    paper's NC bound is per processor, so each shard accounts its own
//!    steps;
//! 5. merge per query, carrying each result's shard id;
//! 6. OR the Boolean answers or union the row ids (translated to global
//!    ids), and aggregate the meters into a [`BatchReport`].
//!
//! Only step 4 differs between serving paths. Inline, the caller's
//! thread runs the shard jobs in ascending shard order; pooled, they go
//! to the session's persistent worker pool. Which thread runs a job
//! changes the wall time, never the answers or the metered steps, and a
//! panicking job is contained to its batch as
//! [`EngineError::WorkerPanicked`] on both.

use crate::error::EngineError;
use crate::live::EpochPin;
use crate::planner::{Planner, QueryPlan};
use crate::pool::{BatchServe, PooledExecutor};
use crate::shard::{relevant_shards_for, ShardBy, ShardedRelation};
use pitract_core::cost::Meter;
use pitract_core::epoch::Epoch;
use pitract_relation::{Schema, SelectionQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// A batch of Boolean selection queries to serve together.
///
/// The queries live behind an `Arc` so that submitting the batch to a
/// persistent [`PooledExecutor`] — whose workers outlive the borrow —
/// shares them by reference count instead of cloning the whole batch
/// per shard.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    queries: Arc<[SelectionQuery]>,
}

/// One shard job's output: `(query index, result, metered steps)` per
/// assigned query, in ascending query order — what
/// [`BatchServe::eval_bool`] and [`BatchServe::eval_rows`] return.
pub type WorkerResults<T> = Vec<(usize, T, u64)>;

/// The merge-side currency: per query, one `(shard, result, steps)`
/// triple for every shard the query routed to.
pub type MergedResults<T> = Vec<Vec<(usize, T, u64)>>;

/// Per-query accounting in a batch report.
#[derive(Debug, Clone)]
pub struct QueryCost {
    /// The access path the planner routed this query through.
    pub plan: QueryPlan,
    /// Metered steps actually spent, summed over all shards probed.
    pub steps: u64,
    /// How many shards the query was shipped to after routing.
    pub shards_probed: usize,
}

/// Aggregated cost accounting for one executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per query, in batch order.
    pub per_query: Vec<QueryCost>,
    /// Total metered steps across the whole batch (all queries, all
    /// shards).
    pub total_steps: u64,
    /// The epoch the whole batch was pinned to — the one database
    /// instance every answer is exact against. `None` when the target
    /// has no epoch clock ([`ShardedRelation`] is immutable while
    /// served) or the batch ran read-committed.
    pub epoch: Option<Epoch>,
    /// How long the batch waited at the pooled executor's admission
    /// gate before running. `None` when the batch ran inline, which has
    /// no gate.
    pub admission_wait: Option<Duration>,
}

/// Boolean answers plus the cost report.
#[derive(Debug, Clone)]
pub struct BatchAnswers {
    /// One Boolean answer per query, in batch order.
    pub answers: Vec<bool>,
    /// The aggregated cost report.
    pub report: BatchReport,
}

/// Row-id answers (global ids, ascending) plus the cost report.
#[derive(Debug, Clone)]
pub struct BatchRows {
    /// Matching global row ids per query, in batch order.
    pub rows: Vec<Vec<usize>>,
    /// The aggregated cost report.
    pub report: BatchReport,
}

impl BatchReport {
    /// How many queries ran through each access path, in a stable
    /// (cheapest-first) label order.
    pub fn path_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut hist: Vec<(&'static str, usize)> = Vec::new();
        for label in [
            "point-probe",
            "range-probe",
            "index-nested-loop",
            "full-scan",
        ] {
            let count = self
                .per_query
                .iter()
                .filter(|c| c.plan.path.label() == label)
                .count();
            if count > 0 {
                hist.push((label, count));
            }
        }
        hist
    }

    /// Total shards probed across the batch (the fan-out volume).
    pub fn shards_probed(&self) -> usize {
        self.per_query.iter().map(|c| c.shards_probed).sum()
    }
}

impl QueryBatch {
    /// A batch from any sequence of queries.
    pub fn new(queries: impl IntoIterator<Item = SelectionQuery>) -> Self {
        QueryBatch {
            queries: queries.into_iter().collect(),
        }
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[SelectionQuery] {
        &self.queries
    }

    /// The shared handle to the queries — what the pooled executor ships
    /// to workers (jobs must be `'static`, so they hold a count, not a
    /// borrow).
    pub(crate) fn queries_shared(&self) -> Arc<[SelectionQuery]> {
        Arc::clone(&self.queries)
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Answer every query in the batch inline, on the caller's thread.
    /// Returns answers in batch order plus the aggregated cost report.
    /// Errors if any query fails schema validation, or with
    /// [`EngineError::WorkerPanicked`] if a shard job panics.
    pub fn execute(&self, relation: &ShardedRelation) -> Result<BatchAnswers, EngineError> {
        Runner::Inline(relation).answers(self, true)
    }

    /// Enumerate the matching global row ids for every query in the
    /// batch, inline on the caller's thread.
    pub fn execute_rows(&self, relation: &ShardedRelation) -> Result<BatchRows, EngineError> {
        Runner::Inline(relation).rows(self)
    }
}

/// Who runs a batch's shard jobs — the one step that differs between
/// serving paths.
pub(crate) enum Runner<'a, R: BatchServe + 'static> {
    /// The caller's thread, in ascending shard order.
    Inline(&'a R),
    /// The session's worker pool, behind its admission gate.
    Pooled(&'a PooledExecutor<R>),
}

impl<'a, R: BatchServe + 'static> Runner<'a, R> {
    /// Boolean answers for every query. `pin` is false only for the
    /// read-committed baseline.
    pub(crate) fn answers(
        self,
        batch: &QueryBatch,
        pin: bool,
    ) -> Result<BatchAnswers, EngineError> {
        let (merged, report) = self.serve(batch, pin, R::eval_bool)?;
        let answers = merged
            .iter()
            .map(|per_shard| per_shard.iter().any(|(_, hit, _)| *hit))
            .collect();
        Ok(BatchAnswers { answers, report })
    }

    /// Matching global row ids (ascending) for every query, at one
    /// pinned epoch.
    pub(crate) fn rows(self, batch: &QueryBatch) -> Result<BatchRows, EngineError> {
        let relation = self.target();
        let (merged, report) = self.serve(batch, true, R::eval_rows)?;
        let rows = merged
            .iter()
            .map(|per_shard| {
                // Translate through the shard id carried in each triple —
                // never the position within the query's routed shard
                // list, which nothing promises is ascending.
                let mut ids: Vec<usize> = per_shard
                    .iter()
                    .flat_map(|(shard, locals, _)| relation.global_ids(*shard, locals))
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        Ok(BatchRows { rows, report })
    }

    fn target(&self) -> &'a R {
        match *self {
            Runner::Inline(relation) => relation,
            Runner::Pooled(exec) => exec.relation(),
        }
    }

    /// The batch routine: route, pin, invert, run, merge, report.
    fn serve<T, E>(
        self,
        batch: &QueryBatch,
        pin: bool,
        eval: E,
    ) -> Result<(MergedResults<T>, BatchReport), EngineError>
    where
        T: Send + 'static,
        E: Fn(&R, usize, Epoch, &[SelectionQuery], &[usize]) -> WorkerResults<T>
            + Copy
            + Send
            + 'static,
    {
        let relation = self.target();
        let (plans, routed) = relation.route(batch.queries())?;
        // Admission strictly before the pin: a batch waiting at the
        // gate must not force writers to retain versions for it.
        let admitted = match self {
            Runner::Inline(_) => None,
            Runner::Pooled(exec) => Some((exec, exec.admit())),
        };
        let pinned = if pin { EpochPin::new(relation) } else { None };
        let at = pinned.as_ref().map_or(Epoch::LATEST, EpochPin::epoch);
        let work = invert(relation.shard_count(), &routed);
        let per_shard = match self {
            Runner::Inline(_) => work
                .into_iter()
                .map(|(shard, assigned)| {
                    // Contain a panicking job to this batch, exactly as a
                    // pool worker does.
                    catch_unwind(AssertUnwindSafe(|| {
                        (shard, eval(relation, shard, at, batch.queries(), &assigned))
                    }))
                    .map_err(|_| EngineError::WorkerPanicked { shard })
                })
                .collect::<Result<Vec<_>, _>>(),
            Runner::Pooled(exec) => exec.run(batch, work, at, eval),
        }?;
        let merged = merge(&routed, per_shard);
        let mut report = report_from(plans, &routed, &merged);
        report.epoch = pinned.as_ref().map(EpochPin::epoch);
        if let Some((exec, slot)) = &admitted {
            report.admission_wait = Some(slot.waited);
            exec.account(slot, &report);
        }
        Ok((merged, report))
    }
}

/// Validate, plan, and shard-route a slice of queries against a logical
/// relation described by its schema, indexed columns, total slot count
/// (live + tombstones — what a scan walks) and partitioning. Shared by
/// every [`BatchServe::route`] so all targets plan and route identically.
pub(crate) fn route_batch(
    queries: &[SelectionQuery],
    schema: &Schema,
    indexed_cols: &[usize],
    slots: usize,
    shard_by: &ShardBy,
    shard_count: usize,
) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
    let mut plans = Vec::with_capacity(queries.len());
    let mut routed = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        q.validate(schema).map_err(|e| EngineError::InvalidQuery {
            index: qi,
            reason: e,
        })?;
        plans.push(Planner::plan(indexed_cols, slots, q));
        routed.push(relevant_shards_for(shard_by, shard_count, q));
    }
    Ok((plans, routed))
}

/// Answer one shard's slice of a batch: every assigned query evaluated
/// against `shard` with a per-query metered step count (the meter is
/// reset around each query via `take`). The single worker-side metering
/// protocol behind every `eval_*` implementation — the cost accounting
/// cannot drift between targets.
pub(crate) fn eval_assigned<T>(
    queries: &[SelectionQuery],
    shard: &pitract_relation::indexed::IndexedRelation,
    assigned: &[usize],
    eval: impl Fn(&pitract_relation::indexed::IndexedRelation, &SelectionQuery, &Meter) -> T,
) -> WorkerResults<T> {
    let meter = Meter::new();
    assigned
        .iter()
        .map(|&qi| {
            meter.take();
            let out = eval(shard, &queries[qi], &meter);
            (qi, out, meter.take())
        })
        .collect()
}

/// Invert the routing into per-shard work lists, in ascending shard
/// order. Shards no query routes to get no job.
fn invert(shard_count: usize, routed: &[Vec<usize>]) -> Vec<(usize, Vec<usize>)> {
    let mut work: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (qi, shards) in routed.iter().enumerate() {
        for &s in shards {
            work[s].push(qi);
        }
    }
    work.into_iter()
        .enumerate()
        .filter(|(_, assigned)| !assigned.is_empty())
        .collect()
}

/// Re-assemble per-shard job results per query. Every triple carries
/// its shard id: downstream merges (global-id translation in
/// particular) must never pair results with `routed[qi]` by position,
/// because nothing in the routing contract promises an ascending — or
/// any particular — shard order.
fn merge<T>(routed: &[Vec<usize>], per_shard: Vec<(usize, WorkerResults<T>)>) -> MergedResults<T> {
    let mut merged: MergedResults<T> = routed
        .iter()
        .map(|shards| Vec::with_capacity(shards.len()))
        .collect();
    for (s, results) in per_shard {
        for (qi, out, steps) in results {
            debug_assert!(routed[qi].contains(&s));
            merged[qi].push((s, out, steps));
        }
    }
    merged
}

/// Aggregate plans, routing and per-shard meters into the batch report.
fn report_from<T>(
    plans: Vec<QueryPlan>,
    routed: &[Vec<usize>],
    merged: &[Vec<(usize, T, u64)>],
) -> BatchReport {
    let per_query: Vec<QueryCost> = plans
        .into_iter()
        .zip(routed)
        .zip(merged)
        .map(|((plan, shards), results)| QueryCost {
            plan,
            steps: results.iter().map(|(_, _, s)| s).sum(),
            shards_probed: shards.len(),
        })
        .collect();
    let total_steps = per_query.iter().map(|c| c.steps).sum();
    BatchReport {
        per_query,
        total_steps,
        epoch: None,
        admission_wait: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::AccessPath;
    use crate::shard::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn relation(n: i64) -> Relation {
        let schema = Schema::new(&[("id", ColType::Int), ("city", ColType::Str)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("city{}", i % 10))])
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn mixed_batch(n: i64) -> QueryBatch {
        QueryBatch::new((0..60i64).map(|k| match k % 3 {
            0 => SelectionQuery::point(0, (k * 37) % (n + 20)),
            1 => SelectionQuery::range_closed(0, k * 11, k * 11 + 25),
            _ => SelectionQuery::and(
                SelectionQuery::point(1, format!("city{}", k % 10).as_str()),
                SelectionQuery::range_closed(0, k * 7, k * 7 + 40),
            ),
        }))
    }

    #[test]
    fn batch_answers_match_scan_oracle_at_every_shard_count() {
        let n = 500i64;
        let rel = relation(n);
        let batch = mixed_batch(n);
        for shards in [1, 2, 3, 8] {
            let sr =
                ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, shards, &[0, 1]).unwrap();
            let got = batch.execute(&sr).unwrap();
            for (q, &ans) in batch.queries().iter().zip(&got.answers) {
                assert_eq!(ans, rel.eval_scan(q), "shards={shards} {q:?}");
            }
        }
    }

    #[test]
    fn batch_rows_match_count_oracle() {
        let n = 300i64;
        let rel = relation(n);
        let sr = ShardedRelation::build(&rel, ShardBy::Hash { col: 1 }, 4, &[0, 1]).unwrap();
        let batch = mixed_batch(n);
        let got = batch.execute_rows(&sr).unwrap();
        for (q, ids) in batch.queries().iter().zip(&got.rows) {
            assert_eq!(ids.len(), rel.count_where(q), "{q:?}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &gid in ids {
                assert!(q.matches(sr.row(gid).unwrap()), "{q:?} id {gid}");
            }
        }
    }

    #[test]
    fn report_accounts_every_query_and_path() {
        let n = 400i64;
        let sr = ShardedRelation::build(&relation(n), ShardBy::Hash { col: 0 }, 4, &[0]).unwrap();
        let batch = QueryBatch::new([
            SelectionQuery::point(0, 3i64),
            SelectionQuery::range_closed(0, 10i64, 20i64),
            SelectionQuery::and(
                SelectionQuery::point(0, 3i64),
                SelectionQuery::point(1, "city3"),
            ),
            SelectionQuery::point(1, "absent"),
        ]);
        let got = batch.execute(&sr).unwrap();
        let report = &got.report;
        assert_eq!(report.per_query.len(), 4);
        assert_eq!(
            report.total_steps,
            report.per_query.iter().map(|c| c.steps).sum::<u64>()
        );
        assert_eq!(
            report.path_histogram(),
            vec![
                ("point-probe", 1),
                ("range-probe", 1),
                ("index-nested-loop", 1),
                ("full-scan", 1),
            ]
        );
        // The shard-key point queries were routed to a single shard; the
        // unindexed-column scan had to visit all four.
        assert_eq!(report.per_query[0].shards_probed, 1);
        assert_eq!(report.per_query[2].shards_probed, 1);
        assert_eq!(report.per_query[3].shards_probed, 4);
        // The scan dominates the metered work.
        assert!(report.per_query[3].steps >= n as u64 / 2);
        assert!(report.per_query[0].steps < 64);
        // Plans carried through the report match the planner's routing.
        assert_eq!(
            report.per_query[0].plan.path,
            AccessPath::PointProbe { col: 0 }
        );
    }

    #[test]
    fn concurrent_batches_share_one_sharded_relation() {
        let n = 400i64;
        let rel = relation(n);
        let sr = ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).unwrap();
        let batch = mixed_batch(n);
        let expected: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| batch.execute(&sr).unwrap().answers))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn invalid_queries_are_rejected_not_panicked() {
        let sr = ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let batch = QueryBatch::new([SelectionQuery::point(7, 1i64)]);
        let err = batch.execute(&sr).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidQuery { index: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("query 0"), "{err}");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sr = ShardedRelation::build(&relation(10), ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let got = QueryBatch::new([]).execute(&sr).unwrap();
        assert!(got.answers.is_empty());
        assert_eq!(got.report.total_steps, 0);
    }

    /// A serving double for the routine itself: every query routes to
    /// a fixed shard list (descending where the test says so), shard
    /// `s` reports local ids `0..=s` and owns global ids
    /// `(s + 1) * 100 + local`, one shard can be poisoned, and the
    /// double counts pins and records which thread ran each shard job.
    #[derive(Debug)]
    struct Probe {
        shards: usize,
        routed: Vec<Vec<usize>>,
        panic_on_shard: Option<usize>,
        pins: AtomicUsize,
        unpins: AtomicUsize,
        threads: Mutex<Vec<ThreadId>>,
    }

    impl Probe {
        fn new(shards: usize, routed: Vec<Vec<usize>>) -> Self {
            Probe {
                shards,
                routed,
                panic_on_shard: None,
                pins: AtomicUsize::new(0),
                unpins: AtomicUsize::new(0),
                threads: Mutex::new(Vec::new()),
            }
        }

        fn batch(&self) -> QueryBatch {
            QueryBatch::new((0..self.routed.len() as i64).map(|k| SelectionQuery::point(0, k)))
        }

        fn enter(&self, shard: usize) {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            if self.panic_on_shard == Some(shard) {
                panic!("probe shard {shard} poisoned");
            }
        }
    }

    impl BatchServe for Probe {
        fn route(
            &self,
            queries: &[SelectionQuery],
        ) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
            let plans = queries.iter().map(|q| Planner::plan(&[], 1, q)).collect();
            Ok((plans, self.routed.clone()))
        }

        fn shard_count(&self) -> usize {
            self.shards
        }

        fn pin_epoch(&self) -> Option<Epoch> {
            self.pins.fetch_add(1, Ordering::SeqCst);
            Some(Epoch::new(7))
        }

        fn unpin_epoch(&self, epoch: Epoch) {
            assert_eq!(epoch, Epoch::new(7));
            self.unpins.fetch_add(1, Ordering::SeqCst);
        }

        fn eval_bool(
            &self,
            shard: usize,
            _at: Epoch,
            _queries: &[SelectionQuery],
            assigned: &[usize],
        ) -> WorkerResults<bool> {
            self.enter(shard);
            assigned.iter().map(|&qi| (qi, true, 1)).collect()
        }

        fn eval_rows(
            &self,
            shard: usize,
            _at: Epoch,
            _queries: &[SelectionQuery],
            assigned: &[usize],
        ) -> WorkerResults<Vec<usize>> {
            self.enter(shard);
            assigned
                .iter()
                .map(|&qi| (qi, (0..=shard).collect(), 1))
                .collect()
        }

        fn global_ids(&self, shard: usize, locals: &[usize]) -> Vec<usize> {
            locals.iter().map(|&l| (shard + 1) * 100 + l).collect()
        }
    }

    /// Run `check` against `probe` on the inline runner, then on a
    /// two-worker pool.
    fn on_both_runners(probe: &Arc<Probe>, check: impl Fn(&str, Runner<'_, Probe>)) {
        check("inline", Runner::Inline(probe.as_ref()));
        let exec = PooledExecutor::new(
            Arc::clone(probe),
            crate::pool::PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
        );
        check("pooled", Runner::Pooled(&exec));
    }

    /// Quiet the panic message a poisoned shard job prints: the panic
    /// is the fixture, not a failure.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev_hook);
        out
    }

    /// Regression: a panicking shard worker used to abort the whole
    /// caller through `.expect("shard worker panicked")` — one poisoned
    /// query could take down a serving process. On both runners the
    /// panic is caught and surfaced as a typed
    /// `EngineError::WorkerPanicked`.
    #[test]
    fn worker_panic_is_contained_and_typed() {
        let routed = vec![vec![0], vec![1], vec![2, 0]];
        let mut poisoned = Probe::new(3, routed.clone());
        poisoned.panic_on_shard = Some(2);
        let poisoned = Arc::new(poisoned);
        quietly(|| {
            on_both_runners(&poisoned, |runner, exec| {
                let err = exec.answers(&poisoned.batch(), true).unwrap_err();
                assert_eq!(err, EngineError::WorkerPanicked { shard: 2 }, "{runner}");
            })
        });

        // Healthy shard jobs still run and merge.
        let healthy = Arc::new(Probe::new(3, routed));
        on_both_runners(&healthy, |runner, exec| {
            let got = exec.answers(&healthy.batch(), true).unwrap();
            assert_eq!(got.answers, vec![true; 3], "{runner}");
            let q2 = &got.report.per_query[2];
            assert_eq!(q2.shards_probed, 2, "query 2 routed to shards 2 and 0");
            assert_eq!(q2.steps, 2, "one metered step per shard ({runner})");
            assert_eq!(got.report.total_steps, 4, "{runner}");
        });
    }

    /// Regression: `execute_rows` used to pair each per-shard result
    /// with `routed[qi]` by *position*, which translates local row ids
    /// through the wrong shard's id map whenever the routed shard list
    /// is not ascending — an invariant nothing in `relevant_shards_for`
    /// pins. The merge now carries the shard id in the triple itself.
    /// This drives the routine with a deliberately descending routed
    /// list and checks the translation against both orderings, on both
    /// runners.
    #[test]
    fn merge_carries_shard_ids_so_routed_order_cannot_mistranslate() {
        // Shard 0 owns global ids 100.., shard 1 owns 200.. — a
        // positional zip against descending routing would swap them.
        for routed in [vec![vec![1usize, 0]], vec![vec![0usize, 1]]] {
            let probe = Arc::new(Probe::new(2, routed.clone()));
            on_both_runners(&probe, |runner, exec| {
                let got = exec.rows(&probe.batch()).unwrap();
                assert_eq!(
                    got.rows,
                    vec![vec![100, 200, 201]],
                    "translation must follow the carried shard id, routed={routed:?} ({runner})"
                );
            });
        }
    }

    /// Inline serving spawns nothing: every shard job of every mode runs
    /// on the caller's own thread.
    #[test]
    fn inline_runner_evaluates_every_shard_on_the_callers_thread() {
        let probe = Arc::new(Probe::new(4, vec![vec![3, 1], vec![0], vec![2, 1, 0]]));
        let caller = std::thread::current().id();
        let batch = probe.batch();
        Runner::Inline(probe.as_ref())
            .answers(&batch, true)
            .unwrap();
        Runner::Inline(probe.as_ref())
            .answers(&batch, false)
            .unwrap();
        Runner::Inline(probe.as_ref()).rows(&batch).unwrap();
        let threads = probe.threads.lock().unwrap().clone();
        assert_eq!(threads.len(), 3 * 4, "one job per touched shard per batch");
        assert!(threads.iter().all(|&t| t == caller), "{threads:?}");

        // The fixture can tell the difference: pooled jobs run on the
        // pool's workers.
        probe.threads.lock().unwrap().clear();
        on_both_runners(&probe, |runner, exec| {
            if runner == "pooled" {
                exec.answers(&batch, true).unwrap();
            }
        });
        let threads = probe.threads.lock().unwrap().clone();
        assert_eq!(threads.len(), 4);
        assert!(threads.iter().all(|&t| t != caller), "{threads:?}");
    }

    /// A shard panic must not leak the batch's epoch pin: writers would
    /// retain undo records for it forever.
    #[test]
    fn pins_stay_balanced_when_a_shard_panics() {
        let mut probe = Probe::new(3, vec![vec![0, 1, 2], vec![1]]);
        probe.panic_on_shard = Some(1);
        let probe = Arc::new(probe);
        quietly(|| {
            on_both_runners(&probe, |runner, exec| {
                let before = probe.pins.load(Ordering::SeqCst);
                let err = exec.answers(&probe.batch(), true).unwrap_err();
                assert_eq!(err, EngineError::WorkerPanicked { shard: 1 }, "{runner}");
                assert_eq!(probe.pins.load(Ordering::SeqCst), before + 1, "{runner}");
            });
            on_both_runners(&probe, |runner, exec| {
                assert!(exec.rows(&probe.batch()).is_err(), "{runner}");
            });
        });
        assert_eq!(probe.pins.load(Ordering::SeqCst), 4, "one pin per batch");
        assert_eq!(
            probe.unpins.load(Ordering::SeqCst),
            probe.pins.load(Ordering::SeqCst),
            "every pin released on both runners"
        );
        // The read-committed baseline takes no pin at all.
        let _ = quietly(|| Runner::Inline(probe.as_ref()).answers(&probe.batch(), false));
        assert_eq!(probe.pins.load(Ordering::SeqCst), 4);
    }
}
