//! Integration tests for the pooled serving session through the public
//! facade: the `PooledExecutor` must answer exactly like inline
//! serving (which answers exactly like the scan oracle), contain
//! worker panics as typed errors without poisoning the pool, and serve
//! custom `BatchServe` targets — while `apply_batch` keeps the durable
//! write side batch-committed and crash-consistent.

use pi_tractable::prelude::*;
use std::sync::Arc;

fn relation(n: i64) -> Relation {
    let schema = Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)]);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 16))])
        .collect();
    Relation::from_rows(schema, rows).expect("valid rows")
}

fn mixed_batch(n: i64) -> QueryBatch {
    QueryBatch::new((0..128i64).map(|k| match k % 4 {
        0 => SelectionQuery::point(0, (k * 97) % (n + 50)),
        1 => SelectionQuery::range_closed(0, (k * 61) % n, (k * 61) % n + 40),
        2 => SelectionQuery::and(
            SelectionQuery::point(1, format!("grp{}", k % 16).as_str()),
            SelectionQuery::range_closed(0, (k * 31) % n, (k * 31) % n + 300),
        ),
        _ => SelectionQuery::point(0, n + k),
    }))
}

/// Inline and pooled serving must agree bit for bit: answers, row ids,
/// and the cost report — plans, steps, shards probed, pinned epoch.
/// Only the admission wait differs: inline serving has no gate.
fn assert_runners_agree<R: BatchServe>(
    tag: &str,
    batch: &QueryBatch,
    inline: impl Fn(&QueryBatch) -> (BatchAnswers, BatchRows),
    exec: &PooledExecutor<R>,
) {
    let (answers, rows) = inline(batch);
    let pooled = exec.execute(batch).expect("pooled batch");
    let pooled_rows = exec.execute_rows(batch).expect("pooled rows");
    assert_eq!(pooled.answers, answers.answers, "{tag}: answers");
    assert_eq!(pooled_rows.rows, rows.rows, "{tag}: row ids");
    for (got, want) in [
        (&pooled.report, &answers.report),
        (&pooled_rows.report, &rows.report),
    ] {
        assert_eq!(
            got.total_steps, want.total_steps,
            "{tag}: metering must not depend on the runner"
        );
        let costs = |r: &BatchReport| {
            r.per_query
                .iter()
                .map(|c| (c.plan, c.steps, c.shards_probed))
                .collect::<Vec<_>>()
        };
        assert_eq!(costs(got), costs(want), "{tag}: per-query costs");
        assert_eq!(got.shards_probed(), want.shards_probed(), "{tag}");
        assert_eq!(got.epoch, want.epoch, "{tag}: pinned epoch");
        assert_eq!(want.admission_wait, None, "{tag}: inline has no gate");
        assert!(
            got.admission_wait.is_some(),
            "{tag}: pooled passed the gate"
        );
    }
}

#[test]
fn pooled_answers_match_inline_and_oracle_on_every_target() {
    let n = 4_000i64;
    let rel = relation(n);
    let batch = mixed_batch(n);
    let oracle: Vec<bool> = batch.queries().iter().map(|q| rel.eval_scan(q)).collect();
    let pool = || PoolConfig {
        workers: 2,
        max_inflight: 3,
    };

    // ShardedRelation target.
    let sharded = Arc::new(
        ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid spec"),
    );
    let inline = batch.execute(&sharded).expect("inline batch");
    assert_eq!(inline.answers, oracle);
    let exec = PooledExecutor::with_default_pool(Arc::clone(&sharded));
    assert_eq!(
        exec.execute(&batch).expect("pooled batch").answers,
        oracle,
        "pooled != oracle on ShardedRelation"
    );
    assert_runners_agree(
        "sharded",
        &batch,
        |b| {
            (
                b.execute(&sharded).expect("inline"),
                b.execute_rows(&sharded).expect("inline rows"),
            )
        },
        &exec,
    );

    // LiveRelation target, pinned, same contract.
    let live = Arc::new(
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid spec"),
    );
    live.insert(vec![Value::Int(n + 3), Value::str("late")])
        .expect("insert");
    let exec = PooledExecutor::new(Arc::clone(&live), pool());
    assert_runners_agree(
        "live",
        &batch,
        |b| {
            (
                live.execute(b).expect("inline live"),
                live.execute_rows(b).expect("inline live rows"),
            )
        },
        &exec,
    );

    // Row ids come back globally translated, independent of shard order.
    let point_batch = QueryBatch::new((0..40i64).map(|k| SelectionQuery::point(0, k * 11)));
    let rows = exec.execute_rows(&point_batch).expect("pooled rows");
    for (k, ids) in rows.rows.iter().enumerate() {
        assert_eq!(ids, &vec![k * 11], "key {}", k * 11);
    }

    // A replica caught up to a primary that kept writing after its
    // checkpoint.
    let root = TempDir::new("pool-serving-follower");
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog");
    let primary = Arc::new(
        DurableLiveRelation::create(
            LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("valid spec"),
            &catalog,
            "node",
            root.join("wal"),
            WalConfig::default(),
        )
        .expect("create primary"),
    );
    let follower = Arc::new(
        Follower::bootstrap(&catalog, "node", root.join("mirror"), WalConfig::default())
            .expect("bootstrap"),
    );
    let publisher = SegmentPublisher::new(Arc::clone(&primary));
    let sub = follower.attach(&publisher);
    for k in 0..20i64 {
        primary
            .insert(vec![Value::Int(n + k * 5), Value::str("late")])
            .expect("insert");
    }
    primary.delete(7).expect("delete").expect("live gid");
    primary.wal().sync().expect("sync");
    follower.catch_up(&publisher, sub).expect("catch up");
    assert_eq!(follower.len(), primary.len());
    let exec = PooledExecutor::new(Arc::clone(&follower), pool());
    assert_runners_agree(
        "follower",
        &batch,
        |b| {
            (
                follower.execute(b).expect("inline follower"),
                follower.execute_rows(b).expect("inline follower rows"),
            )
        },
        &exec,
    );
}

/// A `BatchServe` target that panics on one shard: the session must
/// surface a typed error and keep serving later batches — a standing
/// pool that dies with one bad batch is not a serving session.
#[derive(Debug)]
struct PanicOnShard {
    inner: ShardedRelation,
    poison: usize,
}

impl BatchServe for PanicOnShard {
    fn route(
        &self,
        queries: &[SelectionQuery],
    ) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
        self.inner.route(queries)
    }

    fn shard_count(&self) -> usize {
        BatchServe::shard_count(&self.inner)
    }

    fn eval_bool(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> Vec<(usize, bool, u64)> {
        assert_ne!(shard, self.poison, "injected shard failure");
        self.inner.eval_bool(shard, at, queries, assigned)
    }

    fn eval_rows(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> Vec<(usize, Vec<usize>, u64)> {
        self.inner.eval_rows(shard, at, queries, assigned)
    }

    fn global_ids(&self, shard: usize, locals: &[usize]) -> Vec<usize> {
        self.inner.global_ids(shard, locals)
    }
}

#[test]
fn worker_panic_is_typed_and_the_session_keeps_serving() {
    let n = 1_000i64;
    let rel = relation(n);
    let target = Arc::new(PanicOnShard {
        inner: ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0]).expect("valid spec"),
        poison: 1,
    });
    let exec = PooledExecutor::new(
        Arc::clone(&target),
        PoolConfig {
            workers: 2,
            max_inflight: 2,
        },
    );
    // A full scan routes to every shard, including the poisoned one.
    let all_shards = QueryBatch::new([SelectionQuery::point(1, "grp3")]);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the injected panic quiet
    let err = exec.execute(&all_shards).expect_err("poisoned shard");
    std::panic::set_hook(prev_hook);
    assert!(
        matches!(err, EngineError::WorkerPanicked { shard: 1 }),
        "{err:?}"
    );
    // The pool survives: a batch avoiding shard 1 still serves. Point
    // queries on the shard key route to exactly one shard each.
    let safe: Vec<i64> = (0..200i64)
        .filter(|&k| {
            let (_, routed) =
                BatchServe::route(target.as_ref(), &[SelectionQuery::point(0, k)]).expect("route");
            routed[0] != vec![1]
        })
        .take(8)
        .collect();
    assert!(!safe.is_empty(), "some keys route off the poisoned shard");
    let batch = QueryBatch::new(safe.iter().map(|&k| SelectionQuery::point(0, k)));
    let got = exec.execute(&batch).expect("session survives the panic");
    assert!(got.answers.iter().all(|&a| a));
}

#[test]
fn apply_batch_through_the_session_is_durable_and_recovers() {
    let n = 500i64;
    let root = TempDir::new("poolit");
    let catalog = SnapshotCatalog::open(root.join("snaps")).expect("catalog dir");
    let wal_dir = root.join("wal");
    let config = WalConfig {
        segment_bytes: 64 << 10,
        sync: SyncPolicy::GroupCommit,
    };
    let live =
        LiveRelation::build(&relation(n), ShardBy::Hash { col: 0 }, 4, &[0, 1]).expect("spec");
    let node = Arc::new(
        DurableLiveRelation::create(live, &catalog, "sess", &wal_dir, config.clone())
            .expect("fresh durable node"),
    );
    let exec = PooledExecutor::with_default_pool(Arc::clone(&node));

    // Batched writes interleave with pooled reads.
    let applied = node
        .apply_batch((0..64i64).map(|i| {
            if i % 4 == 3 {
                UpdateOp::Delete(i as usize)
            } else {
                UpdateOp::Insert(vec![Value::Int(n + i), Value::str("hot")])
            }
        }))
        .expect("durable batch");
    assert_eq!(applied.len(), 64);
    assert_eq!(node.wal().durable_lsn(), 64, "one commit covered the batch");
    let batch = QueryBatch::new((0..16i64).map(|k| SelectionQuery::point(0, n + k * 4)));
    let got = exec.execute(&batch).expect("pooled batch");
    assert!(got.answers.iter().all(|&a| a), "batched inserts visible");

    // Crash cold; every batched update must come back.
    let expected: Vec<Option<Vec<Value>>> =
        (0..(n as usize + 64)).map(|gid| node.row(gid)).collect();
    drop(exec);
    drop(node);
    let recovered =
        DurableLiveRelation::recover(&catalog, "sess", &wal_dir, config).expect("recovery");
    for (gid, expect) in expected.iter().enumerate() {
        assert_eq!(&recovered.row(gid), expect, "gid {gid}");
    }
}
