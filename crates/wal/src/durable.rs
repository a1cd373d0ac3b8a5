//! The durable serving tier: a [`LiveRelation`] whose every confirmed
//! update survives a crash at any instant.
//!
//! [`DurableLiveRelation`] wires a [`WalWriter`] into the engine's
//! [`WalSink`] hook: each insert/delete is staged to the WAL **inside
//! the global-id critical section** (so WAL order ≡ gid order ≡ epoch
//! order, even under racing writers) and committed durable after the
//! locks drop (so fsyncs batch across writers instead of stalling the
//! shard). The WAL is the node's only log: the engine keeps no
//! in-memory copy of the updates. The companion checkpoint persists the
//! frozen state *and* the WAL position it covers as one atomic
//! [`Snapshot::Checkpoint`] file — there is no instant at which a crash
//! can observe a state without its mark, which is the classic
//! lost-update window of two-file schemes.
//!
//! # One offset between epoch and LSN
//!
//! Every logged update takes one LSN and one epoch tick, so the
//! bootstrap checkpoint fixes `epoch − lsn = cut − mark` for the node's
//! life ([`EpochLsn`]): a freeze's cut epoch is the checkpoint's WAL mark
//! ([`DurableLiveRelation::lsn_of_epoch`]), and [`restore`] resumes the
//! clock at the epoch of the next LSN, however much of the tail
//! compaction dropped ([`DurableLiveRelation::recovery_summary`]).

use crate::compactor::{CompactionReport, Compactor};
use crate::error::WalError;
use crate::reader::WalReader;
use crate::restore::{restore, EpochLsn, Recovered};
use crate::writer::{WalConfig, WalWriter};
use pitract_core::epoch::Epoch;
use pitract_engine::batch::WorkerResults;
use pitract_engine::planner::QueryPlan;
use pitract_engine::{BatchServe, EngineError, LiveRelation, UpdateEntry, WalSink};
use pitract_obs::Recorder;
use pitract_relation::SelectionQuery;
use pitract_store::{Snapshot, SnapshotCatalog};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The [`WalSink`] adapter staging a [`LiveRelation`]'s updates into a
/// [`WalWriter`]. Public so deployments composing their own recovery
/// flow can install it directly via
/// [`LiveRelation::set_wal_sink`].
#[derive(Debug)]
pub struct WalWriterSink {
    wal: Arc<WalWriter>,
}

impl WalWriterSink {
    /// Wrap a writer as a sink.
    pub fn new(wal: Arc<WalWriter>) -> Self {
        WalWriterSink { wal }
    }
}

impl WalSink for WalWriterSink {
    fn stage(&self, entry: &UpdateEntry) -> Result<u64, EngineError> {
        self.wal
            .append_entry(entry)
            .map_err(|e| EngineError::WalSink {
                message: e.to_string(),
            })
    }

    fn commit(&self, ticket: u64) -> Result<(), EngineError> {
        self.wal.commit(ticket).map_err(|e| EngineError::WalSink {
            message: e.to_string(),
        })
    }
}

/// A [`LiveRelation`] with a durable write-ahead log underneath: a crash
/// at any instant loses no confirmed update.
///
/// Derefs to [`LiveRelation`], so the whole serving API — `insert`,
/// `delete`, `answer`, `execute`, `boundedness_report`, … — is available
/// unchanged; updates flow through the installed sink automatically.
#[derive(Debug)]
pub struct DurableLiveRelation {
    live: LiveRelation,
    wal: Arc<WalWriter>,
    /// The epoch ↔ LSN rule, fixed by the bootstrap checkpoint.
    clock: EpochLsn,
    /// The latest durably confirmed checkpoint mark (what compaction may
    /// drop below).
    last_mark: AtomicU64,
    /// What [`Self::recover`] reconstructed; `None` on a fresh
    /// [`Self::create`].
    recovered: Option<Recovered>,
}

impl std::ops::Deref for DurableLiveRelation {
    type Target = LiveRelation;

    fn deref(&self) -> &LiveRelation {
        &self.live
    }
}

impl DurableLiveRelation {
    /// Go durable: attach a WAL at `wal_dir` to `live` and write the
    /// bootstrap checkpoint under `name` — without it, a crash before
    /// the first explicit checkpoint would have no state to replay the
    /// log onto. `live` must have an empty pending log (freshly built or
    /// just checkpointed); updates that predate the WAL would otherwise
    /// silently sit outside the durability contract.
    pub fn create(
        live: LiveRelation,
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        Self::create_observed(live, catalog, name, wal_dir, config, &Recorder::default())
    }

    /// [`Self::create`] with one observability handle threaded through
    /// the whole durable stack: the WAL writer's `wal_*` series, the
    /// engine's `engine_*`/`mvcc_*` series, and the trace buffer all
    /// share `recorder`, so a single [`pitract_obs::MetricsSnapshot`]
    /// covers the node end to end.
    pub fn create_observed(
        mut live: LiveRelation,
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<PathBuf>,
        config: WalConfig,
        recorder: &Recorder,
    ) -> Result<Self, WalError> {
        let pending = live.pending_log().len();
        if pending > 0 {
            return Err(WalError::PendingUpdates { count: pending });
        }
        live.set_recorder(recorder);
        let wal = Arc::new(WalWriter::open_observed(wal_dir, config, recorder)?);
        // Anything already in the directory (a reused path) is below the
        // bootstrap mark and therefore dead: the checkpoint covers it.
        let mark = wal.next_lsn();
        let frozen = live.freeze();
        catalog.save(
            name,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: mark,
                epoch: frozen.epoch,
            },
        )?;
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        Ok(DurableLiveRelation {
            live,
            wal,
            clock: EpochLsn::at_checkpoint(mark, frozen.epoch),
            last_mark: AtomicU64::new(mark),
            recovered: None,
        })
    }

    /// Recover after a crash (or a clean restart — the code path is the
    /// same, which is how it stays tested): load the checkpoint saved
    /// under `name`, truncate any torn WAL tail, replay the compacted
    /// tail at-or-after the checkpoint's mark, and resume durable
    /// serving. The recovered node is bit-identical — answers and global
    /// row ids — to the crashed node's confirmed prefix.
    pub fn recover(
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        Self::recover_observed(catalog, name, wal_dir, config, &Recorder::default())
    }

    /// [`Self::recover`] with metrics: the same recorder threading as
    /// [`Self::create_observed`], plus what recovery itself found — a
    /// torn WAL tail truncated here emits the `wal_torn_tail_truncated`
    /// trace event and `wal_recovery_*` counters instead of vanishing
    /// silently (see [`WalReader::from_scan_observed`]).
    pub fn recover_observed(
        catalog: &SnapshotCatalog,
        name: &str,
        wal_dir: impl Into<PathBuf>,
        config: WalConfig,
        recorder: &Recorder,
    ) -> Result<Self, WalError> {
        let wal_dir = wal_dir.into();
        let (state, mark, cut) = catalog.load(name)?.into_checkpoint()?;
        // One directory scan serves both sides: the writer truncates the
        // torn tail and takes its append position from it, the reader
        // decodes its records for replay — the log is read and
        // checksummed once, not twice. Only the reader side reports the
        // torn tail, so one recovery emits one truncation event.
        let (wal, scan) = WalWriter::open_scanned_observed(&wal_dir, config, mark, recorder)?;
        let wal = Arc::new(wal);
        let reader = WalReader::from_scan_observed(&scan, recorder)?;
        let (mut live, recovered) = restore(state, mark, cut, &reader, recorder)?;
        debug_assert_eq!(recovered.lsn, wal.next_lsn());
        live.set_wal_sink(Some(Arc::new(WalWriterSink::new(wal.clone()))));
        Ok(DurableLiveRelation {
            live,
            wal,
            clock: recovered.clock,
            last_mark: AtomicU64::new(mark),
            recovered: Some(recovered),
        })
    }

    /// The underlying WAL writer (for `sync`, `rotate_now`, metrics).
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// The WAL directory.
    pub fn wal_dir(&self) -> &Path {
        self.wal.dir()
    }

    /// The latest confirmed checkpoint mark.
    pub fn checkpoint_mark(&self) -> u64 {
        self.last_mark.load(Ordering::SeqCst)
    }

    /// What [`Self::recover`] reconstructed — the resumed epoch clock,
    /// the next LSN, and how many updates the compacted replay applied.
    /// `None` for a node born via [`Self::create`].
    pub fn recovery_summary(&self) -> Option<Recovered> {
        self.recovered
    }

    /// LSN of the first WAL record *not* covered by `epoch`, by the
    /// node's checkpoint-fixed [`EpochLsn`] rule.
    pub fn lsn_of_epoch(&self, epoch: Epoch) -> u64 {
        self.clock.lsn_of_epoch(epoch)
    }

    /// The epoch whose state covers exactly the WAL records below
    /// `lsn` — the inverse of [`Self::lsn_of_epoch`].
    pub fn epoch_of_lsn(&self, lsn: u64) -> Epoch {
        self.clock.epoch_of_lsn(lsn)
    }

    /// Checkpoint: freeze the live state and persist it with its WAL
    /// mark as one atomic snapshot. After this returns,
    /// [`Self::compact_wal`] may drop every WAL record below the new
    /// mark.
    pub fn checkpoint(&self, catalog: &SnapshotCatalog, name: &str) -> Result<PathBuf, WalError> {
        // Make sure everything the snapshot will contain is also durable
        // in the log *before* the snapshot supersedes it — an unsynced
        // suffix must never be the only copy of a confirmed update.
        self.wal.sync()?;
        let frozen = self.live.freeze();
        let mark = self.lsn_of_epoch(frozen.epoch);
        let path = catalog.save(
            name,
            &Snapshot::Checkpoint {
                state: frozen.state,
                wal_lsn: mark,
                epoch: frozen.epoch,
            },
        )?;
        self.last_mark.fetch_max(mark, Ordering::SeqCst);
        Ok(path)
    }

    /// Compact the WAL's closed segments against the latest confirmed
    /// checkpoint mark: drop records the checkpoint covers and
    /// insert+delete pairs that cancel, bounding recovery replay (and
    /// disk) by net change instead of churn. Call [`Self::checkpoint`]
    /// first for the mark to be meaningful; rotation
    /// ([`WalWriter::rotate_now`] or the size threshold) determines how
    /// much of the log is closed and therefore compactable.
    pub fn compact_wal(&self) -> Result<CompactionReport, WalError> {
        self.compact_wal_retaining(None)
    }

    /// [`Self::compact_wal`] under a replication retention watermark:
    /// closed segments holding any record at or above `retention` are
    /// left byte-for-byte untouched, so an attached follower that has
    /// applied up to `retention` can still fetch everything it is owed
    /// after the pass. A `pitract-repl` `SegmentPublisher` computes the
    /// watermark as the minimum applied LSN across attached followers
    /// and routes compaction through here.
    pub fn compact_wal_retaining(
        &self,
        retention: Option<u64>,
    ) -> Result<CompactionReport, WalError> {
        Compactor::new(self.checkpoint_mark())
            .with_retention(retention)
            .compact_dir(self.wal.dir())
    }
}

/// Serve a durable node from a persistent
/// [`pitract_engine::PooledExecutor`] exactly like its inner live
/// relation: every method delegates, so an
/// `Arc<DurableLiveRelation>` drops straight into a pooled serving
/// session while updates (including [`LiveRelation::apply_batch`] — one
/// WAL fsync per batch) keep flowing through the WAL sink.
impl BatchServe for DurableLiveRelation {
    fn route(
        &self,
        queries: &[SelectionQuery],
    ) -> Result<(Vec<QueryPlan>, Vec<Vec<usize>>), EngineError> {
        BatchServe::route(&self.live, queries)
    }

    fn shard_count(&self) -> usize {
        BatchServe::shard_count(&self.live)
    }

    fn pin_epoch(&self) -> Option<Epoch> {
        BatchServe::pin_epoch(&self.live)
    }

    fn unpin_epoch(&self, epoch: Epoch) {
        BatchServe::unpin_epoch(&self.live, epoch);
    }

    fn eval_bool(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<bool> {
        self.live.eval_bool(shard, at, queries, assigned)
    }

    fn eval_rows(
        &self,
        shard: usize,
        at: Epoch,
        queries: &[SelectionQuery],
        assigned: &[usize],
    ) -> WorkerResults<Vec<usize>> {
        self.live.eval_rows(shard, at, queries, assigned)
    }

    fn global_ids(&self, shard: usize, locals: &[usize]) -> Vec<usize> {
        self.live.global_ids(shard, locals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SyncPolicy;
    use pitract_core::tempdir::TempDir;
    use pitract_engine::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};
    use pitract_store::StoreError;

    fn schema() -> Schema {
        Schema::new(&[("id", ColType::Int), ("grp", ColType::Str)])
    }

    fn live(n: i64) -> LiveRelation {
        let rows = (0..n)
            .map(|i| vec![Value::Int(i), Value::str(format!("grp{}", i % 8))])
            .collect();
        let rel = Relation::from_rows(schema(), rows).unwrap();
        LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 3, &[0, 1]).unwrap()
    }

    fn config() -> WalConfig {
        WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::GroupCommit,
        }
    }

    /// State-focused tests run the WAL without fsyncs: what they check
    /// is the rebuilt state, not durability.
    fn unsynced() -> WalConfig {
        WalConfig {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::Never,
        }
    }

    fn durable(root: &TempDir, catalog: &SnapshotCatalog, n: i64) -> DurableLiveRelation {
        DurableLiveRelation::create(live(n), catalog, "node", root.join("wal"), unsynced()).unwrap()
    }

    fn recover(root: &TempDir, catalog: &SnapshotCatalog, name: &str) -> DurableLiveRelation {
        DurableLiveRelation::recover(catalog, name, root.join("wal"), unsynced()).unwrap()
    }

    /// Checkpoint, keep writing, crash, recover: the rebuilt node is
    /// bit-identical — rows under every gid, answers, and the epoch
    /// clock — and replays exactly the post-checkpoint tail.
    #[test]
    fn checkpoint_then_recover_is_bit_identical() {
        let root = TempDir::new("wald-ckpt-roundtrip");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = durable(&root, &catalog, 60);
        node.delete(10).unwrap().unwrap();
        node.insert(vec![Value::Int(600), Value::str("pre")])
            .unwrap();
        node.checkpoint(&catalog, "node").unwrap();
        assert_eq!(node.checkpoint_mark(), 2);

        // Post-checkpoint traffic, covered only by the WAL tail.
        node.insert(vec![Value::Int(601), Value::str("post")])
            .unwrap();
        node.delete(20).unwrap().unwrap();
        let epoch = node.current_epoch();
        let rows: Vec<Option<Vec<Value>>> = (0..62).map(|gid| node.row(gid)).collect();
        let queries = [
            SelectionQuery::point(0, 600i64),
            SelectionQuery::point(0, 601i64),
            SelectionQuery::point(0, 20i64),
            SelectionQuery::range_closed(0, 0i64, 700i64),
        ];
        let answers: Vec<Vec<usize>> = queries.iter().map(|q| node.matching_ids(q)).collect();
        drop(node);

        let recovered = recover(&root, &catalog, "node");
        let summary = recovered.recovery_summary().unwrap();
        assert_eq!(summary.epoch, epoch, "the clock resumes where it stood");
        assert_eq!(recovered.current_epoch(), epoch);
        assert_eq!(summary.lsn, 4, "the WAL resumes after the last record");
        assert_eq!(summary.replayed, 2);
        for (gid, expect) in rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        for (q, expect) in queries.iter().zip(&answers) {
            assert_eq!(&recovered.matching_ids(q), expect, "{q:?}");
        }
    }

    /// A WAL recorded against some other history fails recovery typed
    /// instead of silently diverging.
    #[test]
    fn recovery_from_a_foreign_history_fails_typed() {
        let root = TempDir::new("wald-foreign");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        drop(durable(&root, &catalog, 10));
        // A second node with 50 rows writes its own WAL history.
        let other = TempDir::new("wald-foreign-other");
        let other_catalog = SnapshotCatalog::open(other.join("snaps")).unwrap();
        let node = durable(&other, &other_catalog, 50);
        node.delete(40).unwrap().unwrap();
        drop(node);
        // The 10-row checkpoint has no gid 40 to delete.
        let err = DurableLiveRelation::recover(&catalog, "node", other.join("wal"), unsynced())
            .unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Engine(EngineError::ReplayMissingRow { gid: 40 })
            ),
            "{err}"
        );
    }

    /// Recovery replays the compacted tail: 30 insert+delete pairs are
    /// never re-applied, yet the node is bit-identical on answers, row
    /// ids and the epoch clock.
    #[test]
    fn recovery_replays_only_the_net_change() {
        let root = TempDir::new("wald-netchange");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = durable(&root, &catalog, 20);
        for i in 0..30i64 {
            let gid = node
                .insert(vec![Value::Int(900 + i), Value::str("churn")])
                .unwrap();
            node.delete(gid).unwrap().unwrap();
        }
        node.insert(vec![Value::Int(777), Value::str("kept")])
            .unwrap();
        node.delete(5).unwrap().unwrap();
        let epoch = node.current_epoch();
        assert_eq!(epoch, Epoch::new(62));
        let rows: Vec<Option<Vec<Value>>> = (0..55).map(|gid| node.row(gid)).collect();
        drop(node);

        let recovered = recover(&root, &catalog, "node");
        assert_eq!(recovered.recovery_summary().unwrap().replayed, 2);
        assert_eq!(
            recovered.boundedness_report().len(),
            2,
            "only the net change was replayed"
        );
        assert_eq!(
            recovered.current_epoch(),
            epoch,
            "churn still ticked the clock"
        );
        for (gid, expect) in rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        assert!(recovered.answer(&SelectionQuery::point(0, 777i64)));
        assert!(!recovered.answer(&SelectionQuery::point(1, "churn")));
        // The allocator resumes past the cancelled ids too.
        assert_eq!(
            recovered
                .insert(vec![Value::Int(1), Value::str("next")])
                .unwrap(),
            51
        );
    }

    /// A checkpoint that fails to save changes nothing: the mark stays,
    /// and recovery from the previous checkpoint still finds every
    /// update in the WAL.
    #[test]
    fn failed_checkpoint_keeps_the_state_recoverable() {
        let root = TempDir::new("wald-failsave");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = durable(&root, &catalog, 5);
        node.insert(vec![Value::Int(50), Value::str("kept")])
            .unwrap();
        let err = node.checkpoint(&catalog, "../escape").unwrap_err();
        assert!(
            matches!(err, WalError::Store(StoreError::InvalidName(_))),
            "{err}"
        );
        assert_eq!(node.checkpoint_mark(), 0, "the mark did not move");
        // Compaction against the unmoved mark keeps the insert too.
        node.wal().rotate_now().unwrap();
        node.compact_wal().unwrap();
        drop(node);
        let recovered = recover(&root, &catalog, "node");
        assert_eq!(recovered.len(), 6);
        assert!(recovered.answer(&SelectionQuery::point(0, 50i64)));
    }

    /// The WAL is a durable node's only log: neither single updates nor
    /// `apply_batch` leave an in-memory copy behind, before or after a
    /// recovery.
    #[test]
    fn a_durable_node_keeps_no_in_memory_log() {
        use pitract_engine::UpdateOp;
        let root = TempDir::new("wald-onelog");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = durable(&root, &catalog, 10);
        for b in 0..20i64 {
            node.apply_batch(
                (0..8i64).map(|i| {
                    UpdateOp::Insert(vec![Value::Int(1_000 + b * 8 + i), Value::str("b")])
                }),
            )
            .unwrap();
        }
        node.delete(3).unwrap().unwrap();
        assert_eq!(node.wal().next_lsn(), 161);
        assert_eq!(node.pending_log().len(), 0, "the WAL holds every update");
        drop(node);
        let recovered = recover(&root, &catalog, "node");
        assert_eq!(recovered.recovery_summary().unwrap().replayed, 161);
        assert_eq!(recovered.pending_log().len(), 0, "replay records nothing");
        recovered
            .apply_batch([UpdateOp::Delete(4), UpdateOp::Delete(5)])
            .unwrap();
        assert_eq!(recovered.pending_log().len(), 0);
        assert_eq!(recovered.len(), 10 + 160 - 3);
    }

    #[test]
    fn create_write_crash_recover_is_bit_identical() {
        let root = TempDir::new("wald-roundtrip");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let node =
            DurableLiveRelation::create(live(40), &catalog, "node", &wal_dir, config()).unwrap();
        let g = node
            .insert(vec![Value::Int(500), Value::str("new")])
            .unwrap();
        node.delete(3).unwrap().unwrap();
        node.delete(g).unwrap().unwrap();
        node.insert(vec![Value::Int(501), Value::str("kept")])
            .unwrap();

        // "Crash": drop the node without checkpointing; recover from the
        // bootstrap checkpoint + WAL alone.
        let expected_rows: Vec<Option<Vec<Value>>> = (0..45).map(|gid| node.row(gid)).collect();
        let expected_len = node.len();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(recovered.len(), expected_len);
        for (gid, expect) in expected_rows.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
        assert!(recovered.answer(&SelectionQuery::point(0, 501i64)));
        assert!(!recovered.answer(&SelectionQuery::point(0, 500i64)));
    }

    #[test]
    fn checkpoint_marks_advance_and_recovery_replays_only_the_tail() {
        let root = TempDir::new("wald-marks");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let node =
            DurableLiveRelation::create(live(10), &catalog, "node", &wal_dir, config()).unwrap();
        for i in 0..20i64 {
            node.insert(vec![Value::Int(100 + i), Value::str("pre")])
                .unwrap();
        }
        node.checkpoint(&catalog, "node").unwrap();
        assert_eq!(node.checkpoint_mark(), 20);
        for i in 0..5i64 {
            node.insert(vec![Value::Int(200 + i), Value::str("post")])
                .unwrap();
        }
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert_eq!(
            recovered.boundedness_report().len(),
            5,
            "only the post-checkpoint tail was replayed"
        );
        assert_eq!(recovered.len(), 35);
        // The recovered node continues the LSN sequence seamlessly: a
        // fresh update and another recovery still agree.
        recovered
            .insert(vec![Value::Int(999), Value::str("again")])
            .unwrap();
        drop(recovered);
        let again = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        assert!(again.answer(&SelectionQuery::point(0, 999i64)));
        assert_eq!(again.len(), 36);
    }

    #[test]
    fn compaction_after_checkpoint_never_changes_recovered_state() {
        let root = TempDir::new("wald-compact");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let node =
            DurableLiveRelation::create(live(8), &catalog, "node", &wal_dir, config()).unwrap();
        // Churn: lots of insert+delete pairs, few survivors.
        for i in 0..40i64 {
            let gid = node
                .insert(vec![Value::Int(300 + i), Value::str("churn")])
                .unwrap();
            if i % 5 != 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.checkpoint(&catalog, "ckpt").unwrap();
        for i in 0..10i64 {
            let gid = node
                .insert(vec![Value::Int(400 + i), Value::str("tail")])
                .unwrap();
            if i % 2 == 0 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.wal().rotate_now().unwrap();

        let before = DurableLiveRelation::recover(&catalog, "ckpt", &wal_dir, config()).unwrap();
        let report = node.compact_wal().unwrap();
        assert!(report.records_after < report.records_before, "{report:?}");
        let after = DurableLiveRelation::recover(&catalog, "ckpt", &wal_dir, config()).unwrap();
        assert_eq!(before.len(), after.len());
        for gid in 0..60 {
            assert_eq!(before.row(gid), after.row(gid), "gid {gid}");
        }
        for q in [
            SelectionQuery::point(1, "churn"),
            SelectionQuery::point(1, "tail"),
            SelectionQuery::range_closed(0, 0i64, 500i64),
        ] {
            assert_eq!(before.matching_ids(&q), after.matching_ids(&q), "{q:?}");
        }
    }

    #[test]
    fn apply_batch_commits_once_is_durable_and_recovers() {
        use pitract_engine::{Applied, UpdateOp};
        let root = TempDir::new("wald-batchapply");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let node =
            DurableLiveRelation::create(live(20), &catalog, "node", &wal_dir, config()).unwrap();
        let applied = node
            .apply_batch((0..50i64).map(|i| {
                if i % 5 == 4 {
                    UpdateOp::Delete(i as usize)
                } else {
                    UpdateOp::Insert(vec![Value::Int(700 + i), Value::str("batch")])
                }
            }))
            .unwrap();
        assert_eq!(applied.len(), 50);
        assert!(matches!(applied[0], Applied::Inserted(20)));
        // The whole batch is durable on return: under group commit the
        // single trailing commit's fsync covered every staged record.
        assert_eq!(node.wal().durable_lsn(), 50);
        let expected: Vec<Option<Vec<Value>>> = (0..65).map(|gid| node.row(gid)).collect();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
    }

    #[test]
    fn pooled_executor_serves_a_durable_node() {
        use pitract_engine::{PoolConfig, PooledExecutor, QueryBatch};
        let root = TempDir::new("wald-pooled");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let node = Arc::new(
            DurableLiveRelation::create(live(100), &catalog, "node", root.join("wal"), config())
                .unwrap(),
        );
        let exec = PooledExecutor::new(
            Arc::clone(&node),
            PoolConfig {
                workers: 2,
                max_inflight: 2,
            },
        );
        let batch = QueryBatch::new((0..30i64).map(|k| SelectionQuery::point(0, k * 3)));
        // Queries on the pool interleave with durable updates.
        std::thread::scope(|scope| {
            let writer = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..40i64 {
                    writer
                        .insert(vec![Value::Int(5_000 + i), Value::str("w")])
                        .unwrap();
                }
            });
            for _ in 0..10 {
                let got = exec.execute(&batch).unwrap();
                assert!(got.answers.iter().all(|&a| a), "stable region hits");
            }
        });
        let rows = exec.execute_rows(&batch).unwrap();
        for (k, ids) in rows.rows.iter().enumerate() {
            assert_eq!(ids, &vec![k * 3], "gid of key {}", k * 3);
        }
    }

    #[test]
    fn create_refuses_a_relation_with_pending_updates() {
        let root = TempDir::new("wald-pending");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let lr = live(5);
        lr.insert(vec![Value::Int(99), Value::str("unlogged")])
            .unwrap();
        let err = DurableLiveRelation::create(lr, &catalog, "node", root.join("wal"), config())
            .unwrap_err();
        assert!(
            matches!(err, WalError::PendingUpdates { count: 1 }),
            "{err}"
        );
    }

    /// One recorder threaded through the whole durable stack: WAL,
    /// engine, and MVCC series all land in a single snapshot.
    #[test]
    fn observed_stack_publishes_wal_engine_and_mvcc_series() {
        let root = TempDir::new("wald-observed");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let recorder = Recorder::new();
        let node = DurableLiveRelation::create_observed(
            live(10),
            &catalog,
            "node",
            &wal_dir,
            config(),
            &recorder,
        )
        .unwrap();
        for i in 0..8i64 {
            let gid = node
                .insert(vec![Value::Int(100 + i), Value::str("obs")])
                .unwrap();
            if i % 2 == 1 {
                node.delete(gid).unwrap().unwrap();
            }
        }
        node.answer(&SelectionQuery::point(0, 104i64));
        node.publish_metrics();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("wal_appends_total"), Some(12));
        assert!(snap.counter("wal_appended_bytes_total").unwrap() > 0);
        assert!(snap.histogram("wal_fsync_micros").unwrap().count > 0);
        assert!(snap.histogram("wal_group_commit_records").unwrap().count > 0);
        assert_eq!(snap.counter("engine_updates_total"), Some(12));
        assert!(snap.gauge("mvcc_current_epoch").unwrap() >= 12);
        drop(node);

        // Recovery threads the same handle; the replay's updates land in
        // the (fresh) recorder too.
        let recorder = Recorder::new();
        let node =
            DurableLiveRelation::recover_observed(&catalog, "node", &wal_dir, config(), &recorder)
                .unwrap();
        let replayed = node.recovery_summary().unwrap().replayed as u64;
        let snap = recorder.snapshot();
        assert!(replayed > 0);
        assert_eq!(
            snap.counter("engine_updates_total"),
            Some(replayed),
            "one engine update per compacted replay entry"
        );
        assert_eq!(
            snap.counter("wal_recovery_truncations_total"),
            None,
            "clean shutdown"
        );
    }

    #[test]
    fn concurrent_writers_recover_consistently() {
        let root = TempDir::new("wald-race");
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        let wal_dir = root.join("wal");
        let node =
            DurableLiveRelation::create(live(0), &catalog, "node", &wal_dir, config()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let node = &node;
                scope.spawn(move || {
                    for i in 0..30i64 {
                        let gid = node
                            .insert(vec![Value::Int(t * 1000 + i), Value::str("w")])
                            .unwrap();
                        if i % 3 == 0 {
                            node.delete(gid).unwrap().unwrap();
                        }
                    }
                });
            }
        });
        let expected: Vec<Option<Vec<Value>>> = (0..120).map(|gid| node.row(gid)).collect();
        drop(node);
        let recovered = DurableLiveRelation::recover(&catalog, "node", &wal_dir, config()).unwrap();
        for (gid, expect) in expected.iter().enumerate() {
            assert_eq!(&recovered.row(gid), expect, "gid {gid}");
        }
    }
}
