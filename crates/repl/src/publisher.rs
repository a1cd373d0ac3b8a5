//! The primary side: publish WAL segments as a polled tail subscription.
//!
//! A [`SegmentPublisher`] wraps the primary's
//! [`DurableLiveRelation`] and serves two jobs:
//!
//! * **Shipping.** [`SegmentPublisher::poll`] returns every record in
//!   `[from, durable)` as a [`Shipment`] — record frames in the exact
//!   on-disk segment wire format (length + LSN + store-codec payload +
//!   FNV-1a-64 checksum), read back from the segment files and capped
//!   at the primary's durable frontier. Re-framing is byte-exact
//!   because the format is deterministic; a follower validates a
//!   shipment with the same scanner that validates segments on disk.
//! * **Retention.** Attached followers register their applied LSN in
//!   the publisher's subscription table; the minimum across the table
//!   is the [retention watermark](SegmentPublisher::retention_watermark)
//!   that [`SegmentPublisher::compact_primary`] hands the WAL
//!   compactor, so a compaction pass can never touch a segment an
//!   attached follower has yet to fetch.
//!
//! The subscription table sits behind a `FollowerCatchup`-ranked lock
//! (see the `pitract-core` lockdep table): it is held across the
//! compaction pass — pure file I/O plus the WAL tiers above rank 45 —
//! and never across anything that re-enters the engine.

use crate::ReplError;
use pitract_core::lockdep::{LockRank, OrderedMutex};
use pitract_obs::{Counter, Recorder};
use pitract_wal::compactor::CompactionReport;
use pitract_wal::segment::{encode_record, parse_segment_file_name, scan_segment};
use pitract_wal::DurableLiveRelation;
use std::path::PathBuf;
use std::sync::Arc;

/// A handle naming one attached follower in the publisher's
/// subscription table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// One polled run of the primary's log: record frames for every WAL
/// record in `[base, end)` that still exists (the primary's compactor
/// may have cancelled insert+delete pairs inside the range — the
/// follower's replay burns those gid gaps), in the on-disk segment wire
/// format.
#[derive(Debug)]
pub struct Shipment {
    base: u64,
    end: u64,
    frames: Vec<u8>,
    records: usize,
    segments_read: usize,
}

impl Shipment {
    /// Reassemble a shipment on the receive side of a transport (the
    /// publisher hands out whole `Shipment`s in-process; a network
    /// transport moves the four parts and rebuilds one here). The
    /// follower's apply path re-validates everything — frame checksums,
    /// LSN monotonicity, and that exactly `records` frames arrived — so
    /// a reassembled shipment is no more trusted than a polled one.
    pub fn from_parts(base: u64, end: u64, records: usize, frames: Vec<u8>) -> Self {
        Shipment {
            base,
            end,
            frames,
            records,
            segments_read: 0,
        }
    }

    /// The LSN this shipment was fetched from (its records all sit at
    /// or above it).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The LSN after the last position this shipment covers: applying
    /// it advances the follower's cursor here. May exceed the last
    /// record's LSN when the trailing records of the range were
    /// compacted away.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The raw record frames, back to back — exactly the bytes a
    /// segment file holds after its header.
    pub fn frames(&self) -> &[u8] {
        &self.frames
    }

    /// Number of record frames shipped.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of segment files the poll read frames out of.
    pub fn segments_read(&self) -> usize {
        self.segments_read
    }

    /// Does this shipment advance the follower at all?
    pub fn is_empty(&self) -> bool {
        self.end <= self.base
    }
}

/// The subscription table: who is attached, and how far each has
/// applied. Small (one row per follower), so linear scans suffice.
#[derive(Debug, Default)]
struct SubTable {
    next_id: u64,
    /// `(id, applied_lsn)` per attached follower.
    rows: Vec<(u64, u64)>,
    /// Effective floor of the last compaction routed through this
    /// publisher: records below it may be gone, so fetches must start
    /// at or above it.
    compaction_floor: u64,
}

/// Primary-side replication endpoint: a polled tail subscription over
/// the primary's WAL plus the follower retention table. See the module
/// docs.
#[derive(Debug)]
pub struct SegmentPublisher {
    primary: Arc<DurableLiveRelation>,
    subs: OrderedMutex<SubTable>,
    shipped_segments: Counter,
}

impl SegmentPublisher {
    /// Publish `primary`'s WAL. Unobserved; see
    /// [`Self::new_observed`].
    pub fn new(primary: Arc<DurableLiveRelation>) -> Self {
        Self::new_observed(primary, &Recorder::default())
    }

    /// Publish `primary`'s WAL, counting shipped segments into
    /// `recorder` as `repl_segments_shipped_total` (next to the
    /// `wal_*` series the primary already publishes there).
    pub fn new_observed(primary: Arc<DurableLiveRelation>, recorder: &Recorder) -> Self {
        SegmentPublisher {
            primary,
            // Publisher table = sub-order 0 of the FollowerCatchup
            // rank; follower mirrors use sub-order 1, so the one legal
            // nesting is publisher-before-follower.
            subs: OrderedMutex::with_sub_order(LockRank::FollowerCatchup, 0, SubTable::default()),
            shipped_segments: recorder.counter("repl_segments_shipped_total"),
        }
    }

    /// The primary this publisher ships from.
    pub fn primary(&self) -> &Arc<DurableLiveRelation> {
        &self.primary
    }

    /// The primary's durable frontier: every record below it is fsynced
    /// and therefore shippable.
    pub fn durable_lsn(&self) -> u64 {
        self.primary.wal().durable_lsn()
    }

    /// Attach a follower whose applied cursor is `applied_lsn`. Until
    /// [`Self::detach`], compaction routed through this publisher
    /// retains every segment holding records at or above the follower's
    /// (monotonically advanced) cursor.
    pub fn attach(&self, applied_lsn: u64) -> SubscriptionId {
        let mut subs = self.subs.lock();
        let id = subs.next_id;
        subs.next_id += 1;
        subs.rows.push((id, applied_lsn));
        SubscriptionId(id)
    }

    /// Advance an attached follower's applied cursor (monotonic: a
    /// stale advance is ignored). Unknown ids are ignored — detaching
    /// twice or advancing after detach is harmless.
    pub fn advance(&self, sub: SubscriptionId, applied_lsn: u64) {
        let mut subs = self.subs.lock();
        if let Some(row) = subs.rows.iter_mut().find(|(id, _)| *id == sub.0) {
            row.1 = row.1.max(applied_lsn);
        }
    }

    /// Detach a follower: its cursor no longer holds retention.
    pub fn detach(&self, sub: SubscriptionId) {
        self.subs.lock().rows.retain(|(id, _)| *id != sub.0);
    }

    /// The retention watermark: the minimum applied LSN across attached
    /// followers, or `None` when nobody is attached (nothing extra to
    /// retain).
    pub fn retention_watermark(&self) -> Option<u64> {
        self.subs.lock().rows.iter().map(|(_, lsn)| *lsn).min()
    }

    /// The effective floor of the last compaction routed through this
    /// publisher. [`Self::poll`] refuses (typed) to fetch below it.
    pub fn compaction_floor(&self) -> u64 {
        self.subs.lock().compaction_floor
    }

    /// Compact the primary's WAL under the current retention watermark:
    /// segments holding records an attached follower still needs are
    /// left byte-for-byte untouched. The subscription table stays
    /// locked across the pass, so a follower cannot attach-then-fetch
    /// into a range the running pass is about to drop. This is the
    /// *only* compaction entry point that preserves the publisher's
    /// shipping guarantee — compacting the primary directly bypasses
    /// the watermark.
    pub fn compact_primary(&self) -> Result<CompactionReport, ReplError> {
        let mut subs = self.subs.lock();
        let retention = subs.rows.iter().map(|(_, lsn)| *lsn).min();
        let report = self.primary.compact_wal_retaining(retention)?;
        let mark = self.primary.checkpoint_mark();
        let effective = retention.map_or(mark, |r| r.min(mark));
        subs.compaction_floor = subs.compaction_floor.max(effective);
        Ok(report)
    }

    /// Fetch every durable record in `[from, durable_frontier)`. Equivalent
    /// to [`Self::poll_bytes`] with no byte budget.
    pub fn poll(&self, from: u64) -> Result<Shipment, ReplError> {
        self.poll_bytes(from, usize::MAX)
    }

    /// Fetch durable records starting at `from`, stopping once the
    /// shipment holds at least `max_bytes` of frames (at least one
    /// record is always shipped when any is available). The fetch first
    /// flushes the primary's WAL — the shipment's cap *is* the durable
    /// frontier, so a follower can never apply a record the primary
    /// could still lose to a crash.
    ///
    /// Fails typed with [`ReplError::Stale`] when `from` is below the
    /// publisher's compaction floor (the records may no longer exist;
    /// the follower must re-bootstrap).
    pub fn poll_bytes(&self, from: u64, max_bytes: usize) -> Result<Shipment, ReplError> {
        let floor = self.compaction_floor();
        if from < floor {
            return Err(ReplError::Stale { from, floor });
        }
        // Flush first: everything below the returned frontier is stable
        // on the primary, so shipping up to it never replicates an
        // unconfirmed suffix.
        let durable = self.primary.wal().sync()?;
        if durable <= from {
            return Ok(Shipment {
                base: from,
                end: from,
                frames: Vec::new(),
                records: 0,
                segments_read: 0,
            });
        }

        // Enumerate segment files; segment i holds LSNs in
        // [base_i, base_{i+1}), so files entirely below `from` are
        // skipped without being read.
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(self.primary.wal_dir())? {
            let path = entry?.path();
            if let Some(base) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_segment_file_name)
            {
                files.push((base, path));
            }
        }
        files.sort();

        let mut frames = Vec::new();
        let mut records = 0usize;
        let mut segments_read = 0usize;
        let mut last_shipped: Option<u64> = None;
        let mut capped = false;
        'files: for (i, (base, path)) in files.iter().enumerate() {
            let upper = files.get(i + 1).map(|(b, _)| *b).unwrap_or(u64::MAX);
            if upper <= from || *base >= durable {
                continue;
            }
            let last = i + 1 == files.len();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            // The active segment may be mid-append under us: a read
            // snapshot can end inside a frame, which the scanner treats
            // as a torn tail (`last = true`). Those unconfirmed bytes
            // are above the durable frontier anyway.
            let bytes = std::fs::read(path)?;
            let scan = scan_segment(&bytes, *base, last, name)?;
            let mut contributed = false;
            for (lsn, payload) in &scan.records {
                if *lsn < from {
                    continue;
                }
                if *lsn >= durable {
                    break 'files;
                }
                frames.extend_from_slice(&encode_record(*lsn, payload));
                records += 1;
                contributed = true;
                last_shipped = Some(*lsn);
                if frames.len() >= max_bytes {
                    segments_read += 1;
                    capped = true;
                    break 'files;
                }
            }
            if contributed {
                segments_read += 1;
            }
        }
        // Uncapped, the shipment covers the whole range up to the
        // durable frontier even when its trailing records were
        // compacted away — the follower bridges the gap by advancing
        // its cursor (and epoch clock) without replaying anything.
        let end = if capped {
            // Safe: capped implies at least one shipped record.
            last_shipped.map_or(from, |l| l + 1)
        } else {
            durable
        };
        self.shipped_segments.add(segments_read as u64);
        Ok(Shipment {
            base: from,
            end,
            frames,
            records,
            segments_read,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::tempdir::TempDir;
    use pitract_engine::LiveRelation;
    use pitract_engine::ShardBy;
    use pitract_relation::{ColType, Relation, Schema, Value};
    use pitract_store::SnapshotCatalog;
    use pitract_wal::{SyncPolicy, WalConfig};
    use std::path::Path;

    fn primary(root: &Path, rows: i64) -> Arc<DurableLiveRelation> {
        let schema = Schema::new(&[("id", ColType::Int)]);
        let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let live = LiveRelation::build(&rel, ShardBy::Hash { col: 0 }, 2, &[0]).unwrap();
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        Arc::new(
            DurableLiveRelation::create(
                live,
                &catalog,
                "node",
                root.join("wal"),
                WalConfig {
                    segment_bytes: 160,
                    sync: SyncPolicy::GroupCommit,
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn poll_ships_exactly_the_durable_tail_in_wire_format() {
        let root = TempDir::new("replpub-wire");
        let node = primary(&root, 4);
        for i in 0..10i64 {
            node.insert(vec![Value::Int(100 + i)]).unwrap();
        }
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let ship = publisher.poll(0).unwrap();
        assert_eq!(ship.base(), 0);
        assert_eq!(ship.end(), 10);
        assert_eq!(ship.records(), 10);
        assert!(ship.segments_read() > 1, "tiny segments force rotation");
        // The frames parse with the on-disk segment scanner.
        let mut bytes = pitract_wal::segment::segment_header(0);
        bytes.extend_from_slice(ship.frames());
        let scan = scan_segment(&bytes, 0, false, "shipment").unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records.first().unwrap().0, 0);
        assert_eq!(scan.records.last().unwrap().0, 9);
        // Re-polling from the end is empty, not an error.
        let again = publisher.poll(ship.end()).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn byte_budget_caps_a_shipment_without_losing_records() {
        let root = TempDir::new("replpub-cap");
        let node = primary(&root, 0);
        for i in 0..20i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        let mut from = 0u64;
        let mut total = 0usize;
        let mut polls = 0usize;
        while polls < 100 {
            let ship = publisher.poll_bytes(from, 64).unwrap();
            if ship.is_empty() {
                break;
            }
            total += ship.records();
            from = ship.end();
            polls += 1;
        }
        assert_eq!(total, 20, "every record arrives across capped polls");
        assert!(polls > 1, "the budget actually split the stream");
    }

    #[test]
    fn retention_watermark_tracks_the_slowest_attached_follower() {
        let root = TempDir::new("replpub-watermark");
        let node = primary(&root, 0);
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        assert_eq!(publisher.retention_watermark(), None);
        let slow = publisher.attach(3);
        let fast = publisher.attach(17);
        assert_eq!(publisher.retention_watermark(), Some(3));
        publisher.advance(slow, 11);
        assert_eq!(publisher.retention_watermark(), Some(11));
        // Advances are monotonic; a stale advance cannot move it back.
        publisher.advance(slow, 5);
        assert_eq!(publisher.retention_watermark(), Some(11));
        publisher.detach(slow);
        assert_eq!(publisher.retention_watermark(), Some(17));
        publisher.detach(fast);
        assert_eq!(publisher.retention_watermark(), None);
    }

    #[test]
    fn polling_below_the_compaction_floor_is_stale_typed() {
        let root = TempDir::new("replpub-stale");
        let node = primary(&root, 0);
        let catalog = SnapshotCatalog::open(root.join("snaps")).unwrap();
        for i in 0..30i64 {
            node.insert(vec![Value::Int(i)]).unwrap();
        }
        node.checkpoint(&catalog, "node").unwrap();
        node.wal().rotate_now().unwrap();
        let publisher = SegmentPublisher::new(Arc::clone(&node));
        // Nobody attached: compaction drops everything below the mark.
        publisher.compact_primary().unwrap();
        let err = publisher.poll(0).unwrap_err();
        assert!(matches!(err, ReplError::Stale { from: 0, .. }), "{err}");
        // At or above the floor still serves.
        let floor = publisher.compaction_floor();
        assert!(floor > 0);
        assert!(publisher.poll(floor).is_ok());
    }
}
