//! The one way to rebuild a live node: checkpoint + log tail.
//!
//! A crashed primary and a bootstrapping (or restarting) follower start
//! from the same two pieces: a [`pitract_store::Snapshot::Checkpoint`]
//! — the frozen state, the WAL mark it covers, and the epoch of its cut
//! — and a scanned log holding the records at or after the mark (the
//! primary's own WAL, or the follower's mirror of it). [`restore`]
//! turns the pair into a [`LiveRelation`], and both
//! `DurableLiveRelation::recover` and `Follower::bootstrap` go through
//! it, so primary and replica cannot rebuild differently.
//!
//! # The epoch ↔ LSN rule
//!
//! Every logged update takes one LSN and ticks the epoch clock once, so
//! on a durable node `epoch − lsn` never changes. The checkpoint fixes
//! it: `epoch − lsn = cut − mark` ([`EpochLsn`]). The rule holds across
//! later checkpoints (each takes its mark from the rule) and across
//! recovery (the clock resumes at `epoch_of_lsn(next_lsn)`), and
//! compaction cannot move it: dropping cancelled pairs leaves LSN gaps,
//! and the clock spans a gap instead of counting surviving records. A
//! rebuilt node's state and clock therefore depend only on the
//! checkpoint and the log, never on how compaction trimmed the log.

use crate::error::WalError;
use crate::reader::WalReader;
use pitract_core::epoch::Epoch;
use pitract_engine::{LiveRelation, ShardedRelation};
use pitract_obs::Recorder;

/// The epoch ↔ LSN rule a checkpoint fixes for the life of a node:
/// `epoch − lsn = cut − mark`, where `mark` is the checkpoint's WAL
/// mark and `cut` the epoch of its frozen state. LSNs below the mark
/// clamp to the cut, and epochs below the cut to the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochLsn {
    mark: u64,
    cut: u64,
}

impl EpochLsn {
    /// The rule of a checkpoint with WAL mark `mark` and cut epoch `cut`.
    pub(crate) fn at_checkpoint(mark: u64, cut: Epoch) -> Self {
        EpochLsn {
            mark,
            cut: cut.get(),
        }
    }

    /// The epoch whose state covers exactly the records below `lsn`.
    pub fn epoch_of_lsn(self, lsn: u64) -> Epoch {
        Epoch::new(self.cut + lsn.saturating_sub(self.mark))
    }

    /// The first LSN *not* covered by `epoch` — the inverse of
    /// [`Self::epoch_of_lsn`].
    pub fn lsn_of_epoch(self, epoch: Epoch) -> u64 {
        self.mark + epoch.get().saturating_sub(self.cut)
    }
}

/// What [`restore`] rebuilt: where the node's clocks resumed and how
/// much replay it took to get there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The epoch clock after recovery, `clock.epoch_of_lsn(lsn)` —
    /// exactly where the lost node's clock stood. The next applied
    /// update is stamped `epoch + 1`.
    pub epoch: Epoch,
    /// The next LSN: where the log resumes (the checkpoint mark when no
    /// record lies past it).
    pub lsn: u64,
    /// Updates actually replayed — the *compacted* net change, not the
    /// logged churn.
    pub replayed: usize,
    /// The node's epoch ↔ LSN rule, fixed by the checkpoint.
    pub clock: EpochLsn,
}

/// Rebuild a node from a checkpoint's `(state, mark, cut)` and a scanned
/// log `tail` (a WAL or a follower's mirror): compact the records at or
/// after `mark` so replay work is bounded by net change, replay them,
/// burn the global ids of trailing cancelled pairs so future inserts get
/// the ids the lost node would have assigned, and set the epoch clock to
/// `cut + (next_lsn − mark)`. `recorder` is installed before the replay,
/// so replayed updates count in its `engine_*` series. The result is
/// bit-identical — answers and global row ids — to the state the log
/// records, or a typed error when the log belongs to another history.
pub fn restore(
    state: ShardedRelation,
    mark: u64,
    cut: Epoch,
    tail: &WalReader,
    recorder: &Recorder,
) -> Result<(LiveRelation, Recovered), WalError> {
    let mut live = LiveRelation::from_sharded(state);
    live.set_recorder(recorder);
    let log = tail.tail_log(mark);
    let compacted = log.compact();
    live.replay_compacted(&compacted)?;
    // Trailing cancelled pairs leave no entry to carry their ids; burn
    // up to the uncompacted tail's watermark.
    if let Some(watermark) = log.next_gid_watermark() {
        live.burn_gids_to(watermark);
    }
    let clock = EpochLsn::at_checkpoint(mark, cut);
    let lsn = tail.next_lsn().max(mark);
    let epoch = clock.epoch_of_lsn(lsn);
    live.advance_epoch_to(epoch);
    let recovered = Recovered {
        epoch,
        lsn,
        replayed: compacted.len(),
        clock,
    };
    Ok((live, recovered))
}
