//! The primary's half of journal replication.
//!
//! [`ReplSource`] implements [`JournalTap`]: it observes every
//! journal append, fsync, and compaction on the primary's
//! [`SharedKdb`](ada_kdb::SharedKdb) and turns them into an ordered
//! queue of [`ReplMsg`]s. Tap callbacks run under the journal mutex, so
//! they only copy bytes into the queue and ring a condvar — shipping
//! happens on whoever drains the queue (the in-memory link in
//! `fleet_torture`, a TCP shipper thread in [`crate::ship`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::sync::{Condvar, Mutex, PoisonError};

use ada_kdb::journal::JournalTap;
use ada_obs::ReplMetrics;

use crate::wire::ReplMsg;

/// Bound on queued-but-unshipped messages: a dead or partitioned
/// follower must not make the primary accumulate its whole write load
/// in memory. Overflow drops the queue and records a `Reset` sentinel —
/// the follower re-bootstraps when the link heals, exactly as after a
/// compaction.
const MAX_QUEUED: usize = 65_536;

#[derive(Debug, Default)]
struct SourceState {
    queue: VecDeque<ReplMsg>,
    /// Set when the queue overflowed: everything up to here was
    /// replaced by a single `Reset`. **Sticky** — later frames keep
    /// being dropped (the stream is broken anyway) until the shipper
    /// serves the follower's re-`Hello` and calls
    /// [`ReplSource::end_overflow`] *before* taking the bootstrap
    /// image. Clearing any earlier (e.g. on drain) would let frames
    /// appended between the `Reset` shipping and the re-bootstrap reach
    /// a follower whose stream position they cannot extend — a
    /// guaranteed sticky gap.
    overflowed: bool,
    closed: bool,
}

/// A queue of replication messages fed by the primary's journal tap.
#[derive(Debug)]
pub struct ReplSource {
    state: Mutex<SourceState>,
    bell: Condvar,
    metrics: Arc<ReplMetrics>,
    /// Queue bound (tests shrink it to force overflow cheaply).
    capacity: usize,
    /// Lineage epoch: replaced on every journal rewrite (compaction),
    /// under the journal mutex. An image taken at epoch E plus the
    /// frame suffix past its op count reconstructs the primary journal
    /// iff the primary is still at epoch E.
    epoch: AtomicU64,
}

/// Every lineage epoch — a fresh source, each compaction — takes the
/// next value of this process-wide counter, so no two lineages in one
/// process ever share an epoch. A follower's remembered epoch can
/// therefore only match the lineage it actually bootstrapped from —
/// never a different source or post-compaction journal that happens to
/// have counted to the same number. (Followers in *another* process
/// restart with `applied = 0` and re-bootstrap regardless.)
static EPOCH_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH_COUNTER.fetch_add(1, Ordering::SeqCst)
}

impl ReplSource {
    /// An empty source publishing into `metrics`.
    pub fn new(metrics: Arc<ReplMetrics>) -> Arc<Self> {
        Self::with_capacity(metrics, MAX_QUEUED)
    }

    /// Like [`ReplSource::new`] with an explicit queue bound. Tests use
    /// tiny bounds to exercise the overflow → `Reset` → re-bootstrap
    /// path without queueing tens of thousands of frames.
    pub fn with_capacity(metrics: Arc<ReplMetrics>, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SourceState::default()),
            bell: Condvar::new(),
            metrics,
            capacity: capacity.max(1),
            epoch: AtomicU64::new(next_epoch()),
        })
    }

    /// The current lineage epoch (process-unique; replaced at every
    /// compaction).
    pub fn lineage_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the queue is in the overflowed state (frames are being
    /// dropped pending a re-bootstrap).
    pub fn overflowed(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .overflowed
    }

    /// Leaves the overflowed state. The shipper calls this while
    /// serving a follower `Hello`, **before** taking the bootstrap
    /// image: a frame appended after this call is either queued (and
    /// possibly also in the image — a verified duplicate the follower
    /// skips) but never dropped-and-missing.
    pub fn end_overflow(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .overflowed = false;
    }

    /// The metrics this source publishes into.
    pub fn metrics(&self) -> Arc<ReplMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Records the follower's acked watermark (gauge only; the queue
    /// is not trimmed by acks — frames leave it when shipped).
    pub fn observe_ack(&self, seq: u64) {
        self.metrics.set_follower_acked(seq);
    }

    /// Drains every queued message without blocking. Does **not**
    /// clear an overflow — see [`ReplSource::end_overflow`].
    pub fn drain(&self) -> Vec<ReplMsg> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.queue.drain(..).collect()
    }

    /// Blocks up to `timeout` for the next message. `None` on timeout
    /// or once the source is closed and drained.
    pub fn next_msg(&self, timeout: Duration) -> Option<ReplMsg> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            let (guard, wait) = self
                .bell
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if wait.timed_out() {
                return None;
            }
        }
    }

    /// Marks the source closed: pending messages still drain, then
    /// [`ReplSource::next_msg`] returns `None` forever.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.bell.notify_all();
    }

    /// Messages currently queued (diagnostics).
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    fn push(&self, msg: ReplMsg) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return;
        }
        if state.queue.len() >= self.capacity {
            // Replace the backlog with one re-bootstrap marker; the
            // snapshot the follower fetches will contain everything the
            // dropped frames carried.
            state.queue.clear();
            state.queue.push_back(ReplMsg::Reset { ops: 0 });
            state.overflowed = true;
        } else if !(state.overflowed && matches!(msg, ReplMsg::Frame { .. })) {
            // While overflowed, further frames are useless (the reset
            // already invalidated the stream); watermarks still pass.
            state.queue.push_back(msg);
        }
        drop(state);
        self.bell.notify_all();
    }
}

impl JournalTap for ReplSource {
    fn frame_appended(&self, _seq: u64, frame: &[u8]) {
        self.metrics.frame_shipped(frame.len());
        self.push(ReplMsg::Frame {
            bytes: frame.to_vec(),
        });
    }

    fn synced(&self, durable_seq: u64) {
        self.metrics.set_source_durable(durable_seq);
        self.push(ReplMsg::Durable { seq: durable_seq });
    }

    fn rewritten(&self, ops: u64) {
        // Runs under the journal mutex, like every tap callback: the
        // epoch replacement and the journal's new contents are observed
        // atomically by anyone who reads both under that mutex.
        self.epoch.store(next_epoch(), Ordering::SeqCst);
        self.push(ReplMsg::Reset { ops });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_events_queue_in_order_and_drain() {
        let source = ReplSource::new(Arc::new(ReplMetrics::default()));
        source.frame_appended(0, b"R1:0:xxxxxxxx:a");
        source.synced(1);
        source.frame_appended(1, b"R1:1:xxxxxxxx:b");
        let msgs = source.drain();
        assert_eq!(msgs.len(), 3);
        assert!(matches!(&msgs[0], ReplMsg::Frame { bytes } if bytes.ends_with(b":a")));
        assert_eq!(msgs[1], ReplMsg::Durable { seq: 1 });
        assert!(matches!(&msgs[2], ReplMsg::Frame { bytes } if bytes.ends_with(b":b")));
        assert!(source.drain().is_empty());
        let snap = source.metrics().snapshot();
        assert_eq!(snap.frames_shipped, 2);
        assert_eq!(snap.source_durable, 1);
    }

    #[test]
    fn overflow_is_sticky_until_explicitly_ended() {
        let source = ReplSource::with_capacity(Arc::new(ReplMetrics::default()), 2);
        source.frame_appended(0, b"R1:0:xxxxxxxx:a");
        source.frame_appended(1, b"R1:1:xxxxxxxx:b");
        // Third frame overflows: backlog replaced by one Reset.
        source.frame_appended(2, b"R1:2:xxxxxxxx:c");
        assert!(source.overflowed());
        assert_eq!(source.drain(), vec![ReplMsg::Reset { ops: 0 }]);
        // Draining does NOT clear the overflow: frames appended before
        // the follower re-bootstraps must keep being dropped, or they
        // would gap its stream.
        assert!(source.overflowed());
        source.frame_appended(3, b"R1:3:xxxxxxxx:d");
        assert!(source.drain().is_empty());
        // Watermarks still pass while overflowed.
        source.synced(4);
        assert_eq!(source.drain(), vec![ReplMsg::Durable { seq: 4 }]);
        // Only the shipper's explicit end_overflow (at Hello-serve
        // time, before imaging) resumes frame forwarding.
        source.end_overflow();
        assert!(!source.overflowed());
        source.frame_appended(4, b"R1:4:xxxxxxxx:e");
        assert_eq!(source.drain().len(), 1);
    }

    #[test]
    fn compaction_replaces_the_lineage_epoch() {
        let source = ReplSource::new(Arc::new(ReplMetrics::default()));
        let initial = source.lineage_epoch();
        source.rewritten(5);
        let compacted = source.lineage_epoch();
        assert_ne!(compacted, initial);
        assert_eq!(source.drain(), vec![ReplMsg::Reset { ops: 5 }]);
        // Epochs are process-unique: another source never shares one,
        // so a follower's remembered epoch can only validate against
        // the lineage it actually came from.
        let other = ReplSource::new(Arc::new(ReplMetrics::default()));
        assert_ne!(other.lineage_epoch(), initial);
        assert_ne!(other.lineage_epoch(), compacted);
        // Queue overflow does NOT change the epoch: the journal itself
        // is unchanged, only the shipping queue lost frames.
        let small = ReplSource::with_capacity(Arc::new(ReplMetrics::default()), 1);
        let small_epoch = small.lineage_epoch();
        small.frame_appended(0, b"R1:0:xxxxxxxx:a");
        small.frame_appended(1, b"R1:1:xxxxxxxx:b");
        assert!(small.overflowed());
        assert_eq!(small.lineage_epoch(), small_epoch);
    }

    #[test]
    fn close_wakes_and_finishes_the_consumer() {
        let source = ReplSource::new(Arc::new(ReplMetrics::default()));
        source.frame_appended(0, b"R1:0:xxxxxxxx:a");
        source.close();
        assert!(source.next_msg(Duration::from_millis(10)).is_some());
        assert!(source.next_msg(Duration::from_millis(10)).is_none());
        // Pushes after close are dropped.
        source.frame_appended(1, b"R1:1:xxxxxxxx:b");
        assert_eq!(source.queued(), 0);
    }
}
