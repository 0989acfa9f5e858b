//! Replay-mode message sourcing: run a world in which some ranks are
//! *dead* and their logged sends are served from a pre-recorded feed.
//!
//! This is the runtime half of the hybrid protocol's recovery story
//! (`hcft-msglog` holds the logging half): after an L1 cluster is lost,
//! the restored ranks re-execute from their last checkpoint inside a
//! *replay world* where
//!
//! * ranks **outside** the restart set do not run at all (their bodies
//!   return immediately — the survivors are parked at the failure
//!   frontier, not re-executing),
//! * a **receive** from a dead (non-live) rank is served from the
//!   [`ReplayFeed`] — the sender-side logs the survivors kept — in the
//!   exact per-channel FIFO order the original sends were recorded, and
//! * a **send** to a dead rank is suppressed: the original delivery
//!   already happened in the pre-failure world, so re-delivering it
//!   would duplicate the message. (This models receiver-side duplicate
//!   suppression via sequence numbers in a real MPI.)
//!
//! Send determinism makes this sound: a restored rank re-executing from
//! the checkpoint issues the same sends with the same payloads, so
//! suppressed sends are bit-identical to messages the survivors already
//! consumed, and fed receives are bit-identical to what a live sender
//! would have produced.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::runtime::FnvMap;

/// Per-destination channel key inside a feed: (source world rank, tag).
type FeedKey = (u32, u32);

/// Logged messages to serve during replay, bucketed per destination rank
/// and keyed by (source, tag) — the same channel granularity the live
/// mailboxes use, so per-channel FIFO order is preserved by construction.
///
/// Build one by pushing entries in the order the *sender* recorded them
/// (sender logs are already in send order); pushes for distinct channels
/// are independent, matching the runtime's ordering guarantees.
#[derive(Default)]
pub struct ReplayFeed {
    per_dst: Vec<FnvMap<FeedKey, VecDeque<Bytes>>>,
}

impl ReplayFeed {
    /// An empty feed for a world of `n` ranks.
    pub fn new(n: usize) -> Self {
        ReplayFeed {
            per_dst: (0..n).map(|_| FnvMap::default()).collect(),
        }
    }

    /// Append a logged payload for `dst` on channel (`src`, `tag`).
    pub fn push(&mut self, src: u32, dst: u32, tag: u32, payload: Bytes) {
        self.per_dst[dst as usize]
            .entry((src, tag))
            .or_default()
            .push_back(payload);
    }
}

/// A replay-world specification: which ranks run live, and the logged
/// messages standing in for the dead ones.
pub struct ReplayPlan {
    /// `live[r]` — whether world rank `r` executes its body. Dead ranks'
    /// sends into live ranks must be covered by `feed`.
    pub live: Vec<bool>,
    /// Logged messages served for receives from non-live ranks.
    pub feed: ReplayFeed,
}

/// Shared replay state installed on a world by
/// [`crate::World::run_replay`]. Checked on the send/recv hot path only
/// when present (`Option` in `Shared`), so normal worlds pay one branch.
pub(crate) struct ReplayState {
    pub(crate) live: Vec<bool>,
    /// Remaining feed entries, per destination rank. One mutex per dst:
    /// only that rank's body pops from it, so contention is nil; the lock
    /// exists for `Sync`.
    feeds: Vec<Mutex<FnvMap<FeedKey, VecDeque<Bytes>>>>,
    /// Messages served from the feed.
    pub(crate) fed_messages: AtomicU64,
    /// Payload bytes served from the feed.
    pub(crate) fed_bytes: AtomicU64,
    /// Sends to non-live ranks that were suppressed as duplicates.
    pub(crate) suppressed_sends: AtomicU64,
}

impl ReplayState {
    pub(crate) fn new(plan: ReplayPlan) -> Self {
        let ReplayPlan { live, feed } = plan;
        assert_eq!(
            live.len(),
            feed.per_dst.len(),
            "replay plan: live mask and feed must cover the same world size"
        );
        ReplayState {
            live,
            feeds: feed.per_dst.into_iter().map(Mutex::new).collect(),
            fed_messages: AtomicU64::new(0),
            fed_bytes: AtomicU64::new(0),
            suppressed_sends: AtomicU64::new(0),
        }
    }

    /// Serve the next logged message on channel (`src`, `tag`) for `dst`.
    ///
    /// # Panics
    /// If the feed has no message left on the channel: the restored rank
    /// expected a send the survivors never logged — a protocol violation
    /// (the message crossed a cluster boundary without being logged, or
    /// replay ran past the failure frontier).
    pub(crate) fn serve(&self, dst: usize, src: u32, tag: u32) -> Bytes {
        let msg = self.feeds[dst]
            .lock()
            .get_mut(&(src, tag))
            .and_then(|q| q.pop_front());
        match msg {
            Some(payload) => {
                self.fed_messages.fetch_add(1, Ordering::Relaxed);
                self.fed_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                payload
            }
            None => panic!(
                "replay feed exhausted: rank {dst} expected a logged message from \
                 dead rank {src} (tag {tag:#x}) — protocol violation: the send was \
                 never logged, or replay ran past the failure frontier"
            ),
        }
    }

    /// Messages still unserved (should be zero after a complete replay).
    pub(crate) fn leftover(&self) -> u64 {
        self.feeds
            .iter()
            .map(|f| f.lock().values().map(|q| q.len() as u64).sum::<u64>())
            .sum()
    }
}

/// A finished replay-world run.
pub struct ReplayWorldResult<T> {
    /// Per-rank outputs: `Some` for live ranks, `None` for dead ones.
    pub outputs: Vec<Option<T>>,
    /// The recorded communication trace (live ranks' traffic only).
    pub trace: std::sync::Arc<crate::TraceRecorder>,
    /// Messages served from the feed in place of dead senders.
    pub fed_messages: u64,
    /// Payload bytes served from the feed.
    pub fed_bytes: u64,
    /// Sends to dead ranks suppressed as already-delivered duplicates.
    pub suppressed_sends: u64,
    /// Feed messages never requested (non-zero means the plan over-fed —
    /// e.g. log entries past the replay frontier were included).
    pub leftover_messages: u64,
}
