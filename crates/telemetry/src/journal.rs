//! Structured event journal for failure/recovery narratives.
//!
//! A recovery's story — inject → dead-ranks → rebuild → replay →
//! recovered, as the replay engine journals it — is a sequence of
//! discrete events, not a counter. Each
//! [`Event`] carries two timestamps: the *virtual* time of the simulated
//! application (phase / checkpoint epoch) and the monotonic wall offset
//! since the owning registry was created. Wall-clock dates are never
//! recorded; reruns of the same scenario produce comparable journals.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Kept as a closed enum so tests can assert exact
/// sequences; free-form context goes in [`Event::detail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A node was killed (scenario injection or campaign draw).
    NodeFailure,
    /// The set of dead ranks was determined after a failure.
    DeadRanks,
    /// A checkpoint (any level) completed.
    CheckpointComplete,
    /// Missing checkpoint payloads were rebuilt (RS/PFS).
    RebuildComplete,
    /// Sender-log replay finished for the restarted cluster(s).
    ReplayComplete,
    /// Full recovery finished: every rank stands at the failure frontier.
    RecoveryComplete,
}

impl EventKind {
    /// Stable string form used in JSON exports.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            EventKind::NodeFailure => "node_failure",
            EventKind::DeadRanks => "dead_ranks",
            EventKind::CheckpointComplete => "checkpoint_complete",
            EventKind::RebuildComplete => "rebuild_complete",
            EventKind::ReplayComplete => "replay_complete",
            EventKind::RecoveryComplete => "recovery_complete",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the owning registry's epoch.
    pub wall_ns: u64,
    /// Virtual timestamp: application phase or checkpoint epoch.
    pub virt: u64,
    pub kind: EventKind,
    /// Free-form context (`"node=3"`, `"ranks=12..16"`, …).
    pub detail: String,
}

/// Default ring capacity: enough for any replay or campaign narrative
/// while bounding memory for long-running processes.
const DEFAULT_CAPACITY: usize = 4096;

/// A bounded ring buffer of [`Event`]s. When full, the oldest events
/// are dropped and counted in `EventJournal::dropped`.
#[derive(Debug)]
pub struct EventJournal {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EventJournal {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventJournal {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 64))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest one when at capacity.
    pub(crate) fn push(&self, event: Event) {
        let mut ring = self.ring.lock().expect("journal lock");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// All retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("journal lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn events_of(&self, kind: EventKind) -> Vec<Event> {
        self.ring
            .lock()
            .expect("journal lock")
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Events evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(virt: u64, kind: EventKind) -> Event {
        Event {
            wall_ns: virt * 10,
            virt,
            kind,
            detail: format!("v={virt}"),
        }
    }

    #[test]
    fn preserves_order_and_filters_by_kind() {
        let j = EventJournal::new();
        j.push(ev(1, EventKind::NodeFailure));
        j.push(ev(2, EventKind::RebuildComplete));
        j.push(ev(3, EventKind::NodeFailure));
        assert_eq!(j.events().len(), 3);
        let fails = j.events_of(EventKind::NodeFailure);
        assert_eq!(fails.len(), 2);
        assert_eq!(fails[0].virt, 1);
        assert_eq!(fails[1].virt, 3);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let j = EventJournal::with_capacity(3);
        for v in 1..=5 {
            j.push(ev(v, EventKind::CheckpointComplete));
        }
        assert_eq!(j.events().len(), 3);
        assert_eq!(j.dropped(), 2);
        let virts: Vec<u64> = j.events().iter().map(|e| e.virt).collect();
        assert_eq!(virts, vec![3, 4, 5]);
    }

    #[test]
    fn kind_strings_are_stable() {
        assert_eq!(EventKind::NodeFailure.as_str(), "node_failure");
        assert_eq!(EventKind::RecoveryComplete.as_str(), "recovery_complete");
    }
}
