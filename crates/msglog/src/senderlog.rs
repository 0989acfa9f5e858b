//! Sender-based payload log.
//!
//! During failure-free execution every inter-cluster message's payload is
//! retained in the *sender's* memory (Johnson–Zwaenepoel sender-based
//! logging). On rollback, survivors re-send the logged payloads into the
//! restarting cluster instead of re-executing. Payloads are stored as
//! [`bytes::Bytes`], so serving a replay is a cheap reference-count bump,
//! not a copy — the log can be large (that is the whole §II-B2 concern)
//! and must be cheap to read back.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use hcft_telemetry::{Counter, Registry};

/// Cached handles into a registry for the hot `record` path: resolved
/// once per log (or once per process for the global default), bumped
/// with relaxed atomics per logged message.
#[derive(Clone, Debug)]
struct LogCounters {
    logged_bytes: Arc<Counter>,
    logged_msgs: Arc<Counter>,
}

impl LogCounters {
    fn in_registry(reg: &Registry) -> Self {
        LogCounters {
            logged_bytes: reg.counter("msglog.logged_bytes"),
            logged_msgs: reg.counter("msglog.logged_msgs"),
        }
    }

    fn global() -> &'static Self {
        static GLOBAL: OnceLock<LogCounters> = OnceLock::new();
        GLOBAL.get_or_init(|| Self::in_registry(Registry::global()))
    }
}

/// One logged message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Destination rank.
    pub dst: u32,
    /// Message tag.
    pub tag: u32,
    /// Sender phase at send time.
    pub phase: u64,
    /// Retained payload.
    pub payload: Bytes,
}

/// The per-sender message log.
#[derive(Clone, Debug, Default)]
pub struct SenderLog {
    entries: Vec<LogEntry>,
    bytes: u64,
    /// `None` reports to the process-global registry.
    telemetry: Option<LogCounters>,
}

impl SenderLog {
    /// An empty log reporting `msglog.logged_{bytes,msgs}` to the
    /// process-global registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log reporting to a dedicated registry (scoped
    /// measurements: one replay engine, one test).
    pub fn with_telemetry(reg: &Registry) -> Self {
        SenderLog {
            telemetry: Some(LogCounters::in_registry(reg)),
            ..Self::default()
        }
    }

    /// Retain one outgoing message.
    pub fn record(&mut self, dst: u32, tag: u32, phase: u64, payload: Bytes) {
        let counters = self
            .telemetry
            .as_ref()
            .unwrap_or_else(|| LogCounters::global());
        counters.logged_bytes.add(payload.len() as u64);
        counters.logged_msgs.inc();
        self.bytes += payload.len() as u64;
        self.entries.push(LogEntry {
            dst,
            tag,
            phase,
            payload,
        });
    }

    /// Memory held by logged payloads, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.bytes
    }

    /// Messages to replay towards `dst` from phase `from_phase` onwards,
    /// in original send order.
    pub fn replay_for(&self, dst: u32, from_phase: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries
            .iter()
            .filter(move |e| e.dst == dst && e.phase >= from_phase)
    }

    /// Drop entries older than `phase` for all destinations — called when
    /// every cluster's coordinated checkpoint has advanced past `phase`
    /// (garbage collection of the log).
    pub fn truncate_before(&mut self, phase: u64) {
        self.entries.retain(|e| e.phase >= phase);
        self.bytes = self.entries.iter().map(|e| e.payload.len() as u64).sum();
    }

    /// Drop entries at `phase` or later, keeping only older ones — the
    /// mirror of [`SenderLog::truncate_before`], used when this sender is
    /// itself rolled back to `phase`: its post-checkpoint sends are about
    /// to be re-issued (send determinism makes them bit-identical), so
    /// the stale tail must be cleared before replay re-logs them.
    pub fn truncate_from(&mut self, phase: u64) {
        self.entries.retain(|e| e.phase < phase);
        self.bytes = self.entries.iter().map(|e| e.payload.len() as u64).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xAB; n])
    }

    #[test]
    fn records_and_accounts_memory() {
        let mut log = SenderLog::new();
        assert!(log.entries.is_empty());
        log.record(1, 0, 0, payload(100));
        log.record(2, 0, 1, payload(50));
        assert_eq!(log.memory_bytes(), 150);
        assert_eq!(log.entries.len(), 2);
    }

    #[test]
    fn replay_filters_by_destination_and_phase() {
        let mut log = SenderLog::new();
        log.record(1, 0, 0, payload(1));
        log.record(1, 0, 5, payload(2));
        log.record(2, 0, 5, payload(3));
        log.record(1, 0, 9, payload(4));
        let replayed: Vec<u64> = log.replay_for(1, 5).map(|e| e.phase).collect();
        assert_eq!(replayed, vec![5, 9]);
    }

    #[test]
    fn replay_preserves_send_order() {
        let mut log = SenderLog::new();
        for (i, ph) in [(0u8, 3u64), (1, 3), (2, 3)] {
            log.record(7, i as u32, ph, Bytes::from(vec![i]));
        }
        let tags: Vec<u32> = log.replay_for(7, 0).map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn truncate_garbage_collects() {
        let mut log = SenderLog::new();
        log.record(1, 0, 0, payload(10));
        log.record(1, 0, 5, payload(20));
        log.truncate_before(3);
        assert_eq!(log.entries.len(), 1);
        assert_eq!(log.memory_bytes(), 20);
    }

    #[test]
    fn payload_sharing_is_zero_copy() {
        let mut log = SenderLog::new();
        let p = payload(1000);
        log.record(1, 0, 0, p.clone());
        let served = log.replay_for(1, 0).next().expect("entry").payload.clone();
        // Same backing buffer: Bytes::clone is refcounting, not copying.
        assert_eq!(served.as_ptr(), p.as_ptr());
    }
}
