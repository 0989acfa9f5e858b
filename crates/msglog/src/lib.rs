//! Hybrid cluster-coordinated checkpointing + partial message logging —
//! the HydEE-style failure-containment protocol (§II-B2 of the paper).
//!
//! Checkpoints are coordinated *within* clusters; only messages crossing a
//! cluster boundary are logged (sender-based, Johnson & Zwaenepoel
//! style). When a process fails, exactly its cluster rolls back to the
//! cluster's last coordinated checkpoint; messages that re-enter the
//! cluster during replay are served from the senders' logs, and
//! intra-cluster messages are regenerated by the (send-deterministic)
//! re-execution.
//!
//! * [`protocol`] — logging classification and accounting: which bytes
//!   are logged under a clustering (Fig. 3a/4b's left axes), and
//!   [`Containment`], the one restart rule: which ranks roll back when
//!   a set of nodes dies, and the restart-cost model built on it (their
//!   right axes);
//! * [`senderlog`] — the sender-side payload log with memory accounting
//!   (the "memory footprint" §II-B2 worries about);
//! * [`recovery`] — rollback analysis over a traced event stream: given
//!   the restart set, the replay-feasibility check (every message needed
//!   during replay is either logged or regenerated).

#![warn(unreachable_pub)]

pub mod determinism;
pub mod protocol;
pub mod recovery;
pub mod senderlog;
pub mod timeline;

pub use determinism::{check_send_determinism, DeterminismReport};
pub use protocol::{logged_fraction, Containment, ContainmentScratch, HybridProtocol, LogStats};
pub use recovery::{check_replay, ReplayReport};
pub use senderlog::SenderLog;
pub use timeline::{log_memory_timeline, LogSample};

/// One application-level message for protocol analysis (the msglog view
/// of a traced event: world ranks, payload size, sender phase at send
/// time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgEvent {
    /// Sender rank.
    pub src: u32,
    /// Receiver rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Sender's phase (iteration) when the message was sent.
    pub phase: u64,
}
