//! FTI-style multi-level checkpointing.
//!
//! The level ladder follows FTI (SC'11), cheapest to safest:
//!
//! 1. **Local** — every rank writes its checkpoint to its node's local
//!    storage (TSUBAME2: SSD RAID0). Survives transient/soft errors,
//!    not node loss.
//! 2. **Encoded** — Reed–Solomon parity within each encoding cluster:
//!    member i's node holds data shard i and parity shard i, exactly
//!    FTI's layout. Losing up to half the cluster's nodes is recoverable.
//! 3. **Pfs** — the classic parallel-file-system checkpoint: slow, but
//!    survives anything.
//!
//! The store is backed by a real directory tree, so tests can *actually*
//! kill a node (delete its directory) and watch recovery rebuild the
//! missing checkpoints — Reed–Solomon first, then the PFS — the code
//! paths the paper's reliability column abstracts into probabilities.
//!
//! [`cost`] provides the virtual-time model (Table I bandwidths + the
//! calibrated encoding model) used by the benchmark harness.

#![warn(unreachable_pub)]

pub mod cost;
pub mod multilevel;
pub mod store;

pub use cost::CheckpointCostModel;
pub use hcft_telemetry::HcftError;
pub use multilevel::MultilevelCheckpointer;
pub use store::CheckpointStore;

/// Checkpoint levels in increasing resilience / cost order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Node-local storage only.
    Local,
    /// Local + Reed–Solomon parity within encoding clusters.
    Encoded,
    /// Parallel file system.
    Pfs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered() {
        let ladder = [Level::Local, Level::Encoded, Level::Pfs];
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    }
}
