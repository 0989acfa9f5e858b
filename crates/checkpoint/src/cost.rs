//! Virtual-time cost model for checkpointing.
//!
//! Combines Table I's device bandwidths with the calibrated encoding
//! model to predict the wall-clock cost of a checkpoint at each level —
//! the quantities behind the paper's argument that high-frequency
//! checkpointing must stay off the PFS (§II-A) and that encoding time
//! must be kept low by small clusters (§III-B).

use hcft_erasure::EncodingModel;
use hcft_topology::MachineSpec;

use crate::Level;

/// Predicted checkpoint times for one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointCost {
    /// Seconds to write all local checkpoints (bounded by the busiest
    /// node's SSD).
    pub local_write_s: f64,
    /// Seconds of Reed–Solomon parity encoding (Encoded level).
    pub encode_s: f64,
    /// Seconds to drain everything to the PFS (Pfs level).
    pub pfs_write_s: f64,
}

impl CheckpointCost {
    /// End-to-end seconds for the checkpoint.
    pub fn total_s(&self) -> f64 {
        self.local_write_s + self.encode_s + self.pfs_write_s
    }
}

/// Cost model parameterised by machine and encoding calibration.
#[derive(Clone, Debug)]
pub struct CheckpointCostModel {
    machine: MachineSpec,
    encoding: EncodingModel,
}

impl CheckpointCostModel {
    /// Build from a machine spec and encoding model.
    pub(crate) fn new(machine: MachineSpec, encoding: EncodingModel) -> Self {
        CheckpointCostModel { machine, encoding }
    }

    /// The TSUBAME2 configuration used throughout the paper.
    pub fn tsubame2() -> Self {
        Self::new(MachineSpec::tsubame2(), EncodingModel::tsubame2())
    }

    /// Predict the cost of one checkpoint:
    /// * `bytes_per_rank` — checkpoint size per process;
    /// * `ranks_per_node` — co-writers sharing one node's local storage;
    /// * `total_ranks` — all writers (for the shared PFS drain);
    /// * `encoding_cluster_size` — L2 cluster size (drives encode time).
    ///
    /// Level semantics are FTI's: a checkpoint is taken at one level, so
    /// exactly one protection term is non-zero.
    pub fn cost(
        &self,
        level: Level,
        bytes_per_rank: u64,
        ranks_per_node: usize,
        total_ranks: usize,
        encoding_cluster_size: usize,
    ) -> CheckpointCost {
        let mib = 1024.0 * 1024.0;
        let node_bytes = bytes_per_rank as f64 * ranks_per_node as f64;
        let local_write_s = node_bytes / (self.machine.local_storage.write_mib_s * mib);
        let mut cost = CheckpointCost {
            local_write_s,
            encode_s: 0.0,
            pfs_write_s: 0.0,
        };
        match level {
            Level::Local => {}
            Level::Encoded => {
                cost.encode_s = self.encoding.seconds(encoding_cluster_size, bytes_per_rank);
            }
            Level::Pfs => {
                cost.pfs_write_s = bytes_per_rank as f64 * total_ranks as f64
                    / (self.machine.pfs.write_mib_s * mib);
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_much_cheaper_than_pfs_at_scale() {
        let m = CheckpointCostModel::tsubame2();
        // 1 GiB per rank, 16 ranks/node, 1024 ranks.
        let local = m.cost(Level::Local, 1 << 30, 16, 1024, 4);
        let pfs = m.cost(Level::Pfs, 1 << 30, 16, 1024, 4);
        assert_eq!(local.encode_s, 0.0);
        assert_eq!(local.pfs_write_s, 0.0);
        // 16 GiB over 360 MiB/s ≈ 45.5 s locally; 1 TiB over 10 GiB/s
        // ≈ 102 s on the PFS — and the PFS cost grows with system size
        // while local cost does not.
        assert!(local.local_write_s > 40.0 && local.local_write_s < 50.0);
        assert!(pfs.pfs_write_s > 90.0);
        assert!(pfs.total_s() > local.total_s());
    }

    #[test]
    fn encode_term_matches_paper_calibration() {
        let m = CheckpointCostModel::tsubame2();
        let c = m.cost(Level::Encoded, 1_000_000_000, 16, 1024, 8);
        assert!((c.encode_s - 51.0).abs() < 1.0);
        assert!((m.encoding.seconds_per_gb(32) - 204.0).abs() < 1.0);
    }

    #[test]
    fn protection_terms_follow_fti_ordering() {
        // At scale the ladder costs grow: local < encoded < pfs for large
        // rank counts (the PFS is shared).
        let m = CheckpointCostModel::tsubame2();
        let c = |lvl| m.cost(lvl, 1 << 30, 16, 1024, 4).total_s();
        assert!(c(Level::Local) < c(Level::Encoded));
        assert!(c(Level::Encoded) < c(Level::Pfs));
        // Exactly one protection term per level.
        let e = m.cost(Level::Encoded, 1 << 30, 16, 1024, 4);
        assert!(e.encode_s > 0.0 && e.pfs_write_s == 0.0);
    }
}
