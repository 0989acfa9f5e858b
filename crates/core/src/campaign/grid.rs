//! Parameter-grid sweeps: strategy × MTBF × cluster size × machine size.
//!
//! A [`CampaignGrid`] enumerates its cells in a fixed order (strategy,
//! then MTBF, then cluster size, then machine size) and runs each cell's
//! trials through [`simulate_campaign_stats`] — cells are sequential,
//! trials within a cell are parallel, so the grid inherits the engine's
//! any-thread-count determinism. Each cell gets its own seed derived by
//! SplitMix64 mixing of the base seed with the cell coordinates, keeping
//! cells statistically independent yet reproducible when the grid's axes
//! are extended.

use hcft_cluster::{ClusteringScheme, ClusteringStrategy, StrategyContext};
use hcft_graph::WeightedGraph;
use hcft_telemetry::HcftError;
use hcft_topology::Placement;

use super::stats::{simulate_campaign_stats, CampaignStats, StopRule};
use super::CampaignConfig;
use hcft_reliability::FailureArrivals;

/// Clustering strategies a grid can sweep. These are the parametric
/// families — the graph-partitioned `hierarchical` scheme needs a
/// communication graph and is compared separately (`repro campaign`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridStrategy {
    /// Consecutive-rank clusters of the given size (§III-A).
    Naive,
    /// Diagonal-striped clusters, one rank per node (§III-C).
    Distributed,
    /// Striped two-level scheme: L1 blocks of 4 nodes, distributed L2
    /// groups of the given size.
    Striped,
}

/// Nodes per L1 block for [`GridStrategy::Striped`].
const STRIPED_L1_NODES: usize = 4;

impl GridStrategy {
    /// Stable identifier used in CSV output.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            GridStrategy::Naive => "naive",
            GridStrategy::Distributed => "distributed",
            GridStrategy::Striped => "striped",
        }
    }

    /// Build the scheme for one cell. The cell's geometry is checked by
    /// the strategy's own feasibility rule, so an invalid cell fails with
    /// the error `/evaluate` would report for it.
    pub fn build(
        &self,
        placement: &Placement,
        cluster_size: usize,
    ) -> Result<ClusteringScheme, HcftError> {
        let strategy = match self {
            GridStrategy::Naive => ClusteringStrategy::Naive { size: cluster_size },
            GridStrategy::Distributed => ClusteringStrategy::Distributed { size: cluster_size },
            GridStrategy::Striped => ClusteringStrategy::Striped {
                l1_nodes: STRIPED_L1_NODES,
                l2_size: cluster_size,
            },
        };
        // None of the three reads the node graph.
        strategy.build(&StrategyContext {
            placement,
            node_graph: &WeightedGraph::new(placement.nodes()),
        })
    }
}

/// One grid cell's coordinates and statistics.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Strategy identifier (`GridStrategy::name`).
    pub strategy: &'static str,
    /// MTBF of the cell's exponential arrival process, hours.
    pub mtbf_h: f64,
    /// Erasure/cluster size parameter passed to the strategy.
    pub cluster_size: usize,
    /// Machine size in nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Full statistics, including 95 % CIs and the early-stop flag.
    pub stats: CampaignStats,
}

/// A full sweep specification.
#[derive(Clone, Debug)]
pub struct CampaignGrid {
    /// Strategies to sweep.
    pub strategies: Vec<GridStrategy>,
    /// MTBF axis, hours.
    pub mtbfs_h: Vec<f64>,
    /// Cluster-size axis.
    pub cluster_sizes: Vec<usize>,
    /// Machine-size axis, nodes.
    pub machine_nodes: Vec<usize>,
    /// Ranks per node (uniform block placement).
    pub ppn: usize,
    /// Per-cell base configuration; `arrivals` and `seed` are overridden
    /// per cell.
    pub base: CampaignConfig,
    /// Trial budget / early-stop rule applied to every cell.
    pub stop: StopRule,
}

impl CampaignGrid {
    /// Number of cells the grid enumerates.
    pub fn cells(&self) -> usize {
        self.strategies.len()
            * self.mtbfs_h.len()
            * self.cluster_sizes.len()
            * self.machine_nodes.len()
    }

    /// Run every cell. Fails fast on the first invalid cell geometry —
    /// grids are meant to be fully valid, not silently sparse.
    pub fn run(&self) -> Result<Vec<GridCell>, HcftError> {
        let mut out = Vec::with_capacity(self.cells());
        let mut total_trials = 0u64;
        let mut early_stopped = 0u64;
        for (si, strategy) in self.strategies.iter().enumerate() {
            for (mi, &mtbf_h) in self.mtbfs_h.iter().enumerate() {
                for (ci, &cluster_size) in self.cluster_sizes.iter().enumerate() {
                    for (ni, &nodes) in self.machine_nodes.iter().enumerate() {
                        let placement = Placement::block(nodes, self.ppn);
                        let scheme = strategy.build(&placement, cluster_size)?;
                        let mut cfg = self.base.clone();
                        cfg.arrivals = FailureArrivals::exponential(mtbf_h);
                        cfg.trials = self.stop.max_trials as usize;
                        cfg.seed = cell_seed(self.base.seed, si, mi, ci, ni);
                        let stats = simulate_campaign_stats(&scheme, &placement, &cfg, &self.stop);
                        total_trials += stats.trials;
                        early_stopped += stats.early_stopped as u64;
                        out.push(GridCell {
                            strategy: strategy.name(),
                            mtbf_h,
                            cluster_size,
                            nodes,
                            ppn: self.ppn,
                            stats,
                        });
                    }
                }
            }
        }
        let reg = hcft_telemetry::Registry::global();
        reg.counter("campaign.grid.cells").add(out.len() as u64);
        reg.counter("campaign.grid.trials").add(total_trials);
        reg.counter("campaign.grid.early_stopped")
            .add(early_stopped);
        Ok(out)
    }
}

/// SplitMix64 finaliser.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mix cell coordinates into the base seed so neighbouring cells draw
/// unrelated trial streams.
fn cell_seed(base: u64, si: usize, mi: usize, ci: usize, ni: usize) -> u64 {
    let coord = ((si as u64) << 48) ^ ((mi as u64) << 32) ^ ((ci as u64) << 16) ^ ni as u64;
    splitmix(base ^ splitmix(coord))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::stats::CiTarget;

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            strategies: vec![GridStrategy::Naive, GridStrategy::Distributed],
            mtbfs_h: vec![4.0, 12.0],
            cluster_sizes: vec![4],
            machine_nodes: vec![8],
            ppn: 4,
            base: CampaignConfig {
                duration_h: 48.0,
                ..Default::default()
            },
            stop: StopRule::fixed(64),
        }
    }

    #[test]
    fn grid_enumerates_all_cells_in_order() {
        let grid = tiny_grid();
        let cells = grid.run().unwrap();
        assert_eq!(cells.len(), grid.cells());
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].strategy, "naive");
        assert_eq!(cells[0].mtbf_h, 4.0);
        assert_eq!(cells[1].mtbf_h, 12.0);
        assert_eq!(cells[2].strategy, "distributed");
        for c in &cells {
            assert_eq!(c.stats.trials, 64);
            assert!(c.stats.availability.mean() > 0.0);
        }
    }

    #[test]
    fn lower_mtbf_hurts_availability() {
        let cells = tiny_grid().run().unwrap();
        // naive @ mtbf 4h vs naive @ mtbf 12h
        assert!(cells[0].stats.availability.mean() < cells[1].stats.availability.mean());
        assert!(cells[0].stats.failures.mean() > cells[1].stats.failures.mean());
    }

    #[test]
    fn invalid_geometry_is_the_strategys_error() {
        let mut grid = tiny_grid();
        grid.strategies = vec![GridStrategy::Distributed];
        grid.cluster_sizes = vec![100]; // > nodes
        let err = grid.run().unwrap_err();
        assert!(matches!(err, HcftError::Partition(_)), "{err:?}");
        grid.strategies = vec![GridStrategy::Naive];
        grid.cluster_sizes = vec![0];
        let err = grid.run().unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err:?}");
        grid.strategies = vec![GridStrategy::Striped];
        grid.cluster_sizes = vec![3]; // does not divide 32 ranks
        let err = grid.run().unwrap_err();
        assert!(matches!(err, HcftError::Partition(_)), "{err:?}");
    }

    #[test]
    fn grid_is_reproducible_and_seed_sensitive() {
        let grid = tiny_grid();
        let a = grid.run().unwrap();
        let b = grid.run().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats);
        }
        let mut other = tiny_grid();
        other.base.seed ^= 1;
        let c = other.run().unwrap();
        assert!(a.iter().zip(&c).any(|(x, y)| x.stats != y.stats));
    }

    #[test]
    fn early_stopping_saves_trials_in_a_grid() {
        let mut grid = tiny_grid();
        let target = CiTarget {
            availability: 0.5,
            catastrophic: f64::INFINITY,
        };
        grid.stop = StopRule::until_ci(512, 64, 64, target);
        let cells = grid.run().unwrap();
        for c in &cells {
            assert!(c.stats.early_stopped, "{c:?}");
            assert!(c.stats.trials < 512);
        }
    }
}
