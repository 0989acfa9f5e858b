//! The unified strategy API.
//!
//! The four §III–§IV strategies used to be four unrelated free functions
//! with different signatures and panic-on-misuse semantics. The
//! [`ClusteringStrategy`] trait gives them one shape — validate the
//! context, then build — so callers (the evaluator, the repro binary,
//! future autotuners) iterate [`registry`] instead of hand-listing four
//! calls, and misconfiguration surfaces as [`HcftError`] instead of a
//! panic.

use hcft_graph::WeightedGraph;
use hcft_telemetry::HcftError;
use hcft_topology::{NodeId, Placement};

use crate::strategies::{self, ClusteringScheme, HierarchicalConfig};

/// Everything a strategy may consult when building a scheme: the
/// rank→node placement and the node-level communication graph (vertex
/// per node, edges weighted by traced traffic).
pub struct StrategyContext<'a> {
    /// Rank→node placement of the application.
    pub placement: &'a Placement,
    /// Node communication graph (hierarchical clustering partitions it;
    /// the flat strategies ignore it).
    pub node_graph: &'a WeightedGraph,
}

/// A named, validated producer of [`ClusteringScheme`]s.
pub trait ClusteringStrategy {
    /// Stable strategy name (Table II row family, without the size).
    fn name(&self) -> &str;

    /// Build the scheme for `ctx`, validating applicability first.
    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError>;
}

/// §III-A naïve clustering: consecutive ranks in clusters of `size`.
#[derive(Clone, Copy, Debug)]
pub struct Naive {
    /// Ranks per cluster (paper: 32).
    pub size: usize,
}

/// §III-B size-guided clustering: consecutive ranks, size chosen to
/// balance encoding time (paper: 8).
#[derive(Clone, Copy, Debug)]
pub struct SizeGuided {
    /// Ranks per cluster (paper: 8).
    pub size: usize,
}

/// §III-C distributed clustering: diagonal stripes of one rank per node.
#[derive(Clone, Copy, Debug)]
pub struct Distributed {
    /// Nodes per stripe group (paper: 16).
    pub size: usize,
}

/// §IV-B hierarchical clustering: node-graph L1 partition with nested
/// distributed L2 encoding groups.
#[derive(Clone, Debug, Default)]
pub struct Hierarchical {
    /// L1/L2 sizing and engine choice.
    pub cfg: HierarchicalConfig,
}

fn check_flat_size(size: usize, nprocs: usize) -> Result<(), HcftError> {
    if size == 0 {
        return Err(HcftError::Config("cluster size must be >= 1".into()));
    }
    if size > nprocs {
        return Err(HcftError::Partition(format!(
            "cluster size {size} exceeds {nprocs} ranks"
        )));
    }
    Ok(())
}

impl ClusteringStrategy for Naive {
    fn name(&self) -> &str {
        "naive"
    }

    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        check_flat_size(self.size, ctx.placement.nprocs())?;
        Ok(strategies::naive(ctx.placement.nprocs(), self.size))
    }
}

impl ClusteringStrategy for SizeGuided {
    fn name(&self) -> &str {
        "size-guided"
    }

    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        check_flat_size(self.size, ctx.placement.nprocs())?;
        Ok(strategies::size_guided(ctx.placement.nprocs(), self.size))
    }
}

impl ClusteringStrategy for Distributed {
    fn name(&self) -> &str {
        "distributed"
    }

    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        let nodes = ctx.placement.nodes();
        if self.size < 2 || self.size > nodes {
            return Err(HcftError::Partition(format!(
                "distributed stripe size {} needs 2..={nodes} nodes",
                self.size
            )));
        }
        let ppn = ctx.placement.ranks_on(NodeId(0)).len();
        if !(0..nodes).all(|n| ctx.placement.ranks_on(NodeId::from(n)).len() == ppn) {
            return Err(HcftError::Partition(
                "distributed clustering needs a uniform ranks-per-node layout".into(),
            ));
        }
        Ok(strategies::distributed(ctx.placement, self.size))
    }
}

impl ClusteringStrategy for Hierarchical {
    fn name(&self) -> &str {
        "hierarchical"
    }

    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        let nodes = ctx.placement.nodes();
        if ctx.node_graph.n() != nodes {
            return Err(HcftError::Config(format!(
                "node graph has {} vertices for {nodes} nodes",
                ctx.node_graph.n()
            )));
        }
        if self.cfg.l2_group_nodes == 0 || self.cfg.min_nodes_per_l1 < self.cfg.l2_group_nodes {
            return Err(HcftError::Config(format!(
                "min_nodes_per_l1 ({}) must be >= l2_group_nodes ({}) >= 1",
                self.cfg.min_nodes_per_l1, self.cfg.l2_group_nodes
            )));
        }
        if self.cfg.max_nodes_per_l1 < self.cfg.min_nodes_per_l1 {
            return Err(HcftError::Config(format!(
                "max_nodes_per_l1 ({}) < min_nodes_per_l1 ({})",
                self.cfg.max_nodes_per_l1, self.cfg.min_nodes_per_l1
            )));
        }
        if self.cfg.l1_parts(nodes).is_none() {
            return Err(HcftError::Partition(format!(
                "{nodes} nodes do not split into L1 clusters of {}..={} nodes",
                self.cfg.min_nodes_per_l1, self.cfg.max_nodes_per_l1
            )));
        }
        Ok(strategies::hierarchical(
            ctx.placement,
            ctx.node_graph,
            &self.cfg,
        ))
    }
}

/// The PR 7 striped clustering: L1 = consecutive node blocks, L2 groups
/// striding across L1 clusters so a whole-L1 loss stays survivable.
#[derive(Clone, Copy, Debug)]
pub struct Striped {
    /// Nodes per L1 cluster (must divide the node count).
    pub l1_nodes: usize,
    /// Ranks per L2 encoding group (must divide the rank count).
    pub l2_size: usize,
}

impl ClusteringStrategy for Striped {
    fn name(&self) -> &str {
        "striped"
    }

    fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        let nodes = ctx.placement.nodes();
        let nprocs = ctx.placement.nprocs();
        if self.l1_nodes == 0 || !nodes.is_multiple_of(self.l1_nodes) {
            return Err(HcftError::Partition(format!(
                "striped L1 block of {} nodes must divide {nodes} nodes",
                self.l1_nodes
            )));
        }
        if self.l2_size < 2 || !nprocs.is_multiple_of(self.l2_size) {
            return Err(HcftError::Partition(format!(
                "striped L2 group of {} ranks needs 2..= and must divide {nprocs} ranks",
                self.l2_size
            )));
        }
        let ppn = ctx.placement.ranks_on(NodeId(0)).len();
        if !(0..nodes).all(|n| ctx.placement.ranks_on(NodeId::from(n)).len() == ppn) {
            return Err(HcftError::Partition(
                "striped clustering needs a uniform ranks-per-node layout".into(),
            ));
        }
        Ok(strategies::striped(
            ctx.placement,
            self.l1_nodes,
            self.l2_size,
        ))
    }
}

/// The paper's four strategies at their Table II configurations:
/// naive 32, size-guided 8, distributed 16, hierarchical with the
/// default §IV-B sizing.
pub fn registry() -> Vec<Box<dyn ClusteringStrategy>> {
    registry_with(32, 8, 16, HierarchicalConfig::default())
}

/// The four strategies at custom sizes (smaller runs, ablations).
pub fn registry_with(
    naive_size: usize,
    size_guided_size: usize,
    distributed_size: usize,
    hier_cfg: HierarchicalConfig,
) -> Vec<Box<dyn ClusteringStrategy>> {
    vec![
        Box::new(Naive { size: naive_size }),
        Box::new(SizeGuided {
            size: size_guided_size,
        }),
        Box::new(Distributed {
            size: distributed_size,
        }),
        Box::new(Hierarchical { cfg: hier_cfg }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_graph::CommMatrix;

    fn chain_graph(nodes: usize) -> WeightedGraph {
        let mut m = CommMatrix::new(nodes);
        for n in 0..nodes - 1 {
            m.add(n, n + 1, 100);
            m.add(n + 1, n, 100);
        }
        WeightedGraph::from_comm_matrix(&m)
    }

    #[test]
    fn registry_builds_all_four_on_the_paper_layout() {
        let placement = Placement::block(64, 16);
        let graph = chain_graph(64);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        let schemes: Vec<ClusteringScheme> = registry()
            .iter()
            .map(|s| s.build(&ctx).expect("paper layout is valid"))
            .collect();
        assert_eq!(schemes.len(), 4);
        let regs = registry();
        let names: Vec<&str> = regs.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["naive", "size-guided", "distributed", "hierarchical"]
        );
        // Trait output matches the free functions it wraps.
        assert_eq!(
            schemes[0].l1,
            strategies::naive(1024, 32).l1,
            "naive parity"
        );
        assert_eq!(
            schemes[2].l2,
            strategies::distributed(&placement, 16).l2,
            "distributed parity"
        );
    }

    #[test]
    fn oversized_flat_cluster_is_a_partition_error() {
        let placement = Placement::block(2, 2);
        let graph = chain_graph(2);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        let err = Naive { size: 100 }.build(&ctx).unwrap_err();
        assert!(matches!(err, HcftError::Partition(_)), "{err}");
    }

    #[test]
    fn zero_size_is_a_config_error() {
        let placement = Placement::block(2, 2);
        let graph = chain_graph(2);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        assert!(matches!(
            SizeGuided { size: 0 }.build(&ctx),
            Err(HcftError::Config(_))
        ));
    }

    #[test]
    fn ragged_layout_is_a_partition_error_not_a_panic() {
        let assign: Vec<NodeId> = [0, 0, 0, 1].iter().map(|&n| NodeId(n)).collect();
        let placement = Placement::from_assignment(assign, 2);
        let graph = chain_graph(2);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        assert!(matches!(
            Distributed { size: 2 }.build(&ctx),
            Err(HcftError::Partition(_))
        ));
    }

    #[test]
    fn mismatched_node_graph_is_a_config_error() {
        let placement = Placement::block(8, 2);
        let graph = chain_graph(4); // wrong vertex count
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        assert!(matches!(
            Hierarchical::default().build(&ctx),
            Err(HcftError::Config(_))
        ));
    }

    #[test]
    fn too_few_nodes_for_hierarchical_is_a_partition_error() {
        let placement = Placement::block(2, 4);
        let graph = chain_graph(2);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        assert!(matches!(
            Hierarchical::default().build(&ctx),
            Err(HcftError::Partition(_))
        ));
    }

    #[test]
    fn bounds_no_part_count_fits_are_a_partition_error() {
        // 5 nodes: one cluster of 4 leaves one over, two need 8.
        let placement = Placement::block(5, 2);
        let graph = chain_graph(5);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        let exactly_four = Hierarchical {
            cfg: HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                ..HierarchicalConfig::default()
            },
        };
        assert!(matches!(
            exactly_four.build(&ctx),
            Err(HcftError::Partition(_))
        ));
        // The default 4..=8 bounds take all five nodes as one cluster.
        assert!(Hierarchical::default().build(&ctx).is_ok());
    }
}
