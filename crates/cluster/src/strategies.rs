//! The scheme constructors behind the strategies of §III–§IV.
//!
//! These free functions build a [`ClusteringScheme`] and panic on input
//! their family cannot cluster; the feasibility rules themselves live in
//! [`ClusteringStrategy::validate`], and [`ClusteringStrategy::build`]
//! returns the same refusal as an [`HcftError`] instead.

use std::sync::Arc;

use hcft_graph::{Clustering, WeightedGraph};
use hcft_partition::{modularity_clusters, MultilevelConfig, MultilevelPartitioner, SizeBounds};
use hcft_telemetry::HcftError;
use hcft_topology::{NodeId, Placement, Rank};

use crate::strategy::ClusteringStrategy;

/// Panic with the refusal of a strategy's feasibility rule.
fn must(rule: Result<(), HcftError>) {
    if let Err(e) = rule {
        panic!("{e}");
    }
}

/// A named clustering scheme: the L1 (failure-containment) clusters drive
/// message logging and restart; the L2 (encoding) clusters drive encoding
/// time and reliability. Flat schemes use the same clusters for both —
/// §III explains why the two *must* checkpoint together, which is what
/// forces the shared clustering and the 4-D trade-off.
/// Both levels are shared via [`Arc`]: schemes are cloned freely by the
/// sweep engine and the protocol/checkpointer layers, and a partition of
/// a thousand ranks must not be deep-copied per clone.
#[derive(Clone, Debug)]
pub struct ClusteringScheme {
    /// Human-readable name (Table II row label).
    pub name: String,
    /// Failure-containment clusters.
    pub l1: Arc<Clustering>,
    /// Erasure-encoding clusters.
    pub l2: Arc<Clustering>,
}

impl ClusteringScheme {
    fn flat(name: impl Into<String>, c: Clustering) -> Self {
        let c = Arc::new(c);
        ClusteringScheme {
            name: name.into(),
            l1: Arc::clone(&c),
            l2: c,
        }
    }
}

/// §III-A — naïve clustering: consecutive ranks in clusters of `size`
/// (the paper settles on 32 as the logging/restart sweet spot).
pub fn naive(nprocs: usize, size: usize) -> ClusteringScheme {
    ClusteringScheme::flat(
        format!("naive ({size} pr.)"),
        Clustering::consecutive(nprocs, size),
    )
}

/// §III-B — size-guided clustering: mechanically identical to naïve but
/// the size is chosen to balance encoding time too (the paper picks 8).
pub fn size_guided(nprocs: usize, size: usize) -> ClusteringScheme {
    ClusteringScheme::flat(
        format!("size-guided ({size} pr.)"),
        Clustering::consecutive(nprocs, size),
    )
}

/// §III-C — distributed clustering: every cluster's members live on
/// pairwise-distinct nodes, laid out as *diagonal stripes* exactly like
/// FTI's encoding groups (Fig. 1): nodes are chunked into groups of
/// `size`, and cluster (group g, stripe c) takes slot `(c + p) mod ppn`
/// of the p-th node of the group. The diagonal shift means any two ranks
/// with the same slot on different nodes — i.e. the partners of a
/// topology-aware stencil — land in *different* clusters, which is why
/// the paper measures ~100 % of messages logged under this scheme.
///
/// # Panics
/// Panics where [`ClusteringStrategy::Distributed`]'s
/// [`validate`](ClusteringStrategy::validate) refuses `placement` (a size
/// outside `2..=nodes`, or nodes hosting different rank counts).
pub fn distributed(placement: &Placement, size: usize) -> ClusteringScheme {
    must(ClusteringStrategy::Distributed { size }.validate(placement));
    let nodes = placement.nodes();
    let ppn = placement.ranks_on(NodeId(0)).len();
    let mut clusters: Vec<Vec<Rank>> = Vec::new();
    let mut group_start = 0;
    while group_start < nodes {
        let group_end = (group_start + size).min(nodes);
        for stripe in 0..ppn {
            clusters.push(
                (group_start..group_end)
                    .enumerate()
                    .map(|(p, n)| placement.ranks_on(NodeId::from(n))[(stripe + p) % ppn])
                    .collect(),
            );
        }
        group_start = group_end;
    }
    ClusteringScheme::flat(
        format!("distributed ({size} pr.)"),
        Clustering::from_members(placement.nprocs(), clusters),
    )
}

/// Two-level scheme built to survive the loss of a *whole* L1 cluster:
/// L1 (containment) clusters are consecutive blocks of `l1_nodes` nodes,
/// while L2 (encoding) groups of `l2_size` ranks stride across the rank
/// space so every group spreads over many L1 clusters. Killing all nodes
/// of one L1 cluster then costs each L2 group only
/// `l1_nodes·ppn / (nprocs/l2_size)` members — keep that within the
/// group's tolerance (half of it, rounded up) and the dead cluster's
/// checkpoints remain RS-rebuildable from survivors' parity.
/// This is the layout the live replay engine's cluster-kill scenarios
/// assume.
///
/// # Panics
/// Panics where [`ClusteringStrategy::Striped`]'s
/// [`validate`](ClusteringStrategy::validate) refuses `placement`.
pub fn striped(placement: &Placement, l1_nodes: usize, l2_size: usize) -> ClusteringScheme {
    must(ClusteringStrategy::Striped { l1_nodes, l2_size }.validate(placement));
    let nprocs = placement.nprocs();
    let groups = nprocs / l2_size;
    let l1_assign: Vec<usize> = (0..nprocs)
        .map(|r| placement.node_of(Rank::from(r)).idx() / l1_nodes)
        .collect();
    let l2_assign: Vec<usize> = (0..nprocs).map(|r| r % groups).collect();
    ClusteringScheme {
        name: format!("striped (L1 {l1_nodes} nodes, L2 {l2_size} pr.)"),
        l1: Arc::new(Clustering::from_assignment(&l1_assign)),
        l2: Arc::new(Clustering::from_assignment(&l2_assign)),
    }
}

/// Which engine computes the L1 node partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionEngine {
    /// Multilevel k-way partitioner (METIS-style) with k = nodes /
    /// `min_nodes_per_l1`.
    Multilevel,
    /// Greedy modularity agglomeration (CNM) with size caps.
    Modularity,
}

impl PartitionEngine {
    /// Parse a CLI spelling (`multilevel` or `modularity`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "multilevel" => Some(PartitionEngine::Multilevel),
            "modularity" => Some(PartitionEngine::Modularity),
            _ => None,
        }
    }
}

/// Configuration of the hierarchical strategy (§IV-B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalConfig {
    /// Minimum nodes per L1 cluster (paper: 4, so erasure distribution is
    /// possible inside every L1 cluster).
    pub min_nodes_per_l1: usize,
    /// Maximum nodes per L1 cluster (bounds restart cost).
    pub max_nodes_per_l1: usize,
    /// Nodes per L2 encoding group inside an L1 cluster (paper: 4).
    pub l2_group_nodes: usize,
    /// Partitioning engine for L1.
    pub engine: PartitionEngine,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 8,
            l2_group_nodes: 4,
            engine: PartitionEngine::Multilevel,
        }
    }
}

impl HierarchicalConfig {
    /// How many L1 clusters `nodes` nodes split into: the largest `k`
    /// with `k·min ≤ nodes ≤ k·max`, or `None` when no `k` fits (five
    /// nodes in clusters of exactly four, say). This is the part count
    /// the multilevel engine partitions into.
    pub(crate) fn l1_parts(&self, nodes: usize) -> Option<usize> {
        let k = nodes / self.min_nodes_per_l1.max(1);
        let fits = k
            .checked_mul(self.max_nodes_per_l1)
            .is_none_or(|most| most >= nodes);
        (k >= 1 && fits).then_some(k)
    }
}

/// §IV-B — the hierarchical clustering.
///
/// 1. Build the node partition minimising cut traffic on `node_graph`
///    (vertex weights = ranks per node) with every part holding at least
///    `min_nodes_per_l1` nodes; an L1 cluster is all ranks of a part, so
///    a node failure rolls back exactly one L1 cluster.
/// 2. Inside each L1 cluster, chunk the nodes into groups of
///    `l2_group_nodes` (a short remainder merges into the previous group)
///    and make one L2 cluster per rank-slot per group — small, perfectly
///    distributed encoding clusters.
///
/// # Panics
/// Panics if the node graph and placement disagree, or where
/// [`ClusteringStrategy::Hierarchical`]'s
/// [`validate`](ClusteringStrategy::validate) refuses `placement`.
pub fn hierarchical(
    placement: &Placement,
    node_graph: &WeightedGraph,
    cfg: &HierarchicalConfig,
) -> ClusteringScheme {
    let nodes = placement.nodes();
    assert_eq!(node_graph.n(), nodes, "node graph must cover the placement");
    must(ClusteringStrategy::Hierarchical(cfg.clone()).validate(placement));
    hierarchical_from_l1(placement, &l1_node_partition(node_graph, cfg), cfg)
}

/// Step 1 of [`hierarchical`]: the part of every node. It depends on the
/// L1 bounds and the engine only, not on the L2 group width.
pub(crate) fn l1_node_partition(
    node_graph: &WeightedGraph,
    cfg: &HierarchicalConfig,
) -> Vec<usize> {
    // Vertex weights: ranks per node, so partition balance is in ranks…
    // except the paper's constraint is in *nodes*, so weight each vertex
    // 1 and bound by node counts.
    let bounds = SizeBounds::new(cfg.min_nodes_per_l1 as u64, cfg.max_nodes_per_l1 as u64);
    crate::stages::counters().l1_partitions.inc();
    match cfg.engine {
        PartitionEngine::Multilevel => {
            let k = cfg.l1_parts(node_graph.n()).expect("validated bounds fit");
            MultilevelPartitioner::new(MultilevelConfig::new(k, bounds)).partition(node_graph)
        }
        PartitionEngine::Modularity => modularity_clusters(node_graph, bounds),
    }
}

/// Step 2 of [`hierarchical`]: the L1 and L2 clusters of a validated
/// node partition.
pub(crate) fn hierarchical_from_l1(
    placement: &Placement,
    node_part: &[usize],
    cfg: &HierarchicalConfig,
) -> ClusteringScheme {
    // L1 clusters: all ranks of each node part.
    let nparts = node_part.iter().copied().max().expect("nodes") + 1;
    let mut l1_members: Vec<Vec<Rank>> = vec![Vec::new(); nparts];
    let mut part_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); nparts];
    for (n, &p) in node_part.iter().enumerate() {
        part_nodes[p].push(NodeId::from(n));
        l1_members[p].extend_from_slice(placement.ranks_on(NodeId::from(n)));
    }
    let l1 = Clustering::from_members(placement.nprocs(), l1_members);
    // L2 clusters: per part, chunk nodes into groups of l2_group_nodes.
    let mut l2_members: Vec<Vec<Rank>> = Vec::new();
    for nodes_of_part in &part_nodes {
        assert!(
            nodes_of_part.len() >= cfg.l2_group_nodes,
            "L1 cluster with {} nodes cannot host an L2 group of {}",
            nodes_of_part.len(),
            cfg.l2_group_nodes
        );
        let mut start = 0;
        while start < nodes_of_part.len() {
            let remaining = nodes_of_part.len() - start;
            // Absorb a short tail into this group so no group goes below
            // the configured distribution width.
            let take = if remaining < 2 * cfg.l2_group_nodes {
                remaining
            } else {
                cfg.l2_group_nodes
            };
            let group = &nodes_of_part[start..start + take];
            let slots = group
                .iter()
                .map(|&n| placement.ranks_on(n).len())
                .max()
                .expect("non-empty group");
            for slot in 0..slots {
                let members: Vec<Rank> = group
                    .iter()
                    .filter_map(|&n| placement.ranks_on(n).get(slot).copied())
                    .collect();
                if !members.is_empty() {
                    l2_members.push(members);
                }
            }
            start += take;
        }
    }
    let l2 = Clustering::from_members(placement.nprocs(), l2_members);
    ClusteringScheme {
        name: format!("hierarchical ({}-{} pr.)", l1.max_size(), l2.max_size()),
        l1: Arc::new(l1),
        l2: Arc::new(l2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeIndex;
    use hcft_graph::CommMatrix;

    /// Node graph of a 1-D chain of nodes with heavy neighbour traffic.
    fn chain_node_graph(nodes: usize, ppn: usize) -> WeightedGraph {
        let mut m = CommMatrix::new(nodes);
        for n in 0..nodes - 1 {
            m.add(n, n + 1, 1000);
            m.add(n + 1, n, 1000);
        }
        let mut g = WeightedGraph::from_comm_matrix(&m);
        for n in 0..nodes {
            let _ = ppn;
            g.set_vertex_weight(n, 1);
        }
        g
    }

    #[test]
    fn striped_survives_a_whole_l1_cluster_loss() {
        // 16 nodes x 4 ranks; L1 = 4-node blocks (4 clusters of 16
        // ranks), L2 = 8 strided groups of 8. A full L1 cluster is 16
        // consecutive ranks = 2 members of each L2 group, which
        // tolerates 4 of its 8, so the kill stays recoverable.
        let placement = Placement::block(16, 4);
        let s = striped(&placement, 4, 8);
        assert_eq!(s.l1.len(), 4);
        assert_eq!(s.l2.len(), 8);
        let index = SchemeIndex::new(&s, &placement);
        let mut scratch = index.scratch();
        let ids = |nodes: Vec<NodeId>| nodes.into_iter().map(|n| n.0).collect::<Vec<u32>>();
        for c in 0..s.l1.len() {
            let nodes = ids(placement.nodes_of(s.l1.members(c)));
            assert_eq!(nodes.len(), 4);
            assert!(
                !index.defeated_by(&nodes, &mut scratch),
                "losing all of L1 cluster {c} must not defeat L2"
            );
        }
        // But losing two whole L1 clusters (4 of 8 members per group)
        // crosses the tolerance boundary only at 5+, so check 3 clusters.
        let nodes = ids((0..3)
            .flat_map(|c| placement.nodes_of(s.l1.members(c)))
            .collect());
        assert!(index.defeated_by(&nodes, &mut scratch));
    }

    #[test]
    fn naive_is_consecutive() {
        let s = naive(64, 32);
        assert_eq!(s.l1.len(), 2);
        assert_eq!(s.l1, s.l2);
        assert!(s.name.contains("32"));
    }

    #[test]
    fn distributed_members_are_on_distinct_nodes() {
        let p = Placement::block(8, 4);
        let s = distributed(&p, 4);
        assert_eq!(s.l1.len(), 8); // 2 node groups × 4 slots
        for (_, members) in s.l1.iter() {
            assert!(p.fully_distributed(members), "cluster {members:?}");
            assert_eq!(members.len(), 4);
        }
    }

    #[test]
    fn distributed_covers_all_ranks_with_remainder_group() {
        let p = Placement::block(6, 2);
        let s = distributed(&p, 4); // groups of 4 + remainder of 2 nodes
        let total: usize = s.l1.sizes().iter().sum();
        assert_eq!(total, 12);
        assert_eq!(s.l1.min_size(), 2);
    }

    #[test]
    fn hierarchical_l1_contains_whole_nodes() {
        let ppn = 4;
        let p = Placement::block(16, ppn);
        let g = chain_node_graph(16, ppn);
        let s = hierarchical(&p, &g, &HierarchicalConfig::default());
        // Every node's ranks in one L1 cluster.
        for n in 0..16 {
            let ranks = p.ranks_on(NodeId::from(n));
            let c = s.l1.cluster_of(ranks[0]);
            assert!(ranks.iter().all(|&r| s.l1.cluster_of(r) == c));
        }
        // L1 clusters hold ≥ 4 nodes = 16 ranks.
        assert!(s.l1.min_size() >= 4 * ppn);
    }

    #[test]
    fn hierarchical_l2_is_small_and_distributed() {
        let ppn = 4;
        let p = Placement::block(16, ppn);
        let g = chain_node_graph(16, ppn);
        let s = hierarchical(&p, &g, &HierarchicalConfig::default());
        for (_, members) in s.l2.iter() {
            assert!(p.fully_distributed(members), "L2 not distributed");
            assert!(
                members.len() >= 4 && members.len() < 8,
                "L2 size {}",
                members.len()
            );
        }
        // L2 nests inside L1.
        for (_, members) in s.l2.iter() {
            let c = s.l1.cluster_of(members[0]);
            assert!(members.iter().all(|&r| s.l1.cluster_of(r) == c));
        }
    }

    #[test]
    fn hierarchical_on_paper_layout_produces_64_4() {
        // 64 nodes × 16 ranks: the paper's configuration. Chain node
        // graph stands in for the stencil's node graph.
        let p = Placement::block(64, 16);
        let g = chain_node_graph(64, 16);
        let cfg = HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            engine: PartitionEngine::Multilevel,
        };
        let s = hierarchical(&p, &g, &cfg);
        // 16 L1 clusters of 64 consecutive ranks; L2 clusters of 4.
        assert_eq!(s.l1.len(), 16);
        assert!(s.l1.sizes().iter().all(|&z| z == 64));
        assert!(s.l2.sizes().iter().all(|&z| z == 4));
        assert_eq!(s.l2.len(), 256);
    }

    #[test]
    fn modularity_engine_also_works() {
        let ppn = 2;
        let p = Placement::block(8, ppn);
        let g = chain_node_graph(8, ppn);
        let cfg = HierarchicalConfig {
            engine: PartitionEngine::Modularity,
            ..Default::default()
        };
        let s = hierarchical(&p, &g, &cfg);
        assert!(s.l1.min_size() >= 4 * ppn);
        for (_, members) in s.l2.iter() {
            assert!(p.fully_distributed(members));
        }
    }

    #[test]
    #[should_panic(expected = "uniform ranks-per-node")]
    fn distributed_rejects_ragged_layouts() {
        let assign: Vec<NodeId> = [0, 0, 0, 1].iter().map(|&n| NodeId(n)).collect();
        let p = Placement::from_assignment(assign, 2);
        distributed(&p, 2);
    }
}
