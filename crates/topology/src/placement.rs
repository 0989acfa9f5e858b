//! Rank-to-node placement.
//!
//! The paper stresses (§II-C2, §III-B) that users place consecutive ranks on
//! the same node to maximise intra-node communication ("topology-aware
//! positioning"), and that this interacts badly with distributed erasure
//! clusters. [`Placement`] is the single source of truth for which rank
//! lives where; every model downstream (logging overhead, restart cost,
//! reliability) consumes it.

use crate::ids::{NodeId, Rank};

/// How ranks are laid out on nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Consecutive ranks share a node (the paper's default: maximises
    /// intra-node communication for stencils).
    Block,
    /// Rank `r` goes to node `r % nodes` (cyclic). Included as the
    /// anti-pattern the paper warns about for stencil codes.
    RoundRobin,
}

/// An immutable mapping from rank to physical node, with the reverse index
/// precomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    node_of: Vec<NodeId>,
    ranks_on: Vec<Vec<Rank>>,
}

impl Placement {
    /// Build a placement of `nprocs` ranks over `nodes` nodes using the
    /// given strategy with `per_node` ranks per node (Block) or cyclic
    /// assignment (RoundRobin).
    ///
    /// # Panics
    /// Panics if `nprocs` does not fit (`nprocs > nodes * per_node` for
    /// Block) or if any argument is zero.
    pub fn new(strategy: PlacementStrategy, nprocs: usize, nodes: usize, per_node: usize) -> Self {
        assert!(nprocs > 0 && nodes > 0 && per_node > 0, "empty placement");
        assert!(
            nprocs <= nodes * per_node,
            "{nprocs} ranks do not fit on {nodes} nodes x {per_node}"
        );
        let node_of: Vec<NodeId> = (0..nprocs)
            .map(|r| match strategy {
                PlacementStrategy::Block => NodeId::from(r / per_node),
                PlacementStrategy::RoundRobin => NodeId::from(r % nodes),
            })
            .collect();
        Self::from_assignment(node_of, nodes)
    }

    /// Block placement covering exactly `nodes * per_node` ranks — the
    /// paper's standard layout.
    pub fn block(nodes: usize, per_node: usize) -> Self {
        Self::new(PlacementStrategy::Block, nodes * per_node, nodes, per_node)
    }

    /// Build from an explicit rank→node assignment.
    ///
    /// # Panics
    /// Panics if any node id is out of range.
    pub fn from_assignment(node_of: Vec<NodeId>, nodes: usize) -> Self {
        let mut ranks_on = vec![Vec::new(); nodes];
        for (r, n) in node_of.iter().enumerate() {
            assert!(n.idx() < nodes, "node {n} out of range ({nodes} nodes)");
            ranks_on[n.idx()].push(Rank::from(r));
        }
        Placement { node_of, ranks_on }
    }

    /// Number of ranks.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes (including any left empty).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.ranks_on.len()
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.node_of[rank.idx()]
    }

    /// Ranks hosted by `node`, in ascending order.
    #[inline]
    pub fn ranks_on(&self, node: NodeId) -> &[Rank] {
        &self.ranks_on[node.idx()]
    }

    /// True if the ranks of `set` all live on pairwise-distinct nodes —
    /// the property erasure-code clusters need (§II-C1).
    pub fn fully_distributed(&self, set: &[Rank]) -> bool {
        let mut seen = vec![false; self.nodes()];
        for &r in set {
            let n = self.node_of(r).idx();
            if seen[n] {
                return false;
            }
            seen[n] = true;
        }
        true
    }

    /// The set of distinct nodes hosting `set`, ascending.
    pub fn nodes_of(&self, set: &[Rank]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = set.iter().map(|&r| self.node_of(r)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_places_consecutive_ranks_together() {
        let p = Placement::block(4, 4);
        assert_eq!(p.nprocs(), 16);
        assert_eq!(p.node_of(Rank(0)), NodeId(0));
        assert_eq!(p.node_of(Rank(3)), NodeId(0));
        assert_eq!(p.node_of(Rank(4)), NodeId(1));
        assert_eq!(p.ranks_on(NodeId(1)), &[Rank(4), Rank(5), Rank(6), Rank(7)]);
    }

    #[test]
    fn round_robin_cycles() {
        let p = Placement::new(PlacementStrategy::RoundRobin, 8, 4, 2);
        assert_eq!(p.node_of(Rank(0)), NodeId(0));
        assert_eq!(p.node_of(Rank(4)), NodeId(0));
        assert_eq!(p.node_of(Rank(5)), NodeId(1));
        assert_eq!(p.ranks_on(NodeId(0)), &[Rank(0), Rank(4)]);
    }

    #[test]
    fn fully_distributed_detects_colocation() {
        let p = Placement::block(4, 4);
        assert!(p.fully_distributed(&[Rank(0), Rank(4), Rank(8), Rank(12)]));
        assert!(!p.fully_distributed(&[Rank(0), Rank(1)]));
        assert!(p.fully_distributed(&[]));
    }

    #[test]
    fn nodes_of_dedups_and_sorts() {
        let p = Placement::block(4, 4);
        assert_eq!(
            p.nodes_of(&[Rank(5), Rank(4), Rank(0), Rank(12)]),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn overfull_placement_panics() {
        Placement::new(PlacementStrategy::Block, 9, 2, 4);
    }
}
