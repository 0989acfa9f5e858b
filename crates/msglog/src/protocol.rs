//! Logging classification and the two protocol cost metrics.

use std::sync::Arc;

use hcft_graph::{Clustering, CommMatrix};
use hcft_topology::{Placement, Rank};

/// Byte accounting for a clustering applied to a traffic trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogStats {
    /// All traced bytes.
    pub total_bytes: u64,
    /// Bytes crossing cluster boundaries (must be logged).
    pub logged_bytes: u64,
    /// Logged bytes held by each sender (the per-rank memory footprint).
    pub per_sender_logged: Vec<u64>,
}

impl LogStats {
    /// Fraction of bytes logged — the paper's "message logging overhead"
    /// axis.
    pub fn logged_fraction(&self) -> f64 {
        logged_fraction((self.total_bytes, self.logged_bytes))
    }
}

/// `logged / total` of a `(total, logged)` byte pair, such as
/// [`HybridProtocol::logged_bytes`] returns; 0 for an empty trace.
pub fn logged_fraction((total, logged): (u64, u64)) -> f64 {
    if total == 0 {
        0.0
    } else {
        logged as f64 / total as f64
    }
}

/// The hybrid protocol configured with a failure-containment clustering.
///
/// The clustering is held behind an [`Arc`] so sweeps instantiating one
/// protocol per scheme share the partition instead of deep-copying it.
#[derive(Clone, Debug)]
pub struct HybridProtocol {
    clustering: Arc<Clustering>,
}

impl HybridProtocol {
    /// Protocol over the given (L1) clustering. Accepts an owned
    /// [`Clustering`] or an `Arc<Clustering>`; the latter is a cheap
    /// refcount bump.
    pub fn new(clustering: impl Into<Arc<Clustering>>) -> Self {
        HybridProtocol {
            clustering: clustering.into(),
        }
    }

    /// Must this message be logged? (Inter-cluster ⇒ yes.)
    #[inline]
    pub fn must_log(&self, src: Rank, dst: Rank) -> bool {
        !self.clustering.same_cluster(src, dst)
    }

    /// Accounting from a byte matrix (no per-message phases needed):
    /// one walk over its rows.
    pub fn stats_from_matrix(&self, m: &CommMatrix) -> LogStats {
        assert_eq!(m.n(), self.clustering.nprocs(), "matrix/clustering size");
        let mut s = LogStats {
            total_bytes: 0,
            logged_bytes: 0,
            per_sender_logged: vec![0; self.clustering.nprocs()],
        };
        for src in 0..m.n() {
            let (total, logged) = self.row_bytes(m, src);
            s.total_bytes += total;
            s.logged_bytes += logged;
            s.per_sender_logged[src] = logged;
        }
        s
    }

    /// `(total, logged)` bytes of a byte matrix: the two totals of
    /// [`HybridProtocol::stats_from_matrix`] without its per-sender
    /// vector.
    pub fn logged_bytes(&self, m: &CommMatrix) -> (u64, u64) {
        assert_eq!(m.n(), self.clustering.nprocs(), "matrix/clustering size");
        (0..m.n())
            .map(|src| self.row_bytes(m, src))
            .fold((0, 0), |(t, l), (rt, rl)| (t + rt, l + rl))
    }

    /// `(total, logged)` bytes sent by `src`: its row of `m`, reading
    /// its cluster once.
    fn row_bytes(&self, m: &CommMatrix, src: usize) -> (u64, u64) {
        let home = self.clustering.cluster_of(Rank::from(src));
        m.row(src)
            .iter()
            .fold((0, 0), |(total, logged), &(dst, bytes)| {
                let cut = self.clustering.cluster_of(Rank::from(dst as usize)) != home;
                (total + bytes, logged + if cut { bytes } else { 0 })
            })
    }

    /// The set of ranks forced to restart when `failed` ranks die: the
    /// union of their clusters.
    pub fn restart_set(&self, failed: &[Rank]) -> Vec<Rank> {
        let mut clusters: Vec<usize> = failed
            .iter()
            .map(|&r| self.clustering.cluster_of(r))
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        let mut out: Vec<Rank> = clusters
            .into_iter()
            .flat_map(|c| self.clustering.members(c).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Expected fraction of ranks restarted when one uniformly-random
    /// node fails — the paper's "recovery cost"/"restart cost" axis
    /// (Fig. 3a right axis, Fig. 4c).
    ///
    /// A node's restart set is the union of its ranks' clusters, and
    /// clusters are disjoint, so its size is the summed size of the
    /// distinct clusters the node hosts: one walk over the node's ranks,
    /// marking clusters with an epoch stamp, with no rank set built.
    /// The share is `restart_set(ranks on node).len() / nprocs`, summed in
    /// node order (a node without ranks adds an exact `0.0`).
    pub fn expected_restart_fraction(&self, placement: &Placement) -> f64 {
        assert_eq!(placement.nprocs(), self.clustering.nprocs());
        let nprocs = placement.nprocs() as f64;
        let nodes = placement.nodes();
        // stamp[c] == node + 1: cluster c is already counted for `node`.
        let mut stamp = vec![0usize; self.clustering.len()];
        let mut acc = 0.0;
        for node in 0..nodes {
            let mut count = 0usize;
            for &r in placement.ranks_on(hcft_topology::NodeId::from(node)) {
                let c = self.clustering.cluster_of(r);
                if stamp[c] != node + 1 {
                    stamp[c] = node + 1;
                    count += self.clustering.members(c).len();
                }
            }
            acc += count as f64 / nprocs;
        }
        acc / nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_topology::{NodeId, PlacementStrategy};
    use proptest::prelude::*;

    fn matrix_ring(n: usize, bytes: u64) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for r in 0..n {
            m.add(r, (r + 1) % n, bytes);
        }
        m
    }

    #[test]
    fn logging_counts_only_cross_cluster_traffic() {
        // Ring of 8, clusters of 4: cuts at 3->4 and 7->0.
        let p = HybridProtocol::new(Clustering::consecutive(8, 4));
        let s = p.stats_from_matrix(&matrix_ring(8, 10));
        assert_eq!(s.total_bytes, 80);
        assert_eq!(s.logged_bytes, 20);
        assert!((s.logged_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.per_sender_logged[3], 10);
        assert_eq!(s.per_sender_logged[7], 10);
        assert_eq!(s.per_sender_logged[1], 0);
    }

    #[test]
    fn single_cluster_logs_nothing() {
        let p = HybridProtocol::new(Clustering::single(8));
        let s = p.stats_from_matrix(&matrix_ring(8, 10));
        assert_eq!(s.logged_bytes, 0);
    }

    #[test]
    fn singletons_log_everything() {
        let p = HybridProtocol::new(Clustering::singletons(8));
        let s = p.stats_from_matrix(&matrix_ring(8, 10));
        assert_eq!(s.logged_bytes, s.total_bytes);
    }

    #[test]
    fn restart_set_is_cluster_union() {
        let p = HybridProtocol::new(Clustering::consecutive(12, 4));
        let rs = p.restart_set(&[Rank(0), Rank(9)]);
        let expect: Vec<Rank> = [0, 1, 2, 3, 8, 9, 10, 11]
            .iter()
            .map(|&r| Rank(r))
            .collect();
        assert_eq!(rs, expect);
        // Two failures in one cluster restart just that cluster.
        assert_eq!(p.restart_set(&[Rank(1), Rank(2)]).len(), 4);
    }

    #[test]
    fn node_aligned_clusters_restart_one_cluster_per_node() {
        // 4 nodes × 4 ppn; clusters of 8 = 2 nodes.
        let placement = Placement::block(4, 4);
        let p = HybridProtocol::new(Clustering::consecutive(16, 8));
        // Any node failure restarts its 8-rank cluster: 8/16 = 0.5.
        assert!((p.expected_restart_fraction(&placement) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distributed_clusters_amplify_restart() {
        // 4 nodes × 4 ppn; distributed clusters of 4: slot s of every
        // node forms a cluster → one node failure touches all 4 clusters
        // → everything restarts.
        let placement = Placement::block(4, 4);
        let assignment: Vec<usize> = (0..16).map(|r| r % 4).collect();
        let p = HybridProtocol::new(Clustering::from_assignment(&assignment));
        assert!((p.expected_restart_fraction(&placement) - 1.0).abs() < 1e-12);
    }

    /// The restart share as computed before the node walk: one sorted
    /// restart set per node.
    fn restart_fraction_by_sets(p: &HybridProtocol, placement: &Placement) -> f64 {
        let nprocs = placement.nprocs() as f64;
        let nodes = placement.nodes();
        let mut acc = 0.0;
        for node in 0..nodes {
            let failed = placement.ranks_on(NodeId::from(node));
            if failed.is_empty() {
                continue;
            }
            acc += p.restart_set(failed).len() as f64 / nprocs;
        }
        acc / nodes as f64
    }

    proptest! {
        /// The node walk equals the restart-set computation bit for bit:
        /// block, cyclic and random placements (ragged, some nodes
        /// empty) under consecutive clusters that split nodes, striped
        /// clusters spanning nodes and random clusters.
        #[test]
        fn walked_restart_share_equals_restart_sets(
            nodes in 1usize..12,
            ranks in 1usize..80,
            layout in 0u8..3,
            node_draw in proptest::collection::vec(0usize..12, 80),
            family in 0u8..3,
            size in 1usize..20,
            cluster_draw in proptest::collection::vec(0usize..20, 80),
        ) {
            let per_node = ranks.div_ceil(nodes);
            let placement = match layout {
                0 => Placement::new(PlacementStrategy::Block, ranks, nodes, per_node),
                1 => Placement::new(PlacementStrategy::RoundRobin, ranks, nodes, per_node),
                _ => Placement::from_assignment(
                    node_draw[..ranks].iter().map(|&n| NodeId::from(n % nodes)).collect(),
                    nodes,
                ),
            };
            let clustering = match family {
                0 => Clustering::consecutive(ranks, size),
                1 => Clustering::from_assignment(&(0..ranks).map(|r| r % size).collect::<Vec<_>>()),
                _ => Clustering::from_assignment(
                    &cluster_draw[..ranks].iter().map(|&c| c % size).collect::<Vec<_>>(),
                ),
            };
            let p = HybridProtocol::new(clustering);
            prop_assert_eq!(
                p.expected_restart_fraction(&placement).to_bits(),
                restart_fraction_by_sets(&p, &placement).to_bits()
            );
        }

        /// The row walks equal a per-cell accounting with `must_log`:
        /// both totals, the per-sender vector and the fraction.
        #[test]
        fn row_walks_equal_the_per_cell_accounting(
            ranks in 1usize..60,
            cells in proptest::collection::vec((0usize..60, 0usize..60, 0u64..1000), 0..200),
            size in 1usize..20,
            cluster_draw in proptest::collection::vec(0usize..20, 60),
        ) {
            let mut m = CommMatrix::new(ranks);
            for (s, d, b) in cells {
                m.add(s % ranks, d % ranks, b);
            }
            let p = HybridProtocol::new(Clustering::from_assignment(
                &cluster_draw[..ranks].iter().map(|&c| c % size).collect::<Vec<_>>(),
            ));
            let mut per_sender = vec![0; ranks];
            let (mut total, mut logged) = (0, 0);
            for (s, d, b) in m.entries() {
                total += b;
                if p.must_log(Rank::from(s), Rank::from(d)) {
                    logged += b;
                    per_sender[s] += b;
                }
            }
            prop_assert_eq!(p.logged_bytes(&m), (total, logged));
            let stats = p.stats_from_matrix(&m);
            prop_assert_eq!((stats.total_bytes, stats.logged_bytes), (total, logged));
            prop_assert_eq!(&stats.per_sender_logged, &per_sender);
            prop_assert_eq!(
                logged_fraction((total, logged)).to_bits(),
                stats.logged_fraction().to_bits()
            );
        }
    }
}
