//! Logging classification and the two protocol cost metrics.

use std::sync::Arc;

use hcft_graph::{Clustering, CommMatrix};
use hcft_topology::{NodeId, Placement, Rank};

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

    /// Expected fraction of ranks restarted when one uniformly-random
    /// node fails — the paper's "recovery cost"/"restart cost" axis
    /// (Fig. 3a right axis, Fig. 4c):
    /// [`Containment::expected_restart_fraction`] on `placement`.
    pub fn expected_restart_fraction(&self, placement: &Placement) -> f64 {
        Containment::new(&self.clustering, placement).expected_restart_fraction()
    }
}

/// The protocol's one restart rule: losing a set of nodes rolls back
/// exactly the (L1) clusters hosted on them. Every restart question is
/// asked of it with distinct placed-node indices, the input
/// `EventJudge::defeated_by` takes. Share it across threads; each thread
/// brings its own [`ContainmentScratch`].
#[derive(Clone, Debug)]
pub struct Containment {
    clustering: Arc<Clustering>,
    /// CSR over nodes: `clusters[off[n]..off[n + 1]]` lists the distinct
    /// clusters hosting node n's ranks, in first-appearance order.
    off: Vec<u32>,
    clusters: Vec<u32>,
    /// Member count per cluster.
    size: Vec<u32>,
}

/// Epoch-stamped "already counted" marks for one thread of
/// [`Containment::restart_ranks`]: a stale stamp reads as not counted.
#[derive(Clone, Debug)]
pub struct ContainmentScratch {
    epoch: u32,
    stamp: Vec<u32>,
}

impl Containment {
    /// Index `clustering` against `placement`, which must place exactly
    /// the clustering's ranks.
    pub fn new(clustering: &Arc<Clustering>, placement: &Placement) -> Self {
        assert_eq!(
            placement.nprocs(),
            clustering.nprocs(),
            "placement/clustering size"
        );
        let mut off = Vec::with_capacity(placement.nodes() + 1);
        off.push(0);
        let mut index = Containment {
            clustering: Arc::clone(clustering),
            off,
            clusters: Vec::with_capacity(clustering.nprocs()),
            size: clustering.iter().map(|(_, m)| m.len() as u32).collect(),
        };
        // stamp[c] == node + 1: cluster c is already listed for `node`.
        let mut stamp = vec![0u32; index.size.len()];
        for node in 0..placement.nodes() {
            for &r in placement.ranks_on(NodeId::from(node)) {
                let c = clustering.cluster_of(r);
                if stamp[c] != node as u32 + 1 {
                    stamp[c] = node as u32 + 1;
                    index.clusters.push(c as u32);
                }
            }
            index.off.push(index.clusters.len() as u32);
        }
        index
    }

    /// Number of placed nodes indexed.
    pub fn nodes(&self) -> usize {
        self.off.len() - 1
    }

    /// A scratch sized for this index.
    pub fn scratch(&self) -> ContainmentScratch {
        ContainmentScratch {
            epoch: 0,
            stamp: vec![0; self.size.len()],
        }
    }

    /// The distinct clusters hosted on node `n`.
    #[inline]
    fn row(&self, n: u32) -> &[u32] {
        &self.clusters[self.off[n as usize] as usize..self.off[n as usize + 1] as usize]
    }

    /// Number of ranks forced to restart when the nodes in `failed`
    /// (distinct placed-node indices) die: the summed size of the
    /// distinct clusters they host, in O(Σ row lengths) with no
    /// clearing and no allocation.
    #[inline]
    pub fn restart_ranks(&self, failed: &[u32], scratch: &mut ContainmentScratch) -> u64 {
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        let (epoch, mut total) = (scratch.epoch, 0);
        for &n in failed {
            for &c in self.row(n) {
                if scratch.stamp[c as usize] != epoch {
                    scratch.stamp[c as usize] = epoch;
                    total += self.size[c as usize] as u64;
                }
            }
        }
        total
    }

    /// The ranks forced to restart when the nodes in `failed` die: the
    /// members of the clusters they host, ascending.
    pub fn restart_set(&self, failed: &[u32]) -> Vec<Rank> {
        let mut touched: Vec<u32> = failed.iter().flat_map(|&n| self.row(n)).copied().collect();
        touched.sort_unstable();
        touched.dedup();
        let mut out: Vec<Rank> = touched
            .into_iter()
            .flat_map(|c| self.clustering.members(c as usize).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// The clustering of the placed nodes, when every node's ranks share
    /// one cluster (a node without ranks joins cluster 0); `None` when
    /// some node hosts two clusters. Under it a rank cell (i, j) crosses
    /// clusters exactly when the node cell (node(i), node(j)) does, so
    /// [`HybridProtocol::logged_bytes`] of the node-aggregated matrix
    /// equals that of the rank matrix.
    pub fn node_clustering(&self) -> Option<Clustering> {
        let assignment = (0..self.nodes() as u32)
            .map(|n| match self.row(n) {
                [] => Some(0),
                [c] => Some(*c as usize),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>()?;
        Some(Clustering::from_assignment(&assignment))
    }

    /// Expected fraction of ranks restarted when one uniformly-random
    /// placed node fails: each node's [`restart_ranks`](Self::restart_ranks)
    /// over `nprocs`, summed in node order (a node without ranks adds an
    /// exact `0.0`), over the node count.
    pub fn expected_restart_fraction(&self) -> f64 {
        let (nprocs, mut seen) = (self.clustering.nprocs() as f64, self.scratch());
        let sum = (0..self.nodes() as u32).fold(0.0, |acc, n| {
            acc + self.restart_ranks(&[n], &mut seen) as f64 / nprocs
        });
        sum / self.nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_topology::PlacementStrategy;
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
        // One rank a node, so node n is rank n.
        let c = Containment::new(
            &Arc::new(Clustering::consecutive(12, 4)),
            &Placement::block(12, 1),
        );
        let expect: Vec<Rank> = [0, 1, 2, 3, 8, 9, 10, 11]
            .iter()
            .map(|&r| Rank(r))
            .collect();
        assert_eq!(c.restart_set(&[0, 9]), expect);
        assert_eq!(c.restart_ranks(&[0, 9], &mut c.scratch()), 8);
        // Two failures in one cluster restart just that cluster.
        assert_eq!(c.restart_set(&[1, 2]).len(), 4);
        assert_eq!(c.restart_ranks(&[1, 2], &mut c.scratch()), 4);
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

    /// The member-scan oracle: the clusters with a member on a failed
    /// node, read off the member lists with no index; their members,
    /// ascending.
    fn reference_restart_set(c: &Clustering, p: &Placement, failed: &[u32]) -> Vec<Rank> {
        let mut out: Vec<Rank> = c
            .iter()
            .filter(|(_, members)| members.iter().any(|&r| failed.contains(&p.node_of(r).0)))
            .flat_map(|(_, members)| members.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn epoch_wrap_clears_the_stamps() {
        // Four 2-rank clusters on 8 one-rank nodes.
        let p = Placement::block(8, 1);
        let c = Clustering::consecutive(8, 2);
        let idx = Containment::new(&Arc::new(c.clone()), &p);
        let mut scratch = idx.scratch();
        // Stamp clusters 0 and 1 at epoch 1, then force the next event
        // to wrap back to epoch 1: only a cleared stamp lets it count
        // cluster 0 again.
        assert_eq!(idx.restart_ranks(&[0, 2], &mut scratch), 4);
        scratch.epoch = u32::MAX;
        assert_eq!(
            idx.restart_ranks(&[0], &mut scratch),
            reference_restart_set(&c, &p, &[0]).len() as u64
        );
        assert_eq!(scratch.epoch, 1);
    }

    proptest! {
        /// `Containment` equals the member-scan oracle: the restart count
        /// (several events through one scratch), the restart set, and
        /// the restart share bit for bit, over block, round-robin and
        /// random placements (ragged, some nodes empty) × consecutive
        /// clusters that split nodes, striped clusters spanning nodes
        /// and random clusters.
        #[test]
        fn containment_equals_member_scan(
            nodes in 1usize..12,
            ranks in 1usize..80,
            layout in 0u8..3,
            node_draw in proptest::collection::vec(0usize..12, 80),
            family in 0u8..3,
            size in 1usize..20,
            cluster_draw in proptest::collection::vec(0usize..20, 80),
            events in proptest::collection::vec(proptest::collection::vec(0usize..12, 1..6), 1..5),
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
            let idx = Containment::new(&Arc::new(clustering.clone()), &placement);
            let mut scratch = idx.scratch();
            for picks in events {
                let mut failed: Vec<u32> = picks.iter().map(|&n| (n % nodes) as u32).collect();
                failed.sort_unstable();
                failed.dedup();
                let want = reference_restart_set(&clustering, &placement, &failed);
                prop_assert_eq!(idx.restart_ranks(&failed, &mut scratch), want.len() as u64);
                prop_assert_eq!(idx.restart_set(&failed), want);
            }
            let mut share = 0.0;
            for n in 0..nodes as u32 {
                share += reference_restart_set(&clustering, &placement, &[n]).len() as f64
                    / ranks as f64;
            }
            share /= nodes as f64;
            prop_assert_eq!(idx.expected_restart_fraction().to_bits(), share.to_bits());
            prop_assert_eq!(
                HybridProtocol::new(clustering).expected_restart_fraction(&placement).to_bits(),
                share.to_bits()
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
