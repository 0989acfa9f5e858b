//! Counting fast path for the Monte-Carlo campaign's two per-event
//! questions: *is this node-loss event catastrophic?* and *how many ranks
//! restart?* The first is the workspace's one catastrophe judge,
//! [`EventJudge`] on the scheme's L2 [`ClusteringDigest`]. For the second,
//! [`SchemeIndex`] precomputes the distinct L1 clusters each node hosts,
//! so an event is answered without `HybridProtocol::restart_set`'s sorted
//! `Vec<Rank>`: O(j · entries per node) counter bumps against
//! epoch-stamped scratch, no clearing, no allocation.
//!
//! `fastpath_agrees_with_reference` proptests both answers against a
//! member scan and the restart set, on flat and two-level schemes.

use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{ClusteringDigest, EventJudge, JudgeScratch};
use hcft_topology::{NodeId, Placement};

use crate::strategies::ClusteringScheme;

/// Immutable per-(scheme, placement) index for the campaign hot loop.
///
/// Build once per cell, share across threads (`&SchemeIndex` is `Sync`);
/// pair with a per-thread [`SchemeScratch`] for the mutable counters.
#[derive(Clone, Debug)]
pub struct SchemeIndex {
    /// The L2 half: the catastrophe judge of the L2 digest.
    l2: EventJudge,
    /// CSR over nodes: distinct L1 clusters hosted by node n.
    l1_off: Vec<u32>,
    l1_clusters: Vec<u32>,
    /// Member count per L1 cluster.
    l1_size: Vec<u32>,
}

/// Epoch-stamped counters for one thread of [`SchemeIndex`] queries.
#[derive(Clone, Debug)]
pub struct SchemeScratch {
    l2: JudgeScratch,
    l1_epoch: u32,
    l1_stamp: Vec<u32>,
}

impl SchemeIndex {
    /// Index `scheme` against `placement`.
    pub fn new(scheme: &ClusteringScheme, placement: &Placement) -> Self {
        let l2 = EventJudge::new(&ClusteringDigest::new(
            &scheme.l2,
            placement,
            &fti_tolerance,
        ));
        let l1_size: Vec<u32> = scheme
            .l1
            .iter()
            .map(|(_, members)| members.len() as u32)
            .collect();
        let mut l1_off = Vec::with_capacity(placement.nodes() + 1);
        let mut l1_clusters = Vec::new();
        l1_off.push(0u32);
        for n in 0..placement.nodes() {
            let start = l1_clusters.len();
            for &r in placement.ranks_on(NodeId::from(n)) {
                let c = scheme.l1.cluster_of(r) as u32;
                if !l1_clusters[start..].contains(&c) {
                    l1_clusters.push(c);
                }
            }
            l1_off.push(l1_clusters.len() as u32);
        }
        SchemeIndex {
            l2,
            l1_off,
            l1_clusters,
            l1_size,
        }
    }

    /// Number of placed nodes the index covers.
    pub fn nodes(&self) -> usize {
        self.l1_off.len() - 1
    }

    /// A scratch sized for this index.
    pub fn scratch(&self) -> SchemeScratch {
        SchemeScratch {
            l2: self.l2.scratch(),
            l1_epoch: 0,
            l1_stamp: vec![0; self.l1_size.len()],
        }
    }

    /// Does losing exactly the nodes in `failed` (distinct indices)
    /// defeat the scheme's L2 redundancy? [`EventJudge::defeated_by`] on
    /// the L2 digest, in O(Σ per-node L2 entries).
    #[inline]
    pub fn defeated_by(&self, failed: &[u32], scratch: &mut SchemeScratch) -> bool {
        self.l2.defeated_by(failed, &mut scratch.l2)
    }

    /// Number of ranks forced to restart when the nodes in `failed` die:
    /// the union of the L1 clusters hosting any of their ranks — exactly
    /// `HybridProtocol::restart_set(failed_ranks).len()` without
    /// materialising the set.
    #[inline]
    pub fn restart_ranks(&self, failed: &[u32], scratch: &mut SchemeScratch) -> u64 {
        let epoch = scratch.next_l1_epoch();
        let mut total = 0u64;
        for &n in failed {
            let (lo, hi) = (self.l1_off[n as usize], self.l1_off[n as usize + 1]);
            for &c in &self.l1_clusters[lo as usize..hi as usize] {
                let c = c as usize;
                if scratch.l1_stamp[c] != epoch {
                    scratch.l1_stamp[c] = epoch;
                    total += self.l1_size[c] as u64;
                }
            }
        }
        total
    }
}

impl SchemeScratch {
    #[inline]
    fn next_l1_epoch(&mut self) -> u32 {
        self.l1_epoch = self.l1_epoch.wrapping_add(1);
        if self.l1_epoch == 0 {
            self.l1_stamp.fill(0);
            self.l1_epoch = 1;
        }
        self.l1_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{distributed, hierarchical, naive, striped, HierarchicalConfig};
    use hcft_graph::{CommMatrix, WeightedGraph};
    use hcft_msglog::HybridProtocol;
    use hcft_topology::Rank;
    use proptest::prelude::*;

    /// The scan oracle: does some L2 cluster lose more members to the
    /// `failed` nodes than FTI's Reed–Solomon code tolerates? O(nprocs),
    /// read off the member lists with no digest.
    fn reference_defeated(s: &ClusteringScheme, p: &Placement, failed: &[u32]) -> bool {
        let mut down = vec![false; p.nodes()];
        for &n in failed {
            down[n as usize] = true;
        }
        s.l2.iter().any(|(_, members)| {
            let lost = members
                .iter()
                .filter(|&&r| down[p.node_of(r).idx()])
                .count();
            lost > fti_tolerance(members.len())
        })
    }

    /// A hierarchical scheme on `p` over a chain of nodes: L1 blocks of
    /// 4–8 nodes, L2 groups of two nodes, one rank a slot.
    fn small_hierarchical(p: &Placement) -> ClusteringScheme {
        let mut m = CommMatrix::new(p.nodes());
        for n in 1..p.nodes() {
            m.add(n - 1, n, 100);
            m.add(n, n - 1, 100);
        }
        let cfg = HierarchicalConfig {
            l2_group_nodes: 2,
            ..HierarchicalConfig::default()
        };
        hierarchical(p, &WeightedGraph::from_comm_matrix(&m), &cfg)
    }

    fn reference_restart(s: &ClusteringScheme, p: &Placement, failed: &[u32]) -> u64 {
        let protocol = HybridProtocol::new(s.l1.clone());
        let mut ranks: Vec<Rank> = failed
            .iter()
            .flat_map(|&n| p.ranks_on(NodeId(n)).to_vec())
            .collect();
        ranks.sort_unstable();
        protocol.restart_set(&ranks).len() as u64
    }

    #[test]
    fn counting_matches_reference_on_naive() {
        let p = Placement::block(8, 4);
        let s = naive(32, 8);
        let idx = SchemeIndex::new(&s, &p);
        let mut scratch = idx.scratch();
        for failed in [vec![0u32], vec![3], vec![0, 1], vec![2, 5, 7]] {
            assert_eq!(
                idx.defeated_by(&failed, &mut scratch),
                reference_defeated(&s, &p, &failed),
                "defeated {failed:?}"
            );
            assert_eq!(
                idx.restart_ranks(&failed, &mut scratch),
                reference_restart(&s, &p, &failed),
                "restart {failed:?}"
            );
        }
    }

    #[test]
    fn epoch_reuse_does_not_leak_between_events() {
        let p = Placement::block(16, 4);
        let s = striped(&p, 4, 8);
        let idx = SchemeIndex::new(&s, &p);
        let mut scratch = idx.scratch();
        // A near-defeating event must not leave counts behind that make
        // the next small event look catastrophic.
        let big: Vec<u32> = (0..8).collect();
        let _ = idx.defeated_by(&big, &mut scratch);
        assert!(!idx.defeated_by(&[0], &mut scratch));
        assert_eq!(
            idx.restart_ranks(&[0], &mut scratch),
            reference_restart(&s, &p, &[0])
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fastpath_agrees_with_reference(
            nodes in 2usize..20,
            ppn in 1usize..5,
            size in 2usize..9,
            picks in proptest::collection::vec(0usize..1000, 1..8),
        ) {
            let p = Placement::block(nodes, ppn);
            let nprocs = nodes * ppn;
            let mut schemes = vec![
                naive(nprocs, size.min(nprocs)),
                distributed(&p, size.min(nodes).max(2)),
            ];
            // Two-level schemes, whose L1 and L2 differ.
            if nodes % 2 == 0 && nprocs % 2 == 0 {
                schemes.push(striped(&p, 2, 2));
            }
            if nodes >= 4 {
                schemes.push(small_hierarchical(&p));
            }
            let mut failed: Vec<u32> = picks.iter().map(|&x| (x % nodes) as u32).collect();
            failed.sort_unstable();
            failed.dedup();
            for s in &schemes {
                let idx = SchemeIndex::new(s, &p);
                let mut scratch = idx.scratch();
                prop_assert_eq!(
                    idx.defeated_by(&failed, &mut scratch),
                    reference_defeated(s, &p, &failed)
                );
                prop_assert_eq!(
                    idx.restart_ranks(&failed, &mut scratch),
                    reference_restart(s, &p, &failed)
                );
            }
        }
    }
}
