//! Counting fast path for the Monte-Carlo campaign's two per-event
//! questions: *is this node-loss event catastrophic?* and *how many ranks
//! restart?* Each is asked of the workspace's one rule for it:
//! [`EventJudge`] on the scheme's L2 [`ClusteringDigest`], and
//! [`Containment`] on its L1 clustering. [`SchemeIndex`] pairs the two
//! for one (scheme, placement), so an event costs O(j · entries per
//! node) counter bumps against epoch-stamped scratch: no clearing, no
//! allocation.
//!
//! `fastpath_agrees_with_reference` proptests both answers against
//! member scans on flat and two-level schemes.

use hcft_msglog::{Containment, ContainmentScratch};
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{ClusteringDigest, EventJudge, JudgeScratch};
use hcft_topology::Placement;

use crate::strategies::ClusteringScheme;

/// Immutable per-(scheme, placement) index for the campaign hot loop.
///
/// Build once per cell, share across threads (`&SchemeIndex` is `Sync`);
/// pair with a per-thread [`SchemeScratch`] for the mutable counters.
#[derive(Clone, Debug)]
pub struct SchemeIndex {
    /// The L1 half: the restart rule of the L1 clustering.
    l1: Containment,
    /// The L2 half: the catastrophe judge of the L2 digest.
    l2: EventJudge,
}

/// Epoch-stamped counters for one thread of [`SchemeIndex`] queries.
#[derive(Clone, Debug)]
pub struct SchemeScratch {
    l1: ContainmentScratch,
    l2: JudgeScratch,
}

impl SchemeIndex {
    /// Index `scheme` against `placement`.
    pub fn new(scheme: &ClusteringScheme, placement: &Placement) -> Self {
        SchemeIndex {
            l1: Containment::new(&scheme.l1, placement),
            l2: EventJudge::new(&ClusteringDigest::new(
                &scheme.l2,
                placement,
                &fti_tolerance,
            )),
        }
    }

    /// Number of placed nodes the index covers.
    pub fn nodes(&self) -> usize {
        self.l1.nodes()
    }

    /// A scratch sized for this index.
    pub fn scratch(&self) -> SchemeScratch {
        SchemeScratch {
            l1: self.l1.scratch(),
            l2: self.l2.scratch(),
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
    /// [`Containment::restart_ranks`] on the L1 clustering.
    #[inline]
    pub fn restart_ranks(&self, failed: &[u32], scratch: &mut SchemeScratch) -> u64 {
        self.l1.restart_ranks(failed, &mut scratch.l1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{distributed, hierarchical, naive, striped, HierarchicalConfig};
    use hcft_graph::{CommMatrix, WeightedGraph};
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

    /// The scan oracle for the restart count: the summed size of the L1
    /// clusters with a member on a failed node, read off `cluster_of`
    /// and the member lists.
    fn reference_restart(s: &ClusteringScheme, p: &Placement, failed: &[u32]) -> u64 {
        let mut hit = vec![false; s.l1.len()];
        for r in (0..p.nprocs()).map(hcft_topology::Rank::from) {
            if failed.contains(&p.node_of(r).0) {
                hit[s.l1.cluster_of(r)] = true;
            }
        }
        (0..s.l1.len())
            .filter(|&c| hit[c])
            .map(|c| s.l1.members(c).len() as u64)
            .sum()
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
