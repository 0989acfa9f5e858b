//! A validated partition of ranks into clusters.
//!
//! `Clustering` is the common currency of the whole system: the clustering
//! strategies produce one, the hybrid protocol logs across its boundaries,
//! the erasure coder encodes within its clusters and the evaluator scores
//! it. The invariant — every rank belongs to exactly one cluster — is
//! checked at construction so downstream code can index freely.

use hcft_topology::Rank;

/// A partition of ranks `0..n` into disjoint, covering clusters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// cluster_of[r] = cluster id of rank r.
    cluster_of: Vec<u32>,
    /// members[c] = sorted ranks of cluster c (non-empty).
    members: Vec<Vec<Rank>>,
}

impl Clustering {
    /// Build from per-rank cluster assignments. Cluster ids are compacted
    /// to `0..k` preserving first-appearance order.
    ///
    /// # Panics
    /// Panics on an empty assignment.
    pub fn from_assignment(assignment: &[usize]) -> Self {
        assert!(!assignment.is_empty(), "empty clustering");
        let mut remap: Vec<Option<u32>> = Vec::new();
        let mut cluster_of = Vec::with_capacity(assignment.len());
        let mut members: Vec<Vec<Rank>> = Vec::new();
        for (r, &c) in assignment.iter().enumerate() {
            if c >= remap.len() {
                remap.resize(c + 1, None);
            }
            let id = match remap[c] {
                Some(id) => id,
                None => {
                    let id = members.len() as u32;
                    remap[c] = Some(id);
                    members.push(Vec::new());
                    id
                }
            };
            cluster_of.push(id);
            members[id as usize].push(Rank::from(r));
        }
        Clustering {
            cluster_of,
            members,
        }
    }

    /// Build from explicit member lists covering `0..n` exactly once.
    ///
    /// # Panics
    /// Panics if the lists do not form a partition of `0..n`.
    pub fn from_members(n: usize, clusters: Vec<Vec<Rank>>) -> Self {
        let mut assignment = vec![usize::MAX; n];
        for (c, list) in clusters.iter().enumerate() {
            assert!(!list.is_empty(), "cluster {c} is empty");
            for &r in list {
                assert!(r.idx() < n, "rank {r} out of range");
                assert!(
                    assignment[r.idx()] == usize::MAX,
                    "rank {r} in two clusters"
                );
                assignment[r.idx()] = c;
            }
        }
        assert!(
            assignment.iter().all(|&c| c != usize::MAX),
            "some rank is in no cluster"
        );
        let mut c = Self::from_assignment(&assignment);
        for m in &mut c.members {
            m.sort_unstable();
        }
        c
    }

    /// Every rank in its own cluster.
    pub fn singletons(n: usize) -> Self {
        Self::from_assignment(&(0..n).collect::<Vec<_>>())
    }

    /// One cluster holding everything.
    pub fn single(n: usize) -> Self {
        Self::from_assignment(&vec![0; n])
    }

    /// Group consecutive ranks into clusters of `size` (last cluster may be
    /// smaller) — the paper's naïve / size-guided mechanics.
    pub fn consecutive(n: usize, size: usize) -> Self {
        assert!(size > 0);
        Self::from_assignment(&(0..n).map(|r| r / size).collect::<Vec<_>>())
    }

    /// Number of ranks.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.cluster_of.len()
    }

    /// Heap bytes held: the per-rank cluster ids, the member-list
    /// headers and every member list's allocation. What a scoring stage
    /// counts as resident.
    pub fn heap_bytes(&self) -> u64 {
        let header = std::mem::size_of::<Vec<Rank>>();
        let rank = std::mem::size_of::<Rank>();
        let members: usize = self.members.iter().map(|m| m.capacity() * rank).sum();
        (self.cluster_of.capacity() * std::mem::size_of::<u32>()
            + self.members.capacity() * header
            + members) as u64
    }

    /// Number of clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff there is exactly one cluster... never true for a valid
    /// clustering of zero ranks (which cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Cluster id of a rank.
    #[inline]
    pub fn cluster_of(&self, r: Rank) -> usize {
        self.cluster_of[r.idx()] as usize
    }

    /// Members of cluster `c`, ascending.
    #[inline]
    pub fn members(&self, c: usize) -> &[Rank] {
        &self.members[c]
    }

    /// Iterate over clusters as `(id, members)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Rank])> {
        self.members.iter().enumerate().map(|(i, m)| (i, &m[..]))
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// Largest cluster size.
    pub fn max_size(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Smallest cluster size.
    pub fn min_size(&self) -> usize {
        self.members.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// True if ranks `a` and `b` share a cluster.
    #[inline]
    pub fn same_cluster(&self, a: Rank, b: Rank) -> bool {
        self.cluster_of[a.idx()] == self.cluster_of[b.idx()]
    }

    /// Per-rank assignment slice.
    pub(crate) fn assignment(&self) -> Vec<usize> {
        self.cluster_of.iter().map(|&c| c as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_compacts_ids() {
        let c = Clustering::from_assignment(&[5, 5, 9, 5, 9]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.cluster_of(Rank(0)), 0);
        assert_eq!(c.cluster_of(Rank(2)), 1);
        assert_eq!(c.members(0), &[Rank(0), Rank(1), Rank(3)]);
    }

    #[test]
    fn consecutive_chunks() {
        let c = Clustering::consecutive(10, 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes(), vec![4, 4, 2]);
        assert!(c.same_cluster(Rank(0), Rank(3)));
        assert!(!c.same_cluster(Rank(3), Rank(4)));
    }

    #[test]
    fn from_members_roundtrip() {
        let c = Clustering::from_members(4, vec![vec![Rank(3), Rank(0)], vec![Rank(1), Rank(2)]]);
        assert_eq!(c.members(0), &[Rank(0), Rank(3)]);
        assert_eq!(c.cluster_of(Rank(2)), 1);
    }

    #[test]
    #[should_panic(expected = "in two clusters")]
    fn from_members_rejects_overlap() {
        Clustering::from_members(2, vec![vec![Rank(0), Rank(1)], vec![Rank(1)]]);
    }

    #[test]
    #[should_panic(expected = "in no cluster")]
    fn from_members_rejects_gap() {
        Clustering::from_members(3, vec![vec![Rank(0)], vec![Rank(1)]]);
    }

    #[test]
    fn singletons_and_single() {
        assert_eq!(Clustering::singletons(3).len(), 3);
        assert_eq!(Clustering::single(3).len(), 1);
        assert_eq!(Clustering::single(3).max_size(), 3);
        assert_eq!(Clustering::singletons(3).min_size(), 1);
    }

    #[test]
    fn assignment_roundtrip() {
        let c = Clustering::consecutive(6, 2);
        let c2 = Clustering::from_assignment(&c.assignment());
        assert_eq!(c, c2);
    }
}
