//! P(catastrophic failure) for a clustering + placement.
//!
//! An encoding cluster of size `s` protected by FTI-style Reed–Solomon
//! tolerates up to `t = ⌈s/2⌉` missing members (see
//! `hcft_erasure::ReedSolomon::fti_for_group`). A failure event that takes
//! down a set `F` of nodes destroys, in each cluster, the members placed
//! on `F`; the event is catastrophic iff some cluster loses more than `t`
//! members.
//!
//! # Exact P(catastrophic)
//!
//! `q(j)`, the share of the `C(n, j)` `j`-node failure sets that are
//! catastrophic, is a count of sets, taken in `u128`:
//! * a *singly-bad* node holds more than the tolerance of some cluster:
//!   no set that holds it is safe, so it is left out;
//! * every cluster is restricted to the other nodes and kept if those can
//!   still kill it. Clusters that share a node are joined (union-find)
//!   into node-disjoint *components*, so a set is safe iff its share of
//!   every component is;
//! * the safe counts are therefore the coefficients of
//!   `Π_c S_c(x) · (1+x)^free`, where `S_c(k)` counts the safe `k`-subsets
//!   of component `c` and `free` is the number of nodes in no component;
//! * `q(j) = (C(n, j) − safe_j) / C(n, j)`, the difference taken in
//!   integers so that values near 1e-16 keep their digits.
//!
//! A component that holds one cluster (every component of the shipped
//! families on even layouts) has `S_c(k) = C(m, k)` minus the `k`-subsets
//! whose members pass the tolerance, counted by a knapsack over the
//! cluster's nodes. A component of several clusters, which only uneven
//! layouts reach, counts `k ≤ 2` from the pairs inside its clusters and
//! enumerates its safe `k`-subsets while `C(m, k)` stays within
//! `ENUMERATION_LIMIT` (2^14). Above that it takes its integer union
//! bound over its clusters, clipped at `C(m, k)`: the one count that is a
//! bound (of the catastrophic sets, from above) rather than exact. On
//! machines of at most 16 nodes every count is exact.
//!
//! The counts stop at the distribution's largest event size `max_j`.
//! `C(n, max_j)` fits in `u128` up to 8 602 nodes at `max_j = 12`;
//! [`ReliabilityModel::new`] refuses a machine past that range. Counts are
//! integers, so a value depends on no evaluation order and no node ids:
//! two clusterings equal up to a node permutation score bit-identically.
//!
//! [`ReliabilityModel::p_catastrophic_sweep`] scores many clusterings at
//! once: it computes P(catastrophic) once per distinct ordered
//! [`ClusteringDigest`] and fans the values back out in input order,
//! bit-identical to scoring each clustering alone.
//!
//! [`EventJudge`] applies the same rule to one event at a time. It is the
//! workspace's only such judge: the campaign kernel and fault scenarios
//! ask it through `hcft_cluster::SchemeIndex`.

use std::collections::HashMap;

use hcft_graph::Clustering;
use hcft_topology::Placement;

use crate::combinatorics::{checked_choose, choose};
use crate::events::EventDistribution;

/// Most `k`-subsets of a several-cluster component that are enumerated
/// (see module docs). It covers every `C(16, k)`, at most 12 870.
const ENUMERATION_LIMIT: u128 = 1 << 14;

/// FTI's Reed–Solomon tolerance for an encoding cluster of `s` members:
/// half the cluster (rounded up) may vanish.
pub fn fti_tolerance(s: usize) -> usize {
    s.div_ceil(2)
}

/// Per-cluster placement digest: which nodes hold how many members.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ClusterNodes {
    /// (node, member count), nodes distinct and ascending.
    counts: Vec<(usize, u32)>,
    /// Erasure tolerance of this cluster.
    tolerance: u32,
}

/// What a node failure touches: per distinct cluster, in clustering
/// order, the nodes holding its members (with counts) and its erasure
/// tolerance. P(catastrophic) counts failure sets against it and an
/// [`EventJudge`] judges single events against it; equal digests have
/// bit-identical probabilities.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClusteringDigest {
    /// Placed nodes, whether or not they hold a member.
    nodes: usize,
    clusters: Vec<ClusterNodes>,
}

impl ClusteringDigest {
    /// The digest of `clustering` on `placement`, a cluster of `s`
    /// members tolerating `tolerance(s)` losses.
    pub fn new(
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> Self {
        // Every cluster's signature, `(node, members)` runs in one flat
        // buffer: cluster `i` is `runs[span[i].0..span[i].1]` with
        // tolerance `span[i].2`. A run holds at least one rank, so the
        // buffer never outgrows one entry per rank.
        let mut nodes: Vec<u32> = Vec::new();
        let mut runs: Vec<(u32, u32)> = Vec::with_capacity(clustering.nprocs());
        let span: Vec<(usize, usize, u32)> = clustering
            .iter()
            .map(|(_, members)| {
                nodes.clear();
                nodes.extend(members.iter().map(|&r| placement.node_of(r).0));
                nodes.sort_unstable();
                let start = runs.len();
                runs.extend(
                    nodes
                        .chunk_by(|a, b| a == b)
                        .map(|run| (run[0], run.len() as u32)),
                );
                (start, runs.len(), tolerance(members.len()) as u32)
            })
            .collect();
        let signature = |i: usize| (&runs[span[i].0..span[i].1], span[i].2);
        // Clusters with identical signatures (the per-slot L2 clusters of
        // a node group) live and die together; one representative keeps
        // their nodes a one-cluster component, which the knapsack counts.
        // Sorted by signature, then index, each duplicate follows the
        // first occurrence of its signature, which is the one kept.
        let mut order: Vec<usize> = (0..span.len()).collect();
        order.sort_unstable_by(|&a, &b| signature(a).cmp(&signature(b)).then(a.cmp(&b)));
        let mut first = vec![true; span.len()];
        for pair in order.windows(2) {
            if signature(pair[0]) == signature(pair[1]) {
                first[pair[1]] = false;
            }
        }
        let clusters = (0..span.len())
            .filter(|&i| first[i])
            .map(|i| {
                let (counts, tolerance) = signature(i);
                ClusterNodes {
                    counts: counts.iter().map(|&(n, c)| (n as usize, c)).collect(),
                    tolerance,
                }
            })
            .collect();
        ClusteringDigest {
            nodes: placement.nodes(),
            clusters,
        }
    }
}

/// The one judge of a single failure event: does losing exactly a set of
/// nodes take some cluster of a [`ClusteringDigest`] past its tolerance?
/// Build once per digest and share across threads; each thread brings
/// its own [`JudgeScratch`].
#[derive(Clone, Debug)]
pub struct EventJudge {
    /// CSR over nodes: `held[off[n]..off[n + 1]]` lists
    /// `(cluster, members on node n)`.
    off: Vec<u32>,
    held: Vec<(u32, u32)>,
    /// Erasure tolerance per digest cluster.
    tolerance: Vec<u32>,
}

/// Epoch-stamped loss counters for one thread of [`EventJudge`] queries:
/// a stale stamp reads as no loss, so nothing is cleared between events.
#[derive(Clone, Debug)]
pub struct JudgeScratch {
    epoch: u32,
    /// Per digest cluster: (epoch of its last loss, members lost then).
    lost: Vec<(u32, u32)>,
}

impl EventJudge {
    /// Index `digest` by node.
    pub fn new(digest: &ClusteringDigest) -> Self {
        let mut off = vec![0u32; digest.nodes + 1];
        for &(n, _) in digest.clusters.iter().flat_map(|c| &c.counts) {
            off[n + 1] += 1;
        }
        for n in 1..off.len() {
            off[n] += off[n - 1];
        }
        let mut held = vec![(0, 0); off[digest.nodes] as usize];
        let mut next = off.clone();
        for (c, cluster) in digest.clusters.iter().enumerate() {
            for &(n, members) in &cluster.counts {
                held[next[n] as usize] = (c as u32, members);
                next[n] += 1;
            }
        }
        EventJudge {
            off,
            held,
            tolerance: digest.clusters.iter().map(|c| c.tolerance).collect(),
        }
    }

    /// A scratch sized for this judge.
    pub fn scratch(&self) -> JudgeScratch {
        JudgeScratch {
            epoch: 0,
            lost: vec![(0, 0); self.tolerance.len()],
        }
    }

    /// Does losing exactly the nodes in `failed` (distinct indices of
    /// placed nodes) take some cluster past its tolerance, that is, is
    /// the event catastrophic? O(Σ entries of the failed nodes).
    #[inline]
    pub fn defeated_by(&self, failed: &[u32], scratch: &mut JudgeScratch) -> bool {
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.lost.fill((0, 0));
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        for &n in failed {
            let (lo, hi) = (self.off[n as usize], self.off[n as usize + 1]);
            for &(c, cnt) in &self.held[lo as usize..hi as usize] {
                let (stamp, lost) = &mut scratch.lost[c as usize];
                *lost = if *stamp == epoch { *lost + cnt } else { cnt };
                *stamp = epoch;
                if *lost > self.tolerance[c as usize] {
                    return true;
                }
            }
        }
        false
    }
}

/// Reliability model for one machine size and event distribution.
pub struct ReliabilityModel {
    nodes: usize,
    dist: EventDistribution,
}

impl ReliabilityModel {
    /// A model over `nodes` physical nodes. Panics unless every `C(nodes,
    /// k)`, `k ≤ dist.max_nodes()`, fits in `u128`: up to 8 602 nodes
    /// under the FTI distribution's `max_j = 12`.
    pub fn new(nodes: usize, dist: EventDistribution) -> Self {
        assert!(nodes > 0);
        let max_j = dist.max_nodes();
        assert!(
            (0..=max_j).all(|k| checked_choose(nodes, k).is_some()),
            "{nodes} nodes: C({nodes}, {max_j}) overflows u128 \
             (at max_j = 12 the exact count holds up to 8 602 nodes)"
        );
        ReliabilityModel { nodes, dist }
    }

    /// Probability that a uniformly random `j`-node failure event is
    /// catastrophic for this clustering; 0.0 when no `j`-node event
    /// exists (`j == 0` or `j > nodes`). Panics if `C(nodes, j)` overflows
    /// `u128`.
    pub fn q_given_j(
        &self,
        j: usize,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> f64 {
        if j == 0 || j > self.nodes {
            return 0.0;
        }
        let digest = ClusteringDigest::new(clustering, placement, tolerance);
        let safe = safe_counts(self.nodes, &digest.clusters, j);
        q_of(self.nodes, j, safe[j])
    }

    /// Probability that a random failure event (drawn from the event
    /// distribution) is catastrophic — the paper's reliability metric
    /// (Fig. 4a, Table II last column). The one-clustering case of
    /// [`p_catastrophic_sweep`](Self::p_catastrophic_sweep).
    pub fn p_catastrophic(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> f64 {
        let digest = ClusteringDigest::new(clustering, placement, tolerance);
        self.p_catastrophic_sweep(std::slice::from_ref(&digest))[0]
    }

    /// P(catastrophic) of every digest, in input order. Each distinct
    /// digest is scored once and its value fanned back out to every
    /// position that holds it; equal digests run identical arithmetic, so
    /// every value is bit-identical to scoring its clustering alone.
    pub fn p_catastrophic_sweep(&self, digests: &[ClusteringDigest]) -> Vec<f64> {
        let mut first: HashMap<&ClusteringDigest, usize> = HashMap::new();
        let mut distinct: Vec<&ClusteringDigest> = Vec::new();
        let slots: Vec<usize> = digests
            .iter()
            .map(|d| {
                *first.entry(d).or_insert_with(|| {
                    distinct.push(d);
                    distinct.len() - 1
                })
            })
            .collect();
        let p: Vec<f64> = distinct.iter().map(|d| self.p_catastrophic_of(d)).collect();
        slots.into_iter().map(|i| p[i]).collect()
    }

    /// `Σ_j P(j-node event) · q(j)` for one digest.
    fn p_catastrophic_of(&self, digest: &ClusteringDigest) -> f64 {
        let n = self.nodes;
        let safe = safe_counts(n, &digest.clusters, self.dist.max_nodes().min(n));
        self.dist
            .p_nodes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let j = i + 1;
                if p == 0.0 || j > n {
                    0.0
                } else {
                    p * q_of(n, j, safe[j])
                }
            })
            .sum()
    }
}

/// `q(j)`: the share of the `C(nodes, j)` `j`-node sets that are not
/// among the `safe` ones.
fn q_of(nodes: usize, j: usize, safe: u128) -> f64 {
    let all = choose(nodes, j);
    (all - safe) as f64 / all as f64
}

/// A digest cut into node-disjoint failure components (see module docs).
struct Components {
    /// Nodes neither singly bad nor in a component.
    free: usize,
    /// Each component's clusters, restricted to the nodes that are not
    /// singly bad.
    clusters: Vec<Vec<ClusterNodes>>,
}

impl Components {
    fn of(nodes: usize, clusters: &[ClusterNodes]) -> Self {
        let mut bad = vec![false; nodes];
        for c in clusters {
            for &(node, members) in &c.counts {
                if members > c.tolerance {
                    bad[node] = true;
                }
            }
        }
        let residual: Vec<ClusterNodes> = clusters
            .iter()
            .filter_map(|c| {
                let counts: Vec<(usize, u32)> =
                    c.counts.iter().copied().filter(|&(n, _)| !bad[n]).collect();
                let members: u64 = counts.iter().map(|&(_, m)| u64::from(m)).sum();
                (members > u64::from(c.tolerance)).then_some(ClusterNodes {
                    counts,
                    tolerance: c.tolerance,
                })
            })
            .collect();
        let mut root: Vec<usize> = (0..nodes).collect();
        let mut held = bad.iter().filter(|&&b| b).count();
        let mut touched = vec![false; nodes];
        for c in &residual {
            let a = find(&mut root, c.counts[0].0);
            for &(node, _) in &c.counts {
                let b = find(&mut root, node);
                root[b] = a;
                held += usize::from(!std::mem::replace(&mut touched[node], true));
            }
        }
        // Root node → index of its component.
        let mut index = vec![usize::MAX; nodes];
        let mut components: Vec<Vec<ClusterNodes>> = Vec::new();
        for c in residual {
            let r = find(&mut root, c.counts[0].0);
            if index[r] == usize::MAX {
                index[r] = components.len();
                components.push(Vec::new());
            }
            components[index[r]].push(c);
        }
        Components {
            free: nodes - held,
            clusters: components,
        }
    }
}

/// Union-find root of `x`, halving the path on the way.
fn find(root: &mut [usize], mut x: usize) -> usize {
    while root[x] != x {
        root[x] = root[root[x]];
        x = root[x];
    }
    x
}

/// `safe[k]`, `k ≤ degree`: the `k`-node failure sets over `nodes` nodes
/// that kill no cluster of `clusters`.
fn safe_counts(nodes: usize, clusters: &[ClusterNodes], degree: usize) -> Vec<u128> {
    let components = Components::of(nodes, clusters);
    let mut safe: Vec<u128> = (0..=degree).map(|k| choose(components.free, k)).collect();
    for component in &components.clusters {
        let s = component_safe_counts(component, degree);
        // Multiply in place, truncated at `degree`: coefficient `k` reads
        // only coefficients up to `k`, so go downwards.
        for k in (0..=degree).rev() {
            safe[k] = (0..=k).map(|i| safe[i] * s[k - i]).sum();
        }
    }
    safe
}

/// `S(k)`, `k ≤ degree`: the `k`-subsets of one component's nodes that
/// kill none of its `clusters`.
fn component_safe_counts(clusters: &[ClusterNodes], degree: usize) -> Vec<u128> {
    if let [cluster] = clusters {
        let m = cluster.counts.len();
        return (dead_subsets(cluster, degree).into_iter().enumerate())
            .map(|(k, dead)| choose(m, k) - dead)
            .collect();
    }
    let mut nodes: Vec<usize> = (clusters.iter())
        .flat_map(|c| c.counts.iter().map(|&(n, _)| n))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let m = nodes.len();
    let mut safe: Vec<u128> = (0..=degree).map(|k| choose(m, k)).collect();
    // No node kills alone; a pair kills iff it passes the tolerance of a
    // cluster that holds both.
    if degree >= 2 {
        let mut pairs = Vec::new();
        for c in clusters {
            for (a, &(na, ca)) in c.counts.iter().enumerate() {
                for &(nb, cb) in &c.counts[a + 1..] {
                    if ca + cb > c.tolerance {
                        pairs.push((na, nb));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        safe[2] -= pairs.len() as u128;
    }
    let enumerable = (0..=degree)
        .take_while(|&k| choose(m, k) <= ENUMERATION_LIMIT)
        .count();
    if enumerable > 3 {
        let mut members = vec![Vec::new(); m];
        for (i, c) in clusters.iter().enumerate() {
            for &(n, count) in &c.counts {
                let local = nodes.binary_search(&n).expect("a component node");
                members[local].push((i, count));
            }
        }
        let tolerance: Vec<u32> = clusters.iter().map(|c| c.tolerance).collect();
        let mut counted = vec![0; enumerable];
        let mut loss = vec![0; clusters.len()];
        count_safe_sets(&members, &tolerance, &mut loss, 0, 0, &mut counted);
        safe[3..enumerable].copy_from_slice(&counted[3..]);
    }
    if enumerable <= degree {
        let dead: Vec<Vec<u128>> = clusters.iter().map(|c| dead_subsets(c, degree)).collect();
        for (k, safe) in safe.iter_mut().enumerate().skip(enumerable.max(3)) {
            let all = choose(m, k);
            let killed = clusters.iter().zip(&dead).fold(0u128, |acc, (c, dead)| {
                let others = m - c.counts.len();
                (0..=k)
                    .fold(acc, |acc, r| {
                        acc.saturating_add(dead[r] * choose(others, k - r))
                    })
                    .min(all)
            });
            *safe = all - killed;
        }
    }
    safe
}

/// Count into `safe[size..]` the current set (`size` nodes, cluster
/// losses `loss`) and every safe set that extends it by nodes from `from`
/// on, up to `safe.len() − 1` nodes. `members[v]` lists node `v`'s
/// (cluster, member count). A subset of a safe set is safe, so only safe
/// sets are extended.
fn count_safe_sets(
    members: &[Vec<(usize, u32)>],
    tolerance: &[u32],
    loss: &mut [u32],
    from: usize,
    size: usize,
    safe: &mut [u128],
) {
    safe[size] += 1;
    if size + 1 == safe.len() {
        return;
    }
    for v in from..members.len() {
        if members[v].iter().all(|&(c, w)| loss[c] + w <= tolerance[c]) {
            for &(c, w) in &members[v] {
                loss[c] += w;
            }
            count_safe_sets(members, tolerance, loss, v + 1, size + 1, safe);
            for &(c, w) in &members[v] {
                loss[c] -= w;
            }
        }
    }
}

/// `dead[r]`, `r ≤ degree`: the `r`-subsets of `cluster`'s nodes whose
/// members pass its tolerance, by a knapsack over the nodes with member
/// sums capped at `tolerance + 1`.
fn dead_subsets(cluster: &ClusterNodes, degree: usize) -> Vec<u128> {
    let cap = cluster.tolerance as usize + 1;
    let width = cap + 1;
    let rows = degree.min(cluster.counts.len());
    // ways[r * width + s]: the r-subsets whose capped member sum is s.
    let mut ways = vec![0u128; (rows + 1) * width];
    ways[0] = 1;
    for (i, &(_, members)) in cluster.counts.iter().enumerate() {
        for r in (0..rows.min(i + 1)).rev() {
            for s in 0..width {
                let w = ways[r * width + s];
                if w != 0 {
                    ways[(r + 1) * width + (s + members as usize).min(cap)] += w;
                }
            }
        }
    }
    (0..=degree)
        .map(|r| if r <= rows { ways[r * width + cap] } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_graph::Clustering;
    use hcft_topology::{NodeId, Placement, Rank};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::index::sample;
    use rand::SeedableRng;

    /// Failure sets of the Monte-Carlo oracle, and their seed.
    const MC_SAMPLES: usize = 16_000;
    const MC_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The Monte-Carlo estimator P(catastrophic) sampled with before it
    /// was exact, kept as an oracle: the share of `samples` uniformly
    /// random `j`-node failure sets, drawn in 8 streams seeded `seed + c`
    /// with a fresh `rand::seq::index::sample` each, that kill some
    /// cluster.
    fn monte_carlo_q_reference(
        nodes: usize,
        j: usize,
        digests: &[ClusterNodes],
        samples: usize,
        seed: u64,
    ) -> f64 {
        let chunks = 8usize;
        let per = samples / chunks;
        let hits: usize = (0..chunks)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
                let mut local = 0usize;
                for _ in 0..per {
                    let failed = sample(&mut rng, nodes, j);
                    let mut failed_mask = vec![false; nodes];
                    for f in failed.iter() {
                        failed_mask[f] = true;
                    }
                    let dead = digests.iter().any(|d| {
                        let lost: u32 = d
                            .counts
                            .iter()
                            .filter(|&&(node, _)| failed_mask[node])
                            .map(|&(_, c)| c)
                            .sum();
                        lost > d.tolerance
                    });
                    if dead {
                        local += 1;
                    }
                }
                local
            })
            .sum();
        hits as f64 / (per * chunks) as f64
    }

    /// The tolerance rules the oracle tests draw from.
    const TOLERANCES: [fn(usize) -> usize; 3] = [fti_tolerance, |s| s / 2, |s| s / 3];

    /// Ranks placed in node order, `per_node[n]` of them on node `n`.
    fn ragged(per_node: &[usize]) -> Placement {
        let node_of: Vec<NodeId> = per_node
            .iter()
            .enumerate()
            .flat_map(|(n, &k)| std::iter::repeat_n(NodeId::from(n), k))
            .collect();
        Placement::from_assignment(node_of, per_node.len())
    }

    /// Random, consecutive-block or strided clustering of `n` ranks.
    fn arb_clustering(n: usize) -> impl Strategy<Value = Clustering> {
        (
            0usize..3,
            1usize..=n,
            proptest::collection::vec(0usize..n, n),
        )
            .prop_map(move |(kind, k, random)| {
                let assignment: Vec<usize> = match kind {
                    0 => random.iter().map(|&c| c % k).collect(),
                    1 => (0..n).map(|r| r / k).collect(),
                    _ => (0..n).map(|r| r % k).collect(),
                };
                Clustering::from_assignment(&assignment)
            })
    }

    /// Clusterings of `n` ranks whose clusters hold about `size ≤ 12`
    /// members, so the knapsack DP stays small on machines of hundreds
    /// of nodes: random labels, consecutive blocks, or strided across
    /// the machine.
    fn arb_small_clusters(n: usize) -> impl Strategy<Value = Clustering> {
        (
            0usize..3,
            1usize..=12,
            proptest::collection::vec(0usize..n, n),
        )
            .prop_map(move |(kind, size, random)| {
                let k = n.div_ceil(size);
                let assignment: Vec<usize> = match kind {
                    0 => random.iter().map(|&c| c % k).collect(),
                    1 => (0..n).map(|r| r / size).collect(),
                    _ => (0..n).map(|r| r % k).collect(),
                };
                Clustering::from_assignment(&assignment)
            })
    }

    /// A machine of 2–300 nodes with 1–3 ranks per node, uniform or
    /// ragged. Half the cases sit near 256 nodes: 256, 257, or 250–262.
    fn arb_machine() -> impl Strategy<Value = Placement> {
        (
            (0usize..6, 2usize..=300, 250usize..=262),
            any::<bool>(),
            1usize..=3,
        )
            .prop_flat_map(|((range, broad, near), uniform, ppn)| {
                let nodes = [broad, broad, broad, 256, 257, near][range];
                proptest::collection::vec(1usize..=3, nodes).prop_map(move |per_node| {
                    if uniform {
                        ragged(&vec![ppn; nodes])
                    } else {
                        ragged(&per_node)
                    }
                })
            })
    }

    /// Clusterings of `placement`'s ranks over groups of 1–8 consecutive
    /// nodes: one cluster per group, or one per group and rank slot.
    fn arb_node_groups(placement: &Placement) -> impl Strategy<Value = Clustering> {
        let nodes = placement.nodes();
        let node_of: Vec<usize> = (0..placement.nprocs())
            .map(|r| placement.node_of(Rank(r as u32)).idx())
            .collect();
        (1usize..=8, any::<bool>()).prop_map(move |(group, by_slot)| {
            let mut slot = vec![0; nodes];
            let assignment: Vec<usize> = node_of
                .iter()
                .map(|&n| {
                    slot[n] += 1;
                    if by_slot {
                        (n / group) * node_of.len() + slot[n]
                    } else {
                        n / group
                    }
                })
                .collect();
            Clustering::from_assignment(&assignment)
        })
    }

    /// A machine, three clusterings of its ranks plus two-node blocks,
    /// and 4–8 (clustering, tolerance rule) picks among them.
    fn arb_sweep() -> impl Strategy<Value = (Placement, Vec<Clustering>, Vec<(usize, usize)>)> {
        arb_machine().prop_flat_map(|placement| {
            let n = placement.nprocs();
            let blocks = Clustering::consecutive(n, 2 * n.div_ceil(placement.nodes()));
            (
                Just(placement),
                proptest::collection::vec(arb_small_clusters(n), 3).prop_map(move |mut c| {
                    c.push(blocks.clone());
                    c
                }),
                proptest::collection::vec((0usize..4, 0..TOLERANCES.len()), 4..=8),
            )
        })
    }

    /// Per node of `placement`, each cluster of `clustering` with members
    /// there and how many, read off the ranks with no digest.
    fn members_by_node(clustering: &Clustering, placement: &Placement) -> Vec<Vec<(usize, u32)>> {
        let mut by_node = vec![Vec::new(); placement.nodes()];
        for (i, (_, members)) in clustering.iter().enumerate() {
            for &r in members {
                let held: &mut Vec<(usize, u32)> = &mut by_node[placement.node_of(r).idx()];
                match held.iter_mut().find(|(c, _)| *c == i) {
                    Some((_, k)) => *k += 1,
                    None => held.push((i, 1)),
                }
            }
        }
        by_node
    }

    /// `safe[k]`, `k ≤ degree`: the `k`-node sets out of `placement`'s
    /// nodes (at most 20) that kill no cluster, by enumerating every set.
    fn brute_force_safe(
        clustering: &Clustering,
        placement: &Placement,
        tolerance: fn(usize) -> usize,
        degree: usize,
    ) -> Vec<u128> {
        let nodes = placement.nodes();
        assert!(nodes <= 20);
        let by_node = members_by_node(clustering, placement);
        let tol: Vec<u32> = clustering
            .iter()
            .map(|(_, m)| tolerance(m.len()) as u32)
            .collect();
        let mut safe = vec![0u128; degree + 1];
        let mut loss = vec![0u32; tol.len()];
        for set in 0u32..1 << nodes {
            let size = set.count_ones() as usize;
            if size > degree {
                continue;
            }
            loss.fill(0);
            for (node, held) in by_node.iter().enumerate() {
                if set >> node & 1 == 1 {
                    for &(c, k) in held {
                        loss[c] += k;
                    }
                }
            }
            if loss.iter().zip(&tol).all(|(l, t)| l <= t) {
                safe[size] += 1;
            }
        }
        safe
    }

    /// Distributed clustering over a block placement: cluster (g, slot)
    /// takes the slot-th rank of each node in node-group g.
    fn distributed(nodes: usize, ppn: usize, size: usize) -> Clustering {
        let assignment: Vec<usize> = (0..nodes * ppn)
            .map(|r| {
                let node = r / ppn;
                let slot = r % ppn;
                let g = node / size;
                g * ppn + slot
            })
            .collect();
        Clustering::from_assignment(&assignment)
    }

    #[test]
    fn epoch_wrap_clears_the_loss_counters() {
        // One 8-rank cluster striped over 8 one-rank nodes, tolerance 2.
        let p = Placement::block(8, 1);
        let c = Clustering::single(8);
        let judge = EventJudge::new(&ClusteringDigest::new(&c, &p, &|_| 2));
        let mut scratch = judge.scratch();
        // A near-defeating event leaves 2 losses stamped at epoch 1; the
        // next event wraps back to epoch 1, and only cleared counters
        // keep one more lost node below the tolerance.
        assert!(!judge.defeated_by(&[1, 2], &mut scratch));
        scratch.epoch = u32::MAX;
        assert!(!judge.defeated_by(&[0], &mut scratch));
        assert_eq!(scratch.epoch, 1);
    }

    #[test]
    fn same_node_cluster_dies_on_any_node_failure() {
        // 8 nodes × 8 ppn, clusters of 8 consecutive = whole nodes.
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 8);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        let q = m.q_given_j(1, &c, &p, &fti_tolerance);
        assert_eq!(q, 1.0);
        assert_eq!(m.p_catastrophic(&c, &p, &fti_tolerance), 1.0);
    }

    #[test]
    fn two_node_cluster_survives_one_node() {
        // Clusters of 16 consecutive over nodes of 8: span 2 nodes, lose
        // 8 of 16, tolerance 8 → survive.
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 16);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        assert_eq!(m.q_given_j(1, &c, &p, &fti_tolerance), 0.0);
        // But any same-cluster pair dies: bad pairs = 4 of C(8,2)=28.
        assert_eq!(m.q_given_j(2, &c, &p, &fti_tolerance), 4.0 / 28.0);
    }

    #[test]
    fn fully_distributed_cluster_needs_majority_loss() {
        // 16 nodes × 4 ppn, distributed clusters of 4 (one rank per node
        // in groups of 4 nodes): tolerance 2, dies only if ≥3 of its 4
        // nodes fail.
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        assert_eq!(m.q_given_j(1, &c, &p, &fti_tolerance), 0.0);
        assert_eq!(m.q_given_j(2, &c, &p, &fti_tolerance), 0.0);
        // Bad triples: per node-group C(4,3)=4, 4 groups → 16 of C(16,3)=560.
        assert_eq!(m.q_given_j(3, &c, &p, &fti_tolerance), 16.0 / 560.0);
        // Bad 4-sets: all four nodes of a group (4), three of one group
        // and one node elsewhere (4 · 4 · 12).
        assert_eq!(m.q_given_j(4, &c, &p, &fti_tolerance), 196.0 / 1820.0);
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        let digest = ClusteringDigest::new(&c, &p, &fti_tolerance);
        for j in [3usize, 4, 5] {
            let analytic = m.q_given_j(j, &c, &p, &fti_tolerance);
            let mc = monte_carlo_q_reference(16, j, &digest.clusters, 200_000, 42);
            assert!(
                (analytic - mc).abs() < 0.01 + 0.2 * analytic,
                "j={j}: analytic {analytic} vs MC {mc}"
            );
        }
    }

    #[test]
    fn paper_ordering_of_clusterings() {
        // 64 nodes × 16 ppn (the paper's §V layout, Table II).
        let nodes = 64;
        let ppn = 16;
        let p = Placement::block(nodes, ppn);
        let m = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
        // Size-guided: 8 consecutive (half a node) — dies on any node loss.
        let size_guided = Clustering::consecutive(1024, 8);
        // Naïve: 32 consecutive (2 nodes).
        let naive = Clustering::consecutive(1024, 32);
        // Distributed 16: slot clusters over groups of 16 nodes.
        let dist16 = distributed(nodes, ppn, 16);
        // Hierarchical L2: clusters of 4, one rank per node in groups of 4.
        let hier = distributed(nodes, ppn, 4);
        let p_sg = m.p_catastrophic(&size_guided, &p, &fti_tolerance);
        let p_nv = m.p_catastrophic(&naive, &p, &fti_tolerance);
        let p_hi = m.p_catastrophic(&hier, &p, &fti_tolerance);
        let p_ds = m.p_catastrophic(&dist16, &p, &fti_tolerance);
        // Table II: 0.95 / ~1e-4 / ~1e-6 / ~1e-15.
        assert!((p_sg - 0.95).abs() < 1e-9, "size-guided {p_sg}");
        assert!(p_nv > 1e-5 && p_nv < 1e-3, "naive {p_nv}");
        assert!(p_hi > 1e-7 && p_hi < 1e-5, "hierarchical {p_hi}");
        assert!(p_ds < 1e-12, "distributed {p_ds}");
        assert!(p_ds < p_hi && p_hi < p_nv && p_nv < p_sg);
    }

    #[test]
    fn q_is_monotone_in_j() {
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        let mut prev = 0.0;
        for j in 1..=8 {
            let q = m.q_given_j(j, &c, &p, &fti_tolerance);
            assert!(q >= prev, "q({j}) = {q} < q({}) = {prev}", j - 1);
            prev = q;
        }
    }

    #[test]
    fn relabelled_nodes_score_bit_identically() {
        // The ablation's hierarchical L2 on the paper machine: 16
        // disjoint 4-node groups, one rank a node per group and slot. The
        // same clustering on a placement whose node ids are permuted has
        // another digest but the same structure, hence the same value.
        let p = Placement::block(64, 16);
        let permuted = Placement::from_assignment(
            (0..1024)
                .map(|r| NodeId::from((r / 16 * 7 + 3) % 64))
                .collect(),
            64,
        );
        let c = distributed(64, 16, 4);
        let m = ReliabilityModel::new(64, EventDistribution::fti_calibrated());
        let digests = [
            ClusteringDigest::new(&c, &p, &fti_tolerance),
            ClusteringDigest::new(&c, &permuted, &fti_tolerance),
        ];
        assert_ne!(digests[0], digests[1]);
        let [a, b] = m.p_catastrophic_sweep(&digests)[..] else {
            unreachable!()
        };
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        assert!(a > 1e-7 && a < 1e-5, "{a}");
    }

    #[test]
    fn scores_a_4096_node_machine_at_j_12() {
        // The service's largest job at one rank a node.
        let p = Placement::block(4096, 1);
        let m = ReliabilityModel::new(4096, EventDistribution::fti_calibrated());
        for c in [Clustering::consecutive(4096, 4), distributed(4096, 1, 16)] {
            let q = m.q_given_j(12, &c, &p, &fti_tolerance);
            assert!(q.is_finite() && (0.0..=1.0).contains(&q), "q(12) = {q}");
            assert!(q > 0.0, "q(12) = {q}");
            let p_cat = m.p_catastrophic(&c, &p, &fti_tolerance);
            assert!(p_cat.is_finite() && (0.0..=1.0).contains(&p_cat), "{p_cat}");
        }
    }

    #[test]
    fn largest_machine_is_8602_nodes_at_max_j_12() {
        ReliabilityModel::new(8602, EventDistribution::fti_calibrated());
        let refused = std::panic::catch_unwind(|| {
            ReliabilityModel::new(8603, EventDistribution::fti_calibrated())
        });
        assert!(refused.is_err());
        // A distribution of single-node events needs only C(n, 1).
        ReliabilityModel::new(1 << 20, EventDistribution::single_node_only());
    }

    #[test]
    fn several_cluster_component_is_enumerated_then_bounded() {
        // 18 nodes × 2 ranks: slot 0 clusters take 3 consecutive nodes,
        // slot 1 clusters the same shifted by one node, so the twelve
        // clusters chain every node into one component. C(18, k) passes
        // the enumeration limit from k = 6 on.
        let p = Placement::block(18, 2);
        let assignment: Vec<usize> = (0..36)
            .map(|r| {
                let node = r / 2;
                if r % 2 == 0 {
                    node / 3
                } else {
                    6 + (node + 1) % 18 / 3
                }
            })
            .collect();
        let c = Clustering::from_assignment(&assignment);
        let digest = ClusteringDigest::new(&c, &p, &fti_tolerance);
        let components = Components::of(18, &digest.clusters);
        assert_eq!(components.free, 0);
        assert_eq!(components.clusters.len(), 1);
        assert_eq!(components.clusters[0].len(), 12);
        let enumerable = (0..=12)
            .take_while(|&k| choose(18, k) <= ENUMERATION_LIMIT)
            .count();
        assert_eq!(enumerable, 6);
        let got = safe_counts(18, &digest.clusters, 12);
        let want = brute_force_safe(&c, &p, fti_tolerance, 12);
        assert_eq!(got[..6], want[..6]);
        for k in 6..=12 {
            // The union bound over-counts the catastrophic sets.
            assert!(got[k] <= want[k], "k = {k}: {} > {}", got[k], want[k]);
        }
        // The bound is loose, not vacuous: some 6-sets are still safe.
        assert!(got[6] > 0);
    }

    proptest! {
        // A case enumerates up to 2^16 node sets (debug ≈ 50 ms).
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On machines of at most 16 nodes, uniform or ragged, with
        /// clusters that share nodes, every exact safe count equals the
        /// number of safe sets found by enumerating every set, and the
        /// number of sets the event judge calls safe, as integers.
        #[test]
        fn safe_counts_equal_enumeration_on_small_machines(
            (placement, clustering, tol) in (
                proptest::collection::vec(1usize..=4, 1..=16),
                any::<bool>(),
                0..TOLERANCES.len(),
            )
                .prop_flat_map(|(per_node, uniform, tol)| {
                    let per_node = if uniform {
                        vec![per_node[0]; per_node.len()]
                    } else {
                        per_node
                    };
                    let nprocs = per_node.iter().sum();
                    (Just(ragged(&per_node)), arb_clustering(nprocs), Just(tol))
                }),
        ) {
            let nodes = placement.nodes();
            let tolerance = TOLERANCES[tol];
            let degree = nodes.min(12);
            let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let digest = ClusteringDigest::new(&clustering, &placement, &tolerance);
            let got = safe_counts(nodes, &digest.clusters, degree);
            let want = brute_force_safe(&clustering, &placement, tolerance, degree);
            prop_assert_eq!(&got, &want, "{} nodes", nodes);
            let judge = EventJudge::new(&digest);
            let mut scratch = judge.scratch();
            let mut judged = vec![0u128; degree + 1];
            for set in 0u32..1 << nodes {
                let failed: Vec<u32> = (0..nodes as u32).filter(|&n| set >> n & 1 == 1).collect();
                if failed.len() <= degree && !judge.defeated_by(&failed, &mut scratch) {
                    judged[failed.len()] += 1;
                }
            }
            prop_assert_eq!(&judged, &want, "{} nodes, judged", nodes);
            for (j, &want) in want.iter().enumerate().skip(1) {
                let q = model.q_given_j(j, &clustering, &placement, &tolerance);
                prop_assert_eq!(q.to_bits(), q_of(nodes, j, want).to_bits());
            }
        }
    }

    proptest! {
        // A case samples 16 000 sets at three event sizes over up to 300
        // nodes (debug ≈ 1 s).
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On machines of up to 300 nodes: where every component holds
        /// one cluster, the exact `q(j)` lies within 5 binomial standard
        /// errors (plus one sample) of the Monte-Carlo oracle's; and
        /// everywhere `q(1)` and `q(2)` equal a brute-force count over
        /// nodes and pairs.
        #[test]
        fn exact_agrees_with_sampling_and_with_pairs(
            (placement, clustering, tol, sizes) in arb_machine().prop_flat_map(|placement| {
                let n = placement.nprocs();
                let clustering = (any::<bool>(), arb_small_clusters(n), arb_node_groups(&placement))
                    .prop_map(|(small, a, b)| if small { a } else { b });
                (
                    Just(placement),
                    clustering,
                    0..TOLERANCES.len(),
                    proptest::collection::vec(3usize..=12, 3),
                )
            }),
        ) {
            let nodes = placement.nodes();
            let tolerance = TOLERANCES[tol];
            let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let digest = ClusteringDigest::new(&clustering, &placement, &tolerance);
            if Components::of(nodes, &digest.clusters).clusters.iter().all(|c| c.len() == 1) {
                for j in sizes.into_iter().filter(|&j| j <= nodes) {
                    let q = model.q_given_j(j, &clustering, &placement, &tolerance);
                    let mc = monte_carlo_q_reference(nodes, j, &digest.clusters, MC_SAMPLES, MC_SEED);
                    let se = (q * (1.0 - q) / MC_SAMPLES as f64).sqrt();
                    prop_assert!((q - mc).abs() <= 5.0 * se + 1.0 / MC_SAMPLES as f64,
                        "{} nodes, j = {}: exact {} vs sampled {}", nodes, j, q, mc);
                }
            }
            let by_node = members_by_node(&clustering, &placement);
            let tol: Vec<u32> = clustering.iter().map(|(_, m)| tolerance(m.len()) as u32).collect();
            let kills = |held: &[(usize, u32)]| held.iter().any(|&(c, k)| k > tol[c]);
            let singles = by_node.iter().filter(|held| kills(held)).count();
            let mut pairs = 0u64;
            for a in 0..nodes {
                for b in a + 1..nodes {
                    let mut both = by_node[a].clone();
                    for &(c, k) in &by_node[b] {
                        match both.iter_mut().find(|(d, _)| *d == c) {
                            Some((_, l)) => *l += k,
                            None => both.push((c, k)),
                        }
                    }
                    pairs += u64::from(kills(&both));
                }
            }
            let q1 = model.q_given_j(1, &clustering, &placement, &tolerance);
            prop_assert_eq!(q1, singles as f64 / nodes as f64);
            if nodes >= 2 {
                let q2 = model.q_given_j(2, &clustering, &placement, &tolerance);
                prop_assert_eq!(q2, pairs as f64 / (nodes * (nodes - 1) / 2) as f64);
            }
        }
    }

    /// The digest as built before duplicates were dropped by sorting: a
    /// `HashSet` of signatures, the first occurrence kept.
    fn digest_by_hash_set(
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> ClusteringDigest {
        let all: Vec<ClusterNodes> = clustering
            .iter()
            .map(|(_, members)| {
                let mut nodes: Vec<usize> = members
                    .iter()
                    .map(|&r| placement.node_of(r).idx())
                    .collect();
                nodes.sort_unstable();
                ClusterNodes {
                    counts: (nodes.chunk_by(|a, b| a == b))
                        .map(|run| (run[0], run.len() as u32))
                        .collect(),
                    tolerance: tolerance(members.len()) as u32,
                }
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        ClusteringDigest {
            nodes: placement.nodes(),
            clusters: all.iter().filter(|c| seen.insert(*c)).cloned().collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Dropping duplicate signatures by sorting keeps the same
        /// clusters in the same order as the hash-set pass: per-slot node
        /// groups (many duplicates), whole node groups and random,
        /// consecutive or strided clusterings, on uniform and ragged
        /// machines, under each tolerance rule.
        #[test]
        fn sorted_dedup_equals_hash_set_dedup(
            (placement, groups, other) in arb_machine().prop_flat_map(|p| {
                let n = p.nprocs();
                (Just(p.clone()), arb_node_groups(&p), arb_clustering(n))
            }),
            use_groups in any::<bool>(),
            tol in 0..TOLERANCES.len(),
        ) {
            let clustering = if use_groups { &groups } else { &other };
            prop_assert_eq!(
                ClusteringDigest::new(clustering, &placement, &TOLERANCES[tol]),
                digest_by_hash_set(clustering, &placement, &TOLERANCES[tol])
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The sweep (one score per distinct digest) equals each scheme
        /// scored alone, bit for bit, with duplicate schemes, one
        /// clustering under two tolerance rules, two-node blocks under
        /// FTI's rule, and the schemes in either order.
        #[test]
        fn sweep_matches_each_scheme_alone(
            (placement, clusterings, picks) in arb_sweep(),
        ) {
            let nodes = placement.nodes();
            let (c0, t0) = picks[0];
            let mut schemes = picks.clone();
            schemes.push((c0, t0));
            schemes.push((c0, (t0 + 1) % TOLERANCES.len()));
            schemes.push((3, 0));
            let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let want: Vec<f64> = schemes
                .iter()
                .map(|&(c, tol)| model.p_catastrophic(&clusterings[c], &placement, &TOLERANCES[tol]))
                .collect();
            let digests: Vec<ClusteringDigest> = schemes
                .iter()
                .map(|&(c, tol)| ClusteringDigest::new(&clusterings[c], &placement, &TOLERANCES[tol]))
                .collect();
            let forward = model.p_catastrophic_sweep(&digests);
            let reversed: Vec<ClusteringDigest> = digests.iter().rev().cloned().collect();
            let mut backward = model.p_catastrophic_sweep(&reversed);
            backward.reverse();
            for (i, want) in want.iter().enumerate() {
                prop_assert_eq!(forward[i].to_bits(), want.to_bits(),
                    "{} nodes, scheme {:?}: {} vs {}", nodes, schemes[i], forward[i], want);
                prop_assert_eq!(backward[i].to_bits(), want.to_bits(),
                    "{} nodes, scheme {:?} reversed: {} vs {}", nodes, schemes[i], backward[i], want);
            }
        }
    }
}
