//! P(catastrophic failure) for a clustering + placement.
//!
//! An encoding cluster of size `s` protected by FTI-style Reed–Solomon
//! tolerates up to `t = ⌈s/2⌉` missing members (see
//! `hcft_erasure::ReedSolomon::fti_for_group`). A failure event that takes
//! down a set `F` of nodes destroys, in each cluster, the members placed
//! on `F`; the event is catastrophic iff some cluster loses more than `t`
//! members.
//!
//! Computation per event cardinality `j`:
//! * `j = 1` and `j = 2` — exact enumeration;
//! * `j ≥ 3` — exact per-cluster probability via a knapsack DP over the
//!   cluster's occupied nodes combined with hypergeometric weights, then
//!   a union bound across clusters (tight for the small probabilities
//!   where it is used; replaced by Monte Carlo when the bound is loose).
//!
//! # Shared Monte-Carlo draws
//!
//! The Monte-Carlo branch counts how many of 16 000 uniformly random
//! `j`-node failure sets kill some cluster. The sets are drawn in 8 RNG
//! streams, stream `c` seeded `seed + c`, so they depend only on the node
//! count and `j`, never on the clustering or the model. They are therefore
//! drawn once per *process*: one registry maps each node count to its
//! tables, and each `(nodes, j)` table is an `Arc` of a `OnceLock`, drawn
//! by the first clustering of any model that reaches the branch at that
//! `j`. The registry's lock covers the lookup only, never a draw. A model
//! keeps the tables it has looked up until it is dropped; every later
//! clustering only counts its losses over the stored sets. The count is an
//! integer, so the estimate is bit-identical whichever clustering or model
//! drew the table and in whatever order clusterings arrive.
//!
//! A table is bit-sliced: one bitset over the 16 000 sets per node, bit
//! `s` set iff the node is in set `s`. That is 2 000 B a node whatever
//! `j`, so a 64-node machine's tables take at most ≈ 1.3 MB under the FTI
//! distribution (`j = 3..=12`), and only the `j` that reach the branch
//! are drawn. One kernel counts the sets that kill some cluster, 64 sets
//! a word: it adds each node's weight under the node's bitset into
//! binary counter planes and compares them with the tolerance. The
//! registry keeps at most [`MC_TABLE_BUDGET_BYTES`] (2 MiB) of tables, a
//! constant, and evicts the least-recently-used node counts to stay under
//! it; a model still holding an evicted table keeps it alive through its
//! `Arc`. A table that does not fit even beside its own node count's
//! others (a machine of more than ≈ 100 nodes whose tables pass the
//! budget) is drawn for the model that needs it alone.
//!
//! [`ReliabilityModel::p_catastrophic_sweep`] scores many clusterings at
//! once: it computes P(catastrophic) once per distinct ordered
//! [`ClusteringDigest`], in parallel over the distinct digests, and fans
//! the values back out in input order. Equal digests run identical
//! arithmetic, so the values are bit-identical at any thread count and to
//! scoring each clustering alone.
//!
//! Every failure set comes from [`NodeSampler`](crate::NodeSampler), the
//! workspace's one node sampler (the campaign kernel draws with it too):
//! it reproduces `rand::seq::index::sample` draw for draw without
//! allocating.
//!
//! Each `q(j)` evaluation bumps one global counter for its branch,
//! `reliability.q.{single,pair,exact,monte_carlo,mixed}`;
//! `reliability.mc_tables_built` and `reliability.mc_tables_evicted` count
//! the shared tables drawn and evicted, and the gauges
//! `reliability.mc_tables.bytes` and `reliability.mc_tables.node_counts`
//! show what the registry holds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hcft_graph::Clustering;
use hcft_telemetry::{Counter, Registry};
use hcft_topology::Placement;
use rayon::prelude::*;

use crate::combinatorics::choose;
use crate::events::EventDistribution;
use crate::tables::{shared_table, SampleTable, SharedTable};

pub use crate::tables::MC_TABLE_BUDGET_BYTES;

/// Global handles for the branch counters (see module docs).
struct QCounters {
    single: Arc<Counter>,
    pair: Arc<Counter>,
    exact: Arc<Counter>,
    monte_carlo: Arc<Counter>,
    mixed: Arc<Counter>,
}

fn counters() -> &'static QCounters {
    static GLOBAL: OnceLock<QCounters> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // The table registry's metrics show from the first q(j) on, even
        // before any table is drawn.
        crate::tables::register_metrics();
        let reg = Registry::global();
        QCounters {
            single: reg.counter("reliability.q.single"),
            pair: reg.counter("reliability.q.pair"),
            exact: reg.counter("reliability.q.exact"),
            monte_carlo: reg.counter("reliability.q.monte_carlo"),
            mixed: reg.counter("reliability.q.mixed"),
        }
    })
}

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

/// What P(catastrophic) reads of a clustering on a placement: per
/// distinct cluster, in clustering order, the nodes holding its members
/// (with counts) and its erasure tolerance. Clusterings with equal
/// digests have bit-identical probabilities; see
/// [`ReliabilityModel::p_catastrophic_sweep`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClusteringDigest {
    clusters: Vec<ClusterNodes>,
}

/// Share of `table`'s failure sets that kill some cluster of `digests`;
/// 0.0 for an empty table.
fn catastrophic_share(table: &SampleTable, digests: &[&ClusterNodes]) -> f64 {
    let samples = table.samples();
    if samples == 0 {
        return 0.0;
    }
    let hits = table.count_catastrophic(digests.iter().map(|d| (&d.counts[..], d.tolerance)));
    hits as f64 / samples as f64
}

/// Reliability model for one machine size and event distribution.
pub struct ReliabilityModel {
    nodes: usize,
    dist: EventDistribution,
    /// `(j, table)`: the process-wide Monte-Carlo tables this model has
    /// looked up, kept alive until it is dropped (see module docs).
    held: Mutex<Vec<(usize, Arc<SharedTable>)>>,
}

impl ReliabilityModel {
    /// A model over `nodes` physical nodes.
    pub fn new(nodes: usize, dist: EventDistribution) -> Self {
        assert!(nodes > 0);
        ReliabilityModel {
            nodes,
            dist,
            held: Mutex::new(Vec::new()),
        }
    }

    /// Number of nodes modelled.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The digest P(catastrophic) reads of `clustering` on `placement`,
    /// a cluster of `s` members tolerating `tolerance(s)` losses.
    pub fn digest(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> ClusteringDigest {
        let mut seen = std::collections::HashSet::new();
        let clusters = clustering
            .iter()
            .filter_map(|(_, members)| {
                let mut counts: Vec<(usize, u32)> = Vec::new();
                for &r in members {
                    let n = placement.node_of(r).idx();
                    match counts.iter_mut().find(|(node, _)| *node == n) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((n, 1)),
                    }
                }
                counts.sort_unstable();
                let tol = tolerance(members.len()) as u32;
                // Clusters with identical placement signatures live and die
                // together (e.g. the per-slot L2 clusters of one node
                // group); keeping one representative keeps the j≥3 union
                // bound tight instead of over-counting perfectly
                // correlated clusters.
                seen.insert((counts.clone(), tol)).then_some(ClusterNodes {
                    counts,
                    tolerance: tol,
                })
            })
            .collect();
        ClusteringDigest { clusters }
    }

    /// Probability that a uniformly random `j`-node failure event is
    /// catastrophic for this clustering.
    pub fn q_given_j(
        &self,
        j: usize,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> f64 {
        let digest = self.digest(clustering, placement, tolerance);
        let bad = self.singly_bad_nodes(&digest.clusters);
        self.q_from_digests(j, &digest.clusters, &bad)
    }

    /// `q(j)` of a clustering's digests, whose singly-bad nodes are `bad`.
    fn q_from_digests(&self, j: usize, digests: &[ClusterNodes], bad: &[bool]) -> f64 {
        let n = self.nodes;
        if j == 0 || j > n {
            return 0.0;
        }
        let counters = counters();
        match j {
            1 => {
                counters.single.inc();
                bad.iter().filter(|&&b| b).count() as f64 / n as f64
            }
            2 => {
                counters.pair.inc();
                let b = bad.iter().filter(|&&x| x).count();
                // Pairs touching a singly-bad node are bad outright.
                let pairs_with_bad = choose(n, 2) - choose(n - b, 2);
                // Plus pairs of individually-safe nodes that jointly
                // overwhelm some cluster.
                let mut joint: std::collections::HashSet<(usize, usize)> =
                    std::collections::HashSet::new();
                for d in digests {
                    for a in 0..d.counts.len() {
                        for c in (a + 1)..d.counts.len() {
                            let (na, ca) = d.counts[a];
                            let (nc, cc) = d.counts[c];
                            if bad[na] || bad[nc] {
                                continue;
                            }
                            if ca + cc > d.tolerance {
                                joint.insert((na.min(nc), na.max(nc)));
                            }
                        }
                    }
                }
                (pairs_with_bad + joint.len() as f64) / choose(n, 2)
            }
            _ => {
                // Split off the nodes whose loss is *alone* catastrophic:
                // any j-subset touching one of them is catastrophic, a
                // hypergeometric term we can compute exactly. The rest of
                // the probability comes from clusters that need multiple
                // correlated losses, where the per-cluster union bound is
                // tight (and Monte Carlo covers the loose remainder).
                let b = bad.iter().filter(|&&x| x).count();
                let p_hit_bad = 1.0 - choose(n - b, j) / choose(n, j);
                let residual: Vec<&ClusterNodes> = digests
                    .iter()
                    .filter(|d| d.counts.iter().all(|&(node, _)| !bad[node]))
                    .collect();
                let union: f64 = residual.iter().map(|d| self.q_cluster_exact(j, d)).sum();
                if union <= 0.1 {
                    counters.exact.inc();
                    (p_hit_bad + (1.0 - p_hit_bad) * union).min(1.0)
                } else if b == 0 {
                    // Large multi-node-driven probability: sample. With no
                    // singly-bad node the residual is every digest.
                    counters.monte_carlo.inc();
                    self.monte_carlo_q(j, &residual).min(1.0)
                } else {
                    // Mixed case: sample only the residual structure.
                    counters.mixed.inc();
                    let q_rest = self.monte_carlo_q(j, &residual).min(1.0);
                    (p_hit_bad + (1.0 - p_hit_bad) * q_rest).min(1.0)
                }
            }
        }
    }

    /// `bad[n]` = does losing node `n` alone kill some cluster?
    fn singly_bad_nodes(&self, digests: &[ClusterNodes]) -> Vec<bool> {
        let mut bad = vec![false; self.nodes];
        for d in digests {
            for &(node, cnt) in &d.counts {
                if cnt > d.tolerance {
                    bad[node] = true;
                }
            }
        }
        bad
    }

    /// Exact P(cluster dies | j uniformly-random node failures):
    /// Σ_r D_r · C(N−m, j−r) / C(N, j) with D_r counted by knapsack DP.
    fn q_cluster_exact(&self, j: usize, d: &ClusterNodes) -> f64 {
        let m = d.counts.len();
        let t = d.tolerance as usize;
        // ways[r][s] = number of r-subsets of the occupied nodes whose
        // member sum is s (sums capped at t+1: "already dead").
        let cap = t + 1;
        let mut ways = vec![vec![0.0f64; cap + 1]; m + 1];
        ways[0][0] = 1.0;
        for &(_, cnt) in &d.counts {
            let cnt = cnt as usize;
            for r in (0..m).rev() {
                for s in 0..=cap {
                    let w = ways[r][s];
                    if w == 0.0 {
                        continue;
                    }
                    let ns = (s + cnt).min(cap);
                    ways[r + 1][ns] += w;
                }
            }
        }
        let n = self.nodes;
        let mut q = 0.0;
        let denom = choose(n, j);
        for (r, row) in ways.iter().enumerate() {
            let dead = row[cap]; // sum > t
            if dead > 0.0 && r <= j {
                q += dead * choose(n - m, j - r) / denom;
            }
        }
        q
    }

    /// Monte-Carlo estimate of q(j) (`1 ≤ j ≤ nodes`) over the
    /// process-wide failure sets for `j`, drawing them on first use.
    fn monte_carlo_q(&self, j: usize, digests: &[&ClusterNodes]) -> f64 {
        let table = {
            let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
            match held.iter().find(|(k, _)| *k == j) {
                Some((_, table)) => table.clone(),
                None => {
                    let table = shared_table(self.nodes, j);
                    held.push((j, table.clone()));
                    table
                }
            }
        };
        catastrophic_share(table.sets(), digests)
    }

    /// Public Monte-Carlo estimator (for cross-validating the analytic
    /// path in tests and benches): the share of `samples` uniformly
    /// random `j`-node failure sets that are catastrophic. Draws a one-off
    /// table from its own `samples` and `seed`, stored and counted like
    /// the shared tables, so `(16_000, 0x9e37_79b9_7f4a_7c15)` reproduces
    /// what [`p_catastrophic`](Self::p_catastrophic) samples for a
    /// clustering with no singly-bad node.
    ///
    /// Returns 0.0 when `samples == 0` or no `j`-node event exists
    /// (`j == 0` or `j > nodes`).
    pub fn q_given_j_monte_carlo(
        &self,
        j: usize,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
        samples: usize,
        seed: u64,
    ) -> f64 {
        if j == 0 || j > self.nodes {
            return 0.0;
        }
        let digest = self.digest(clustering, placement, tolerance);
        let digests: Vec<&ClusterNodes> = digest.clusters.iter().collect();
        let table = SampleTable::draw(self.nodes, j, samples, seed);
        catastrophic_share(&table, &digests)
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
        let digest = self.digest(clustering, placement, tolerance);
        self.p_catastrophic_sweep(std::slice::from_ref(&digest))[0]
    }

    /// P(catastrophic) of every digest, in input order. Each distinct
    /// digest is scored once, in parallel over the distinct digests, and
    /// its value fanned back out to every position that holds it; equal
    /// digests run identical arithmetic, so every value is bit-identical
    /// to scoring its clustering alone, at any thread count.
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
        let p: Vec<f64> = distinct
            .par_iter()
            .map(|d| self.p_catastrophic_of(d))
            .collect();
        slots.into_iter().map(|i| p[i]).collect()
    }

    /// `Σ_j P(j-node event) · q(j)` for one digest.
    fn p_catastrophic_of(&self, digest: &ClusteringDigest) -> f64 {
        let bad = self.singly_bad_nodes(&digest.clusters);
        self.dist
            .p_nodes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let j = i + 1;
                if p == 0.0 {
                    0.0
                } else {
                    p * self.q_from_digests(j, &digest.clusters, &bad)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{MC_SAMPLES, MC_SEED};
    use hcft_graph::Clustering;
    use hcft_topology::{NodeId, Placement};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::index::sample;
    use rand::SeedableRng;

    /// The allocating estimator `p_catastrophic` ran before the shared
    /// tables, kept as the oracle: fresh `rand::seq::index::sample` and
    /// failure mask per sample, `samples / 8` per stream.
    fn monte_carlo_q_reference(
        nodes: usize,
        j: usize,
        digests: &[&ClusterNodes],
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

    /// The clusters free of singly-bad nodes: what the mixed branch samples.
    fn residual<'a>(m: &ReliabilityModel, digests: &'a [ClusterNodes]) -> Vec<&'a ClusterNodes> {
        let bad = m.singly_bad_nodes(digests);
        digests
            .iter()
            .filter(|d| d.counts.iter().all(|&(node, _)| !bad[node]))
            .collect()
    }

    /// q(j ≥ 3) exactly as computed before the shared tables, on the
    /// reference estimator.
    fn q_reference(m: &ReliabilityModel, j: usize, digests: &[ClusterNodes]) -> f64 {
        q_reference_with(m, j, digests, |set| {
            monte_carlo_q_reference(m.nodes, j, set, MC_SAMPLES, MC_SEED)
        })
    }

    /// q(j ≥ 3) exactly as computed before the shared tables, its
    /// Monte-Carlo estimates taken from `mc` (over the clusters it is
    /// given).
    fn q_reference_with(
        m: &ReliabilityModel,
        j: usize,
        digests: &[ClusterNodes],
        mut mc: impl FnMut(&[&ClusterNodes]) -> f64,
    ) -> f64 {
        let n = m.nodes;
        if j > n {
            return 0.0;
        }
        let b = m.singly_bad_nodes(digests).iter().filter(|&&x| x).count();
        let p_hit_bad = 1.0 - choose(n - b, j) / choose(n, j);
        let residual = residual(m, digests);
        let union: f64 = residual.iter().map(|d| m.q_cluster_exact(j, d)).sum();
        if union <= 0.1 {
            (p_hit_bad + (1.0 - p_hit_bad) * union).min(1.0)
        } else if b == 0 {
            let all: Vec<&ClusterNodes> = digests.iter().collect();
            mc(&all).min(1.0)
        } else {
            let q_rest = mc(&residual).min(1.0);
            (p_hit_bad + (1.0 - p_hit_bad) * q_rest).min(1.0)
        }
    }

    /// P(catastrophic) of one digest scored alone, its Monte-Carlo
    /// estimates taken from `mc(j, clusters)`.
    fn p_catastrophic_with(
        m: &ReliabilityModel,
        digest: &ClusteringDigest,
        mut mc: impl FnMut(usize, &[&ClusterNodes]) -> f64,
    ) -> f64 {
        let bad = m.singly_bad_nodes(&digest.clusters);
        m.dist
            .p_nodes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let j = i + 1;
                if p == 0.0 {
                    return 0.0;
                }
                let q = if j <= 2 {
                    m.q_from_digests(j, &digest.clusters, &bad)
                } else {
                    q_reference_with(m, j, &digest.clusters, |set| mc(j, set))
                };
                p * q
            })
            .sum()
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

    /// A machine with uniform or ragged ranks per node, two clusterings
    /// of its ranks and a tolerance rule.
    fn arb_scored_pair() -> impl Strategy<Value = (Placement, Clustering, Clustering, usize)> {
        (
            proptest::collection::vec(1usize..=4, 6..=14),
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
                (
                    Just(ragged(&per_node)),
                    arb_clustering(nprocs),
                    arb_clustering(nprocs),
                    Just(tol),
                )
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

    /// A machine, three clusterings of its ranks plus two-node blocks
    /// (which reach the Monte-Carlo branch under FTI's tolerance at
    /// every size here), and 4–8 (clustering, tolerance rule) picks
    /// among them.
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

    /// The tolerance rules the kernel test draws from: the oracle tests'
    /// rules and two constants, which with 16 ranks a node give weights
    /// whose gcd is 16.
    const KERNEL_TOLERANCES: [fn(usize) -> usize; 5] =
        [TOLERANCES[0], TOLERANCES[1], TOLERANCES[2], |_| 16, |_| 32];

    /// A machine of 1–300 nodes with 1–3 ranks per node (uniform or
    /// ragged) or 16; two clusterings of its ranks, each small clusters
    /// (random labels share nodes) or consecutive blocks of 1–4 nodes'
    /// worth of ranks; a kernel tolerance rule; a sample count that is
    /// no multiple of 64 but one of 8, which the reference needs; and a
    /// seed.
    fn arb_kernel_case() -> impl Strategy<Value = (Placement, Vec<Clustering>, usize, usize, u64)> {
        (
            proptest::collection::vec(1usize..=3, 1..=300),
            0usize..3,
            0..KERNEL_TOLERANCES.len(),
            (0usize..=40, 1usize..=7),
            any::<u64>(),
        )
            .prop_flat_map(|(per_node, shape, tol, (a, b), seed)| {
                let per_node = match shape {
                    0 => per_node,
                    1 => vec![per_node[0]; per_node.len()],
                    _ => vec![16; per_node.len()],
                };
                let n: usize = per_node.iter().sum();
                let ppn = per_node[0];
                let clustering = (any::<bool>(), arb_small_clusters(n), 1usize..=4).prop_map(
                    move |(blocks, small, k)| {
                        if blocks {
                            Clustering::consecutive(n, k * ppn)
                        } else {
                            small
                        }
                    },
                );
                (
                    Just(ragged(&per_node)),
                    proptest::collection::vec(clustering, 2),
                    Just(tol),
                    Just(64 * a + 8 * b),
                    Just(seed),
                )
            })
    }

    #[test]
    fn tables_store_one_word_per_node_and_64_sets() {
        for nodes in [3, 256, 257, 65_537] {
            for samples in [8, 64, 65, 16_000] {
                assert_eq!(
                    SampleTable::draw(nodes, 3, samples, 1).bytes(),
                    nodes * samples.div_ceil(64) * 8,
                    "{nodes} nodes, {samples} samples"
                );
            }
        }
    }

    /// Distributed clustering over a block placement: cluster (g, slot)
    /// takes the slot-th rank of each node in node-group g.
    fn distributed(nodes: usize, ppn: usize, size: usize) -> Clustering {
        let groups = nodes / size;
        let assignment: Vec<usize> = (0..nodes * ppn)
            .map(|r| {
                let node = r / ppn;
                let slot = r % ppn;
                let g = node / size;
                g * ppn + slot
            })
            .collect();
        let _ = groups;
        Clustering::from_assignment(&assignment)
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
        let q2 = m.q_given_j(2, &c, &p, &fti_tolerance);
        assert!((q2 - 4.0 / 28.0).abs() < 1e-12);
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
        let q3 = m.q_given_j(3, &c, &p, &fti_tolerance);
        // Bad triples: per node-group C(4,3)=4, 4 groups → 16 of C(16,3)=560.
        // (After signature dedup the union bound is exact here: the four
        // slot clusters of a node group share one signature, and distinct
        // groups cannot both lose 3 nodes within a 3-node event.)
        assert!((q3 - 16.0 / 560.0).abs() < 1e-9, "q3 = {q3}");
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        for j in [3usize, 4, 5] {
            let analytic = m.q_given_j(j, &c, &p, &fti_tolerance);
            let mc = m.q_given_j_monte_carlo(j, &c, &p, &fti_tolerance, 200_000, 42);
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
            assert!(q + 1e-12 >= prev, "q({j}) = {q} < q({}) = {prev}", j - 1);
            prev = q;
        }
    }

    #[test]
    fn shared_tables_reproduce_both_sampled_branches() {
        // 16 nodes × 4: two-node clusters of 8 ranks (tolerance 4) only
        // die when both their nodes fail, so no node is singly bad and
        // the union bound is loose from j = 3 on — the Monte-Carlo branch.
        // Splitting node 0 into clusters of 2 (tolerance 1) adds a
        // singly-bad node — the mixed branch.
        let p = Placement::block(16, 4);
        let pure = Clustering::consecutive(64, 8);
        let mixed: Vec<usize> = (0..64)
            .map(|r| if r < 4 { r / 2 } else { 2 + (r - 4) / 8 })
            .collect();
        let mixed = Clustering::from_assignment(&mixed);
        let m = ReliabilityModel::new(16, EventDistribution::fti_calibrated());
        for (c, want_bad) in [(&pure, false), (&mixed, true)] {
            let digests = m.digest(c, &p, &fti_tolerance).clusters;
            assert_eq!(m.singly_bad_nodes(&digests).contains(&true), want_bad);
            for j in 3..=12 {
                let union: f64 = residual(&m, &digests)
                    .iter()
                    .map(|d| m.q_cluster_exact(j, d))
                    .sum();
                assert!(union > 0.1, "j={j}: exact branch, union {union}");
                let got = m.q_given_j(j, c, &p, &fti_tolerance);
                let want = q_reference(&m, j, &digests);
                assert_eq!(got.to_bits(), want.to_bits(), "j={j}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn public_estimator_counts_every_sample() {
        let p = Placement::block(16, 4);
        let c = Clustering::consecutive(64, 8);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        let q = |samples| m.q_given_j_monte_carlo(3, &c, &p, &fti_tolerance, samples, 7);
        // The hit count behind an estimate, checked to be a whole number
        // of `samples`ths (no sample silently dropped from the divisor).
        let hits = |samples: usize| {
            let est: f64 = q(samples);
            let hits = (est * samples as f64).round();
            assert_eq!(
                (hits / samples as f64).to_bits(),
                est.to_bits(),
                "{samples} samples: {est}"
            );
            hits as usize
        };
        assert_eq!(q(0), 0.0);
        assert!(hits(5) <= 5);
        // Streams draw 2,2,2,2,2,2,2,1 sets for 15 samples: the 8-sample
        // sets (one per stream) plus seven more.
        let (h8, h15, h16) = (hits(8), hits(15), hits(16));
        assert!(h8 <= h15 && h15 <= h8 + 7 && h15 <= h16, "{h8} {h15} {h16}");
        // Multiples of 8 are unchanged.
        let digests = m.digest(&c, &p, &fti_tolerance).clusters;
        let all: Vec<&ClusterNodes> = digests.iter().collect();
        for samples in [8, 16, 16_000] {
            assert_eq!(
                q(samples).to_bits(),
                monte_carlo_q_reference(16, 3, &all, samples, 7).to_bits(),
                "{samples} samples"
            );
        }
        // No j-node event exists outside 1..=nodes.
        assert_eq!(
            m.q_given_j_monte_carlo(0, &c, &p, &fti_tolerance, 800, 7),
            0.0
        );
        assert_eq!(
            m.q_given_j_monte_carlo(17, &c, &p, &fti_tolerance, 800, 7),
            0.0
        );
    }

    proptest! {
        // Each case runs the allocating reference ~60 times (debug ≈ 0.5 s).
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every `q(j)`, j ∈ 3..=12, and every raw Monte-Carlo estimate
        /// (over all clusters and over the clusters free of singly-bad
        /// nodes) read from a model's shared tables equals the allocating
        /// reference bit for bit, whichever of two clusterings drew the
        /// tables.
        #[test]
        fn shared_tables_match_the_allocating_reference(
            (placement, first, second, tol) in arb_scored_pair(),
        ) {
            let nodes = placement.nodes();
            let tolerance = TOLERANCES[tol];
            let forward = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let backward = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let clusterings = [&first, &second];
            let digests = clusterings.map(|c| forward.digest(c, &placement, &tolerance).clusters);
            // The cluster sets the two sampled branches count: all of
            // them, and the residual when some node is singly bad.
            let sampled: Vec<Vec<Vec<&ClusterNodes>>> = digests
                .iter()
                .map(|d| {
                    let all: Vec<&ClusterNodes> = d.iter().collect();
                    let residual = residual(&forward, d);
                    if residual.len() < all.len() { vec![all, residual] } else { vec![all] }
                })
                .collect();
            // The references depend on no model: compute them once.
            let want: Vec<Vec<(f64, Vec<f64>)>> = (0..2)
                .map(|i| {
                    (3..=12)
                        .map(|j| {
                            let mc = sampled[i]
                                .iter()
                                .filter(|_| j <= nodes)
                                .map(|set| monte_carlo_q_reference(nodes, j, set, MC_SAMPLES, MC_SEED))
                                .collect();
                            (q_reference(&forward, j, &digests[i]), mc)
                        })
                        .collect()
                })
                .collect();
            for (m, order) in [(&forward, [0, 1]), (&backward, [1, 0])] {
                for i in order {
                    for (j, (want_q, want_mc)) in (3..=12).zip(&want[i]) {
                        let got = m.q_given_j(j, clusterings[i], &placement, &tolerance);
                        prop_assert_eq!(got.to_bits(), want_q.to_bits(), "q({}): {} vs {}", j, got, want_q);
                        for (set, want) in sampled[i].iter().zip(want_mc) {
                            let got = m.monte_carlo_q(j, set);
                            prop_assert_eq!(got.to_bits(), want.to_bits(), "mc({}): {} vs {}", j, got, want);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        // A case runs the allocating reference up to 44 times over up to
        // 300 nodes (debug ≈ 1.5 s).
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The bit-sliced kernel counts exactly what the allocating
        /// reference does: every public estimate on a fresh table of a
        /// sample count that is no multiple of 64, and the sweep's
        /// P(catastrophic), with members above the tolerance, clusters
        /// that share nodes and weights whose gcd is above 1.
        #[test]
        fn bitsliced_kernel_matches_the_allocating_reference(
            (placement, clusterings, tol, samples, seed) in arb_kernel_case(),
        ) {
            let nodes = placement.nodes();
            let tolerance = KERNEL_TOLERANCES[tol];
            let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let digests: Vec<ClusteringDigest> = clusterings
                .iter()
                .map(|c| model.digest(c, &placement, &tolerance))
                .collect();
            for (c, d) in clusterings.iter().zip(&digests) {
                let all: Vec<&ClusterNodes> = d.clusters.iter().collect();
                for j in 1..=nodes.min(12) {
                    let got = model.q_given_j_monte_carlo(j, c, &placement, &tolerance, samples, seed);
                    let want = monte_carlo_q_reference(nodes, j, &all, samples, seed);
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "{} nodes, j = {}, {} samples: {} vs {}", nodes, j, samples, got, want);
                }
            }
            let got = model.p_catastrophic_sweep(&digests);
            for (d, got) in digests.iter().zip(got) {
                let want = p_catastrophic_with(&model, d, |j, set| {
                    monte_carlo_q_reference(nodes, j, set, MC_SAMPLES, MC_SEED)
                });
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} nodes: {} vs {}", nodes, got, want);
            }
        }
    }

    proptest! {
        // A case draws up to ten fresh tables and scores up to ten
        // schemes twice (debug ≈ 1 s).
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The sweep (process-wide tables, one score per distinct digest)
        /// equals each scheme scored alone on tables drawn afresh, bit for
        /// bit, with duplicate schemes, one clustering under two tolerance
        /// rules, two-node blocks under FTI's rule, and the schemes in
        /// either order.
        #[test]
        fn sweep_matches_each_scheme_alone_on_fresh_tables(
            (placement, clusterings, picks) in arb_sweep(),
        ) {
            let nodes = placement.nodes();
            let (c0, t0) = picks[0];
            let mut schemes = picks.clone();
            schemes.push((c0, t0));
            schemes.push((c0, (t0 + 1) % TOLERANCES.len()));
            schemes.push((3, 0));
            let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
            let digests: Vec<ClusteringDigest> = schemes
                .iter()
                .map(|&(c, tol)| model.digest(&clusterings[c], &placement, &TOLERANCES[tol]))
                .collect();
            let mut fresh = HashMap::new();
            let want: Vec<f64> = digests
                .iter()
                .map(|d| {
                    p_catastrophic_with(&model, d, |j, set| {
                        let table = fresh
                            .entry(j)
                            .or_insert_with(|| SampleTable::draw(nodes, j, MC_SAMPLES, MC_SEED));
                        catastrophic_share(table, set)
                    })
                })
                .collect();
            let forward = model.p_catastrophic_sweep(&digests);
            let reversed: Vec<ClusteringDigest> = digests.iter().rev().cloned().collect();
            let mut backward = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated())
                .p_catastrophic_sweep(&reversed);
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
