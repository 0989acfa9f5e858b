//! The multilevel k-way partitioner.
//!
//! Classic METIS recipe: coarsen with heavy-edge matching until the graph
//! is small, partition the coarse graph by greedy region growing, then
//! project back level by level, refining the boundary at each step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hcft_graph::WeightedGraph;

use crate::coarsen::coarsen_to;
use crate::refine::refine;
use crate::SizeBounds;

/// Configuration for [`MultilevelPartitioner`].
#[derive(Clone, Debug)]
pub struct MultilevelConfig {
    /// Number of parts.
    pub k: usize,
    /// Allowed part-weight range.
    pub bounds: SizeBounds,
    /// RNG seed (the partitioner is deterministic given the seed).
    pub seed: u64,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// Stop coarsening at roughly this many vertices (default `8·k`).
    pub coarsen_target: Option<usize>,
}

impl MultilevelConfig {
    /// Sensible defaults for `k` parts with the given bounds.
    pub fn new(k: usize, bounds: SizeBounds) -> Self {
        MultilevelConfig {
            k,
            bounds,
            seed: 0x5eed,
            refine_passes: 6,
            coarsen_target: None,
        }
    }
}

/// Multilevel k-way partitioner.
pub struct MultilevelPartitioner {
    cfg: MultilevelConfig,
}

impl MultilevelPartitioner {
    /// Create a partitioner with the given configuration.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(cfg: MultilevelConfig) -> Self {
        assert!(cfg.k > 0, "k must be positive");
        MultilevelPartitioner { cfg }
    }

    /// Partition `g` into `k` parts within the weight bounds. The bounds
    /// must be feasible (`k·min ≤ total ≤ k·max`).
    ///
    /// # Panics
    /// Panics if the bounds are infeasible for the graph's total weight.
    pub fn partition(&self, g: &WeightedGraph) -> Vec<usize> {
        self.partition_with(g, grow_initial, refine)
    }

    /// The multilevel driver over the given seeding and refinement (the
    /// equivalence tests run it over the retained oracles too).
    fn partition_with(
        &self,
        g: &WeightedGraph,
        grow_initial: fn(&WeightedGraph, usize, u64) -> Vec<usize>,
        refine: fn(&WeightedGraph, &mut [usize], &mut [u64], SizeBounds, usize),
    ) -> Vec<usize> {
        let total = g.total_vertex_weight();
        let k = self.cfg.k;
        let b = self.cfg.bounds;
        assert!(
            k as u64 * b.min_weight <= total && total <= k as u64 * b.max_weight,
            "infeasible bounds: k={k}, total={total}, bounds=[{}, {}]",
            b.min_weight,
            b.max_weight
        );
        let target = self.cfg.coarsen_target.unwrap_or((8 * k).max(32));
        let levels = coarsen_to(g, target, self.cfg.seed);
        let coarsest = levels.last().map_or(g, |l| &l.graph);
        let mut part = grow_initial(coarsest, k, self.cfg.seed);
        crate::refine::repair_bounds(coarsest, &mut part, k, b);
        let mut weights = part_weights(coarsest, &part, k);
        refine(coarsest, &mut part, &mut weights, b, self.cfg.refine_passes);
        // Project back through the levels, refining at each step.
        for li in (0..levels.len()).rev() {
            let fine_graph = if li == 0 { g } else { &levels[li - 1].graph };
            let map = &levels[li].map;
            let mut fine_part = vec![0usize; fine_graph.n()];
            for u in 0..fine_graph.n() {
                fine_part[u] = part[map[u]];
            }
            part = fine_part;
            let mut weights = part_weights(fine_graph, &part, k);
            refine(
                fine_graph,
                &mut part,
                &mut weights,
                b,
                self.cfg.refine_passes,
            );
        }
        part
    }
}

fn part_weights(g: &WeightedGraph, part: &[usize], k: usize) -> Vec<u64> {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p] += g.vertex_weight(u);
    }
    w
}

/// Greedy region growing: seed each part at an unassigned vertex and BFS
/// until the part reaches the average target weight.
///
/// Each part is seeded at a "corner" — the unassigned vertex with the
/// fewest unassigned neighbours (lowest id on ties). Growing from
/// corners produces compact runs/blocks on paths and grids instead of
/// fragmenting them. Corners come from a lazy min-heap of
/// `(free_degree, vertex)` entries: every assignment decrements its
/// unassigned neighbours' free degrees and pushes fresh entries, and
/// stale entries are discarded at pop time. Free degrees only ever
/// decrease, so the first valid pop is exactly the minimum the old
/// per-seed `O(n)` scan ([`grow_initial_scan`]) found — total seeding
/// cost drops from `O(k·n)` to `O((n + m) log n)`.
///
/// [`grow_initial_scan`]: crate::reference::grow_initial_scan
pub fn grow_initial(g: &WeightedGraph, k: usize, seed: u64) -> Vec<usize> {
    let n = g.n();
    let total = g.total_vertex_weight();
    let target = total.div_ceil(k as u64);
    let mut part = vec![usize::MAX; n];
    let _ = seed; // determinism: seeding is structural, not random
    let mut free_deg: Vec<usize> = (0..n).map(|u| g.neighbors(u).len()).collect();
    let mut corners: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|u| Reverse((free_deg[u], u))).collect();
    let mut heap_pops = 0u64;
    let mut frontier: Vec<usize> = Vec::new();
    let mut nbrs: Vec<(u64, usize)> = Vec::new();
    // Assign `u` to part `p` and maintain the corner heap: neighbours
    // lose one free neighbour each and re-enter at their new key.
    let assign = |u: usize,
                  p: usize,
                  part: &mut [usize],
                  free_deg: &mut [usize],
                  corners: &mut BinaryHeap<Reverse<(usize, usize)>>| {
        part[u] = p;
        for &(v, _) in g.neighbors(u) {
            let v = v as usize;
            if part[v] == usize::MAX {
                free_deg[v] -= 1;
                corners.push(Reverse((free_deg[v], v)));
            }
        }
    };
    for p in 0..k {
        let seed_v = loop {
            match corners.pop() {
                Some(Reverse((fd, u))) => {
                    heap_pops += 1;
                    // Valid = still unassigned and the key is current
                    // (free degrees only decrease, so the first valid
                    // entry is the true minimum).
                    if part[u] == usize::MAX && free_deg[u] == fd {
                        break Some(u);
                    }
                }
                None => break None,
            }
        };
        let Some(seed_v) = seed_v else { break };
        let mut weight = 0u64;
        frontier.clear();
        frontier.push(seed_v);
        while let Some(u) = frontier.pop() {
            if part[u] != usize::MAX {
                continue;
            }
            assign(u, p, &mut part, &mut free_deg, &mut corners);
            weight += g.vertex_weight(u);
            if weight >= target && p + 1 < k {
                break;
            }
            // Push neighbours, heaviest edge last so it pops first.
            nbrs.clear();
            nbrs.extend(
                g.neighbors(u)
                    .iter()
                    .filter(|&&(v, _)| part[v as usize] == usize::MAX)
                    .map(|&(v, w)| (w, v as usize)),
            );
            nbrs.sort_unstable();
            frontier.extend(nbrs.iter().map(|&(_, v)| v));
        }
    }
    let [seed_heap_pops] = counters!("partition.seed.heap_pops");
    seed_heap_pops.add(heap_pops);
    // Any stragglers: attach to the most connected part, else the lightest.
    let mut weights = vec![0u64; k];
    for u in 0..n {
        if part[u] != usize::MAX {
            weights[part[u]] += g.vertex_weight(u);
        }
    }
    let mut links = vec![0u64; k];
    for u in 0..n {
        if part[u] != usize::MAX {
            continue;
        }
        links.fill(0);
        for &(v, w) in g.neighbors(u) {
            if part[v as usize] != usize::MAX {
                links[part[v as usize]] += w;
            }
        }
        let best = (0..k)
            .max_by_key(|&p| (links[p], std::cmp::Reverse(weights[p])))
            .expect("k > 0");
        part[u] = best;
        weights[best] += g.vertex_weight(u);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_partition;

    /// A ring of `c` dense cliques of size `s`, weakly chained.
    fn clique_ring(c: usize, s: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(c * s);
        for q in 0..c {
            for i in 0..s {
                for j in (i + 1)..s {
                    g.add_edge(q * s + i, q * s + j, 100);
                }
            }
            let next = ((q + 1) % c) * s;
            g.add_edge(q * s + s - 1, next, 1);
        }
        g
    }

    #[test]
    fn finds_the_natural_clique_partition() {
        let g = clique_ring(4, 8);
        let cfg = MultilevelConfig::new(4, SizeBounds::new(8, 8));
        let part = MultilevelPartitioner::new(cfg).partition(&g);
        check_partition(&g, &part, Some(SizeBounds::new(8, 8))).expect("valid");
        // Optimal cut severs only the 4 weak chain links.
        assert_eq!(g.cut_weight(&part), 4);
    }

    #[test]
    fn respects_weight_bounds_on_a_path() {
        let mut g = WeightedGraph::new(16);
        for i in 0..15 {
            g.add_edge(i, i + 1, 10);
        }
        let bounds = SizeBounds::new(4, 4);
        let cfg = MultilevelConfig::new(4, bounds);
        let part = MultilevelPartitioner::new(cfg).partition(&g);
        check_partition(&g, &part, Some(bounds)).expect("valid");
        // Optimal path split into 4 runs: cut = 3 edges × 10.
        assert!(g.cut_weight(&part) <= 40, "cut {}", g.cut_weight(&part));
    }

    #[test]
    fn weighted_vertices_respected() {
        // 8 vertices of weight 2 → 16 total; bounds in weight units.
        let mut g = WeightedGraph::new(8);
        for i in 0..7 {
            g.add_edge(i, i + 1, 5);
        }
        for u in 0..8 {
            g.set_vertex_weight(u, 2);
        }
        let bounds = SizeBounds::new(4, 4);
        let part = MultilevelPartitioner::new(MultilevelConfig::new(4, bounds)).partition(&g);
        let w = check_partition(&g, &part, Some(bounds)).expect("valid");
        assert_eq!(w, vec![4, 4, 4, 4]);
    }

    #[test]
    fn single_part_is_trivial() {
        let g = clique_ring(2, 4);
        let bounds = SizeBounds::new(8, 8);
        let part = MultilevelPartitioner::new(MultilevelConfig::new(1, bounds)).partition(&g);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = clique_ring(4, 4);
        let cfg = MultilevelConfig::new(4, SizeBounds::new(2, 6));
        let a = MultilevelPartitioner::new(cfg.clone()).partition(&g);
        let b = MultilevelPartitioner::new(cfg).partition(&g);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_bounds_panic() {
        let g = clique_ring(2, 4);
        let cfg = MultilevelConfig::new(4, SizeBounds::new(4, 4)); // needs 16, have 8
        MultilevelPartitioner::new(cfg).partition(&g);
    }

    #[test]
    fn large_random_graph_is_covered() {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200;
        let mut g = WeightedGraph::new(n);
        for _ in 0..600 {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.random_range(1..20));
            }
        }
        let bounds = SizeBounds::new(10, 40);
        let part = MultilevelPartitioner::new(MultilevelConfig::new(10, bounds)).partition(&g);
        check_partition(&g, &part, Some(bounds)).expect("valid partition");
    }
}

#[cfg(test)]
mod oracle_equivalence {
    use super::*;
    use crate::reference::{grow_initial_scan, refine as oracle};
    use proptest::prelude::*;

    proptest! {
        /// End to end, the partitioner equals the same driver over the
        /// retained seeding scan and the pre-rewrite refinement, part for
        /// part: on graphs coarse enough to carry mixed vertex weights,
        /// under loose and exactly tight bounds, and at k = 1.
        #[test]
        fn multilevel_matches_the_oracle_driver(
            n in 2usize..120,
            edges in proptest::collection::vec((0usize..120, 0usize..120, 1u64..6), 0..360),
            unit_weights in any::<bool>(),
            vw in proptest::collection::vec(1u64..4, 120),
            k in 1usize..9,
            slack in 0u64..3,
            coarsen_target in 2usize..24,
        ) {
            let mut g = WeightedGraph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            if !unit_weights {
                for (u, &w) in vw.iter().take(n).enumerate() {
                    g.set_vertex_weight(u, w);
                }
            }
            let total = g.total_vertex_weight();
            let k = k.min(total as usize);
            // Exactly tight when `k` divides the total and `slack` is 0.
            let min = (total / k as u64).saturating_sub(slack).max(1);
            let max = total.div_ceil(k as u64) + slack;
            let cfg = MultilevelConfig {
                coarsen_target: Some(coarsen_target),
                ..MultilevelConfig::new(k, SizeBounds::new(min, max))
            };
            let ml = MultilevelPartitioner::new(cfg);
            prop_assert_eq!(
                ml.partition(&g),
                ml.partition_with(&g, grow_initial_scan, oracle::refine)
            );
        }
    }
}

#[cfg(test)]
mod rebalance_regression {
    use super::*;
    use crate::check_partition;

    /// Regression: coarsening a dense graph produces mixed vertex weights
    /// (matched pairs = 2, singletons = 1); under exactly tight bounds
    /// the old over/under shuttling oscillated forever. The partitioner
    /// must terminate and (here, where exact bounds are reachable via a
    /// 2↔1 swap) satisfy them.
    #[test]
    fn mixed_weights_with_tight_bounds_terminate() {
        // 9 vertices: seven of weight 2, two of weight 1 → total 16.
        let mut g = WeightedGraph::new(9);
        for u in 0..8 {
            g.add_edge(u, u + 1, 10 + u as u64);
        }
        for u in 0..7 {
            g.set_vertex_weight(u, 2);
        }
        let bounds = SizeBounds::new(8, 8);
        let cfg = MultilevelConfig {
            coarsen_target: Some(4), // force coarsening (mixed weights)
            ..MultilevelConfig::new(2, bounds)
        };
        let part = MultilevelPartitioner::new(cfg).partition(&g);
        check_partition(&g, &part, Some(bounds)).expect("exact bounds reachable");
    }

    /// A dense, heavily-weighted node graph like the paper trace's, with
    /// k·min == total and coarsening enabled — the exact shape that hung
    /// the `repro ablation` L1=16 variant.
    #[test]
    fn dense_heavy_graph_with_exact_bounds_terminates() {
        let mut g = WeightedGraph::new(64);
        for u in 0..63 {
            g.add_edge(u, u + 1, 1_000_000_000);
        }
        for u in 0..64 {
            for d in [2usize, 4, 8, 16, 32] {
                if u + d < 64 {
                    g.add_edge(u, u + d, 1_000_000 + (u as u64));
                }
            }
        }
        let bounds = SizeBounds::new(16, 16);
        let cfg = MultilevelConfig {
            coarsen_target: Some(32),
            ..MultilevelConfig::new(4, bounds)
        };
        let part = MultilevelPartitioner::new(cfg).partition(&g);
        check_partition(&g, &part, Some(bounds)).expect("valid 4x16 partition");
    }
}
