//! Synthetic large-machine communication graphs.
//!
//! The paper's traces top out at 128 nodes; scaling experiments for the
//! clustering engine need communication graphs shaped like real HPC
//! workloads at 4k–131k nodes. These generators model the dominant
//! patterns on the two dominant interconnects of the era:
//!
//! * [`torus2d`] — nearest-neighbour halo exchange on a
//!   wrap-around grid (stencil codes on Blue Gene / Cray class machines);
//! * [`fat_tree`] — dense collectives inside each leaf switch with
//!   progressively lighter inter-switch and inter-pod traffic (TSUBAME2's
//!   class of network, matching [`NetworkTopology::FatTree`]'s hop
//!   hierarchy).
//!
//! Edge weights are bytes with a deterministic ±12.5% jitter (splitmix64
//! keyed by the seed and endpoint pair) so partitions are not degenerate
//! ties, yet every call with the same arguments yields the same graph on
//! every platform — no global RNG, no dependency on `rand`.
//!
//! The generators return plain edge triples rather than a graph type:
//! `hcft-graph` already depends on this crate, so the dependency points
//! the only direction it can.
//!
//! [`NetworkTopology::FatTree`]: crate::NetworkTopology::FatTree

/// Base bytes exchanged over one halo-exchange link (1 MiB).
const HALO_BYTES: u64 = 1 << 20;

/// A generated communication graph: `nodes` vertices and undirected
/// weighted edges with `u < v`, each pair listed once.
#[derive(Clone, Debug)]
pub struct SyntheticGraph {
    /// Vertex count.
    pub nodes: usize,
    /// Undirected edges `(u, v, bytes)` with `u < v`, deduplicated.
    pub edges: Vec<(u32, u32, u64)>,
}

/// splitmix64: the standard 64-bit finalizer-style mixer — deterministic,
/// stateless, good avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `base` jittered by ±12.5%, keyed deterministically on the seed and
/// the (unordered) endpoint pair.
fn jitter(base: u64, seed: u64, u: u32, v: u32) -> u64 {
    let h = mix(seed ^ mix(((u as u64) << 32) | v as u64));
    let span = base / 4; // jitter range: [base - span/2, base + span/2]
    base - span / 2 + h % (span + 1)
}

/// Edge accumulator keeping the `u < v`, one-entry-per-pair invariant.
struct EdgeSink {
    seed: u64,
    edges: Vec<(u32, u32, u64)>,
}

impl EdgeSink {
    fn push(&mut self, a: usize, b: usize, base: u64) {
        debug_assert_ne!(a, b, "self edge");
        let (u, v) = (a.min(b) as u32, a.max(b) as u32);
        self.edges.push((u, v, jitter(base, self.seed, u, v)));
    }

    /// Sort and merge duplicates (wrap-around links on extent-2 rings
    /// generate the same pair twice).
    fn finish(mut self, nodes: usize) -> SyntheticGraph {
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 += next.2;
                true
            } else {
                false
            }
        });
        SyntheticGraph {
            nodes,
            edges: self.edges,
        }
    }
}

/// 2-D torus halo exchange: `x·y` nodes, each talking to its four
/// wrap-around grid neighbours. Node ids are row-major (`x` fastest).
pub fn torus2d(x: usize, y: usize, seed: u64) -> SyntheticGraph {
    assert!(x >= 2 && y >= 2, "torus extent must be >= 2");
    let mut sink = EdgeSink {
        seed,
        edges: Vec::with_capacity(2 * x * y),
    };
    for j in 0..y {
        for i in 0..x {
            let u = j * x + i;
            sink.push(u, j * x + (i + 1) % x, HALO_BYTES);
            sink.push(u, ((j + 1) % y) * x + i, HALO_BYTES);
        }
    }
    sink.finish(x * y)
}

/// Fat-tree collective traffic over
/// `nodes_per_switch · switches_per_pod · pods` nodes: a dense clique
/// inside every leaf switch (heavy — 2-hop paths), a ring of switch
/// leaders inside every pod (8× lighter — 4-hop), and a ring of pod
/// leaders across the core (64× lighter — 6-hop). The three weight
/// tiers mirror [`NetworkTopology::FatTree`]'s hop classes, giving the
/// graph the strong leaf-level community structure a partitioner should
/// recover.
///
/// [`NetworkTopology::FatTree`]: crate::NetworkTopology::FatTree
pub fn fat_tree(
    nodes_per_switch: usize,
    switches_per_pod: usize,
    pods: usize,
    seed: u64,
) -> SyntheticGraph {
    assert!(
        nodes_per_switch >= 2 && switches_per_pod >= 1 && pods >= 1,
        "degenerate fat tree"
    );
    let switches = switches_per_pod * pods;
    let nodes = nodes_per_switch * switches;
    let mut sink = EdgeSink {
        seed,
        edges: Vec::with_capacity(switches * nodes_per_switch * nodes_per_switch / 2),
    };
    for s in 0..switches {
        let base = s * nodes_per_switch;
        for i in 0..nodes_per_switch {
            for j in (i + 1)..nodes_per_switch {
                sink.push(base + i, base + j, HALO_BYTES);
            }
        }
    }
    // Switch leaders (node 0 of each switch) ring within the pod.
    if switches_per_pod >= 2 {
        for p in 0..pods {
            for s in 0..switches_per_pod {
                let a = (p * switches_per_pod + s) * nodes_per_switch;
                let b = (p * switches_per_pod + (s + 1) % switches_per_pod) * nodes_per_switch;
                if a != b {
                    sink.push(a, b, HALO_BYTES / 8);
                }
            }
        }
    }
    // Pod leaders (node 0 of each pod) ring across the core.
    if pods >= 2 {
        for p in 0..pods {
            let a = p * switches_per_pod * nodes_per_switch;
            let b = ((p + 1) % pods) * switches_per_pod * nodes_per_switch;
            if a != b {
                sink.push(a, b, HALO_BYTES / 64);
            }
        }
    }
    sink.finish(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn check_invariants(g: &SyntheticGraph) {
        let mut seen = BTreeSet::new();
        for &(u, v, w) in &g.edges {
            assert!(u < v, "unordered edge ({u}, {v})");
            assert!((v as usize) < g.nodes, "endpoint beyond graph");
            assert!(seen.insert((u, v)), "duplicate edge ({u}, {v})");
            assert!(w > 0, "zero-weight edge");
        }
    }

    #[test]
    fn torus2d_shape() {
        let g = torus2d(8, 4, 1);
        assert_eq!(g.nodes, 32);
        // Every node has 4 neighbours → 2·n edges (extents > 2, no merges).
        assert_eq!(g.edges.len(), 64);
        check_invariants(&g);
    }

    #[test]
    fn extent_two_rings_merge_wraparound() {
        // On an extent-2 ring, +1 and wrap hit the same neighbour; the
        // duplicate must merge, not repeat.
        let g = torus2d(2, 2, 3);
        assert_eq!(g.nodes, 4);
        assert_eq!(g.edges.len(), 4); // square, not multigraph
        check_invariants(&g);
    }

    #[test]
    fn fat_tree_shape_and_tiers() {
        let (nps, spp, pods) = (4, 3, 2);
        let g = fat_tree(nps, spp, pods, 5);
        assert_eq!(g.nodes, 24);
        check_invariants(&g);
        // 6 cliques of C(4,2)=6, 2 pod rings of 3, 1 core pair.
        assert_eq!(g.edges.len(), 6 * 6 + 2 * 3 + 1);
        // Intra-switch traffic strictly dominates inter-switch.
        let intra_min = g
            .edges
            .iter()
            .filter(|&&(u, v, _)| u as usize / nps == v as usize / nps)
            .map(|&(_, _, w)| w)
            .min()
            .expect("intra edges");
        let inter_max = g
            .edges
            .iter()
            .filter(|&&(u, v, _)| u as usize / nps != v as usize / nps)
            .map(|&(_, _, w)| w)
            .max()
            .expect("inter edges");
        assert!(intra_min > inter_max, "{intra_min} <= {inter_max}");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = torus2d(4, 4, 42);
        let b = torus2d(4, 4, 42);
        assert_eq!(a.edges, b.edges);
        let c = torus2d(4, 4, 43);
        assert_ne!(a.edges, c.edges, "seed must change the jitter");
        // Topology is seed-independent; only the weights move.
        let strip = |g: &SyntheticGraph| -> Vec<(u32, u32)> {
            g.edges.iter().map(|&(u, v, _)| (u, v)).collect()
        };
        assert_eq!(strip(&a), strip(&c));
    }

    #[test]
    fn jitter_stays_in_band() {
        let g = torus2d(16, 16, 9);
        for &(_, _, w) in &g.edges {
            let lo = HALO_BYTES - HALO_BYTES / 8;
            let hi = HALO_BYTES + HALO_BYTES / 8;
            assert!(w >= lo && w <= hi, "weight {w} outside [{lo}, {hi}]");
        }
    }
}
