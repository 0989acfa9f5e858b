//! Cross-engine equivalence and safety properties.
//!
//! The scalable engines earn their keep only if they change nothing but
//! the clock: the heap CNM and the incremental corner-heap seeding must
//! reproduce their retained quadratic references *bit-for-bit* (the
//! Table II CSVs are downstream of every choice they make), and
//! refinement must never trade away the two invariants the paper's
//! clustering rests on — part weights inside [`SizeBounds`] and a
//! never-increasing edge cut.

use hcft_graph::WeightedGraph;
use hcft_partition::multilevel::grow_initial;
use hcft_partition::reference::grow_initial_scan;
use hcft_partition::refine::refine;
use hcft_partition::{
    check_partition, modularity_clusters, modularity_clusters_reference, MultilevelConfig,
    MultilevelPartitioner, SizeBounds,
};
use proptest::prelude::*;

/// A random sparse weighted graph: `n` vertices, a scattering of random
/// edges (duplicates accumulate, as in the communication matrices).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0usize..n, 0usize..n, 1u64..1_000_000), 0..160).prop_map(
            move |edges| {
                let mut g = WeightedGraph::new(n);
                for (u, v, w) in edges {
                    if u != v {
                        g.add_edge(u, v, w);
                    }
                }
                g
            },
        )
    })
}

/// A random complete partition of `n` vertices into `k` non-empty parts.
fn arb_partition(n: usize, k: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..k, n).prop_map(move |mut part| {
        // Guarantee every part is non-empty (n >= k by construction).
        for (p, slot) in part.iter_mut().enumerate().take(k) {
            *slot = p;
        }
        part
    })
}

fn part_weights(g: &WeightedGraph, part: &[usize], k: usize) -> Vec<u64> {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p] += g.vertex_weight(u);
    }
    w
}

proptest! {
    /// Heap CNM ≡ quadratic reference on arbitrary graphs and bounds.
    #[test]
    fn heap_cnm_matches_reference(g in arb_graph(), min in 1u64..4, extra in 0u64..16) {
        let bounds = SizeBounds::new(min, min + 1 + extra);
        prop_assert_eq!(
            modularity_clusters(&g, bounds),
            modularity_clusters_reference(&g, bounds)
        );
    }

    /// Incremental corner-heap seeding ≡ per-seed scan reference.
    #[test]
    fn incremental_seeding_matches_scan(g in arb_graph(), k in 1usize..5, seed in proptest::prelude::any::<u64>()) {
        let k = k.min(g.n());
        prop_assert_eq!(grow_initial(&g, k, seed), grow_initial_scan(&g, k, seed));
    }

    /// Refinement never violates the bounds it is given and never
    /// increases the cut, from any feasible starting partition. The
    /// bounds are derived from the start partition's own weight spread,
    /// so they are always satisfiable and often tight.
    #[test]
    fn refinement_preserves_bounds_and_cut(
        (g, part) in arb_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), arb_partition(n, 2 + n % 3))
        }),
        passes in 1usize..5,
    ) {
        let k = part.iter().copied().max().expect("non-empty") + 1;
        let mut weights = part_weights(&g, &part, k);
        let bounds = SizeBounds::new(
            *weights.iter().min().expect("k >= 1").max(&1),
            *weights.iter().max().expect("k >= 1"),
        );
        let cut_before = g.cut_weight(&part);
        let mut refined = part.clone();
        refine(&g, &mut refined, &mut weights, bounds, passes);
        let cut_after = g.cut_weight(&refined);
        prop_assert!(cut_after <= cut_before, "cut grew {cut_before} -> {cut_after}");
        let fresh = part_weights(&g, &refined, k);
        prop_assert_eq!(&fresh, &weights, "tracked weights drifted");
        for (p, &w) in fresh.iter().enumerate() {
            prop_assert!(
                w >= bounds.min_weight && w <= bounds.max_weight,
                "part {} weight {} outside [{}, {}]",
                p, w, bounds.min_weight, bounds.max_weight
            );
        }
    }

    /// Both end-to-end engines emit complete partitions; the multilevel
    /// engine (which takes explicit bounds) also respects them.
    #[test]
    fn engines_emit_valid_partitions(g in arb_graph(), seed in proptest::prelude::any::<u64>()) {
        let n = g.n() as u64;
        // Modularity: caps only (min 1 never forces folding).
        let part = modularity_clusters(&g, SizeBounds::new(1, (n / 2).max(1)));
        check_partition(&g, &part, None).expect("modularity partition");
        // Multilevel: k = 2 with the loosest feasible bounds.
        let bounds = SizeBounds::new(1, n.max(1));
        let cfg = MultilevelConfig { seed, ..MultilevelConfig::new(2, bounds) };
        let part = MultilevelPartitioner::new(cfg).partition(&g);
        check_partition(&g, &part, Some(bounds)).expect("multilevel partition");
    }
}

/// The ISSUE pins equivalence up to 512 vertices; proptest shrinks stay
/// small, so cover the top of that range deterministically: 64 cliques
/// of 8 in a weak ring.
#[test]
fn heap_cnm_matches_reference_at_512_nodes() {
    let (cliques, size) = (64usize, 8usize);
    let mut g = WeightedGraph::new(cliques * size);
    for q in 0..cliques {
        for i in 0..size {
            for j in (i + 1)..size {
                g.add_edge(q * size + i, q * size + j, 50 + ((q + i * j) % 7) as u64);
            }
        }
        let next = ((q + 1) % cliques) * size;
        g.add_edge(q * size + size - 1, next, 1 + (q % 3) as u64);
    }
    for bounds in [
        SizeBounds::new(1, 8),
        SizeBounds::new(4, 16),
        SizeBounds::new(2, 512),
    ] {
        assert_eq!(
            modularity_clusters(&g, bounds),
            modularity_clusters_reference(&g, bounds),
            "engines diverged at 512 nodes with {bounds:?}"
        );
    }
}

/// Same ceiling for the seeding pair, on a 512-node grid-ish graph.
#[test]
fn incremental_seeding_matches_scan_at_512_nodes() {
    let (x, y) = (32usize, 16usize);
    let mut g = WeightedGraph::new(x * y);
    for j in 0..y {
        for i in 0..x {
            let u = j * x + i;
            if i + 1 < x {
                g.add_edge(u, u + 1, 10 + ((i + j) % 5) as u64);
            }
            if j + 1 < y {
                g.add_edge(u, u + x, 10 + ((i * j) % 5) as u64);
            }
        }
    }
    for k in [1usize, 2, 7, 16, 64] {
        assert_eq!(
            grow_initial(&g, k, 0x5eed),
            grow_initial_scan(&g, k, 0x5eed),
            "seeding diverged at 512 nodes with k={k}"
        );
    }
}

/// Machine scale: a 4096-leaf fat tree through the whole multilevel
/// pipeline (coarsening, incremental seeding, refinement, rebalance)
/// must come out complete and inside the size bounds.
#[test]
fn multilevel_partition_of_a_4096_node_fat_tree_is_valid() {
    let tree = hcft_topology::synthetic::fat_tree(16, 16, 16, 6);
    let mut g = WeightedGraph::new(tree.nodes);
    for &(u, v, w) in &tree.edges {
        g.add_edge(u as usize, v as usize, w);
    }
    let bounds = SizeBounds::new(16, 256);
    let cfg = MultilevelConfig::new(g.n() / 64, bounds);
    let part = MultilevelPartitioner::new(cfg).partition(&g);
    check_partition(&g, &part, Some(bounds)).expect("valid large partition");
}
