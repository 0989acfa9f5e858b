//! Retained quadratic reference implementations.
//!
//! The scalable engines ([`modularity_clusters`](crate::modularity_clusters)'s
//! lazy-deletion heap, [`multilevel`](crate::multilevel)'s incremental
//! corner heap) are proven against these originals: the property tests
//! assert bit-identical output. They are deliberately kept verbatim — a
//! slow-but-obvious oracle is only useful while it stays obvious.
//!
//! The CNM reference lives next to the heap engine as
//! [`modularity_clusters_reference`](crate::modularity_clusters_reference)
//! (both share the agglomeration state); this module holds the seeding
//! scan.

use hcft_graph::WeightedGraph;

/// The original greedy region growing: seed each part at the unassigned
/// vertex with the fewest unassigned neighbours, found by a full `O(n)`
/// scan per seed (quadratic in the number of parts × vertices). BFS
/// growth and straggler attachment are identical to
/// [`grow_initial`](crate::multilevel::grow_initial), which replaces the
/// per-seed scan with a lazy min-heap and must select the exact same
/// seeds.
pub fn grow_initial_scan(g: &WeightedGraph, k: usize, seed: u64) -> Vec<usize> {
    let n = g.n();
    let total = g.total_vertex_weight();
    let target = total.div_ceil(k as u64);
    let mut part = vec![usize::MAX; n];
    let _ = seed; // determinism: seeding is structural, not random
    for p in 0..k {
        // Seed at a "corner": the unassigned vertex with the fewest
        // unassigned neighbours. Growing from corners produces compact
        // runs/blocks on paths and grids instead of fragmenting them.
        let seed_v = {
            let best = (0..n).filter(|&u| part[u] == usize::MAX).min_by_key(|&u| {
                let free_nbrs = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&(v, _)| part[v as usize] == usize::MAX)
                    .count();
                (free_nbrs, u)
            });
            match best {
                Some(u) => u,
                None => break,
            }
        };
        let mut weight = 0u64;
        let mut frontier = vec![seed_v];
        while let Some(u) = frontier.pop() {
            if part[u] != usize::MAX {
                continue;
            }
            part[u] = p;
            weight += g.vertex_weight(u);
            if weight >= target && p + 1 < k {
                break;
            }
            // Push neighbours, heaviest edge last so it pops first.
            let mut nbrs: Vec<(u64, usize)> = g
                .neighbors(u)
                .iter()
                .filter(|&&(v, _)| part[v as usize] == usize::MAX)
                .map(|&(v, w)| (w, v as usize))
                .collect();
            nbrs.sort_unstable();
            frontier.extend(nbrs.into_iter().map(|(_, v)| v));
        }
    }
    // Any stragglers: attach to the most connected part, else the lightest.
    let mut weights = vec![0u64; k];
    for u in 0..n {
        if part[u] != usize::MAX {
            weights[part[u]] += g.vertex_weight(u);
        }
    }
    for u in 0..n {
        if part[u] != usize::MAX {
            continue;
        }
        let mut links = vec![0u64; k];
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
