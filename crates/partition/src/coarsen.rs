//! Heavy-edge-matching coarsening.
//!
//! Each coarsening level contracts a maximal matching that prefers heavy
//! edges, halving (roughly) the vertex count while preserving the cut
//! structure: a good partition of the coarse graph projects to a good
//! partition of the fine graph. Each contracted graph comes out of one
//! `WeightedGraph::from_edges` call, with the sorted rows every graph
//! has.

use hcft_graph::WeightedGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// One level of coarsening: the coarse graph plus the fine→coarse map.
pub(crate) struct CoarseLevel {
    /// The contracted graph.
    pub(crate) graph: WeightedGraph,
    /// `map[fine_vertex] = coarse_vertex`.
    pub(crate) map: Vec<usize>,
}

/// Contract a heavy-edge maximal matching of `g`. Visit order is shuffled
/// with `seed` to avoid pathological orderings; ties break on heavier
/// edges. Returns `None` when no edge can be matched (no coarsening
/// progress possible).
///
/// The edge-rating phase — finding every vertex's heaviest neighbour —
/// is embarrassingly parallel and runs under rayon; the greedy matching
/// itself stays sequential in shuffled order and consults the
/// precomputed rating first, falling back to an exact scan only when the
/// rated neighbour was already taken. The fallback preserves the exact
/// matching the fully sequential scan produced (same
/// `(weight, Reverse(v))` key), so coarse graphs are bit-identical
/// regardless of thread count — the same fixed-order determinism
/// discipline as the sweep engine.
pub(crate) fn coarsen_once(g: &WeightedGraph, seed: u64) -> Option<CoarseLevel> {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    // Parallel rating: heaviest neighbour of each vertex, ignoring
    // matching state.
    let rated: Vec<Option<u32>> = (0..n)
        .into_par_iter()
        .map(|u| {
            g.neighbors(u)
                .iter()
                .max_by_key(|&&(v, w)| (w, std::cmp::Reverse(v)))
                .map(|&(v, _)| v)
        })
        .collect();
    let mut mate = vec![usize::MAX; n];
    let mut matched_any = false;
    let mut fallbacks = 0u64;
    for &u in &order {
        if mate[u] != usize::MAX {
            continue;
        }
        // Heaviest unmatched neighbour: if the rated (unconditional)
        // maximum is still unmatched it is also the unmatched maximum;
        // otherwise rescan exactly.
        let best = match rated[u] {
            Some(v) if mate[v as usize] == usize::MAX => Some(v),
            Some(_) => {
                fallbacks += 1;
                g.neighbors(u)
                    .iter()
                    .filter(|&&(v, _)| mate[v as usize] == usize::MAX)
                    .max_by_key(|&&(v, w)| (w, std::cmp::Reverse(v)))
                    .map(|&(v, _)| v)
            }
            None => None,
        };
        if let Some(v) = best {
            mate[u] = v as usize;
            mate[v as usize] = u;
            matched_any = true;
        }
    }
    let [match_fallbacks] = counters!("partition.coarsen.match_fallbacks");
    match_fallbacks.add(fallbacks);
    if !matched_any {
        return None;
    }
    // Assign coarse ids: matched pairs share one, singletons keep one.
    let mut map = vec![usize::MAX; n];
    let mut next = 0usize;
    for u in 0..n {
        if map[u] != usize::MAX {
            continue;
        }
        map[u] = next;
        if mate[u] != usize::MAX {
            map[mate[u]] = next;
        }
        next += 1;
    }
    // Build the coarse graph: collect the surviving edges as coarse-id
    // triples and let `from_edges` fold the duplicates in one sort,
    // instead of probing an adjacency row per inserted edge.
    let mut cw = vec![0u64; next];
    for u in 0..n {
        cw[map[u]] += g.vertex_weight(u);
    }
    let mut edges: Vec<(u32, u32, u64)> = Vec::with_capacity(g.edge_count());
    for u in 0..n {
        for &(v, w) in g.neighbors(u) {
            let v = v as usize;
            if u < v && map[u] != map[v] {
                edges.push((map[u] as u32, map[v] as u32, w));
            }
        }
    }
    let graph = WeightedGraph::from_edges(next, cw, &edges);
    Some(CoarseLevel { graph, map })
}

/// Coarsen until at most `target_n` vertices remain or no edge is left to
/// match. Every level shrinks the graph (a matched pair contracts to one
/// vertex). Returns the level stack, finest first.
pub(crate) fn coarsen_to(g: &WeightedGraph, target_n: usize, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut round = 0u64;
    loop {
        let current = levels.last().map_or(g, |l| &l.graph);
        if current.n() <= target_n {
            break;
        }
        match coarsen_once(current, seed.wrapping_add(round)) {
            Some(level) => levels.push(level),
            None => break,
        }
        round += 1;
    }
    hcft_telemetry::Registry::global()
        .gauge("partition.coarsen.levels")
        .set(levels.len() as f64);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 10);
        }
        g
    }

    #[test]
    fn coarsen_once_halves_a_path() {
        let g = path(8);
        let level = coarsen_once(&g, 1).expect("progress");
        assert!(level.graph.n() < 8);
        assert!(level.graph.n() >= 4);
        // Total vertex weight is conserved.
        assert_eq!(level.graph.total_vertex_weight(), 8);
    }

    #[test]
    fn edgeless_graph_cannot_coarsen() {
        let g = WeightedGraph::new(4);
        assert!(coarsen_once(&g, 0).is_none());
    }

    #[test]
    fn map_is_consistent_with_coarse_graph() {
        let g = path(10);
        let level = coarsen_once(&g, 7).expect("progress");
        for u in 0..10 {
            assert!(level.map[u] < level.graph.n());
        }
        // Every coarse vertex weight equals the number of fine vertices
        // mapped to it (unit weights).
        let mut counts = vec![0u64; level.graph.n()];
        for &c in &level.map {
            counts[c] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            assert_eq!(level.graph.vertex_weight(c), count);
        }
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = path(64);
        let levels = coarsen_to(&g, 8, 42);
        assert!(!levels.is_empty());
        assert!(levels.last().expect("levels").graph.n() <= 16);
        // Weight conserved through the whole stack.
        assert_eq!(
            levels.last().expect("levels").graph.total_vertex_weight(),
            64
        );
    }

    #[test]
    fn heavy_edges_matched_first() {
        // Star with one heavy spoke: the heavy edge must be contracted.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 100);
        g.add_edge(0, 2, 1);
        g.add_edge(0, 3, 1);
        let level = coarsen_once(&g, 7).expect("progress");
        assert_eq!(level.map[0], level.map[1], "heavy edge not contracted");
    }
}
