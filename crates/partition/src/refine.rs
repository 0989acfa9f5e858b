//! Boundary refinement: gain-bucket moves plus Kernighan–Lin pair swaps.
//!
//! Two phases alternate until neither improves the cut:
//!
//! * **Move phase** — Fiduccia–Mattheyses-style single-vertex moves,
//!   driven best-first from integer `crate::gain::GainBuckets`
//!   over the boundary. Only strictly-positive-gain moves that keep the
//!   [`SizeBounds`] invariant are applied, so each phase monotonically
//!   improves the cut and termination is guaranteed. Moves blocked by the
//!   bounds are parked and retried after every applied move (weights
//!   shift, so a blocked move can become legal). When no part can give
//!   up even its lightest vertex, the phase returns before it builds its
//!   buckets: nothing could ever be applied.
//! * **Swap phase** — pairwise exchanges of equal-weight boundary
//!   vertices between adjacent parts. Swaps keep part weights unchanged,
//!   so they work even under exactly tight bounds where single moves are
//!   impossible. Instead of probing every boundary pair (the old
//!   quadratic pass, hard-capped at 512 vertices), candidates are ranked
//!   per adjacent part pair by their KL `D` values (external minus
//!   internal connectivity) and only the top few per weight class are
//!   combined — no size cap. `D` values come from a per-vertex table of
//!   links to each adjacent part, kept current across swaps, so a part
//!   pair costs O(candidates · parts touched) instead of a rescan of
//!   every candidate's neighbours; a pair whose two largest `D` values
//!   sum to at most 0 cannot gain and is skipped before ranking.
//!   `refine_matches_the_rescanning_oracle` in this module and
//!   `multilevel_matches_the_oracle_driver` hold the phases to the
//!   pre-table code (`crate::reference::refine`) move for move.
//!
//! Both phases read the graph's own sorted rows: ties break in ascending
//! neighbour order, and the swap gain's `w(u, v)` is
//! [`WeightedGraph::edge_weight`]'s binary search.

use hcft_graph::WeightedGraph;

use crate::gain::GainBuckets;
use crate::SizeBounds;

/// Candidates per weight class and side combined exactly in the swap
/// phase. Non-adjacent pairs compose from the per-side maxima, so a
/// handful covers everything but adversarial all-adjacent tops.
const SWAP_TOP_CANDIDATES: usize = 4;

/// Best single move for `u`: the adjacent part with the largest
/// connectivity (first-seen in neighbour order on ties — the historical
/// tie-break) and the cut gain of moving there. `None` when `u` has no
/// neighbour outside its own part. `scratch` avoids a per-call
/// allocation; any contents are cleared.
fn best_move(
    g: &WeightedGraph,
    part_of: &[usize],
    u: usize,
    scratch: &mut Vec<(usize, u64)>,
) -> Option<(usize, i128)> {
    let home = part_of[u];
    let mut link_home = 0u64;
    scratch.clear();
    for &(v, w) in g.neighbors(u) {
        let p = part_of[v as usize];
        if p == home {
            link_home += w;
        } else {
            match scratch.iter_mut().find(|(q, _)| *q == p) {
                Some((_, lw)) => *lw += w,
                None => scratch.push((p, w)),
            }
        }
    }
    let mut best: Option<(usize, u64)> = None;
    for &(p, lw) in scratch.iter() {
        if best.is_none_or(|(_, bw)| lw > bw) {
            best = Some((p, lw));
        }
    }
    let (target, link_target) = best?;
    Some((target, link_target as i128 - link_home as i128))
}

/// Whether some part can give up its lightest vertex without falling
/// below `min_weight`. When none can, no single move is legal now, and
/// since weights change only by moves, none ever becomes legal in this
/// phase: the tight `k · min = total` bounds of the hierarchical runs.
fn any_part_can_give(g: &WeightedGraph, part_of: &[usize], part_weight: &[u64], min: u64) -> bool {
    let mut lightest = vec![u64::MAX; part_weight.len()];
    for (u, &p) in part_of.iter().enumerate() {
        lightest[p] = lightest[p].min(g.vertex_weight(u));
    }
    part_weight
        .iter()
        .zip(&lightest)
        .any(|(&w, &l)| w >= min.saturating_add(l))
}

/// One gain-bucket move phase. Returns the total gain achieved
/// (reduction of the cut weight).
pub(crate) fn fm_move_phase(
    g: &WeightedGraph,
    part_of: &mut [usize],
    part_weight: &mut [u64],
    bounds: SizeBounds,
) -> u64 {
    if !any_part_can_give(g, part_of, part_weight, bounds.min_weight) {
        return 0;
    }
    let n = g.n();
    let mut buckets = GainBuckets::new(n);
    let mut scratch: Vec<(usize, u64)> = Vec::new();
    for u in 0..n {
        if let Some((_, gain)) = best_move(g, part_of, u, &mut scratch) {
            if gain > 0 {
                buckets.insert(u, gain);
            }
        }
    }
    // Blocked vertices, and the batch being retried after a move (the two
    // buffers trade places instead of reallocating).
    let mut parked: Vec<u32> = Vec::new();
    let mut retry: Vec<u32> = Vec::new();
    let mut total_gain = 0u64;
    let mut applied = 0u64;
    while let Some((u, cached)) = buckets.pop_best() {
        let Some((target, gain)) = best_move(g, part_of, u, &mut scratch) else {
            continue;
        };
        if gain <= 0 {
            continue;
        }
        if gain != cached {
            // Stale entry: requeue at the accurate gain and re-rank.
            buckets.insert(u, gain);
            continue;
        }
        let wu = g.vertex_weight(u);
        let home = part_of[u];
        // Respect both bounds: the source must not fall below min, the
        // target must not exceed max.
        if part_weight[home] < bounds.min_weight + wu
            || part_weight[target] + wu > bounds.max_weight
        {
            parked.push(u as u32);
            continue;
        }
        part_of[u] = target;
        part_weight[home] -= wu;
        part_weight[target] += wu;
        total_gain += gain as u64;
        applied += 1;
        // Gains changed only for u and its neighbours; requeue them.
        buckets.remove(u);
        match best_move(g, part_of, u, &mut scratch) {
            Some((_, gain)) if gain > 0 => buckets.insert(u, gain),
            _ => {}
        }
        for &(v, _) in g.neighbors(u) {
            let v = v as usize;
            match best_move(g, part_of, v, &mut scratch) {
                Some((_, gain)) if gain > 0 => buckets.insert(v, gain),
                _ => buckets.remove(v),
            }
        }
        // The move shifted two part weights; parked vertices may fit now.
        std::mem::swap(&mut parked, &mut retry);
        for v in retry.drain(..) {
            let v = v as usize;
            if let Some((_, gain)) = best_move(g, part_of, v, &mut scratch) {
                if gain > 0 {
                    buckets.insert(v, gain);
                }
            }
        }
    }
    let [bucket_moves, moves] = counters!("partition.fm.bucket_moves", "partition.fm.moves");
    bucket_moves.add(buckets.moves());
    moves.add(applied);
    total_gain
}

/// `link(u, p)`, the weight of `u`'s edges into part `p`, for every part
/// `u` touches. Each vertex keeps its non-zero links unordered in a
/// range as long as its adjacency row: edge weights are positive, so a
/// vertex touches at most `deg(u)` parts. (A dense `n × k` table would be
/// 32 MB for a 128 × 128 torus in 256 parts.)
struct PartLinks {
    /// Row start per vertex, then the end of the last row.
    off: Vec<usize>,
    /// Links in use per row.
    len: Vec<u32>,
    /// `(part, link weight)` entries.
    links: Vec<(u32, u64)>,
}

impl PartLinks {
    fn new(g: &WeightedGraph, part_of: &[usize]) -> Self {
        let n = g.n();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        for u in 0..n {
            off.push(off[u] + g.neighbors(u).len());
        }
        let mut table = PartLinks {
            links: vec![(0, 0); off[n]],
            len: vec![0; n],
            off,
        };
        for u in 0..n {
            for &(v, w) in g.neighbors(u) {
                table.add(u, part_of[v as usize], w);
            }
        }
        table
    }

    /// The non-zero links of `u`.
    fn row(&self, u: usize) -> &[(u32, u64)] {
        &self.links[self.off[u]..self.off[u] + self.len[u] as usize]
    }

    /// KL `D` of `u` in part `own` against part `other`:
    /// `link(u, other) − link(u, own)`.
    fn d_value(&self, u: usize, own: usize, other: usize) -> i128 {
        let (mut to_own, mut to_other) = (0u64, 0u64);
        for &(p, w) in self.row(u) {
            if p as usize == own {
                to_own = w;
            } else if p as usize == other {
                to_other = w;
            }
        }
        to_other as i128 - to_own as i128
    }

    fn add(&mut self, u: usize, p: usize, w: u64) {
        let (start, len) = (self.off[u], self.len[u] as usize);
        match self.links[start..start + len]
            .iter_mut()
            .find(|(q, _)| *q as usize == p)
        {
            Some((_, lw)) => *lw += w,
            None => {
                // A new part is one of `u`'s neighbours' parts, and every
                // linked part holds one, so the row has room.
                debug_assert!(start + len < self.off[u + 1], "row of {u} is full");
                self.links[start + len] = (p as u32, w);
                self.len[u] += 1;
            }
        }
    }

    fn sub(&mut self, u: usize, p: usize, w: u64) {
        let (start, len) = (self.off[u], self.len[u] as usize);
        let row = &mut self.links[start..start + len];
        let i = row
            .iter()
            .position(|&(q, _)| q as usize == p)
            .expect("a neighbour's part is linked");
        row[i].1 -= w;
        if row[i].1 == 0 {
            row.swap(i, len - 1);
            self.len[u] -= 1;
        }
    }

    /// `v` moved from part `from` to part `to`: shift its edge weights
    /// between the links of each neighbour.
    fn move_vertex(&mut self, g: &WeightedGraph, v: usize, from: usize, to: usize) {
        for &(x, w) in g.neighbors(v) {
            self.sub(x as usize, from, w);
            self.add(x as usize, to, w);
        }
    }
}

/// Swap candidates of part `own` against part `other`: the vertices of
/// `list` still in `own` (an earlier swap this sweep may have moved one
/// away), as `(weight class, D, vertex)` in `list` order. Returns the
/// largest `D`, `None` when there is no candidate.
fn swap_side(
    g: &WeightedGraph,
    part_of: &[usize],
    links: &PartLinks,
    list: &[u32],
    own: usize,
    other: usize,
    out: &mut Vec<(u64, i128, u32)>,
) -> Option<i128> {
    out.clear();
    let mut top = None;
    for &u in list {
        let ui = u as usize;
        if part_of[ui] == own {
            let d = links.d_value(ui, own, other);
            top = top.max(Some(d));
            out.push((g.vertex_weight(ui), d, u));
        }
    }
    top
}

/// Rank one side's candidates: swaps must preserve part weights, so
/// candidates pair within a weight class. Sorts by class ascending, then
/// `D` descending, then vertex id, and keeps the top candidates per
/// class.
fn rank_side(side: &mut Vec<(u64, i128, u32)>) {
    side.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    let mut kept = 0;
    let mut rank = 0;
    for i in 0..side.len() {
        rank = if i > 0 && side[i].0 == side[i - 1].0 {
            rank + 1
        } else {
            0
        };
        if rank < SWAP_TOP_CANDIDATES {
            side[kept] = side[i];
            kept += 1;
        }
    }
    side.truncate(kept);
}

/// Best positive swap between two sides of a part pair, or `None`. The
/// exact gain `D_u + D_v − 2·w(u, v)` is evaluated for every
/// top-candidate combination of matching weight class; the first maximum
/// in class / rank order wins ties (deterministic).
fn best_swap(
    g: &WeightedGraph,
    side_p: &[(u64, i128, u32)],
    side_q: &[(u64, i128, u32)],
) -> Option<(usize, usize, u64)> {
    let mut best: Option<(i128, usize, usize)> = None;
    let mut lo = 0;
    for class in side_p.chunk_by(|a, b| a.0 == b.0) {
        let w = class[0].0;
        while lo < side_q.len() && side_q[lo].0 < w {
            lo += 1;
        }
        let hi = lo + side_q[lo..].iter().take_while(|c| c.0 == w).count();
        for &(_, du, u) in class {
            for &(_, dv, v) in &side_q[lo..hi] {
                let gain = du + dv - 2 * g.edge_weight(u as usize, v as usize) as i128;
                if gain > 0 && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, u as usize, v as usize));
                }
            }
        }
    }
    best.map(|(g, u, v)| (u, v, g as u64))
}

/// One swap phase: sweep every adjacent part pair, applying the best
/// positive equal-weight swap per pair, until a full sweep applies
/// nothing. Part weights are unchanged by construction. Returns the
/// total gain.
///
/// The boundary and the pairs are taken at the start of a sweep; `D`
/// values are read from a [`PartLinks`] table that each applied swap
/// updates for the neighbours of the two vertices, so no pair rescans a
/// neighbourhood.
pub(crate) fn kl_swap_phase(g: &WeightedGraph, part_of: &mut [usize], k: usize) -> u64 {
    let mut links = PartLinks::new(g, part_of);
    let mut boundary_of: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    // `listed[q] == p`: the pair (p, q) is already in `pairs`.
    let mut listed = vec![usize::MAX; k];
    let (mut side_p, mut side_q) = (Vec::new(), Vec::new());
    let mut total_gain = 0u64;
    let mut swaps = 0u64;
    loop {
        // Boundary vertices per part, ascending, and the adjacent part
        // pairs (p < q) ascending, from the current assignment.
        for list in &mut boundary_of {
            list.clear();
        }
        for (u, &pu) in part_of.iter().enumerate() {
            if links.row(u).iter().any(|&(p, _)| p as usize != pu) {
                boundary_of[pu].push(u as u32);
            }
        }
        pairs.clear();
        listed.fill(usize::MAX);
        for (p, list) in boundary_of.iter().enumerate() {
            let first = pairs.len();
            for &u in list {
                for &(q, _) in links.row(u as usize) {
                    let q = q as usize;
                    if q > p && listed[q] != p {
                        listed[q] = p;
                        pairs.push((p, q));
                    }
                }
            }
            pairs[first..].sort_unstable();
        }
        let mut applied = false;
        for &(p, q) in &pairs {
            let Some(top_p) = swap_side(g, part_of, &links, &boundary_of[p], p, q, &mut side_p)
            else {
                continue;
            };
            let Some(top_q) = swap_side(g, part_of, &links, &boundary_of[q], q, p, &mut side_q)
            else {
                continue;
            };
            // A swap gains `D_u + D_v − 2·w(u, v) ≤ D_u + D_v`: no swap of
            // this pair can gain unless the two largest `D` values can.
            if top_p + top_q <= 0 {
                continue;
            }
            rank_side(&mut side_p);
            rank_side(&mut side_q);
            if let Some((u, v, gain)) = best_swap(g, &side_p, &side_q) {
                part_of[u] = q;
                part_of[v] = p;
                links.move_vertex(g, u, p, q);
                links.move_vertex(g, v, q, p);
                total_gain += gain;
                swaps += 1;
                applied = true;
            }
        }
        if !applied {
            break;
        }
    }
    let [swap_count] = counters!("partition.fm.swaps");
    swap_count.add(swaps);
    total_gain
}

/// Run refinement rounds (move phase then swap phase) until a round
/// yields no gain, at most `max_passes` rounds.
pub fn refine(
    g: &WeightedGraph,
    part_of: &mut [usize],
    part_weight: &mut [u64],
    bounds: SizeBounds,
    max_passes: usize,
) {
    let k = part_weight.len();
    for _ in 0..max_passes {
        let mut gain = fm_move_phase(g, part_of, part_weight, bounds);
        gain += kl_swap_phase(g, part_of, k);
        if gain == 0 {
            break;
        }
    }
}

fn part_weights_for(g: &WeightedGraph, part: &[usize], k: usize) -> Vec<u64> {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p] += g.vertex_weight(u);
    }
    w
}

/// Move (or swap) vertices between parts until all weight bounds hold. Every
/// applied change strictly reduces the total bound violation ("excess"),
/// which guarantees termination — naive over→under shuttling can
/// oscillate forever once coarsening produces mixed vertex weights under
/// exactly tight bounds. Gives up (leaving the best assignment found)
/// when no excess-reducing change exists.
///
/// A change only touches two part weights, so its effect on the total
/// excess is computed in O(1) from those two terms, and a move can
/// reduce the excess only by shrinking an over-max source or filling an
/// under-min destination — candidate enumeration skips every other
/// `(vertex, destination)` pair. Both shortcuts are exact (the skipped
/// pairs provably cannot reduce the excess, and iteration order is
/// unchanged), so the selected repair sequence is identical to the
/// original recompute-everything scan — just not quadratic per
/// candidate.
pub(crate) fn repair_bounds(g: &WeightedGraph, part: &mut [usize], k: usize, b: SizeBounds) {
    // Excess contribution of one part weight.
    let ex = |w: u64| -> u64 { w.saturating_sub(b.max_weight) + b.min_weight.saturating_sub(w) };
    let affinity = |u: usize, p: usize, part: &[usize]| -> i128 {
        g.neighbors(u)
            .iter()
            .filter(|&&(v, _)| part[v as usize] == p)
            .map(|&(_, w)| w as i128)
            .sum()
    };
    let mut weights = part_weights_for(g, part, k);
    let mut e: u64 = weights.iter().map(|&w| ex(w)).sum();
    while e > 0 {
        // Best single move: largest excess reduction, cut affinity as
        // the tie-break.
        let mut best_move: Option<(usize, usize, u64, i128)> = None;
        for u in 0..g.n() {
            let src = part[u];
            let w = g.vertex_weight(u);
            // Losing weight only reduces ex(src) when src is over-max;
            // gaining only reduces ex(dst) when dst is under-min. If
            // neither channel exists the move cannot reduce the excess.
            let src_over = weights[src] > b.max_weight;
            for dst in 0..k {
                if dst == src || (!src_over && weights[dst] >= b.min_weight) {
                    continue;
                }
                let ne = e - ex(weights[src]) - ex(weights[dst])
                    + ex(weights[src] - w)
                    + ex(weights[dst] + w);
                if ne >= e {
                    continue;
                }
                let aff = affinity(u, dst, part) - affinity(u, src, part);
                if best_move.is_none_or(|(_, _, be, ba)| ne < be || (ne == be && aff > ba)) {
                    best_move = Some((u, dst, ne, aff));
                }
            }
        }
        if let Some((u, dst, ne, _)) = best_move {
            let src = part[u];
            let w = g.vertex_weight(u);
            part[u] = dst;
            weights[src] -= w;
            weights[dst] += w;
            e = ne;
            continue;
        }
        // No single move helps (e.g. only weight-2 vertices with an odd
        // imbalance): try a pairwise swap that reduces the excess.
        let mut best_swap: Option<(usize, usize, u64)> = None;
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                let (pu, pv) = (part[u], part[v]);
                if pu == pv {
                    continue;
                }
                let (wu, wv) = (g.vertex_weight(u), g.vertex_weight(v));
                if wu == wv {
                    continue; // no weight change
                }
                let ne = e - ex(weights[pu]) - ex(weights[pv])
                    + ex(weights[pu] - wu + wv)
                    + ex(weights[pv] - wv + wu);
                if ne < e && best_swap.is_none_or(|(_, _, be)| ne < be) {
                    best_swap = Some((u, v, ne));
                }
            }
        }
        match best_swap {
            Some((u, v, ne)) => {
                let (pu, pv) = (part[u], part[v]);
                let (wu, wv) = (g.vertex_weight(u), g.vertex_weight(v));
                weights[pu] = weights[pu] - wu + wv;
                weights[pv] = weights[pv] - wv + wu;
                part.swap(u, v);
                e = ne;
            }
            None => return, // stuck: bounds unreachable from here
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::refine as oracle;
    use proptest::prelude::*;

    /// Two dense squares joined by one edge, with a deliberately bad
    /// initial split.
    fn squares() -> WeightedGraph {
        let mut g = WeightedGraph::new(8);
        for base in [0, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_edge(base + i, base + j, 10);
                }
            }
        }
        g.add_edge(3, 4, 1);
        g
    }

    #[test]
    fn refinement_fixes_a_swapped_pair() {
        let g = squares();
        // Swap vertices 0 and 4 relative to the natural split.
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        let before = g.cut_weight(&part);
        // Loose bounds let the move phase fix it with two single moves.
        refine(&g, &mut part, &mut pw, SizeBounds::new(3, 5), 8);
        let after = g.cut_weight(&part);
        assert!(after < before, "cut {before} -> {after}");
        assert_eq!(after, 1, "optimal split has cut 1");
        assert_eq!(pw, vec![4, 4]);
    }

    #[test]
    fn swap_phase_fixes_a_swapped_pair_under_tight_bounds() {
        let g = squares();
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        // Exactly tight bounds: single moves are impossible, only the
        // swap phase can untangle the pair.
        refine(&g, &mut part, &mut pw, SizeBounds::new(4, 4), 8);
        assert_eq!(g.cut_weight(&part), 1, "optimal split has cut 1");
        assert_eq!(pw, vec![4, 4]);
    }

    #[test]
    fn bounds_block_degenerate_moves() {
        let g = squares();
        let mut part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        // Already optimal; tight bounds must keep it intact.
        refine(&g, &mut part, &mut pw, SizeBounds::new(4, 4), 4);
        assert_eq!(part, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn no_part_can_give_under_tight_bounds() {
        // Every part sits exactly at the minimum, so no move is legal even
        // though moving vertex 0 or 4 home would cut the cut weight.
        let g = squares();
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        assert!(!any_part_can_give(&g, &part, &pw, 4));
        assert!(any_part_can_give(&g, &part, &pw, 3));
        let gain = fm_move_phase(&g, &mut part, &mut pw, SizeBounds::new(4, 5));
        assert_eq!(gain, 0);
        assert_eq!(part, vec![1, 0, 0, 0, 0, 1, 1, 1]);
        assert_eq!(pw, vec![4, 4]);
    }

    #[test]
    fn gain_is_reported() {
        let g = squares();
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        let gain = fm_move_phase(&g, &mut part, &mut pw, SizeBounds::new(3, 5));
        assert!(gain > 0);
    }

    /// A random graph with tie-prone edge weights (many equal `D` values
    /// and gains), vertex weights of 1 or mixed 1..=3 (as on a coarsened
    /// level), and a start assignment into `k` non-empty parts.
    fn arb_case() -> impl Strategy<Value = (WeightedGraph, Vec<usize>, usize)> {
        (2usize..40, 1usize..9, any::<bool>()).prop_flat_map(|(n, k, mixed)| {
            let k = k.min(n);
            let max_vw = if mixed { 4 } else { 2 };
            (
                proptest::collection::vec((0usize..n, 0usize..n, 1u64..5), 0..3 * n),
                proptest::collection::vec(1u64..max_vw, n),
                proptest::collection::vec(0usize..k, n),
            )
                .prop_map(move |(edges, vw, mut part)| {
                    let mut g = WeightedGraph::new(n);
                    for (u, v, w) in edges {
                        if u != v {
                            g.add_edge(u, v, w);
                        }
                    }
                    for (u, &w) in vw.iter().enumerate() {
                        g.set_vertex_weight(u, w);
                    }
                    for (p, slot) in part.iter_mut().enumerate().take(k) {
                        *slot = p;
                    }
                    (g, part, k)
                })
        })
    }

    /// Bounds for a start assignment: loose, the start's own weight
    /// spread, or exactly tight at its lightest part (no move fits, only
    /// swaps).
    fn bounds_for(weights: &[u64], mode: u8) -> SizeBounds {
        let (lo, hi) = (
            *weights.iter().min().expect("k >= 1"),
            *weights.iter().max().expect("k >= 1"),
        );
        match mode {
            0 => SizeBounds::new(1, weights.iter().sum()),
            1 => SizeBounds::new(lo, hi),
            _ => SizeBounds::new(lo, lo),
        }
    }

    proptest! {
        /// The link-table refinement makes exactly the moves and swaps of
        /// the pre-rewrite per-pair rescans: phase by phase, and over whole
        /// refinement rounds.
        #[test]
        fn refine_matches_the_rescanning_oracle(case in arb_case(), mode in 0u8..3, passes in 1usize..7) {
            let (g, start, k) = case;
            let weights = part_weights_for(&g, &start, k);
            let bounds = bounds_for(&weights, mode);

            let (mut part, mut pw) = (start.clone(), weights.clone());
            let (mut want, mut want_pw) = (start.clone(), weights.clone());
            prop_assert_eq!(
                fm_move_phase(&g, &mut part, &mut pw, bounds),
                oracle::fm_move_phase(&g, &mut want, &mut want_pw, bounds)
            );
            prop_assert_eq!(&part, &want);
            prop_assert_eq!(&pw, &want_pw);

            let (mut part, mut want) = (start.clone(), start.clone());
            prop_assert_eq!(
                kl_swap_phase(&g, &mut part, k),
                oracle::kl_swap_phase(&g, &mut want, k)
            );
            prop_assert_eq!(&part, &want);

            let (mut part, mut pw) = (start.clone(), weights.clone());
            let (mut want, mut want_pw) = (start, weights);
            refine(&g, &mut part, &mut pw, bounds, passes);
            oracle::refine(&g, &mut want, &mut want_pw, bounds, passes);
            prop_assert_eq!(part, want);
            prop_assert_eq!(pw, want_pw);
        }
    }

    #[test]
    fn swap_gain_is_reported() {
        let g = squares();
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let gain = kl_swap_phase(&g, &mut part, 2);
        assert!(gain > 0);
        assert_eq!(g.cut_weight(&part), 1);
    }
}
