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
//!   shift, so a blocked move can become legal).
//! * **Swap phase** — pairwise exchanges of equal-weight boundary
//!   vertices between adjacent parts. Swaps keep part weights unchanged,
//!   so they work even under exactly tight bounds where single moves are
//!   impossible. Instead of probing every boundary pair (the old
//!   quadratic pass, hard-capped at 512 vertices), candidates are ranked
//!   per adjacent part pair by their KL `D` values (external minus
//!   internal connectivity) and only the top few per weight class are
//!   combined — O(boundary · deg) per sweep, no size cap.

use hcft_graph::{CsrGraph, WeightedGraph};

use std::collections::{BTreeMap, BTreeSet};

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
    csr: &CsrGraph,
    part_of: &[usize],
    u: usize,
    scratch: &mut Vec<(usize, u64)>,
) -> Option<(usize, i128)> {
    let home = part_of[u];
    let mut link_home = 0u64;
    scratch.clear();
    let (nbrs, wgts) = csr.neighbors(u);
    for (&v, &w) in nbrs.iter().zip(wgts) {
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

/// One gain-bucket move phase. Returns the total gain achieved
/// (reduction of the cut weight).
pub(crate) fn fm_move_phase(
    csr: &CsrGraph,
    part_of: &mut [usize],
    part_weight: &mut [u64],
    bounds: SizeBounds,
) -> u64 {
    let n = csr.n();
    let mut buckets = GainBuckets::new(n);
    let mut scratch: Vec<(usize, u64)> = Vec::new();
    for u in 0..n {
        if let Some((_, gain)) = best_move(csr, part_of, u, &mut scratch) {
            if gain > 0 {
                buckets.insert(u, gain);
            }
        }
    }
    let mut parked: Vec<u32> = Vec::new();
    let mut total_gain = 0u64;
    let mut applied = 0u64;
    while let Some((u, cached)) = buckets.pop_best() {
        let Some((target, gain)) = best_move(csr, part_of, u, &mut scratch) else {
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
        let wu = csr.vertex_weight(u);
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
        match best_move(csr, part_of, u, &mut scratch) {
            Some((_, g)) if g > 0 => buckets.insert(u, g),
            _ => {}
        }
        let (nbrs, _) = csr.neighbors(u);
        for &v in nbrs {
            let v = v as usize;
            match best_move(csr, part_of, v, &mut scratch) {
                Some((_, g)) if g > 0 => buckets.insert(v, g),
                _ => buckets.remove(v),
            }
        }
        // The move shifted two part weights; parked vertices may fit now.
        for v in std::mem::take(&mut parked) {
            let v = v as usize;
            if let Some((_, g)) = best_move(csr, part_of, v, &mut scratch) {
                if g > 0 {
                    buckets.insert(v, g);
                }
            }
        }
    }
    let reg = hcft_telemetry::Registry::global();
    reg.counter("partition.fm.bucket_moves")
        .add(buckets.moves());
    reg.counter("partition.fm.moves").add(applied);
    total_gain
}

/// KL `D` values of one side of a part pair: for each boundary vertex of
/// `own`, `D = link(·, other) − link(·, own)`, grouped by vertex weight
/// (swaps must preserve part weights) and truncated to the top
/// candidates per class, ranked by `D` descending then vertex id.
fn swap_side(
    csr: &CsrGraph,
    part_of: &[usize],
    list: &[u32],
    own: usize,
    other: usize,
) -> BTreeMap<u64, Vec<(i128, u32)>> {
    let mut classes: BTreeMap<u64, Vec<(i128, u32)>> = BTreeMap::new();
    for &u in list {
        let u = u as usize;
        if part_of[u] != own {
            continue; // moved away by an earlier swap this sweep
        }
        let (nbrs, wgts) = csr.neighbors(u);
        let (mut to_own, mut to_other) = (0u64, 0u64);
        for (&v, &w) in nbrs.iter().zip(wgts) {
            let p = part_of[v as usize];
            if p == own {
                to_own += w;
            } else if p == other {
                to_other += w;
            }
        }
        classes
            .entry(csr.vertex_weight(u))
            .or_default()
            .push((to_other as i128 - to_own as i128, u as u32));
    }
    for cands in classes.values_mut() {
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cands.truncate(SWAP_TOP_CANDIDATES);
    }
    classes
}

/// Best positive swap between parts `p` and `q`, or `None`. The exact
/// gain `D_u + D_v − 2·w(u, v)` is evaluated for every top-candidate
/// combination of matching weight class; the first maximum in class /
/// rank order wins ties (deterministic).
fn best_swap(
    csr: &CsrGraph,
    part_of: &[usize],
    p: usize,
    q: usize,
    boundary_of: &[Vec<u32>],
) -> Option<(usize, usize, u64)> {
    let side_p = swap_side(csr, part_of, &boundary_of[p], p, q);
    if side_p.is_empty() {
        return None;
    }
    let side_q = swap_side(csr, part_of, &boundary_of[q], q, p);
    let mut best: Option<(i128, usize, usize)> = None;
    for (w, cands_p) in &side_p {
        let Some(cands_q) = side_q.get(w) else {
            continue;
        };
        for &(du, u) in cands_p {
            for &(dv, v) in cands_q {
                let gain = du + dv - 2 * csr.edge_weight(u as usize, v as usize) as i128;
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
pub(crate) fn kl_swap_phase(csr: &CsrGraph, part_of: &mut [usize], k: usize) -> u64 {
    let n = csr.n();
    let mut total_gain = 0u64;
    let mut swaps = 0u64;
    loop {
        // Boundary vertices per part and the adjacent part pairs, from
        // the current assignment.
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut boundary_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        for u in 0..n {
            let pu = part_of[u];
            let (nbrs, _) = csr.neighbors(u);
            let mut cross = false;
            for &v in nbrs {
                let pv = part_of[v as usize];
                if pv != pu {
                    cross = true;
                    pairs.insert((pu.min(pv), pu.max(pv)));
                }
            }
            if cross {
                boundary_of[pu].push(u as u32);
            }
        }
        let mut applied = false;
        for &(p, q) in &pairs {
            if let Some((u, v, gain)) = best_swap(csr, part_of, p, q, &boundary_of) {
                part_of[u] = q;
                part_of[v] = p;
                total_gain += gain;
                swaps += 1;
                applied = true;
            }
        }
        if !applied {
            break;
        }
    }
    hcft_telemetry::Registry::global()
        .counter("partition.fm.swaps")
        .add(swaps);
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
    let csr = CsrGraph::from_graph(g);
    refine_csr(&csr, part_of, part_weight, bounds, max_passes);
}

/// [`refine`] over a pre-built CSR view (the multilevel driver reuses
/// the one coarsening produced).
pub(crate) fn refine_csr(
    csr: &CsrGraph,
    part_of: &mut [usize],
    part_weight: &mut [u64],
    bounds: SizeBounds,
    max_passes: usize,
) {
    let k = part_weight.len();
    for _ in 0..max_passes {
        let mut gain = fm_move_phase(csr, part_of, part_weight, bounds);
        gain += kl_swap_phase(csr, part_of, k);
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
    fn gain_is_reported() {
        let g = squares();
        let csr = CsrGraph::from_graph(&g);
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let mut pw = vec![4u64, 4];
        let gain = fm_move_phase(&csr, &mut part, &mut pw, SizeBounds::new(3, 5));
        assert!(gain > 0);
    }

    #[test]
    fn swap_gain_is_reported() {
        let g = squares();
        let csr = CsrGraph::from_graph(&g);
        let mut part = vec![1, 0, 0, 0, 0, 1, 1, 1];
        let gain = kl_swap_phase(&csr, &mut part, 2);
        assert!(gain > 0);
        assert_eq!(g.cut_weight(&part), 1);
    }
}
