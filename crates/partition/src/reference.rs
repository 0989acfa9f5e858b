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
//! scan and, in test builds, the boundary refinement as it was before its
//! link table (`reference::refine`, `#[cfg(test)]`).

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

/// The boundary refinement as it was before the swap phase kept a
/// vertex × part link table: every part pair recomputes its candidates'
/// `D` values from their neighbour lists and ranks them in `BTreeMap`s,
/// and the move phase keeps its gains in a `BTreeMap` of `BTreeSet`s.
/// The equivalence proptests in `refine.rs` and `multilevel.rs` require
/// the rewrite to pick exactly the same moves and swaps. Telemetry is
/// left out so the oracle does not count twice.
#[cfg(test)]
pub(crate) mod refine {
    use std::collections::{BTreeMap, BTreeSet};

    use hcft_graph::WeightedGraph;

    use crate::SizeBounds;

    const SWAP_TOP_CANDIDATES: usize = 4;

    /// Ordered gain → vertex buckets with O(log) insert/remove/pop.
    pub(crate) struct GainBuckets {
        buckets: BTreeMap<i128, BTreeSet<u32>>,
        /// Current gain per vertex (`None` = not enqueued).
        cur: Vec<Option<i128>>,
        /// Number of bucket insert/update/remove operations (telemetry).
        moves: u64,
    }

    impl GainBuckets {
        /// Empty structure for `n` vertices.
        pub(crate) fn new(n: usize) -> Self {
            GainBuckets {
                buckets: BTreeMap::new(),
                cur: vec![None; n],
                moves: 0,
            }
        }

        /// Insert `u` with `gain`, replacing any previous entry.
        pub(crate) fn insert(&mut self, u: usize, gain: i128) {
            self.remove(u);
            self.buckets.entry(gain).or_default().insert(u as u32);
            self.cur[u] = Some(gain);
            self.moves += 1;
        }

        /// Remove `u` if enqueued.
        pub(crate) fn remove(&mut self, u: usize) {
            if let Some(g) = self.cur[u].take() {
                let empty = {
                    let set = self.buckets.get_mut(&g).expect("bucket for cached gain");
                    set.remove(&(u as u32));
                    set.is_empty()
                };
                if empty {
                    self.buckets.remove(&g);
                }
                self.moves += 1;
            }
        }

        /// Pop the entry with the highest gain (lowest vertex id on ties).
        pub(crate) fn pop_best(&mut self) -> Option<(usize, i128)> {
            let (&gain, set) = self.buckets.iter_mut().next_back()?;
            let u = *set.iter().next().expect("non-empty bucket") as usize;
            set.remove(&(u as u32));
            if set.is_empty() {
                self.buckets.remove(&gain);
            }
            self.cur[u] = None;
            self.moves += 1;
            Some((u, gain))
        }

        /// Total bucket operations performed (for `partition.fm.bucket_moves`).
        pub(crate) fn moves(&self) -> u64 {
            self.moves
        }
    }

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

    /// One gain-bucket move phase. Returns the total gain achieved
    /// (reduction of the cut weight).
    pub(crate) fn fm_move_phase(
        g: &WeightedGraph,
        part_of: &mut [usize],
        part_weight: &mut [u64],
        bounds: SizeBounds,
    ) -> u64 {
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
        let mut parked: Vec<u32> = Vec::new();
        let mut total_gain = 0u64;
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
            for v in std::mem::take(&mut parked) {
                let v = v as usize;
                if let Some((_, gain)) = best_move(g, part_of, v, &mut scratch) {
                    if gain > 0 {
                        buckets.insert(v, gain);
                    }
                }
            }
        }
        total_gain
    }

    /// KL `D` values of one side of a part pair: for each boundary vertex of
    /// `own`, `D = link(·, other) − link(·, own)`, grouped by vertex weight
    /// (swaps must preserve part weights) and truncated to the top
    /// candidates per class, ranked by `D` descending then vertex id.
    fn swap_side(
        g: &WeightedGraph,
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
            let (mut to_own, mut to_other) = (0u64, 0u64);
            for &(v, w) in g.neighbors(u) {
                let p = part_of[v as usize];
                if p == own {
                    to_own += w;
                } else if p == other {
                    to_other += w;
                }
            }
            classes
                .entry(g.vertex_weight(u))
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
        g: &WeightedGraph,
        part_of: &[usize],
        p: usize,
        q: usize,
        boundary_of: &[Vec<u32>],
    ) -> Option<(usize, usize, u64)> {
        let side_p = swap_side(g, part_of, &boundary_of[p], p, q);
        if side_p.is_empty() {
            return None;
        }
        let side_q = swap_side(g, part_of, &boundary_of[q], q, p);
        let mut best: Option<(i128, usize, usize)> = None;
        for (w, cands_p) in &side_p {
            let Some(cands_q) = side_q.get(w) else {
                continue;
            };
            for &(du, u) in cands_p {
                for &(dv, v) in cands_q {
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
    pub(crate) fn kl_swap_phase(g: &WeightedGraph, part_of: &mut [usize], k: usize) -> u64 {
        let n = g.n();
        let mut total_gain = 0u64;
        loop {
            // Boundary vertices per part and the adjacent part pairs, from
            // the current assignment.
            let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut boundary_of: Vec<Vec<u32>> = vec![Vec::new(); k];
            for u in 0..n {
                let pu = part_of[u];
                let mut cross = false;
                for &(v, _) in g.neighbors(u) {
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
                if let Some((u, v, gain)) = best_swap(g, part_of, p, q, &boundary_of) {
                    part_of[u] = q;
                    part_of[v] = p;
                    total_gain += gain;
                    applied = true;
                }
            }
            if !applied {
                break;
            }
        }
        total_gain
    }

    /// The pre-rewrite `refine`: move phase then swap phase until a
    /// round gains nothing.
    pub(crate) fn refine(
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
}
