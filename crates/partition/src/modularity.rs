//! Clauset–Newman–Moore greedy modularity agglomeration with size caps.
//!
//! Starts from singleton communities and repeatedly merges the pair with
//! the largest modularity gain ΔQ, skipping merges that would exceed the
//! weight cap. Once no positive-ΔQ merge remains, communities below the
//! minimum weight are folded into their most-connected neighbour (the
//! paper needs *every* L1 cluster to hold ≥ 4 nodes so that erasure
//! groups can be distributed inside it).
//!
//! Merge selection runs over a lazy-deletion max-heap of candidate pairs
//! (ΔQ descending, lowest community pair on ties): each merge bumps the
//! surviving community's stamp, invalidating every heap entry that
//! referenced its old adjacency, and pushes fresh candidates for the
//! merged row only. Amortised cost is O(m log n) over the whole
//! agglomeration — the straight O(n² · merges) rescan this replaced is
//! retained as [`modularity_clusters_reference`] and the two engines
//! produce identical partitions (property-tested).
//!
//! Community adjacency is kept as sorted `(community, weight)` rows
//! seeded from the graph's own sorted rows and merged by merge-join.
//! Besides dropping per-edge hashing, the sorted rows make ΔQ
//! tie-breaking canonical (lowest community pair wins); the previous
//! `HashMap` rows iterated in randomized order, so ties could resolve
//! differently between runs of the same input.

use std::collections::{BTreeSet, BinaryHeap};

use hcft_graph::WeightedGraph;

use crate::SizeBounds;

/// Sorted community adjacency row: `(neighbour community, edge weight)`,
/// ascending by community id, no duplicates.
type LinkRow = Vec<(u32, f64)>;

/// Mutable agglomeration state shared by both merge-selection engines.
struct CnmState {
    n: usize,
    /// 2·(total edge weight), the ΔQ normaliser.
    two_w: f64,
    /// `comm[u]` = current community (representative id) of vertex u.
    comm: Vec<usize>,
    /// Total vertex weight per community.
    weight: Vec<u64>,
    /// Total weighted degree per community (for ΔQ).
    deg: Vec<f64>,
    /// Sorted `(d, weight)` rows between communities.
    links: Vec<LinkRow>,
    alive: Vec<bool>,
}

impl CnmState {
    fn new(g: &WeightedGraph) -> Self {
        let n = g.n();
        assert!(n > 0);
        let two_w: f64 = 2.0 * g.total_edge_weight() as f64;
        let links: Vec<LinkRow> = (0..n)
            .map(|u| g.neighbors(u).iter().map(|&(v, w)| (v, w as f64)).collect())
            .collect();
        CnmState {
            n,
            two_w,
            comm: (0..n).collect(),
            weight: (0..n).map(|u| g.vertex_weight(u)).collect(),
            deg: (0..n).map(|u| g.degree(u) as f64).collect(),
            links,
            alive: vec![true; n],
        }
    }

    fn delta_q(&self, e_cd: f64, deg_c: f64, deg_d: f64) -> f64 {
        if self.two_w == 0.0 {
            return 0.0;
        }
        e_cd / self.two_w - (deg_c * deg_d) / (self.two_w * self.two_w / 2.0)
    }

    /// Absorb `d` into `c` (requires `c < d` for canonical representatives
    /// during agglomeration; the fold phase also honours this).
    fn merge(&mut self, c: usize, d: usize) {
        for x in self.comm.iter_mut() {
            if *x == d {
                *x = c;
            }
        }
        self.weight[c] += self.weight[d];
        self.deg[c] += self.deg[d];
        self.alive[d] = false;
        // Drop every back-reference to d, then fold d's row into c's via a
        // merge-join of the two sorted rows (the internal c↔d edge and any
        // self entry vanish in the join).
        let d_links = std::mem::take(&mut self.links[d]);
        for &(e, _) in &d_links {
            remove_link(&mut self.links[e as usize], d as u32);
        }
        remove_link(&mut self.links[c], d as u32);
        let c_links = std::mem::take(&mut self.links[c]);
        let merged = merge_rows(&c_links, &d_links, c as u32, d as u32);
        // Restore symmetry: every neighbour's view of c matches c's view.
        for &(e, w) in &merged {
            set_link(&mut self.links[e as usize], c as u32, w);
        }
        self.links[c] = merged;
    }
}

/// Agglomerate `g` into communities within `bounds` (by vertex weight),
/// selecting merges through the lazy-deletion candidate heap. Returns
/// the part assignment.
pub fn modularity_clusters(g: &WeightedGraph, bounds: SizeBounds) -> Vec<usize> {
    let mut st = CnmState::new(g);
    agglomerate_heap(&mut st, bounds);
    fold_undersized(&mut st, bounds);
    finish(g, &st, bounds)
}

/// The retained quadratic reference: rescans every candidate pair per
/// merge, exactly as the original O(n² · merges) implementation did.
/// Produces partitions identical to [`modularity_clusters`]; kept for
/// the equivalence proptests.
pub fn modularity_clusters_reference(g: &WeightedGraph, bounds: SizeBounds) -> Vec<usize> {
    let mut st = CnmState::new(g);
    agglomerate_scan(&mut st, bounds);
    fold_undersized(&mut st, bounds);
    finish(g, &st, bounds)
}

/// A candidate merge in the lazy-deletion heap. Ordered by ΔQ descending
/// with the *lowest* `(c, d)` pair winning ties — the same selection the
/// reference scan makes by visiting pairs in ascending order and keeping
/// strictly-better candidates only.
struct Cand {
    dq: f64,
    c: u32,
    d: u32,
    stamp_c: u32,
    stamp_d: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // ΔQ values are finite by construction (ratios of finite sums).
        self.dq
            .partial_cmp(&other.dq)
            .expect("finite ΔQ")
            .then_with(|| (other.c, other.d).cmp(&(self.c, self.d)))
    }
}

/// Heap-based merge selection: O(m log n) amortised. Stamps invalidate
/// candidates lazily — a popped entry is applied only when both
/// endpoints are alive and their stamps still match, which also pins the
/// weights (and therefore the cap feasibility) checked at push time.
/// Pairs over the weight cap are never pushed: community weights only
/// grow, so an infeasible pair can never become feasible again.
fn agglomerate_heap(st: &mut CnmState, bounds: SizeBounds) {
    let n = st.n;
    let mut stamp = vec![0u32; n];
    let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
    let mut pushes = 0u64;
    let mut pops = 0u64;
    let mut stale = 0u64;
    for c in 0..n {
        for &(d, e_cd) in &st.links[c] {
            let d = d as usize;
            if d <= c || st.weight[c] + st.weight[d] > bounds.max_weight {
                continue;
            }
            let dq = st.delta_q(e_cd, st.deg[c], st.deg[d]);
            if dq > 0.0 {
                heap.push(Cand {
                    dq,
                    c: c as u32,
                    d: d as u32,
                    stamp_c: 0,
                    stamp_d: 0,
                });
                pushes += 1;
            }
        }
    }
    while let Some(cand) = heap.pop() {
        pops += 1;
        let (c, d) = (cand.c as usize, cand.d as usize);
        if !st.alive[c] || !st.alive[d] || stamp[c] != cand.stamp_c || stamp[d] != cand.stamp_d {
            stale += 1;
            continue;
        }
        st.merge(c, d);
        stamp[c] = stamp[c].wrapping_add(1);
        stamp[d] = stamp[d].wrapping_add(1);
        // Only pairs touching c changed; push fresh candidates for the
        // merged row. Everything else in the heap stays valid.
        for &(e, e_ce) in &st.links[c] {
            let e = e as usize;
            if st.weight[c] + st.weight[e] > bounds.max_weight {
                continue;
            }
            let dq = st.delta_q(e_ce, st.deg[c], st.deg[e]);
            if dq > 0.0 {
                let (a, b) = if c < e { (c, e) } else { (e, c) };
                heap.push(Cand {
                    dq,
                    c: a as u32,
                    d: b as u32,
                    stamp_c: stamp[a],
                    stamp_d: stamp[b],
                });
                pushes += 1;
            }
        }
    }
    let [heap_pushes, heap_pops, heap_stale_pops] = counters!(
        "partition.cnm.heap_pushes",
        "partition.cnm.heap_pops",
        "partition.cnm.heap_stale_pops"
    );
    heap_pushes.add(pushes);
    heap_pops.add(pops);
    heap_stale_pops.add(stale);
}

/// Reference merge selection: full rescan of every feasible pair per
/// merge (O(n² · merges) flavour — really O(L · merges) for L total link
/// entries). Ties resolve to the first pair encountered in ascending
/// `(c, d)` order, matching the heap's tie-break exactly.
fn agglomerate_scan(st: &mut CnmState, bounds: SizeBounds) {
    let n = st.n;
    loop {
        let mut best: Option<(f64, usize, usize)> = None;
        for c in 0..n {
            if !st.alive[c] {
                continue;
            }
            for &(d, e_cd) in &st.links[c] {
                let d = d as usize;
                if d <= c || !st.alive[d] {
                    continue;
                }
                if st.weight[c] + st.weight[d] > bounds.max_weight {
                    continue;
                }
                let dq = st.delta_q(e_cd, st.deg[c], st.deg[d]);
                if best.is_none_or(|(bq, _, _)| dq > bq) {
                    best = Some((dq, c, d));
                }
            }
        }
        match best {
            Some((dq, c, d)) if dq > 0.0 => st.merge(c, d),
            _ => break,
        }
    }
}

/// Enforce the minimum weight: fold undersized communities into their
/// most-connected merge-able neighbour (or, failing that, the smallest
/// community that fits). Candidates are drained lowest-id first through
/// an ordered set — identical order to the original restart-from-zero
/// scan (merging never shrinks a community, so the only community that
/// can need re-folding is the merge result itself), without the O(n)
/// rescan per fold.
fn fold_undersized(st: &mut CnmState, bounds: SizeBounds) {
    let n = st.n;
    let mut under: BTreeSet<usize> = (0..n)
        .filter(|&c| st.alive[c] && st.weight[c] < bounds.min_weight)
        .collect();
    while let Some(&c) = under.iter().next() {
        under.remove(&c);
        if !st.alive[c] || st.weight[c] >= bounds.min_weight {
            continue;
        }
        let neighbour = st.links[c]
            .iter()
            .filter(|&&(d, _)| {
                let d = d as usize;
                st.alive[d] && d != c && st.weight[c] + st.weight[d] <= bounds.max_weight
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))
            .map(|&(d, _)| d as usize);
        let target = neighbour.or_else(|| {
            (0..n)
                .filter(|&d| {
                    st.alive[d] && d != c && st.weight[c] + st.weight[d] <= bounds.max_weight
                })
                .min_by_key(|&d| st.weight[d])
        });
        match target {
            Some(d) => {
                let (a, b) = if c < d { (c, d) } else { (d, c) };
                st.merge(a, b);
                if st.weight[a] < bounds.min_weight {
                    under.insert(a);
                }
            }
            None => break, // nothing can absorb it without breaking the cap
        }
    }
}

/// Compact community ids to `0..k` and run the bound-repair passes.
fn finish(g: &WeightedGraph, st: &CnmState, bounds: SizeBounds) -> Vec<usize> {
    let n = st.n;
    let mut remap = vec![usize::MAX; n];
    let mut next = 0;
    let mut out = vec![0usize; n];
    for (u, slot) in out.iter_mut().enumerate() {
        let c = st.comm[u];
        if remap[c] == usize::MAX {
            remap[c] = next;
            next += 1;
        }
        *slot = remap[c];
    }
    // Agglomeration alone cannot always hit exact size bounds (folding a
    // 3-node community into a 4-node one would burst a tight cap); a
    // final excess-reducing repair pass moves/swaps individual vertices
    // until the bounds hold (or no improving change exists).
    crate::refine::repair_bounds(g, &mut out, next, bounds);
    // If undersized communities remain, the community *count* is wrong
    // (e.g. CNM left four 3-node parts where three 4-node parts fit):
    // dissolve the smallest undersized part, spreading its vertices by
    // affinity over parts with spare capacity, and repair again.
    let mut k = next;
    loop {
        let mut pw = vec![0u64; k];
        for (u, &p) in out.iter().enumerate() {
            pw[p] += g.vertex_weight(u);
        }
        let Some(victim) = (0..k)
            .filter(|&p| pw[p] < bounds.min_weight)
            .min_by_key(|&p| pw[p])
        else {
            break;
        };
        let members: Vec<usize> = (0..n).filter(|&u| out[u] == victim).collect();
        let mut placed_all = true;
        for u in members {
            let w = g.vertex_weight(u);
            let target = (0..k)
                .filter(|&p| p != victim && pw[p] + w <= bounds.max_weight)
                .max_by_key(|&p| {
                    let aff: u64 = g
                        .neighbors(u)
                        .iter()
                        .filter(|&&(v, _)| out[v as usize] == p)
                        .map(|&(_, ew)| ew)
                        .sum();
                    // Prefer undersized receivers, then affinity.
                    (u64::from(pw[p] < bounds.min_weight), aff)
                });
            match target {
                Some(p) => {
                    out[u] = p;
                    pw[p] += w;
                    pw[victim] -= w;
                }
                None => {
                    placed_all = false;
                    break;
                }
            }
        }
        if !placed_all {
            break; // bounds unreachable; leave the best effort
        }
        // Compact out the dissolved (now empty) part id.
        for x in out.iter_mut() {
            if *x > victim {
                *x -= 1;
            }
        }
        k -= 1;
        crate::refine::repair_bounds(g, &mut out, k, bounds);
    }
    out
}

/// Remove `key` from a sorted row, if present.
fn remove_link(row: &mut LinkRow, key: u32) {
    if let Ok(i) = row.binary_search_by_key(&key, |&(v, _)| v) {
        row.remove(i);
    }
}

/// Insert or overwrite `key` in a sorted row.
fn set_link(row: &mut LinkRow, key: u32, w: f64) {
    match row.binary_search_by_key(&key, |&(v, _)| v) {
        Ok(i) => row[i].1 = w,
        Err(i) => row.insert(i, (key, w)),
    }
}

/// Merge-join two sorted rows, summing weights on equal keys and
/// dropping `skip_a`/`skip_b` (the merging communities themselves).
fn merge_rows(a: &[(u32, f64)], b: &[(u32, f64)], skip_a: u32, skip_b: u32) -> LinkRow {
    let mut out = LinkRow::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (key, w) = match (a.get(i), b.get(j)) {
            (Some(&(ka, wa)), Some(&(kb, wb))) if ka == kb => {
                i += 1;
                j += 1;
                (ka, wa + wb)
            }
            (Some(&(ka, wa)), Some(&(kb, _))) if ka < kb => {
                i += 1;
                (ka, wa)
            }
            (Some(_), Some(&(kb, wb))) => {
                j += 1;
                (kb, wb)
            }
            (Some(&(ka, wa)), None) => {
                i += 1;
                (ka, wa)
            }
            (None, Some(&(kb, wb))) => {
                j += 1;
                (kb, wb)
            }
            (None, None) => unreachable!("loop condition"),
        };
        if key != skip_a && key != skip_b {
            out.push((key, w));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_chain(c: usize, s: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(c * s);
        for q in 0..c {
            for i in 0..s {
                for j in (i + 1)..s {
                    g.add_edge(q * s + i, q * s + j, 50);
                }
            }
            if q + 1 < c {
                g.add_edge(q * s + s - 1, (q + 1) * s, 1);
            }
        }
        g
    }

    #[test]
    fn recovers_planted_communities() {
        let g = clique_chain(4, 5);
        let part = modularity_clusters(&g, SizeBounds::new(1, 5));
        // Each clique must be one community.
        for q in 0..4 {
            let p0 = part[q * 5];
            for i in 1..5 {
                assert_eq!(part[q * 5 + i], p0, "clique {q} split");
            }
        }
        // And distinct cliques distinct communities (cap enforces it).
        assert_ne!(part[0], part[5]);
    }

    #[test]
    fn max_cap_prevents_oversized_merges() {
        let g = clique_chain(2, 4);
        let part = modularity_clusters(&g, SizeBounds::new(1, 4));
        let k = part.iter().copied().max().expect("nonempty") + 1;
        assert_eq!(k, 2);
    }

    #[test]
    fn min_bound_folds_small_communities() {
        // A path of 8: modularity alone may stop early; min weight 4
        // forces ≥4-vertex clusters.
        let mut g = WeightedGraph::new(8);
        for i in 0..7 {
            g.add_edge(i, i + 1, 10);
        }
        let part = modularity_clusters(&g, SizeBounds::new(4, 8));
        let mut sizes = std::collections::HashMap::new();
        for &p in &part {
            *sizes.entry(p).or_insert(0usize) += 1;
        }
        for (&p, &s) in &sizes {
            assert!(s >= 4, "community {p} has size {s} < 4");
        }
    }

    #[test]
    fn respects_vertex_weights() {
        let mut g = clique_chain(2, 3);
        for u in 0..6 {
            g.set_vertex_weight(u, 4);
        }
        // Weight cap 12 = 3 vertices.
        let part = modularity_clusters(&g, SizeBounds::new(4, 12));
        let k = part.iter().copied().max().expect("nonempty") + 1;
        assert_eq!(k, 2);
    }

    #[test]
    fn edgeless_graph_survives() {
        let g = WeightedGraph::new(4);
        // No edges → no merges possible beyond the min-fold fallback,
        // which also finds no links; everything stays singleton if min=1.
        let part = modularity_clusters(&g, SizeBounds::new(1, 4));
        assert_eq!(part, vec![0, 1, 2, 3]);
    }

    #[test]
    fn heap_and_reference_agree_on_planted_communities() {
        for (c, s) in [(4usize, 5usize), (2, 4), (6, 3)] {
            let g = clique_chain(c, s);
            let s = s as u64;
            for bounds in [SizeBounds::new(1, s), SizeBounds::new(2, 2 * s)] {
                assert_eq!(
                    modularity_clusters(&g, bounds),
                    modularity_clusters_reference(&g, bounds),
                    "engines diverged on clique_chain({c}, {s}) {bounds:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod repair_regression {
    use super::*;
    use crate::check_partition;

    /// Regression (found by the partition bench): on a 64-node ladder
    /// with exact bounds (4, 4), plain CNM + min-folding strands a
    /// 3-node community; the repair pass must fix it.
    #[test]
    fn ladder_with_exact_bounds_yields_valid_partition() {
        let mut g = WeightedGraph::new(64);
        for n in 0..63 {
            g.add_edge(n, n + 1, 10_000);
        }
        for n in 0..62 {
            g.add_edge(n, n + 2, 500);
        }
        let bounds = SizeBounds::new(4, 4);
        let part = modularity_clusters(&g, bounds);
        check_partition(&g, &part, Some(bounds)).expect("valid 16x4 partition");
    }
}
