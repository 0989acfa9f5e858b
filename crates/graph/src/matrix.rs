//! Sparse communication matrix.
//!
//! `get(s, d)` is the number of bytes sent from rank `s` to rank `d`
//! over the traced execution — exactly what the paper extracts from its
//! modified MPICH2. Each sender keeps one row of its non-zero
//! `(dst, bytes)` cells, sorted by destination. The §V trace is very
//! sparse: its 1 088 ranks have 14 782 non-zero cells (the stencil's
//! double diagonal, the power-of-two allgather diagonals and the encoder
//! rows) out of 1.18 M, so the rows hold ≈ 0.3 MB where a dense `n²`
//! array would hold 9 MiB. Everything downstream — the node
//! graph, the logging stats, the CSVs and the Fig. 5 heat maps — walks
//! [`CommMatrix::entries`], which yields the cells row-major with
//! ascending destinations, the order a dense scan would.

use std::cmp::Ordering;

use hcft_topology::{Placement, Rank};

/// A sparse bytes-communicated matrix over `n` ranks.
///
/// No stored cell is zero and every row is sorted by destination, so the
/// derived equality holds exactly when every cell is equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrix {
    rows: Vec<Vec<(u32, u64)>>,
}

impl CommMatrix {
    /// An all-zero matrix over `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "empty communication matrix");
        assert!(u32::try_from(n).is_ok(), "rank count exceeds u32");
        CommMatrix {
            rows: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Bytes sent `src → dst`.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        assert!(dst < self.n(), "destination {dst} out of range");
        let row = &self.rows[src];
        row.binary_search_by_key(&(dst as u32), |&(d, _)| d)
            .map_or(0, |i| row[i].1)
    }

    /// Add `bytes` to the `src → dst` cell. Appending in ascending
    /// destination order, as every trace walk does, is O(1).
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(dst < self.n(), "destination {dst} out of range");
        if bytes == 0 {
            return;
        }
        let row = &mut self.rows[src];
        let dst = dst as u32;
        if row.last().is_none_or(|&(d, _)| d < dst) {
            row.push((dst, bytes));
            return;
        }
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => row[i].1 += bytes,
            Err(i) => row.insert(i, (dst, bytes)),
        }
    }

    /// The non-zero `(dst, bytes)` cells of sender `src`, sorted by
    /// destination.
    #[inline]
    pub fn row(&self, src: usize) -> &[(u32, u64)] {
        &self.rows[src]
    }

    /// Install sender `src`'s whole row, replacing what it held: the
    /// way to build a row at its final length, where `add` grows it
    /// cell by cell. The row keeps the allocation it is given.
    ///
    /// # Panics
    /// Unless the destinations are strictly ascending and in range and
    /// every byte count is non-zero — the form every stored row has.
    pub fn set_row(&mut self, src: usize, row: Vec<(u32, u64)>) {
        assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "row {src}: destinations not strictly ascending"
        );
        assert!(
            row.last().is_none_or(|&(d, _)| (d as usize) < self.n()),
            "row {src}: destination out of range"
        );
        assert!(
            row.iter().all(|&(_, b)| b > 0),
            "row {src}: a zero-byte cell"
        );
        self.rows[src] = row;
    }

    /// Total bytes communicated (sum of all cells).
    pub fn total_bytes(&self) -> u64 {
        self.entries().map(|(_, _, b)| b).sum()
    }

    /// Number of non-zero (directed) edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Heap bytes held: the row headers plus every row's allocated
    /// cells. What a trace cache counts as resident.
    pub fn heap_bytes(&self) -> u64 {
        let header = std::mem::size_of::<Vec<(u32, u64)>>();
        let cell = std::mem::size_of::<(u32, u64)>();
        let cells: usize = self.rows.iter().map(|r| r.capacity() * cell).sum();
        (self.rows.capacity() * header + cells) as u64
    }

    /// Iterate over non-zero `(src, dst, bytes)` entries, row-major with
    /// ascending destinations.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().map(move |&(d, b)| (s, d as usize, b)))
    }

    /// Aggregate to a node-level matrix using a placement: cell `(u, v)` of
    /// the result is the sum of bytes from ranks on node `u` to ranks on
    /// node `v`. This is the "node-based communication graph" of §IV-B.
    pub fn aggregate_by_node(&self, placement: &Placement) -> CommMatrix {
        assert_eq!(placement.nprocs(), self.n(), "placement covers all ranks");
        let mut out = CommMatrix::new(placement.nodes());
        for (s, d, b) in self.entries() {
            let sn = placement.node_of(Rank::from(s)).idx();
            let dn = placement.node_of(Rank::from(d)).idx();
            out.add(sn, dn, b);
        }
        out
    }

    /// Project onto a subset of ranks, renumbered densely in the order
    /// given. Traffic to/from ranks outside the subset is dropped. Used to
    /// extract the application-only matrix from a full job trace.
    ///
    /// Each kept row is built once at its exact length: its kept cells
    /// counted, then filtered, renumbered and sorted (already sorted when
    /// the subset ascends, as `application_ranks` does).
    ///
    /// # Panics
    /// When the subset names a rank twice.
    pub fn project(&self, subset: &[Rank]) -> CommMatrix {
        const DROPPED: u32 = u32::MAX;
        let mut index = vec![DROPPED; self.n()];
        for (new, r) in subset.iter().enumerate() {
            assert_eq!(index[r.idx()], DROPPED, "subset repeats rank {}", r.idx());
            index[r.idx()] = new as u32;
        }
        let mut out = CommMatrix::new(subset.len());
        for (new, r) in subset.iter().enumerate() {
            let old = &self.rows[r.idx()];
            let kept = old.iter().filter(|&&(d, _)| index[d as usize] != DROPPED);
            let mut row = Vec::with_capacity(kept.clone().count());
            row.extend(kept.map(|&(d, b)| (index[d as usize], b)));
            row.sort_unstable_by_key(|&(d, _)| d);
            out.set_row(new, row);
        }
        out
    }

    /// The top-left `k × k` corner — the paper's Fig. 5b "zoom on the first
    /// 68 processes".
    pub fn zoom(&self, k: usize) -> CommMatrix {
        assert!(k <= self.n());
        let mut out = CommMatrix::new(k);
        for (dst, row) in out.rows.iter_mut().zip(&self.rows) {
            let end = row.partition_point(|&(d, _)| (d as usize) < k);
            dst.extend_from_slice(&row[..end]);
        }
        out
    }

    /// Bytes crossing between `set` and its complement (both directions) —
    /// the quantity message logging must capture for one cluster.
    pub fn cut_bytes(&self, set: &[Rank]) -> u64 {
        let mut inside = vec![false; self.n()];
        for r in set {
            inside[r.idx()] = true;
        }
        self.entries()
            .filter(|&(s, d, _)| inside[s] != inside[d])
            .map(|(_, _, b)| b)
            .sum()
    }

    /// ASCII heat map with log-scale density characters, coarsened to at
    /// most `max_cells` cells per side. Good enough to eyeball the Fig. 5
    /// diagonals in a terminal.
    pub fn render_ascii(&self, max_cells: usize) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let n = self.n();
        let cells = n.min(max_cells.max(1));
        let bucket = n.div_ceil(cells);
        let mut grid = vec![0u64; cells * cells];
        for (s, d, b) in self.entries() {
            grid[(s / bucket).min(cells - 1) * cells + (d / bucket).min(cells - 1)] += b;
        }
        let max = grid.iter().copied().max().unwrap_or(0).max(1);
        let lmax = (max as f64).ln().max(1.0);
        let mut out = String::with_capacity(cells * (cells + 1));
        for row in 0..cells {
            for col in 0..cells {
                let v = grid[row * cells + col];
                let c = if v == 0 {
                    b' '
                } else {
                    let t = (v as f64).ln().max(0.0) / lmax;
                    SHADES[((t * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1)]
                };
                out.push(c as char);
            }
            out.push('\n');
        }
        out
    }
}

/// The cell-wise sum of two destination-sorted rows, itself sorted.
pub(crate) fn merge_rows(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_topology::Placement;

    fn sample() -> CommMatrix {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 100);
        m.add(1, 0, 50);
        m.add(2, 3, 10);
        m.add(0, 3, 1);
        m
    }

    #[test]
    fn totals_and_edges() {
        let m = sample();
        assert_eq!(m.total_bytes(), 161);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.get(0, 1) + m.get(1, 0), 150);
    }

    #[test]
    fn aggregate_by_node_sums_rank_traffic() {
        let m = sample();
        let p = Placement::block(2, 2); // ranks 0,1 on node 0; 2,3 on node 1
        let nm = m.aggregate_by_node(&p);
        assert_eq!(nm.n(), 2);
        assert_eq!(nm.get(0, 0), 150); // 0<->1 intra-node
        assert_eq!(nm.get(1, 1), 10); // 2->3 intra-node
        assert_eq!(nm.get(0, 1), 1); // 0->3
    }

    #[test]
    fn project_renumbers_subset() {
        let m = sample();
        let sub = m.project(&[Rank(1), Rank(3)]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.total_bytes(), 0); // 1 and 3 never talk directly
        let sub2 = m.project(&[Rank(0), Rank(1)]);
        assert_eq!(sub2.get(0, 1), 100);
        assert_eq!(sub2.get(1, 0), 50);
    }

    #[test]
    fn set_row_refuses_rows_no_stored_row_could_be() {
        let bad: [Vec<(u32, u64)>; 4] = [
            vec![(2, 1), (1, 1)],
            vec![(1, 1), (1, 2)],
            vec![(0, 1), (4, 1)],
            vec![(0, 1), (3, 0)],
        ];
        for row in bad {
            let mut m = sample();
            let shown = format!("{row:?}");
            let set = std::panic::catch_unwind(move || m.set_row(0, row));
            assert!(set.is_err(), "installed {shown}");
        }
        let mut m = sample();
        m.set_row(0, Vec::new());
        m.set_row(3, vec![(0, 7), (3, 9)]);
        assert_eq!(m.row(0), []);
        assert_eq!(
            m.entries().collect::<Vec<_>>(),
            [(1, 0, 50), (2, 3, 10), (3, 0, 7), (3, 3, 9)]
        );
    }

    #[test]
    #[should_panic(expected = "subset repeats rank 1")]
    fn project_refuses_a_repeated_rank() {
        sample().project(&[Rank(1), Rank(0), Rank(1)]);
    }

    #[test]
    fn cut_bytes_counts_both_directions() {
        let m = sample();
        // set {0,1}: cut edges are 2->3? no (both outside), 0->3 yes.
        assert_eq!(m.cut_bytes(&[Rank(0), Rank(1)]), 1);
        // set {0}: 0->1 (100), 1->0 (50), 0->3 (1).
        assert_eq!(m.cut_bytes(&[Rank(0)]), 151);
    }

    #[test]
    fn zoom_takes_corner() {
        let m = sample();
        let z = m.zoom(2);
        assert_eq!(z.n(), 2);
        assert_eq!(z.get(0, 1), 100);
        assert_eq!(z.total_bytes(), 150);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let m = sample();
        let art = m.render_ascii(4);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.len() == 4));
        // Heaviest cell (0,1) must be the darkest shade.
        assert_eq!(art.lines().next().unwrap().as_bytes()[1], b'@');
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::WeightedGraph;
    use proptest::prelude::*;

    /// The dense `n²` layout the matrix used to have: the oracle every
    /// sparse operation is checked against.
    #[derive(Clone, Debug, PartialEq)]
    struct Dense {
        n: usize,
        cells: Vec<u64>,
    }

    impl Dense {
        fn new(n: usize) -> Self {
            Dense {
                n,
                cells: vec![0; n * n],
            }
        }

        fn add(&mut self, s: usize, d: usize, b: u64) {
            self.cells[s * self.n + d] += b;
        }

        fn get(&self, s: usize, d: usize) -> u64 {
            self.cells[s * self.n + d]
        }

        fn entries(&self) -> Vec<(usize, usize, u64)> {
            (0..self.n * self.n)
                .filter(|&i| self.cells[i] > 0)
                .map(|i| (i / self.n, i % self.n, self.cells[i]))
                .collect()
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.cells.iter_mut().zip(&other.cells) {
                *a += b;
            }
        }

        fn project(&self, subset: &[Rank]) -> Dense {
            let mut out = Dense::new(subset.len());
            for (ns, s) in subset.iter().enumerate() {
                for (nd, d) in subset.iter().enumerate() {
                    out.add(ns, nd, self.get(s.idx(), d.idx()));
                }
            }
            out
        }

        fn aggregate(&self, placement: &Placement) -> Dense {
            let mut out = Dense::new(placement.nodes());
            for (s, d, b) in self.entries() {
                let sn = placement.node_of(Rank::from(s)).idx();
                let dn = placement.node_of(Rank::from(d)).idx();
                out.add(sn, dn, b);
            }
            out
        }

        fn zoom(&self, k: usize) -> Dense {
            let mut out = Dense::new(k);
            for s in 0..k {
                for d in 0..k {
                    out.add(s, d, self.get(s, d));
                }
            }
            out
        }

        fn cut_bytes(&self, set: &[Rank]) -> u64 {
            let inside = |r: usize| set.iter().any(|x| x.idx() == r);
            self.entries()
                .into_iter()
                .filter(|&(s, d, _)| inside(s) != inside(d))
                .map(|(_, _, b)| b)
                .sum()
        }
    }

    /// The matrix holds exactly the oracle's cells, in the dense scan
    /// order, with no zero stored and every row sorted.
    fn assert_same(m: &CommMatrix, d: &Dense) -> Result<(), String> {
        prop_assert_eq!(m.n(), d.n);
        prop_assert_eq!(m.entries().collect::<Vec<_>>(), d.entries());
        for s in 0..d.n {
            for t in 0..d.n {
                prop_assert_eq!(m.get(s, t), d.get(s, t));
            }
            let row = m.row(s);
            prop_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(row.iter().all(|&(_, b)| b > 0));
        }
        prop_assert_eq!(m.total_bytes(), d.cells.iter().sum::<u64>());
        prop_assert_eq!(m.edge_count(), d.entries().len());
        Ok(())
    }

    type Ops = Vec<(usize, usize, u64)>;

    /// `n` and a list of `add`s in any order: zero byte counts, repeated
    /// cells and destinations below a row's last one all occur.
    fn arb_ops() -> impl Strategy<Value = (usize, Ops, Ops)> {
        fn op(n: usize) -> impl Strategy<Value = (usize, usize, u64)> {
            (0..n, 0..n, 0u64..1_000_000, 0u8..5)
                .prop_map(|(s, d, b, zero)| (s, d, if zero == 0 { 0 } else { b }))
        }
        (1usize..12).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(op(n), 0..60),
                proptest::collection::vec(op(n), 0..20),
            )
        })
    }

    fn build(n: usize, ops: &[(usize, usize, u64)]) -> (CommMatrix, Dense) {
        let mut m = CommMatrix::new(n);
        let mut d = Dense::new(n);
        for &(s, t, b) in ops {
            m.add(s, t, b);
            d.add(s, t, b);
        }
        (m, d)
    }

    /// `project` as it was: every kept cell `add`ed into an empty
    /// matrix, row-major.
    fn project_by_add(m: &CommMatrix, subset: &[Rank]) -> CommMatrix {
        let mut index = vec![usize::MAX; m.n()];
        for (new, r) in subset.iter().enumerate() {
            index[r.idx()] = new;
        }
        let mut out = CommMatrix::new(subset.len());
        for (s, d, b) in m.entries() {
            if index[s] != usize::MAX && index[d] != usize::MAX {
                out.add(index[s], index[d], b);
            }
        }
        out
    }

    /// The heap bytes of `m` when every row's capacity is its length.
    fn exact_heap_bytes(m: &CommMatrix) -> u64 {
        let header = std::mem::size_of::<Vec<(u32, u64)>>();
        let cell = std::mem::size_of::<(u32, u64)>();
        (m.n() * header + m.edge_count() * cell) as u64
    }

    fn arb_matrix() -> impl Strategy<Value = CommMatrix> {
        arb_ops().prop_map(|(n, ops, _)| build(n, &ops).0)
    }

    /// The `O(n²)` node-graph builder that scanned every dense pair.
    fn graph_oracle(m: &CommMatrix) -> (Vec<Vec<(u32, u64)>>, Vec<u64>) {
        let n = m.n();
        let mut adj = vec![Vec::new(); n];
        let mut selfw = vec![0; n];
        for u in 0..n {
            selfw[u] = m.get(u, u);
            for v in (u + 1)..n {
                let w = m.get(u, v) + m.get(v, u);
                if w > 0 {
                    adj[u].push((v as u32, w));
                    adj[v].push((u as u32, w));
                }
            }
        }
        (adj, selfw)
    }

    proptest! {
        #[test]
        fn add_get_and_entries_match_the_dense_oracle(case in arb_ops()) {
            let (n, ops, _) = case;
            let (m, d) = build(n, &ops);
            assert_same(&m, &d)?;
        }

        #[test]
        fn merge_rows_matches_the_dense_oracle(case in arb_ops()) {
            let (n, a, b) = case;
            let (mut ma, mut da) = build(n, &a);
            let (mb, db) = build(n, &b);
            for (row, theirs) in ma.rows.iter_mut().zip(&mb.rows) {
                *row = merge_rows(row, theirs);
            }
            da.merge(&db);
            assert_same(&ma, &da)?;
        }

        #[test]
        fn equality_is_cellwise(case in arb_ops()) {
            let (n, a, b) = case;
            let (ma, da) = build(n, &a);
            let (mb, db) = build(n, &b);
            prop_assert_eq!(ma == mb, da == db);
            // The same adds in reverse order, zero-byte adds dropped,
            // make an equal matrix.
            let reversed: Ops = a.iter().rev().filter(|op| op.2 > 0).copied().collect();
            prop_assert_eq!(&build(n, &reversed).0, &ma);
        }

        #[test]
        fn project_matches_the_dense_oracle(
            case in arb_ops(),
            picks in proptest::collection::vec(any::<usize>(), 1..12),
        ) {
            let (n, ops, _) = case;
            let (m, d) = build(n, &ops);
            // A subset in any order, without repeats.
            let mut subset: Vec<Rank> = Vec::new();
            for p in picks {
                let r = Rank::from(p % n);
                if !subset.contains(&r) {
                    subset.push(r);
                }
            }
            assert_same(&m.project(&subset), &d.project(&subset))?;
        }

        #[test]
        fn rows_installed_at_final_length_equal_the_added_ones(case in arb_ops()) {
            let (n, first, ops) = case;
            let want = build(n, &ops).0;
            // Install over a matrix that already holds other rows.
            let mut m = build(n, &first).0;
            for src in 0..n {
                let mut cells: Vec<(u32, u64)> = ops
                    .iter()
                    .filter(|op| op.0 == src)
                    .map(|&(_, d, b)| (d as u32, b))
                    .collect();
                cells.sort_unstable_by_key(|&(d, _)| d);
                let mut row = Vec::new();
                for run in cells.chunk_by(|a, b| a.0 == b.0) {
                    let bytes: u64 = run.iter().map(|&(_, b)| b).sum();
                    if bytes > 0 {
                        row.push((run[0].0, bytes));
                    }
                }
                row.shrink_to_fit();
                m.set_row(src, row);
            }
            prop_assert_eq!(&m, &want);
            prop_assert_eq!(m.heap_bytes(), exact_heap_bytes(&m));
        }

        #[test]
        fn project_equals_the_added_projection_at_exact_capacity(
            case in arb_ops(),
            picks in proptest::collection::vec(any::<usize>(), 0..12),
        ) {
            let (n, ops, _) = case;
            let m = build(n, &ops).0;
            let mut shuffled: Vec<Rank> = Vec::new();
            for p in picks {
                let r = Rank::from(p % n);
                if !shuffled.contains(&r) {
                    shuffled.push(r);
                }
            }
            let mut ascending = shuffled.clone();
            ascending.sort_unstable();
            for subset in [shuffled, ascending] {
                if subset.is_empty() {
                    continue;
                }
                let p = m.project(&subset);
                prop_assert_eq!(&p, &project_by_add(&m, &subset));
                prop_assert!(p.rows.iter().all(|r| r.capacity() == r.len()));
                prop_assert_eq!(p.heap_bytes(), exact_heap_bytes(&p));
            }
        }

        #[test]
        fn aggregate_zoom_and_cut_match_the_dense_oracle(
            case in arb_ops(),
            per_node in 1usize..4,
            k in any::<usize>(),
            set in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let (n, ops, _) = case;
            let (m, d) = build(n, &ops);
            let placement = hcft_topology::Placement::new(
                hcft_topology::PlacementStrategy::Block,
                n,
                n.div_ceil(per_node),
                per_node,
            );
            assert_same(&m.aggregate_by_node(&placement), &d.aggregate(&placement))?;
            let k = k % n + 1;
            assert_same(&m.zoom(k), &d.zoom(k))?;
            let set: Vec<Rank> = set.iter().map(|i| Rank::from(i % n)).collect();
            prop_assert_eq!(m.cut_bytes(&set), d.cut_bytes(&set));
        }

        #[test]
        fn node_graph_matches_the_dense_builder(m in arb_matrix()) {
            let g = WeightedGraph::from_comm_matrix(&m);
            let (adj, selfw) = graph_oracle(&m);
            prop_assert_eq!(g.n(), m.n());
            for u in 0..m.n() {
                prop_assert_eq!(g.neighbors(u), adj[u].as_slice());
                prop_assert_eq!(g.self_weight(u), selfw[u]);
            }
        }

        #[test]
        fn aggregate_preserves_total_bytes(m in arb_matrix(), per_node in 1usize..4) {
            let nodes = m.n().div_ceil(per_node);
            let placement = hcft_topology::Placement::new(
                hcft_topology::PlacementStrategy::Block,
                m.n(),
                nodes,
                per_node,
            );
            let nm = m.aggregate_by_node(&placement);
            prop_assert_eq!(nm.total_bytes(), m.total_bytes());
        }

        #[test]
        fn project_of_everything_is_identity(m in arb_matrix()) {
            let all: Vec<Rank> = (0..m.n()).map(Rank::from).collect();
            prop_assert_eq!(&m.project(&all), &m);
        }

        #[test]
        fn cut_of_complement_is_equal(m in arb_matrix()) {
            let half: Vec<Rank> = (0..m.n() / 2).map(Rank::from).collect();
            let other: Vec<Rank> = (m.n() / 2..m.n()).map(Rank::from).collect();
            prop_assert_eq!(m.cut_bytes(&half), m.cut_bytes(&other));
        }
    }
}
