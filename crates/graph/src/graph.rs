//! Undirected weighted graph — the input to the partitioner.
//!
//! Built from a [`CommMatrix`] by symmetrising traffic
//! (an edge's weight is the byte volume in both directions). Vertices also
//! carry weights (number of ranks on a node) so that partition balance
//! constraints speak in "nodes", matching the paper's "minimum 4 nodes per
//! L1 cluster".
//!
//! Every constructor keeps one row invariant: a vertex's row is sorted by
//! neighbour id, holds each neighbour once and never the vertex itself,
//! and an edge appears in both endpoint rows with the same weight. The
//! partitioner relies on it: iteration order is canonical (its
//! tie-breaks do not depend on how a graph was built) and
//! [`WeightedGraph::edge_weight`] is a binary search.

use crate::matrix::{merge_rows, CommMatrix};

/// Undirected weighted graph with vertex weights, one sorted adjacency
/// row per vertex.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    /// adj[u] = (v, weight) sorted by v, no duplicates, v != u.
    adj: Vec<Vec<(u32, u64)>>,
    /// Vertex weights (≥1).
    vwgt: Vec<u64>,
    /// Self-loop weight per vertex (intra-vertex traffic; kept for
    /// modularity computations but not used by the partitioner).
    selfw: Vec<u64>,
}

impl WeightedGraph {
    /// Empty graph over `n` vertices with unit vertex weights.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            vwgt: vec![1; n],
            selfw: vec![0; n],
        }
    }

    /// Heap bytes held: the adjacency row headers, every row's allocated
    /// cells and the two per-vertex weight vectors. What a scoring stage
    /// counts as resident.
    pub fn heap_bytes(&self) -> u64 {
        let header = std::mem::size_of::<Vec<(u32, u64)>>();
        let cell = std::mem::size_of::<(u32, u64)>();
        let cells: usize = self.adj.iter().map(|r| r.capacity() * cell).sum();
        let weights = (self.vwgt.capacity() + self.selfw.capacity()) * std::mem::size_of::<u64>();
        (self.adj.capacity() * header + cells + weights) as u64
    }

    /// Build from a communication matrix, symmetrising directed traffic.
    /// Diagonal entries become self-loop weights. Each adjacency row is
    /// `u`'s sent row merged with the column of what `u` received, in
    /// O(non-zeros).
    pub fn from_comm_matrix(m: &CommMatrix) -> Self {
        let n = m.n();
        // received[v] lists (u, bytes u → v); the row-major walk keeps it
        // sorted by sender.
        let mut received: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (s, d, b) in m.entries() {
            if s != d {
                received[d].push((s as u32, b));
            }
        }
        let mut g = WeightedGraph::new(n);
        for (u, column) in received.iter().enumerate() {
            let mut row = merge_rows(m.row(u), column);
            if let Some(i) = row.iter().position(|&(v, _)| v as usize == u) {
                g.selfw[u] = row.remove(i).1;
            }
            g.adj[u] = row;
        }
        g
    }

    /// Build from undirected edge triples `(u, v, w)`, `u != v`, with
    /// vertex weights `vwgt` and no self-loop weight. Repeated pairs (in
    /// either orientation) accumulate and zero weights are skipped: one
    /// sort of both directions, then one fold of equal neighbours per
    /// row. The bulk path of graph contraction.
    pub fn from_edges(n: usize, vwgt: Vec<u64>, edges: &[(u32, u32, u64)]) -> Self {
        assert_eq!(vwgt.len(), n, "vertex weight count");
        let mut directed: Vec<(u32, u32, u64)> = Vec::with_capacity(2 * edges.len());
        for &(u, v, w) in edges {
            assert_ne!(u, v, "self-loops are not edges");
            assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
            if w > 0 {
                directed.push((u, v, w));
                directed.push((v, u, w));
            }
        }
        directed.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut adj = vec![Vec::new(); n];
        for run in directed.chunk_by(|a, b| a.0 == b.0) {
            let mut row: Vec<(u32, u64)> = Vec::with_capacity(run.len());
            for &(_, v, w) in run {
                match row.last_mut() {
                    Some((last, lw)) if *last == v => *lw += w,
                    _ => row.push((v, w)),
                }
            }
            adj[run[0].0 as usize] = row;
        }
        WeightedGraph {
            adj,
            vwgt,
            selfw: vec![0; n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Set the weight of vertex `u`.
    pub fn set_vertex_weight(&mut self, u: usize, w: u64) {
        assert!(w > 0, "vertex weights must be positive");
        self.vwgt[u] = w;
    }

    /// Weight of vertex `u`.
    #[inline]
    pub fn vertex_weight(&self, u: usize) -> u64 {
        self.vwgt[u]
    }

    /// Total vertex weight.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Add (or accumulate) an undirected edge, at its sorted position in
    /// both rows. Zero weights add nothing.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "use self-loop weight for diagonal entries");
        if w == 0 {
            return;
        }
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a];
            match row.binary_search_by_key(&(b as u32), |&(x, _)| x) {
                Ok(i) => row[i].1 += w,
                Err(i) => row.insert(i, (b as u32, w)),
            }
        }
    }

    /// Neighbours of `u` as `(v, weight)`, sorted by `v`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(u32, u64)] {
        &self.adj[u]
    }

    /// Weighted degree (sum of incident edge weights, self-loops excluded).
    pub fn degree(&self, u: usize) -> u64 {
        self.adj[u].iter().map(|&(_, w)| w).sum()
    }

    /// Unweighted degree (neighbour count).
    pub(crate) fn degree_count(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Self-loop weight of `u`.
    pub(crate) fn self_weight(&self, u: usize) -> u64 {
        self.selfw[u]
    }

    /// Total edge weight (each undirected edge counted once), self-loops
    /// excluded.
    pub fn total_edge_weight(&self) -> u64 {
        self.adj
            .iter()
            .map(|l| l.iter().map(|&(_, w)| w).sum::<u64>())
            .sum::<u64>()
            / 2
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Weight of the edge `{u, v}` (0 if absent), by binary search.
    pub fn edge_weight(&self, u: usize, v: usize) -> u64 {
        let row = &self.adj[u];
        row.binary_search_by_key(&(v as u32), |&(x, _)| x)
            .map_or(0, |i| row[i].1)
    }

    /// Sum of edge weights crossing a vertex-set boundary, given a
    /// membership predicate encoded as part ids: edges with endpoints in
    /// different parts. Each crossing edge counted once.
    pub fn cut_weight(&self, part_of: &[usize]) -> u64 {
        assert_eq!(part_of.len(), self.n());
        let mut cut = 0;
        for u in 0..self.n() {
            for &(v, w) in &self.adj[u] {
                let v = v as usize;
                if u < v && part_of[u] != part_of[v] {
                    cut += w;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        // Inserted out of order: rows must come out sorted anyway.
        g.add_edge(0, 2, 30);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 20);
        g
    }

    #[test]
    fn from_comm_matrix_symmetrises() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 5);
        m.add(1, 0, 7);
        m.add(2, 2, 9);
        let g = WeightedGraph::from_comm_matrix(&m);
        assert_eq!(g.edge_weight(0, 1), 12);
        assert_eq!(g.edge_weight(1, 0), 12);
        assert_eq!(g.self_weight(2), 9);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_keeps_rows_sorted() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[(1, 10), (2, 30)]);
        assert_eq!(g.neighbors(2), &[(0, 30), (1, 20)]);
        assert_eq!(g.total_edge_weight(), 60);
    }

    #[test]
    fn edge_weight_binary_search() {
        let g = triangle();
        assert_eq!(g.edge_weight(1, 2), 20);
        assert_eq!(g.edge_weight(2, 1), 20);
        assert_eq!(g.edge_weight(0, 0), 0);
        assert_eq!(g.degree(0), 40);
    }

    #[test]
    fn degrees_and_totals() {
        let g = triangle();
        assert_eq!(g.degree(0), 40);
        assert_eq!(g.degree_count(0), 2);
        assert_eq!(g.total_edge_weight(), 60);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn add_edge_accumulates() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 0, 4);
        assert_eq!(g.edge_weight(0, 1), 7);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn from_edges_aggregates_duplicates() {
        let g = WeightedGraph::from_edges(4, vec![1; 4], &[(0, 1, 5), (1, 0, 7), (2, 3, 1)]);
        assert_eq!(g.edge_weight(0, 1), 12);
        assert_eq!(g.edge_weight(1, 0), 12);
        assert_eq!(g.edge_weight(2, 3), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn from_edges_handles_isolated_tail_vertices() {
        let g = WeightedGraph::from_edges(5, vec![1; 5], &[(0, 1, 2)]);
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.n(), 5);
    }

    #[test]
    fn cut_weight_counts_crossing_edges_once() {
        let g = triangle();
        // parts {0,1} vs {2}: crossing edges 1-2 (20) and 0-2 (30).
        assert_eq!(g.cut_weight(&[0, 0, 1]), 50);
        assert_eq!(g.cut_weight(&[0, 0, 0]), 0);
    }

    #[test]
    fn vertex_weights() {
        let mut g = WeightedGraph::new(2);
        g.set_vertex_weight(0, 4);
        assert_eq!(g.vertex_weight(0), 4);
        assert_eq!(g.total_vertex_weight(), 5);
    }

    /// `g`'s rows, after checking the row invariant: strictly sorted, no
    /// self-loop, no zero weight, and each edge mirrored with its weight.
    fn checked_rows(g: &WeightedGraph) -> Result<Vec<Vec<(u32, u64)>>, String> {
        for u in 0..g.n() {
            let row = g.neighbors(u);
            prop_assert!(row.windows(2).all(|p| p[0].0 < p[1].0), "row {u}: {row:?}");
            for &(v, w) in row {
                prop_assert!(v as usize != u && w > 0, "row {u}: {row:?}");
                let back: Vec<u64> = g
                    .neighbors(v as usize)
                    .iter()
                    .filter(|&&(x, _)| x as usize == u)
                    .map(|&(_, bw)| bw)
                    .collect();
                prop_assert_eq!(back, vec![w]);
            }
        }
        Ok((0..g.n()).map(|u| g.neighbors(u).to_vec()).collect())
    }

    proptest! {
        /// The three constructors, fed the same random edge multiset
        /// (repeats in both orientations, zero weights), build the same
        /// sorted rows; `edge_weight` agrees with a scan of the edges.
        #[test]
        fn every_constructor_keeps_rows_sorted(
            case in (1usize..12).prop_flat_map(|n| {
                let pick = (0..n, 0..n, 0u64..5, any::<u64>());
                (Just(n), proptest::collection::vec(pick, 0..40))
            })
        ) {
            let (n, picks) = case;
            let edges: Vec<(u32, u32, u64)> = picks
                .iter()
                .filter(|p| p.0 != p.1)
                .map(|&(u, v, w, _)| (u as u32, v as u32, w))
                .collect();
            let mut shuffled: Vec<(u64, (u32, u32, u64))> = picks
                .iter()
                .filter(|p| p.0 != p.1)
                .map(|&(u, v, w, key)| (key, (u as u32, v as u32, w)))
                .collect();
            shuffled.sort_unstable();
            let mut added = WeightedGraph::new(n);
            for &(_, (u, v, w)) in &shuffled {
                added.add_edge(u as usize, v as usize, w);
            }
            let bulk = WeightedGraph::from_edges(n, vec![1; n], &edges);
            let mut m = CommMatrix::new(n);
            for &(u, v, w) in &edges {
                m.add(u as usize, v as usize, w);
            }
            let traced = WeightedGraph::from_comm_matrix(&m);

            let rows = checked_rows(&added)?;
            prop_assert_eq!(&checked_rows(&bulk)?, &rows);
            prop_assert_eq!(&checked_rows(&traced)?, &rows);
            for u in 0..n {
                for v in 0..n {
                    let want: u64 = edges
                        .iter()
                        .filter(|&&(a, b, _)| {
                            let (a, b) = (a as usize, b as usize);
                            (a, b) == (u, v) || (a, b) == (v, u)
                        })
                        .map(|&(_, _, w)| w)
                        .sum();
                    prop_assert_eq!(added.edge_weight(u, v), want);
                    prop_assert_eq!(bulk.edge_weight(u, v), want);
                }
            }
        }
    }
}
