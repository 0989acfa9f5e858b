//! Undirected weighted graph — the input to the partitioner.
//!
//! Built from a [`CommMatrix`] by symmetrising traffic
//! (an edge's weight is the byte volume in both directions). Vertices also
//! carry weights (number of ranks on a node) so that partition balance
//! constraints speak in "nodes", matching the paper's "minimum 4 nodes per
//! L1 cluster".

use crate::matrix::{merge_rows, CommMatrix};

/// Undirected weighted graph with vertex weights, adjacency-list storage.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    /// adj[u] = sorted list of (v, weight) with v != u.
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

    /// Build from a communication matrix, symmetrising directed traffic.
    /// Diagonal entries become self-loop weights. Each adjacency row is
    /// sorted by neighbour: `u`'s sent row merged with the column of
    /// what `u` received, in O(non-zeros).
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

    /// Build directly from per-vertex adjacency rows. Each undirected
    /// edge must appear in both endpoint rows with equal weight; no
    /// duplicates within a row. Bulk path for the CSR bridge — skips the
    /// per-edge symmetry probing of [`WeightedGraph::add_edge`].
    pub(crate) fn from_adjacency(
        adj: Vec<Vec<(u32, u64)>>,
        vwgt: Vec<u64>,
        selfw: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(adj.len(), vwgt.len());
        debug_assert_eq!(adj.len(), selfw.len());
        WeightedGraph { adj, vwgt, selfw }
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

    /// Add (or accumulate) an undirected edge.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "use self-loop weight for diagonal entries");
        if w == 0 {
            return;
        }
        match self.adj[u].iter_mut().find(|(x, _)| *x as usize == v) {
            Some((_, ew)) => {
                *ew += w;
                let (_, ew2) = self.adj[v]
                    .iter_mut()
                    .find(|(x, _)| *x as usize == u)
                    .expect("symmetric edge");
                *ew2 += w;
            }
            None => {
                self.adj[u].push((v as u32, w));
                self.adj[v].push((u as u32, w));
            }
        }
    }

    /// Neighbours of `u` as `(v, weight)`.
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

    /// Weight of the edge `{u, v}` (0 if absent).
    pub(crate) fn edge_weight(&self, u: usize, v: usize) -> u64 {
        self.adj[u]
            .iter()
            .find(|&&(x, _)| x as usize == v)
            .map(|&(_, w)| w)
            .unwrap_or(0)
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

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 20);
        g.add_edge(0, 2, 30);
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
}
