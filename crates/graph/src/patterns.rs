//! Synthetic communication patterns.
//!
//! The paper closes §V with a caveat: its results hold for applications
//! whose communication graphs partition well, while "applications using
//! collective communication patterns" (all-to-all) are the hard case.
//! These generators produce the canonical HPC patterns (Kamil et al.
//! \[15\]) so the clustering strategies can be studied beyond the traced
//! tsunami run — including that hard case.

use crate::matrix::CommMatrix;

/// 2-D five-point stencil over a `px × py` process grid (row-major
/// ranks), with separate per-direction byte weights to model anisotropic
/// decompositions.
pub fn stencil_2d(px: usize, py: usize, ew_bytes: u64, ns_bytes: u64) -> CommMatrix {
    let n = px * py;
    let mut m = CommMatrix::new(n);
    for cy in 0..py {
        for cx in 0..px {
            let r = cy * px + cx;
            if cx + 1 < px {
                m.add(r, r + 1, ew_bytes);
                m.add(r + 1, r, ew_bytes);
            }
            if cy + 1 < py {
                m.add(r, r + px, ns_bytes);
                m.add(r + px, r, ns_bytes);
            }
        }
    }
    m
}

/// Uniform all-to-all (transpose/FFT-like) — every pair exchanges
/// `bytes`.
pub fn all_to_all(n: usize, bytes: u64) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                m.add(s, d, bytes);
            }
        }
    }
    m
}

/// Butterfly (power-of-two distances) — the dominant pattern of FFTs and
/// recursive-doubling collectives.
pub fn butterfly(n: usize, bytes: u64) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    let mut dist = 1;
    while dist < n {
        for r in 0..n {
            m.add(r, r ^ dist, bytes);
        }
        dist <<= 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::graph::WeightedGraph;
    use crate::metrics::intra_cluster_fraction;

    #[test]
    fn stencil_has_four_neighbour_edges() {
        let m = stencil_2d(4, 3, 100, 10);
        // Interior rank 5 (cx=1, cy=1): 4 neighbours.
        assert_eq!(m.get(5, 4), 100);
        assert_eq!(m.get(5, 6), 100);
        assert_eq!(m.get(5, 1), 10);
        assert_eq!(m.get(5, 9), 10);
        assert_eq!(m.get(5, 10), 0);
        // Corner rank 0: 2 neighbours only.
        assert_eq!(m.row(0), &[(1, 100), (4, 10)]);
    }

    #[test]
    fn anisotropy_controls_direction_weights() {
        let m = stencil_2d(8, 2, 128, 1);
        let ew: u64 = m
            .entries()
            .filter(|&(s, d, _)| s.abs_diff(d) == 1)
            .map(|e| e.2)
            .sum();
        let ns: u64 = m
            .entries()
            .filter(|&(s, d, _)| s.abs_diff(d) == 8)
            .map(|e| e.2)
            .sum();
        // 14 EW pairs × 2 directions × 128 B vs 8 NS pairs × 2 × 1 B.
        assert_eq!(ew, 14 * 2 * 128);
        assert_eq!(ns, 8 * 2);
    }

    #[test]
    fn all_to_all_logs_badly_under_any_clustering() {
        // The §V caveat, quantified: with uniform all-to-all, clusters of
        // size k leave only (k−1)/(n−1) of traffic internal.
        let n = 16;
        let m = all_to_all(n, 10);
        let g = WeightedGraph::from_comm_matrix(&m);
        for k in [2usize, 4, 8] {
            let c = Clustering::consecutive(n, k);
            let intra = intra_cluster_fraction(&g, &c);
            let expect = (k - 1) as f64 / (n - 1) as f64;
            assert!(
                (intra - expect).abs() < 1e-9,
                "k={k}: intra {intra} vs {expect}"
            );
        }
    }

    #[test]
    fn butterfly_uses_pow2_distances() {
        let m = butterfly(8, 3);
        for (s, d, _) in m.entries() {
            assert!((s ^ d).is_power_of_two());
        }
        // Every rank talks to log2(n) partners.
        assert_eq!(m.row(0), &[(1, 3), (2, 3), (4, 3)]);
    }
}
