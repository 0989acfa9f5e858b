//! Matrices over GF(256): multiplication, Gauss–Jordan inversion and the
//! Cauchy construction.
//!
//! The systematic generator used by [`crate::rs`] is `[I_k ; C]` where `C`
//! is an `m × k` Cauchy matrix. Every square submatrix of a Cauchy matrix
//! is invertible, which gives the code its MDS property: *any* k of the
//! k+m shards suffice to reconstruct.

use crate::gf256;

/// A dense matrix over GF(256).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct GfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl GfMatrix {
    /// Zero matrix.
    pub(crate) fn zero(rows: usize, cols: usize) -> Self {
        GfMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Build from a row-major closure.
    pub(crate) fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// `m × k` Cauchy matrix with `x_i = k + i`, `y_j = j` — disjoint
    /// index sets, so every denominator `x_i ⊕ y_j` is non-zero.
    ///
    /// # Panics
    /// Panics if `k + m > 256` (the field runs out of distinct points).
    pub(crate) fn cauchy(m: usize, k: usize) -> Self {
        assert!(k + m <= 256, "Cauchy construction needs k+m <= 256");
        Self::from_fn(m, k, |i, j| gf256::inv(((k + i) as u8) ^ (j as u8)))
    }

    /// Element access.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Row as a slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`: the tests' check of [`Self::invert`].
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[cfg(test)]
    fn mul(&self, rhs: &GfMatrix) -> GfMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = GfMatrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                let row = gf256::mul_row(a);
                for c in 0..rhs.cols {
                    let v = out.get(r, c) ^ row[rhs.get(k, c) as usize];
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// Stack `self` on top of `below`.
    pub(crate) fn vstack(&self, below: &GfMatrix) -> GfMatrix {
        assert_eq!(self.cols, below.cols);
        let mut m = GfMatrix::zero(self.rows + below.rows, self.cols);
        m.data[..self.data.len()].copy_from_slice(&self.data);
        m.data[self.data.len()..].copy_from_slice(&below.data);
        m
    }

    /// Extract the given rows into a new matrix.
    pub(crate) fn select_rows(&self, rows: &[usize]) -> GfMatrix {
        let mut m = GfMatrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            let dst = i * self.cols;
            m.data[dst..dst + self.cols].copy_from_slice(self.row(r));
        }
        m
    }

    /// Gauss–Jordan inverse, or `None` if singular.
    pub(crate) fn invert(&self) -> Option<GfMatrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = GfMatrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                for c in 0..n {
                    let (x, y) = (a.get(col, c), a.get(pivot, c));
                    a.set(col, c, y);
                    a.set(pivot, c, x);
                    let (x, y) = (inv.get(col, c), inv.get(pivot, c));
                    inv.set(col, c, y);
                    inv.set(pivot, c, x);
                }
            }
            // Scale the pivot row to 1.
            let p = a.get(col, col);
            let pinv = gf256::inv(p);
            for c in 0..n {
                a.set(col, c, gf256::mul(a.get(col, c), pinv));
                inv.set(col, c, gf256::mul(inv.get(col, c), pinv));
            }
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a.get(r, col);
                if f == 0 {
                    continue;
                }
                for c in 0..n {
                    a.set(r, c, a.get(r, c) ^ gf256::mul(f, a.get(col, c)));
                    inv.set(r, c, inv.get(r, c) ^ gf256::mul(f, inv.get(col, c)));
                }
            }
        }
        Some(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cauchy_has_no_zero_entries() {
        let c = GfMatrix::cauchy(8, 16);
        for r in 0..8 {
            for j in 0..16 {
                assert_ne!(c.get(r, j), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k+m <= 256")]
    fn cauchy_rejects_oversized_field_use() {
        GfMatrix::cauchy(200, 100);
    }

    #[test]
    fn invert_roundtrip_on_cauchy_square() {
        let c = GfMatrix::cauchy(5, 5);
        let inv = c.invert().expect("Cauchy squares are invertible");
        assert_eq!(c.mul(&inv), GfMatrix::identity(5));
        assert_eq!(inv.mul(&c), GfMatrix::identity(5));
    }

    #[test]
    fn singular_matrix_returns_none() {
        let mut m = GfMatrix::zero(2, 2);
        m.set(0, 0, 3);
        m.set(1, 0, 3); // duplicate rows
        m.set(0, 1, 5);
        m.set(1, 1, 5);
        assert!(m.invert().is_none());
    }

    #[test]
    fn select_rows_and_vstack() {
        let top = GfMatrix::identity(2);
        let bottom = GfMatrix::from_fn(1, 2, |_, c| (c + 7) as u8);
        let stacked = top.vstack(&bottom);
        assert_eq!(stacked.rows, 3);
        let sel = stacked.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[7, 8]);
        assert_eq!(sel.row(1), &[1, 0]);
    }

    proptest! {
        /// The MDS property: any k rows of [I; Cauchy] form an invertible
        /// matrix. This is exactly what reconstruction relies on.
        #[test]
        fn any_k_rows_of_generator_are_invertible(
            k in 1usize..8,
            m in 1usize..8,
            seed: u64,
        ) {
            let gen = GfMatrix::identity(k).vstack(&GfMatrix::cauchy(m, k));
            // Pick k distinct rows pseudo-randomly from the k+m available.
            let mut rows: Vec<usize> = (0..k + m).collect();
            let mut state = seed | 1;
            for i in (1..rows.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                rows.swap(i, j);
            }
            rows.truncate(k);
            let sub = gen.select_rows(&rows);
            prop_assert!(sub.invert().is_some(), "rows {rows:?} not invertible");
        }
    }
}

#[cfg(test)]
impl GfMatrix {
    /// Systematic generator derived from a Vandermonde matrix: build the
    /// `(k+m) × k` Vandermonde `V[i][j] = iʲ`, then column-reduce the top
    /// `k × k` block to the identity. The result is `[I_k ; P]` with the
    /// MDS property — the classic Plank construction for Reed–Solomon
    /// diskless checkpointing, kept as the tests' independent cross-check
    /// of [`GfMatrix::cauchy`].
    ///
    /// # Panics
    /// Panics if `k + m > 256`.
    fn vandermonde_systematic(m: usize, k: usize) -> GfMatrix {
        assert!(k + m <= 256, "Vandermonde construction needs k+m <= 256");
        let rows = k + m;
        let mut v = GfMatrix::from_fn(rows, k, |i, j| {
            (0..j).fold(1, |acc, _| crate::gf256::mul(acc, i as u8))
        });
        // Column-reduce the top k×k block to identity (column ops keep
        // every square submatrix's invertibility profile).
        for col in 0..k {
            // Pivot: make v[col][col] non-zero by swapping columns.
            if v.get(col, col) == 0 {
                let swap = (col + 1..k)
                    .find(|&c| v.get(col, c) != 0)
                    .expect("Vandermonde top block is invertible");
                for r in 0..rows {
                    let (a, b) = (v.get(r, col), v.get(r, swap));
                    v.set(r, col, b);
                    v.set(r, swap, a);
                }
            }
            // Scale the pivot column.
            let inv = crate::gf256::inv(v.get(col, col));
            for r in 0..rows {
                v.set(r, col, crate::gf256::mul(v.get(r, col), inv));
            }
            // Eliminate the pivot row's other entries column-wise.
            for c in 0..k {
                if c == col {
                    continue;
                }
                let f = v.get(col, c);
                if f == 0 {
                    continue;
                }
                for r in 0..rows {
                    let val = v.get(r, c) ^ crate::gf256::mul(f, v.get(r, col));
                    v.set(r, c, val);
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod vandermonde_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn top_block_is_identity() {
        let g = GfMatrix::vandermonde_systematic(3, 5);
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(g.get(r, c), u8::from(r == c), "({r},{c})");
            }
        }
        assert_eq!(g.rows, 8);
    }

    proptest! {
        /// The MDS property: any k rows of the systematic Vandermonde
        /// generator are invertible — same guarantee as the Cauchy
        /// construction used in production.
        #[test]
        fn any_k_rows_are_invertible(
            k in 1usize..7,
            m in 1usize..6,
            seed: u64,
        ) {
            let gen = GfMatrix::vandermonde_systematic(m, k);
            let mut rows: Vec<usize> = (0..k + m).collect();
            let mut state = seed | 1;
            for i in (1..rows.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                rows.swap(i, j);
            }
            rows.truncate(k);
            let sub = gen.select_rows(&rows);
            prop_assert!(sub.invert().is_some(), "rows {rows:?} not invertible");
        }

        /// Cross-check: data recovered through a Vandermonde generator
        /// equals data recovered through the Cauchy generator (both are
        /// exact, so both must reproduce the original).
        #[test]
        fn vandermonde_and_cauchy_both_recover(
            k in 2usize..5,
            data in proptest::collection::vec(any::<u8>(), 8..24),
        ) {
            let m = 2usize;
            // Chunk `data` into k shards (pad with zeros).
            let shard = data.len().div_ceil(k);
            let shards: Vec<Vec<u8>> = (0..k)
                .map(|i| {
                    let mut s: Vec<u8> =
                        data.iter().skip(i * shard).take(shard).copied().collect();
                    s.resize(shard, 0);
                    s
                })
                .collect();
            for gen in [
                GfMatrix::identity(k).vstack(&GfMatrix::cauchy(m, k)),
                GfMatrix::vandermonde_systematic(m, k),
            ] {
                // Encode: rows k.. are the parity combinations.
                let mut coded: Vec<Vec<u8>> = shards.clone();
                for p in 0..m {
                    let mut out = vec![0u8; shard];
                    for (j, s) in shards.iter().enumerate() {
                        crate::gf256::mul_acc(&mut out, s, gen.get(k + p, j));
                    }
                    coded.push(out);
                }
                // Erase the first two shards; decode from the rest.
                let survivors: Vec<usize> = (2..k + m).collect();
                let sub = gen.select_rows(&survivors[..k]);
                let inv = sub.invert().expect("MDS");
                for (lost, original) in shards.iter().enumerate().take(2usize.min(k)) {
                    let mut rec = vec![0u8; shard];
                    for (i, &row) in survivors[..k].iter().enumerate() {
                        crate::gf256::mul_acc(&mut rec, &coded[row], inv.get(lost, i));
                    }
                    prop_assert_eq!(&rec, original);
                }
            }
        }
    }
}
