//! The per-rank solver kernel, independent of any communication layer.
//!
//! [`RankState`] owns one rank's fields and exposes exactly three
//! operations: extract an outgoing boundary edge, install a received halo
//! edge, and advance one step. [`RankState::step`] hands the first two to
//! the decomposition's one halo exchange ([`CartDecomp::exchange`]) and
//! then runs the third; the replay engine in `hcft-core` and the tests
//! run that step, which is what makes "recovered state equals
//! uninterrupted state **bit-for-bit**" a meaningful assertion.

use hcft_telemetry::HcftError;

use crate::decomp::CartDecomp;
use crate::params::{TsunamiParams, GRAVITY};

/// A halo-exchange direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Towards lower x.
    West,
    /// Towards higher x.
    East,
    /// Towards lower y.
    North,
    /// Towards higher y.
    South,
}

impl Dir {
    /// The direction a message sent this way arrives from.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::West => Dir::East,
            Dir::East => Dir::West,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
        }
    }

    /// All four directions.
    pub const ALL: [Dir; 4] = [Dir::West, Dir::East, Dir::North, Dir::South];
}

/// One rank's solver state (η with halo, face velocities, iteration).
///
/// Fields are stored **column-major**: a tile is a short run of columns
/// (the paper's 512×2 decomposition gives every rank lnx = 2 columns of
/// lny = 2048 cells), so walking a column is one long unit-stride sweep
/// the compiler auto-vectorizes, whereas walking a two-element row is
/// scalar shuffling. The kernel update is seven contiguous column sweeps
/// regardless of how narrow the tile is.
///
/// West/east halo columns live in dense side arrays rather than embedded
/// in η: they arrive as contiguous messages and install as contiguous
/// copies. North/south halos occupy the first and last cell of each η
/// column (η columns are lny+2 long).
#[derive(Clone, Debug, PartialEq)]
pub struct RankState {
    d: CartDecomp,
    /// η interior plus north/south halo cells: lnx columns of (lny+2),
    /// column-major (η(i,j) = `eta[i*(lny+2) + j + 1]`; cell 0 of a
    /// column is the north halo, cell lny+1 the south halo).
    eta: Vec<f64>,
    /// West halo column of η, dense: lny values.
    halo_w: Vec<f64>,
    /// East halo column of η, dense: lny values.
    halo_e: Vec<f64>,
    /// u on x faces: (lnx+1) columns of lny (u(i,j) = `u[i*lny + j]`).
    u: Vec<f64>,
    /// v on y faces: lnx columns of (lny+1) (v(i,j) = `v[i*(lny+1)+j]`).
    v: Vec<f64>,
    iter: u64,
}

impl RankState {
    /// Initialise rank `rank` of `nprocs` with the earthquake initial
    /// condition.
    pub fn new(params: &TsunamiParams, nprocs: usize, rank: usize) -> Self {
        let d = params.decomp(nprocs, rank);
        let mut eta = vec![0.0; d.lnx * (d.lny + 2)];
        for i in 0..d.lnx {
            for j in 0..d.lny {
                eta[i * (d.lny + 2) + j + 1] = params.initial_eta(d.x0 + i, d.y0 + j);
            }
        }
        RankState {
            u: vec![0.0; (d.lnx + 1) * d.lny],
            v: vec![0.0; d.lnx * (d.lny + 1)],
            halo_w: vec![0.0; d.lny],
            halo_e: vec![0.0; d.lny],
            eta,
            d,
            iter: 0,
        }
    }

    /// The decomposition of this rank.
    pub fn decomp(&self) -> &CartDecomp {
        &self.d
    }

    /// Completed iterations.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// The currently installed halo values on the `dir` side — the
    /// inverse probe of [`RankState::set_halo_bytes`], used by the halo
    /// roundtrip tests.
    pub fn halo_in(&self, dir: Dir) -> Vec<f64> {
        let lny = self.d.lny;
        let se = lny + 2;
        match dir {
            Dir::West => self.halo_w.clone(),
            Dir::East => self.halo_e.clone(),
            Dir::North => self.eta.chunks_exact(se).map(|col| col[0]).collect(),
            Dir::South => self.eta.chunks_exact(se).map(|col| col[lny + 1]).collect(),
        }
    }

    /// Serialise the edge towards `dir` straight to its wire form
    /// (little-endian f64), skipping the f64 staging hop:
    /// [`RankState::step`] fills the pooled message buffer with this, so
    /// an outgoing edge is copied exactly once, η → message.
    pub fn edge_out_bytes(&self, dir: Dir, out: &mut Vec<u8>) {
        let (lnx, lny) = (self.d.lnx, self.d.lny);
        let se = lny + 2;
        out.clear();
        out.resize(8 * self.d.edge_cells(dir), 0);
        let cells = out.chunks_exact_mut(8);
        match dir {
            // The hot edges: one contiguous η column straight to wire.
            Dir::West => {
                for (dst, &x) in cells.zip(&self.eta[1..1 + lny]) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
            }
            Dir::East => {
                let base = (lnx - 1) * se + 1;
                for (dst, &x) in cells.zip(&self.eta[base..base + lny]) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
            }
            Dir::North => {
                for (dst, col) in cells.zip(self.eta.chunks_exact(se)) {
                    dst.copy_from_slice(&col[1].to_le_bytes());
                }
            }
            Dir::South => {
                for (dst, col) in cells.zip(self.eta.chunks_exact(se)) {
                    dst.copy_from_slice(&col[lny].to_le_bytes());
                }
            }
        }
    }

    /// Install a halo received in wire form — the inverse of
    /// [`RankState::edge_out_bytes`]: message bytes land in η directly,
    /// no f64 staging vector in between.
    ///
    /// # Panics
    /// Panics on a wrong edge length.
    pub fn set_halo_bytes(&mut self, dir: Dir, bytes: &[u8]) {
        let (lnx, lny) = (self.d.lnx, self.d.lny);
        let se = lny + 2;
        let f = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("f64 cell"));
        let cells = bytes.chunks_exact(8);
        match dir {
            Dir::West => {
                assert_eq!(bytes.len(), lny * 8, "west halo length");
                for (d, c) in self.halo_w.iter_mut().zip(cells) {
                    *d = f(c);
                }
            }
            Dir::East => {
                assert_eq!(bytes.len(), lny * 8, "east halo length");
                for (d, c) in self.halo_e.iter_mut().zip(cells) {
                    *d = f(c);
                }
            }
            Dir::North => {
                assert_eq!(bytes.len(), lnx * 8, "north halo length");
                for (col, c) in self.eta.chunks_exact_mut(se).zip(cells) {
                    col[0] = f(c);
                }
            }
            Dir::South => {
                assert_eq!(bytes.len(), lnx * 8, "south halo length");
                for (col, c) in self.eta.chunks_exact_mut(se).zip(cells) {
                    col[lny + 1] = f(c);
                }
            }
        }
    }

    /// Advance one step. Halos for this step must already be installed.
    ///
    /// Every sweep walks whole columns — long unit-stride streams of lny
    /// (2048 at paper scale) elements that auto-vectorize. Loop order is
    /// free: field updates have no intra-field dependencies and the
    /// per-element arithmetic and operand order are fixed, so element
    /// order cannot change a single bit —
    /// `parallel_matches_sequential_bitwise` and the replay engine's
    /// recovered-equals-sequential tests assert bit identity across
    /// drivers. Domain-boundary faces (closed walls) are assigned 0.0
    /// after the bulk sweep, keeping the hot loops branch-free.
    pub fn update(&mut self, p: &TsunamiParams) {
        let (lnx, lny) = (self.d.lnx, self.d.lny);
        let se = lny + 2; // η column stride
        let sv = lny + 1; // v column stride
        let gdt = GRAVITY * p.dt / p.dx;
        // u on x faces, one column per face: face 0 pairs the west halo
        // with η column 0, face lnx pairs η column lnx-1 with the east
        // halo, interior faces pair adjacent η columns. A face column is
        // a closed boundary only at the domain's west/east wall.
        let w_closed = self.d.x0 == 0;
        let e_closed = self.d.x0 + lnx == p.nx;
        for (i, u_col) in self.u.chunks_exact_mut(lny).enumerate() {
            if i == 0 {
                if w_closed {
                    u_col.fill(0.0);
                    continue;
                }
                let e = &self.eta[1..1 + lny];
                for ((u, &er), &hw) in u_col.iter_mut().zip(e).zip(&self.halo_w) {
                    *u -= gdt * (er - hw);
                }
            } else if i == lnx {
                if e_closed {
                    u_col.fill(0.0);
                    continue;
                }
                let base = (lnx - 1) * se + 1;
                let e = &self.eta[base..base + lny];
                for ((u, &he), &el) in u_col.iter_mut().zip(&self.halo_e).zip(e) {
                    *u -= gdt * (he - el);
                }
            } else {
                let (lo, hi) = ((i - 1) * se + 1, i * se + 1);
                let el = &self.eta[lo..lo + lny];
                let er = &self.eta[hi..hi + lny];
                for ((u, &er), &el) in u_col.iter_mut().zip(er).zip(el) {
                    *u -= gdt * (er - el);
                }
            }
        }
        // v on y faces: within a column, face j sits between η cells j
        // and j+1 (including the halo cells at the column ends), so the
        // sweep is η's column shifted against itself. The first/last
        // face is then re-closed when this rank touches that wall.
        let n_closed = self.d.y0 == 0;
        let s_closed = self.d.y0 + lny == p.ny;
        for (v_col, e_col) in self.v.chunks_exact_mut(sv).zip(self.eta.chunks_exact(se)) {
            for ((v, &eh), &el) in v_col.iter_mut().zip(&e_col[1..]).zip(e_col) {
                *v -= gdt * (eh - el);
            }
            if n_closed {
                v_col[0] = 0.0;
            }
            if s_closed {
                v_col[lny] = 0.0;
            }
        }
        // η from the fresh face divergence, column by column.
        let ddt = p.depth * p.dt / p.dx;
        for (i, e_col) in self.eta.chunks_exact_mut(se).enumerate() {
            let u_lo = &self.u[i * lny..(i + 1) * lny];
            let u_hi = &self.u[(i + 1) * lny..(i + 2) * lny];
            let v_col = &self.v[i * sv..(i + 1) * sv];
            for ((((e, &ul), &uh), &vl), &vh) in e_col[1..1 + lny]
                .iter_mut()
                .zip(u_lo)
                .zip(u_hi)
                .zip(v_col)
                .zip(&v_col[1..])
            {
                let du = uh - ul;
                let dv = vh - vl;
                *e -= ddt * (du + dv);
            }
        }
        self.iter += 1;
    }

    /// Interior η, row-major `lnx × lny` (the presentation layout the
    /// gather/figure paths expect; transposed out of column storage).
    pub fn local_eta(&self) -> Vec<f64> {
        let (lnx, lny) = (self.d.lnx, self.d.lny);
        let se = lny + 2;
        let mut out = vec![0.0; lnx * lny];
        for (i, col) in self.eta.chunks_exact(se).enumerate() {
            for (j, &x) in col[1..1 + lny].iter().enumerate() {
                out[j * lnx + i] = x;
            }
        }
        out
    }

    /// Exact byte length [`RankState::save_state`] produces — lets
    /// callers size checkpoint plans without serialising anything. A
    /// function of the decomposition alone: [`CartDecomp::state_len`].
    pub fn state_len(&self) -> usize {
        self.d.state_len()
    }

    /// Serialise the full state (η, u, v, iteration).
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_into(&mut out);
        out
    }

    /// Serialise into caller-owned scratch (cleared first). A checkpoint
    /// loop reusing the same buffer stops allocating once its capacity
    /// has converged to [`RankState::state_len`].
    pub fn save_state_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.state_len());
        out.extend_from_slice(&self.iter.to_le_bytes());
        for field in [&self.eta, &self.halo_w, &self.halo_e, &self.u, &self.v] {
            out.extend_from_slice(&(field.len() as u64).to_le_bytes());
            let start = out.len();
            out.resize(start + 8 * field.len(), 0);
            for (dst, x) in out[start..].chunks_exact_mut(8).zip(field.iter()) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Restore state saved by [`RankState::save_state`]. Truncated,
    /// oversized or shape-mismatched buffers — e.g. a corrupted
    /// checkpoint surviving erasure decode — are reported as
    /// [`HcftError::Recovery`], leaving `self` unchanged.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), HcftError> {
        if bytes.len() != self.state_len() {
            return Err(HcftError::Recovery(format!(
                "checkpoint is {} bytes, rank state needs {}",
                bytes.len(),
                self.state_len()
            )));
        }
        let mut off = 0usize;
        let take_u64 = |off: &mut usize| {
            let v = u64::from_le_bytes(bytes[*off..*off + 8].try_into().expect("length checked"));
            *off += 8;
            v
        };
        let iter = take_u64(&mut off);
        for (name, want) in [
            ("eta", self.eta.len()),
            ("halo_w", self.halo_w.len()),
            ("halo_e", self.halo_e.len()),
            ("u", self.u.len()),
            ("v", self.v.len()),
        ] {
            let len = take_u64(&mut off) as usize;
            if len != want {
                return Err(HcftError::Recovery(format!(
                    "checkpoint field {name} has {len} elements, rank state needs {want}"
                )));
            }
            off += 8 * len;
        }
        // Shapes verified; now commit.
        self.iter = iter;
        let mut off = 16usize;
        for field in [
            &mut self.eta,
            &mut self.halo_w,
            &mut self.halo_e,
            &mut self.u,
            &mut self.v,
        ] {
            for x in field.iter_mut() {
                *x = f64::from_le_bytes(bytes[off..off + 8].try_into().expect("length checked"));
                off += 8;
            }
            off += 8; // the next field's length header
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_directions() {
        assert_eq!(Dir::West.opposite(), Dir::East);
        assert_eq!(Dir::North.opposite(), Dir::South);
        assert_eq!(Dir::ALL.len(), 4);
    }

    #[test]
    fn save_restore_is_identity() {
        let p = TsunamiParams::stable(16, 16);
        let mut s = RankState::new(&p, 4, 2);
        for _ in 0..3 {
            s.update(&p); // interior-only update is fine for the test
        }
        let snapshot = s.save_state();
        let mut t = RankState::new(&p, 4, 2);
        t.restore_state(&snapshot).expect("restore");
        assert_eq!(s, t);
        assert_eq!(t.iteration(), 3);
    }

    #[test]
    fn truncated_checkpoint_is_an_error_not_a_panic() {
        let p = TsunamiParams::stable(16, 16);
        let mut s = RankState::new(&p, 4, 1);
        let snapshot = s.save_state();
        let before = s.clone();
        let err = s.restore_state(&snapshot[..snapshot.len() - 1]);
        assert!(matches!(err, Err(HcftError::Recovery(_))), "{err:?}");
        let err = s.restore_state(&[]);
        assert!(matches!(err, Err(HcftError::Recovery(_))), "{err:?}");
        // A failed restore must leave the state untouched.
        assert_eq!(s, before);
    }

    #[test]
    fn shape_mismatched_checkpoint_is_an_error() {
        let p = TsunamiParams::stable(16, 16);
        let mut s = RankState::new(&p, 4, 1);
        let mut snapshot = s.save_state();
        // Corrupt the eta length header (bytes 8..16) while keeping the
        // total length right.
        snapshot[8] ^= 0xFF;
        let err = s.restore_state(&snapshot);
        assert!(matches!(err, Err(HcftError::Recovery(_))), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "halo length")]
    fn wrong_halo_length_panics() {
        let p = TsunamiParams::stable(8, 8);
        let mut s = RankState::new(&p, 4, 0);
        s.set_halo_bytes(Dir::East, &[0; 8]);
    }
}
