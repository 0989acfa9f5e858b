//! 2-D block decomposition of the global grid onto a process grid.
//!
//! Ranks are laid out row-major over a `px × py` Cartesian grid —
//! `rank = cy · px + cx` — so east/west neighbours differ by ±1 and
//! north/south neighbours by ±px. Combined with the paper's block
//! placement (consecutive ranks share a node) this maximises intra-node
//! halo traffic, reproducing the placement the paper studies.
//!
//! A decomposition is all the communication pattern depends on: which
//! neighbours exist, how many cells each halo carries
//! (`CartDecomp::edge_cells`) and how large a checkpoint is
//! ([`CartDecomp::state_len`]). The halo exchange itself,
//! [`CartDecomp::exchange`], lives with the step in `solver.rs`.

use crate::kernel::Dir;

/// Cartesian decomposition bookkeeping for one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CartDecomp {
    /// Process-grid extent in x.
    pub px: usize,
    /// Process-grid extent in y.
    pub py: usize,
    /// This rank's process-grid coordinate in x.
    pub cx: usize,
    /// This rank's process-grid coordinate in y.
    pub cy: usize,
    /// Global cells owned in x: `[x0, x0 + lnx)`.
    pub x0: usize,
    /// Local extent in x.
    pub lnx: usize,
    /// Global cells owned in y: `[y0, y0 + lny)`.
    pub y0: usize,
    /// Local extent in y.
    pub lny: usize,
}

/// Split `n` cells over `parts` parts: the first `n % parts` parts get one
/// extra cell. Returns `(offset, len)` for `idx`.
pub(crate) fn block_range(n: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let len = base + usize::from(idx < extra);
    let offset = idx * base + idx.min(extra);
    (offset, len)
}

/// Choose a near-square process grid `px × py = nprocs` with `px ≥ py`.
pub fn choose_grid(nprocs: usize) -> (usize, usize) {
    assert!(nprocs > 0);
    let mut best = (nprocs, 1);
    let mut py = 1;
    while py * py <= nprocs {
        if nprocs.is_multiple_of(py) {
            best = (nprocs / py, py);
        }
        py += 1;
    }
    best
}

impl CartDecomp {
    /// Decomposition of a `nx × ny` grid for `rank` of `nprocs` with an
    /// automatically chosen process grid.
    pub(crate) fn new(nx: usize, ny: usize, nprocs: usize, rank: usize) -> Self {
        let (px, py) = choose_grid(nprocs);
        Self::with_grid(nx, ny, px, py, rank)
    }

    /// Decomposition with an explicit `px × py` process grid.
    pub(crate) fn with_grid(nx: usize, ny: usize, px: usize, py: usize, rank: usize) -> Self {
        assert!(rank < px * py, "rank {rank} outside {px}x{py} grid");
        assert!(px <= nx && py <= ny, "more processes than grid cells");
        let cx = rank % px;
        let cy = rank / px;
        let (x0, lnx) = block_range(nx, px, cx);
        let (y0, lny) = block_range(ny, py, cy);
        CartDecomp {
            px,
            py,
            cx,
            cy,
            x0,
            lnx,
            y0,
            lny,
        }
    }

    /// Rank of the west neighbour, if any.
    pub(crate) fn west(&self) -> Option<usize> {
        (self.cx > 0).then(|| self.cy * self.px + self.cx - 1)
    }

    /// Rank of the east neighbour, if any.
    pub(crate) fn east(&self) -> Option<usize> {
        (self.cx + 1 < self.px).then(|| self.cy * self.px + self.cx + 1)
    }

    /// Rank of the north neighbour (lower y), if any.
    pub(crate) fn north(&self) -> Option<usize> {
        (self.cy > 0).then(|| (self.cy - 1) * self.px + self.cx)
    }

    /// Rank of the south neighbour (higher y), if any.
    pub(crate) fn south(&self) -> Option<usize> {
        (self.cy + 1 < self.py).then(|| (self.cy + 1) * self.px + self.cx)
    }

    /// The neighbour rank in a direction, if any.
    pub(crate) fn neighbor(&self, dir: Dir) -> Option<usize> {
        match dir {
            Dir::West => self.west(),
            Dir::East => self.east(),
            Dir::North => self.north(),
            Dir::South => self.south(),
        }
    }

    /// Cells on the edge towards `dir`, hence in the halo travelling
    /// that way: a west/east edge is a column of `lny` cells, a
    /// north/south edge a row of `lnx`.
    pub(crate) fn edge_cells(&self, dir: Dir) -> usize {
        match dir {
            Dir::West | Dir::East => self.lny,
            Dir::North | Dir::South => self.lnx,
        }
    }

    /// Exact byte length of this rank's serialised solver state
    /// ([`RankState::save_state`](crate::RankState::save_state)): the
    /// iteration and five length headers, then η with its north/south
    /// halo cells, the west and east halo columns, u on x faces and v
    /// on y faces, 8 bytes a value.
    pub fn state_len(&self) -> usize {
        let (lnx, lny) = (self.lnx, self.lny);
        8 * (6 + lnx * (lny + 2) + 2 * lny + (lnx + 1) * lny + lnx * (lny + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_exactly() {
        for (n, parts) in [(10usize, 3usize), (16, 4), (7, 7), (100, 32)] {
            let mut total = 0;
            let mut next = 0;
            for i in 0..parts {
                let (off, len) = block_range(n, parts, i);
                assert_eq!(off, next, "contiguous");
                total += len;
                next = off + len;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn choose_grid_prefers_square() {
        assert_eq!(choose_grid(1024), (32, 32));
        assert_eq!(choose_grid(64), (8, 8));
        assert_eq!(choose_grid(6), (3, 2));
        assert_eq!(choose_grid(7), (7, 1));
        assert_eq!(choose_grid(1), (1, 1));
    }

    #[test]
    fn neighbours_on_3x2_grid() {
        // px=3, py=2; rank 4 is (cx=1, cy=1).
        let d = CartDecomp::with_grid(9, 4, 3, 2, 4);
        assert_eq!(d.west(), Some(3));
        assert_eq!(d.east(), Some(5));
        assert_eq!(d.north(), Some(1));
        assert_eq!(d.south(), None);
    }

    #[test]
    fn corner_rank_has_two_neighbours() {
        let d = CartDecomp::with_grid(9, 4, 3, 2, 0);
        assert_eq!(d.west(), None);
        assert_eq!(d.north(), None);
        assert_eq!(d.east(), Some(1));
        assert_eq!(d.south(), Some(3));
    }

    #[test]
    fn owned_ranges_tile_the_domain() {
        let (nx, ny, px, py) = (10, 7, 3, 2);
        let mut owned = vec![false; nx * ny];
        for rank in 0..px * py {
            let d = CartDecomp::with_grid(nx, ny, px, py, rank);
            for j in d.y0..d.y0 + d.lny {
                for i in d.x0..d.x0 + d.lnx {
                    assert!(!owned[j * nx + i], "cell ({i},{j}) owned twice");
                    owned[j * nx + i] = true;
                }
            }
        }
        assert!(owned.iter().all(|&o| o));
    }
}
