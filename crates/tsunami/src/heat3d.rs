//! A second workload: 3-D heat diffusion (seven-point stencil).
//!
//! §V closes with "the same results are expected for other HPC
//! applications" — this module provides the test vehicle: an explicit
//! 3-D diffusion solver with block decomposition and six-direction halo
//! exchange, structurally different from the tsunami code (three
//! dimensions, one field, different neighbour distances) but in the same
//! stencil class. The parallel solver is bit-identical to its sequential
//! reference, like the 2-D one.

use std::ops::Range;

use hcft_telemetry::HcftError;

use crate::link::HaloLink;

/// Parameters of a 3-D diffusion run.
#[derive(Clone, Debug, PartialEq)]
pub struct Heat3dParams {
    /// Global cells in x, y, z.
    pub dims: (usize, usize, usize),
    /// Process grid in x, y, z (product must equal the rank count).
    pub process_grid: (usize, usize, usize),
    /// Diffusion number α·dt/dx² (stability requires ≤ 1/6 in 3-D).
    pub r: f64,
}

impl Heat3dParams {
    /// A stable configuration on a `dims` grid with the given process
    /// grid.
    pub fn stable(dims: (usize, usize, usize), process_grid: (usize, usize, usize)) -> Self {
        Heat3dParams {
            dims,
            process_grid,
            r: 1.0 / 8.0,
        }
    }

    fn initial(&self, x: usize, y: usize, z: usize) -> f64 {
        // A hot brick in the centre of the domain.
        let inside = |v: usize, n: usize| v >= n / 3 && v < 2 * n / 3;
        if inside(x, self.dims.0) && inside(y, self.dims.1) && inside(z, self.dims.2) {
            100.0
        } else {
            0.0
        }
    }
}

/// Per-rank block bounds in one dimension.
fn block(n: usize, parts: usize, idx: usize) -> (usize, usize) {
    crate::decomp::block_range(n, parts, idx)
}

/// The field-index ranges of the plane `layer` cells in from face `f`
/// (0 = the halo, 1 = the outermost interior cells) of a block with
/// owned extents `ln`, in wire order: whole x-rows, or single cells on
/// the strided x faces.
fn plane(ln: (usize, usize, usize), f: Face, layer: usize) -> impl Iterator<Item = Range<usize>> {
    let (lnx, lny, lnz) = ln;
    let sx = lnx + 2;
    let sxy = sx * (lny + 2);
    let at = |n: usize| match f {
        Face::West | Face::North | Face::Down => layer,
        Face::East | Face::South | Face::Up => n + 1 - layer,
    };
    // (first index, rows, row stride, runs per row, run stride, run length)
    let (base, rows, row_stride, runs, run_stride, len) = match f {
        Face::West | Face::East => (at(lnx), lnz, sxy, lny, sx, 1),
        Face::North | Face::South => (at(lny) * sx + 1, lnz, sxy, 1, 0, lnx),
        Face::Down | Face::Up => (at(lnz) * sxy + 1, lny, sx, 1, 0, lnx),
    };
    (1..=rows).flat_map(move |row| {
        (1..=runs).map(move |run| {
            let start = base + row * row_stride + run * run_stride;
            start..start + len
        })
    })
}

/// One rank's state: temperature with a one-cell halo on all six faces.
#[derive(Clone, Debug)]
pub struct Heat3dState {
    p: Heat3dParams,
    /// This rank's process-grid coordinates.
    c: (usize, usize, usize),
    /// Owned extents.
    lo: (usize, usize, usize),
    ln: (usize, usize, usize),
    /// Field with halo: (lnx+2)(lny+2)(lnz+2), x fastest.
    t: Vec<f64>,
    /// Persistent double-buffer for [`Heat3dState::update`] — allocated
    /// once, then swapped with `t` each step instead of cloning the
    /// field per iteration. Pure scratch: not part of the logical state.
    scratch: Vec<f64>,
    iter: u64,
}

/// Two states are equal when their logical fields (parameters,
/// placement, interior temperature, iteration) agree. Halo cells and the
/// scratch buffer are derived data — rewritten by the exchange/mirrors
/// before every read — and are excluded.
impl PartialEq for Heat3dState {
    fn eq(&self, other: &Self) -> bool {
        if !(self.p == other.p
            && self.c == other.c
            && self.lo == other.lo
            && self.ln == other.ln
            && self.iter == other.iter)
        {
            return false;
        }
        let (lnx, lny, lnz) = self.ln;
        let sx = lnx + 2;
        let sxy = sx * (lny + 2);
        for k in 1..=lnz {
            for j in 1..=lny {
                let row = k * sxy + j * sx + 1;
                if self.t[row..row + lnx] != other.t[row..row + lnx] {
                    return false;
                }
            }
        }
        true
    }
}

/// The six halo faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Face {
    /// −x / +x.
    West,
    /// +x.
    East,
    /// −y.
    North,
    /// +y.
    South,
    /// −z.
    Down,
    /// +z.
    Up,
}

impl Face {
    /// All faces.
    pub const ALL: [Face; 6] = [
        Face::West,
        Face::East,
        Face::North,
        Face::South,
        Face::Down,
        Face::Up,
    ];

    /// The face a message sent through this one arrives on.
    pub(crate) fn opposite(self) -> Face {
        match self {
            Face::West => Face::East,
            Face::East => Face::West,
            Face::North => Face::South,
            Face::South => Face::North,
            Face::Down => Face::Up,
            Face::Up => Face::Down,
        }
    }
}

impl Heat3dState {
    /// Initialise rank `rank`'s block.
    ///
    /// # Panics
    /// Panics if the process grid does not cover `nprocs` or exceeds the
    /// domain.
    pub fn new(p: &Heat3dParams, nprocs: usize, rank: usize) -> Self {
        let (px, py, pz) = p.process_grid;
        assert_eq!(px * py * pz, nprocs, "process grid covers nprocs");
        assert!(
            px <= p.dims.0 && py <= p.dims.1 && pz <= p.dims.2,
            "more processes than cells"
        );
        let cx = rank % px;
        let cy = (rank / px) % py;
        let cz = rank / (px * py);
        let (x0, lnx) = block(p.dims.0, px, cx);
        let (y0, lny) = block(p.dims.1, py, cy);
        let (z0, lnz) = block(p.dims.2, pz, cz);
        let mut t = vec![0.0; (lnx + 2) * (lny + 2) * (lnz + 2)];
        for k in 0..lnz {
            for j in 0..lny {
                for i in 0..lnx {
                    let idx = (k + 1) * (lnx + 2) * (lny + 2) + (j + 1) * (lnx + 2) + i + 1;
                    t[idx] = p.initial(x0 + i, y0 + j, z0 + k);
                }
            }
        }
        let scratch = vec![0.0; t.len()];
        Heat3dState {
            p: p.clone(),
            c: (cx, cy, cz),
            lo: (x0, y0, z0),
            ln: (lnx, lny, lnz),
            t,
            scratch,
            iter: 0,
        }
    }

    #[cfg(test)]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        // Halo coordinates (interior cell (i,j,k) at (+1,+1,+1)).
        (k) * (self.ln.0 + 2) * (self.ln.1 + 2) + (j) * (self.ln.0 + 2) + i
    }

    /// Completed iterations.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// Owned extents.
    #[cfg(test)]
    fn extents(&self) -> (usize, usize, usize) {
        self.ln
    }

    /// The neighbour rank across a face, if any.
    pub(crate) fn neighbor(&self, f: Face) -> Option<usize> {
        let (px, py, _pz) = self.p.process_grid;
        let (cx, cy, cz) = self.c;
        let at = |x: usize, y: usize, z: usize| z * px * py + y * px + x;
        match f {
            Face::West => (cx > 0).then(|| at(cx - 1, cy, cz)),
            Face::East => (cx + 1 < px).then(|| at(cx + 1, cy, cz)),
            Face::North => (cy > 0).then(|| at(cx, cy - 1, cz)),
            Face::South => (cy + 1 < py).then(|| at(cx, cy + 1, cz)),
            Face::Down => (cz > 0).then(|| at(cx, cy, cz - 1)),
            Face::Up => (cz + 1 < self.p.process_grid.2).then(|| at(cx, cy, cz + 1)),
        }
    }

    /// Cells in the plane across face `f`.
    fn face_len(&self, f: Face) -> usize {
        let (lnx, lny, lnz) = self.ln;
        match f {
            Face::West | Face::East => lny * lnz,
            Face::North | Face::South => lnx * lnz,
            Face::Down | Face::Up => lnx * lny,
        }
    }

    /// Serialise the outgoing face plane straight to its wire form
    /// (little-endian f64, x fastest, then y, then z, the face's own axis
    /// held fixed): what [`Heat3dState::step`] fills the pooled message
    /// buffer with.
    pub fn face_out_bytes(&self, f: Face, out: &mut Vec<u8>) {
        out.clear();
        for r in plane(self.ln, f, 1) {
            for x in &self.t[r] {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Read back the halo plane currently installed on face `f`, in wire
    /// order. Test/diagnostic inverse of [`Heat3dState::set_halo_bytes`].
    pub fn halo_in(&self, f: Face) -> Vec<f64> {
        plane(self.ln, f, 0)
            .flat_map(|r| &self.t[r])
            .copied()
            .collect()
    }

    /// Install a halo plane received in wire form — the inverse of
    /// [`Heat3dState::face_out_bytes`], with no f64 staging vector.
    ///
    /// # Panics
    /// Panics on a wrong plane size.
    pub fn set_halo_bytes(&mut self, f: Face, bytes: &[u8]) {
        assert_eq!(bytes.len(), 8 * self.face_len(f), "halo plane size");
        let mut cells = bytes.chunks_exact(8);
        for r in plane(self.ln, f, 0) {
            for (x, c) in self.t[r].iter_mut().zip(&mut cells) {
                *x = f64::from_le_bytes(c.try_into().expect("f64 cell"));
            }
        }
    }

    /// Advance one step over `link`: stamp the iteration as the phase,
    /// send every face plane (in [`Face::ALL`] order), receive every
    /// halo plane, update. Planes go straight between the field and
    /// pooled message buffers, so a steady-state step allocates nothing.
    pub fn step(&mut self, link: &(impl HaloLink + ?Sized)) {
        link.set_phase(self.iter);
        for f in Face::ALL {
            if let Some(nbr) = self.neighbor(f) {
                link.send_with(nbr, face_tag(f), 8 * self.face_len(f), &mut |buf| {
                    self.face_out_bytes(f, buf)
                });
            }
        }
        for f in Face::ALL {
            if let Some(nbr) = self.neighbor(f) {
                link.recv_with(nbr, face_tag(f.opposite()), &mut |raw| {
                    self.set_halo_bytes(f, raw)
                });
            }
        }
        self.update();
    }

    /// One explicit diffusion step (halos must be installed). Domain
    /// boundaries are insulated (zero-flux): the halo on a physical
    /// boundary mirrors the interior cell.
    pub fn update(&mut self) {
        let (lnx, lny, lnz) = self.ln;
        let sx = lnx + 2;
        let sxy = sx * (lny + 2);
        // Physical boundaries: mirror. A face is a domain boundary only
        // on the first/last rank along its axis, so the predicates hoist
        // out of the loops; x-mirrors are strided, y/z-mirrors copy
        // whole x-rows.
        let (px, py, pz) = self.p.process_grid;
        let (cx, cy, cz) = self.c;
        if cx == 0 {
            for k in 1..=lnz {
                for j in 1..=lny {
                    let base = k * sxy + j * sx;
                    self.t[base] = self.t[base + 1];
                }
            }
        }
        if cx + 1 == px {
            for k in 1..=lnz {
                for j in 1..=lny {
                    let base = k * sxy + j * sx;
                    self.t[base + lnx + 1] = self.t[base + lnx];
                }
            }
        }
        if cy == 0 {
            for k in 1..=lnz {
                let src = k * sxy + sx + 1;
                self.t.copy_within(src..src + lnx, k * sxy + 1);
            }
        }
        if cy + 1 == py {
            for k in 1..=lnz {
                let src = k * sxy + lny * sx + 1;
                self.t
                    .copy_within(src..src + lnx, k * sxy + (lny + 1) * sx + 1);
            }
        }
        if cz == 0 {
            for j in 1..=lny {
                let src = sxy + j * sx + 1;
                self.t.copy_within(src..src + lnx, j * sx + 1);
            }
        }
        if cz + 1 == pz {
            for j in 1..=lny {
                let src = lnz * sxy + j * sx + 1;
                self.t
                    .copy_within(src..src + lnx, (lnz + 1) * sxy + j * sx + 1);
            }
        }
        // Stencil sweep into the persistent double-buffer, then swap.
        // Each interior x-row is processed as seven slices so the inner
        // loop is bounds-check-free and auto-vectorizes; the operand
        // order matches the original scalar loop bit-for-bit. Halo cells
        // of `scratch` go stale across the swap, but every cell the
        // stencil reads (the six face planes) is rewritten by the halo
        // exchange or the mirrors before the next sweep, and corner/edge
        // halo lines are never read by a seven-point stencil.
        let r = self.p.r;
        let t = &self.t;
        let next = &mut self.scratch;
        for k in 1..=lnz {
            for j in 1..=lny {
                let base = k * sxy + j * sx + 1;
                let cc = &t[base..base + lnx];
                let cw = &t[base - 1..base - 1 + lnx];
                let ce = &t[base + 1..base + 1 + lnx];
                let cn = &t[base - sx..base - sx + lnx];
                let cs = &t[base + sx..base + sx + lnx];
                let cd = &t[base - sxy..base - sxy + lnx];
                let cu = &t[base + sxy..base + sxy + lnx];
                let out = &mut next[base..base + lnx];
                for i in 0..lnx {
                    let c = cc[i];
                    let sum = cw[i] + ce[i] + cn[i] + cs[i] + cd[i] + cu[i];
                    out[i] = c + r * (sum - 6.0 * c);
                }
            }
        }
        std::mem::swap(&mut self.t, &mut self.scratch);
        self.iter += 1;
    }

    /// Interior field, x fastest.
    #[cfg(test)]
    fn local_field(&self) -> Vec<f64> {
        let (lnx, lny, lnz) = self.ln;
        let mut out = Vec::with_capacity(lnx * lny * lnz);
        for k in 1..=lnz {
            for j in 1..=lny {
                for i in 1..=lnx {
                    out.push(self.t[self.idx(i, j, k)]);
                }
            }
        }
        out
    }

    /// Owned offsets.
    #[cfg(test)]
    fn offsets(&self) -> (usize, usize, usize) {
        self.lo
    }

    /// Exact checkpoint payload size, without serialising anything.
    pub fn state_len(&self) -> usize {
        let (lnx, lny, lnz) = self.ln;
        8 * (2 + lnx * lny * lnz)
    }

    /// Serialise the checkpoint payload: iteration count plus the
    /// interior field. Halos are derived data (rebuilt by the exchange
    /// and the boundary mirrors before the next sweep) and are not
    /// stored.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.save_state_into(&mut out);
        out
    }

    /// Serialise into caller-owned scratch (cleared first) — the
    /// allocation-free checkpoint path.
    pub fn save_state_into(&self, out: &mut Vec<u8>) {
        let (lnx, lny, lnz) = self.ln;
        let sx = lnx + 2;
        let sxy = sx * (lny + 2);
        out.clear();
        out.reserve(self.state_len());
        out.extend_from_slice(&self.iter.to_le_bytes());
        out.extend_from_slice(&((lnx * lny * lnz) as u64).to_le_bytes());
        for k in 1..=lnz {
            for j in 1..=lny {
                let row = k * sxy + j * sx + 1;
                for v in &self.t[row..row + lnx] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Restore a payload written by [`Heat3dState::save_state`] for a
    /// state of the same shape. Corrupt or truncated bytes are reported
    /// as [`HcftError::Recovery`] and leave the state untouched.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), HcftError> {
        let (lnx, lny, lnz) = self.ln;
        if bytes.len() != self.state_len() {
            return Err(HcftError::Recovery(format!(
                "heat3d checkpoint is {} bytes, expected {}",
                bytes.len(),
                self.state_len()
            )));
        }
        let cells = u64::from_le_bytes(bytes[8..16].try_into().expect("sized above")) as usize;
        if cells != lnx * lny * lnz {
            return Err(HcftError::Recovery(format!(
                "heat3d checkpoint holds {} cells, state has {}",
                cells,
                lnx * lny * lnz
            )));
        }
        self.iter = u64::from_le_bytes(bytes[..8].try_into().expect("sized above"));
        let sx = lnx + 2;
        let sxy = sx * (lny + 2);
        let mut src = bytes[16..].chunks_exact(8);
        for k in 1..=lnz {
            for j in 1..=lny {
                let row = k * sxy + j * sx + 1;
                for dst in &mut self.t[row..row + lnx] {
                    *dst = f64::from_le_bytes(
                        src.next().expect("sized above").try_into().expect("8-byte"),
                    );
                }
            }
        }
        Ok(())
    }
}

const TAG_FACE_BASE: u32 = 40;

/// Wire tag of a halo message crossing face `f` (the 3-D counterpart
/// of [`crate::solver::halo_tag`]).
pub(crate) fn face_tag(f: Face) -> u32 {
    TAG_FACE_BASE
        + match f {
            Face::West => 0,
            Face::East => 1,
            Face::North => 2,
            Face::South => 3,
            Face::Down => 4,
            Face::Up => 5,
        }
}

/// Is `tag` one of the six `face_tag`s?
pub fn is_face_tag(tag: u32) -> bool {
    Face::ALL.into_iter().any(|f| face_tag(f) == tag)
}

/// Sequential reference: the same arithmetic on one rank.
#[cfg(test)]
fn solve_heat3d_sequential(dims: (usize, usize, usize), iters: u64) -> Vec<f64> {
    let p = Heat3dParams::stable(dims, (1, 1, 1));
    let mut st = Heat3dState::new(&p, 1, 0);
    for _ in 0..iters {
        st.update();
    }
    st.local_field()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_simmpi::{Comm, World};

    /// Rank `c`'s state after `iters` steps of a heat3d world.
    fn run(c: &Comm, p: &Heat3dParams, iters: u64) -> Heat3dState {
        let mut st = Heat3dState::new(p, c.size(), c.rank());
        for _ in 0..iters {
            st.step(c);
        }
        st
    }

    fn gather_global(states: &[Heat3dState], dims: (usize, usize, usize)) -> Vec<f64> {
        let mut global = vec![0.0; dims.0 * dims.1 * dims.2];
        for st in states {
            let (x0, y0, z0) = st.offsets();
            let (lnx, lny, lnz) = st.extents();
            let local = st.local_field();
            for k in 0..lnz {
                for j in 0..lny {
                    for i in 0..lnx {
                        global[(z0 + k) * dims.0 * dims.1 + (y0 + j) * dims.0 + x0 + i] =
                            local[k * lnx * lny + j * lnx + i];
                    }
                }
            }
        }
        global
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let dims = (12, 8, 6);
        let reference = solve_heat3d_sequential(dims, 10);
        for grid in [(2usize, 1usize, 1usize), (2, 2, 1), (2, 2, 2), (3, 2, 1)] {
            let nprocs = grid.0 * grid.1 * grid.2;
            let p = Heat3dParams::stable(dims, grid);
            let r = World::run(nprocs, move |c| run(c, &p, 10));
            let global = gather_global(&r.outputs, dims);
            assert_eq!(global, reference, "grid {grid:?} diverged");
        }
    }

    #[test]
    fn heat_diffuses_and_conserves_energy() {
        let dims = (12, 12, 12);
        let before = solve_heat3d_sequential(dims, 0);
        let after = solve_heat3d_sequential(dims, 50);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        // Insulated box: total heat conserved.
        assert!((sum(&before) - sum(&after)).abs() < 1e-6 * sum(&before));
        // Peak flattens.
        let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
        assert!(max(&after) < max(&before));
        // Corners warm up.
        assert!(after[0] > before[0]);
    }

    #[test]
    fn traffic_uses_three_neighbour_distances() {
        let p = Heat3dParams::stable((8, 8, 8), (2, 2, 2));
        let r = World::run(8, move |c| {
            run(c, &p, 2);
        });
        let m = r.trace.byte_matrix();
        for (s, d, _) in m.entries() {
            let dist = s.abs_diff(d);
            assert!(
                dist == 1 || dist == 2 || dist == 4,
                "unexpected edge {s}->{d}"
            );
        }
        // All three distances present (±x=1, ±y=2, ±z=4).
        for dist in [1usize, 2, 4] {
            assert!(
                m.entries().any(|(s, d, _)| s.abs_diff(d) == dist),
                "missing distance {dist}"
            );
        }
    }

    #[test]
    fn save_restore_replays_bitwise() {
        let p = Heat3dParams::stable((10, 6, 4), (1, 1, 1));
        let mut st = Heat3dState::new(&p, 1, 0);
        for _ in 0..7 {
            st.update();
        }
        let snap = st.save_state();
        let mut straight = st.clone();
        straight.update();
        st.update();
        st.restore_state(&snap).expect("restore");
        assert_eq!(st.iteration(), 7);
        st.update();
        assert_eq!(st, straight, "replay must be bit-identical");
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_panic() {
        let p = Heat3dParams::stable((8, 8, 8), (1, 1, 1));
        let mut st = Heat3dState::new(&p, 1, 0);
        st.update();
        let before = st.clone();
        let snap = st.save_state();

        // Truncated payload.
        let err = st.restore_state(&snap[..snap.len() - 1]).unwrap_err();
        assert!(matches!(err, HcftError::Recovery(_)), "got {err:?}");
        assert_eq!(st, before, "failed restore must not mutate state");

        // Shape mismatch: claim a different cell count.
        let mut bad = snap.clone();
        bad[8] ^= 0x01;
        let err = st.restore_state(&bad).unwrap_err();
        assert!(matches!(err, HcftError::Recovery(_)), "got {err:?}");
        assert_eq!(st, before, "failed restore must not mutate state");
    }

    #[test]
    fn face_planes_follow_the_wire_order() {
        let (lnx, lny, lnz) = (4, 3, 2);
        let p = Heat3dParams::stable((lnx, lny, lnz), (1, 1, 1));
        let mut st = Heat3dState::new(&p, 1, 0);
        // Number every interior cell by its x-fastest position.
        let mut payload = st.save_state();
        for (n, c) in payload[16..].chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&(n as f64).to_le_bytes());
        }
        st.restore_state(&payload).expect("restore");
        for f in Face::ALL {
            // The face's cells in x-fastest order, numbered as above.
            let want: Vec<f64> = (0..lnx * lny * lnz)
                .filter(|&n| {
                    let (i, j, k) = (n % lnx, n / lnx % lny, n / (lnx * lny));
                    match f {
                        Face::West => i == 0,
                        Face::East => i == lnx - 1,
                        Face::North => j == 0,
                        Face::South => j == lny - 1,
                        Face::Down => k == 0,
                        Face::Up => k == lnz - 1,
                    }
                })
                .map(|n| n as f64)
                .collect();
            let mut wire = Vec::new();
            st.face_out_bytes(f, &mut wire);
            let decoded: Vec<f64> = wire
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(decoded, want, "{f:?} wire");
            st.set_halo_bytes(f, &wire);
            assert_eq!(st.halo_in(f), want, "{f:?} installed from wire");
        }
    }

    #[test]
    fn neighbor_topology_is_symmetric() {
        let p = Heat3dParams::stable((6, 6, 6), (3, 2, 1));
        for rank in 0..6 {
            let st = Heat3dState::new(&p, 6, rank);
            for f in Face::ALL {
                if let Some(nbr) = st.neighbor(f) {
                    let other = Heat3dState::new(&p, 6, nbr);
                    assert_eq!(
                        other.neighbor(f.opposite()),
                        Some(rank),
                        "rank {rank} face {f:?}"
                    );
                }
            }
        }
    }
}
