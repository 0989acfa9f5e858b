//! Property tests for the two stencil kernels' exchange and checkpoint
//! surfaces: the wire bytes of an edge must land bit-identical in the
//! neighbour's halo for every geometry, and save/restore must be a
//! bitwise identity at arbitrary iteration counts. These are the
//! contracts the zero-copy message path and pooled checkpoint
//! serialization rely on. The shallow-water exchange is also traced
//! twice, once stepping a real field and once shape-only as the traced
//! world runs it, and the two must send the same messages.

use proptest::prelude::*;

use hcft_simmpi::{World, WorldConfig};
use hcft_tsunami::heat3d::{Face, Heat3dParams, Heat3dState};
use hcft_tsunami::kernel::{Dir, RankState};
use hcft_tsunami::TsunamiParams;

/// One sender's traced messages, in send order: `(dst, bytes, tag, phase)`.
type Stream = Vec<(u32, u64, u32, u64)>;

/// The per-sender streams of `steps` steps of `p` on `nprocs` ranks:
/// full [`RankState::step`]s when `full`, else the field-less
/// [`CartDecomp::exchange_shape`](hcft_tsunami::CartDecomp::exchange_shape).
fn traced_streams(p: &TsunamiParams, nprocs: usize, steps: u64, full: bool) -> Vec<Stream> {
    let cfg = WorldConfig {
        trace_events: true,
        ..WorldConfig::default()
    };
    let p = p.clone();
    let r = World::run_with(nprocs, cfg, move |c| {
        if full {
            let mut st = RankState::new(&p, c.size(), c.rank());
            for _ in 0..steps {
                st.step(&p, c);
            }
        } else {
            let d = p.decomp(c.size(), c.rank());
            for it in 0..steps {
                d.exchange_shape(it, c);
            }
        }
    });
    r.trace
        .take_events()
        .into_iter()
        .map(|s| s.iter().map(|e| (e.dst, e.bytes, e.tag, e.phase)).collect())
        .collect()
}

proptest! {
    /// Shipping an edge through the byte path (serialise → install →
    /// read back) lands the sender's interior edge, bit-identical, in
    /// the neighbour's halo, for arbitrary decompositions.
    #[test]
    fn tsunami_halo_exchange_roundtrip(
        lnx in 1usize..6,
        lny in 1usize..6,
        px in 1usize..5,
        py in 1usize..5,
        warm in 0u64..4,
        rank_seed in 0usize..64,
    ) {
        let p = TsunamiParams::stable_with_grid(lnx * px, lny * py, px, py);
        let nprocs = px * py;
        let rank = rank_seed % nprocs;
        let mut a = RankState::new(&p, nprocs, rank);
        for _ in 0..warm {
            a.update(&p);
        }
        // The interior, row-major: independent of the column storage
        // the wire path reads.
        let eta = a.local_eta();
        let mut wire = Vec::new();
        for dir in Dir::ALL {
            let edge: Vec<f64> = match dir {
                Dir::West => (0..lny).map(|j| eta[j * lnx]).collect(),
                Dir::East => (0..lny).map(|j| eta[j * lnx + lnx - 1]).collect(),
                Dir::North => eta[..lnx].to_vec(),
                Dir::South => eta[(lny - 1) * lnx..].to_vec(),
            };
            a.edge_out_bytes(dir, &mut wire);
            // The edge arrives on the neighbour's opposite side; any
            // rank stands in for the neighbour (same extents).
            let mut b = RankState::new(&p, nprocs, rank);
            b.set_halo_bytes(dir.opposite(), &wire);
            let got = b.halo_in(dir.opposite());
            prop_assert_eq!(got.len(), edge.len());
            for (g, e) in got.iter().zip(&edge) {
                prop_assert_eq!(g.to_bits(), e.to_bits());
            }
        }
    }

    /// Save → restore is a bitwise identity for the shallow-water rank
    /// state at any iteration count, into any victim state.
    #[test]
    fn tsunami_save_restore_identity(
        nx in 1usize..8,
        ny in 1usize..8,
        iters in 0u64..32,
        victim_iters in 0u64..8,
    ) {
        let p = TsunamiParams::stable(nx, ny);
        let mut s = RankState::new(&p, 1, 0);
        for _ in 0..iters {
            s.update(&p);
        }
        let snap = s.save_state();
        prop_assert_eq!(snap.len(), s.state_len());
        let mut restored = RankState::new(&p, 1, 0);
        for _ in 0..victim_iters {
            restored.update(&p);
        }
        restored.restore_state(&snap).expect("restore valid snapshot");
        prop_assert_eq!(&restored, &s);
        prop_assert_eq!(restored.iteration(), iters);
    }

    /// The shape-only exchange the traced world runs sends exactly what
    /// the full step sends — the same destinations, lengths, tags and
    /// phases in the same per-sender order — on every decomposition,
    /// uneven block splits and 1×N, N×1 and 1×1 process grids included;
    /// and the decomposition's checkpoint length is the serialised one.
    #[test]
    fn shape_only_exchange_sends_what_the_full_step_sends(
        px in 1usize..6,
        py in 1usize..6,
        extra_x in 0usize..9,
        extra_y in 0usize..9,
        steps in 2u64..4,
    ) {
        let (nx, ny) = (px + extra_x, py + extra_y);
        let p = TsunamiParams::stable_with_grid(nx, ny, px, py);
        let nprocs = px * py;
        let full = traced_streams(&p, nprocs, steps, true);
        let shape = traced_streams(&p, nprocs, steps, false);
        prop_assert_eq!(full.len(), nprocs);
        prop_assert_eq!(&shape, &full);
        for rank in 0..nprocs {
            let st = RankState::new(&p, nprocs, rank);
            prop_assert_eq!(p.decomp(nprocs, rank).state_len(), st.state_len());
            prop_assert_eq!(st.state_len(), st.save_state().len());
        }
    }

    /// Heat3d wire-halo install → read-back is exact on every face for
    /// arbitrary extents and payloads, and an outgoing plane is as long
    /// as the halo it fills.
    #[test]
    fn heat3d_halo_roundtrip(
        lnx in 1usize..5,
        lny in 1usize..5,
        lnz in 1usize..5,
        fill in proptest::collection::vec(any::<f64>(), 25),
    ) {
        let p = Heat3dParams::stable((lnx, lny, lnz), (1, 1, 1));
        let mut s = Heat3dState::new(&p, 1, 0);
        let mut wire = Vec::new();
        for f in Face::ALL {
            let n = s.halo_in(f).len();
            s.face_out_bytes(f, &mut wire);
            prop_assert_eq!(wire.len(), 8 * n);
            let plane: Vec<f64> = fill.iter().cycle().take(n).copied().collect();
            let bytes: Vec<u8> = plane.iter().flat_map(|x| x.to_le_bytes()).collect();
            s.set_halo_bytes(f, &bytes);
            for (b, w) in s.halo_in(f).iter().zip(&plane) {
                prop_assert_eq!(b.to_bits(), w.to_bits());
            }
        }
    }

    /// Save → restore is a bitwise identity for the heat kernel at any
    /// iteration count.
    #[test]
    fn heat3d_save_restore_identity(
        lnx in 1usize..5,
        lny in 1usize..5,
        lnz in 1usize..5,
        iters in 0u64..24,
        victim_iters in 0u64..6,
    ) {
        let p = Heat3dParams::stable((lnx, lny, lnz), (1, 1, 1));
        let mut s = Heat3dState::new(&p, 1, 0);
        for _ in 0..iters {
            s.update();
        }
        let snap = s.save_state();
        prop_assert_eq!(snap.len(), s.state_len());
        let mut restored = Heat3dState::new(&p, 1, 0);
        for _ in 0..victim_iters {
            restored.update();
        }
        restored.restore_state(&snap).expect("restore valid snapshot");
        prop_assert_eq!(&restored, &s);
        prop_assert_eq!(restored.iteration(), iters);
    }
}
