//! The parallel shallow-water solver: one time step of [`RankState`]
//! over a [`HaloLink`].
//!
//! Per step, ship the four boundary edges to the Cartesian neighbours
//! (buffered sends, so no ordering hazards), install the received halos,
//! and run the kernel update. η is the only field needing a halo, so each
//! iteration costs one message per neighbour — the double-diagonal
//! pattern of Fig. 5b. The traced world, the replay engine and the tests
//! all drive this one step.

use crate::kernel::{Dir, RankState};
use crate::link::HaloLink;
use crate::params::TsunamiParams;

const TAG_HALO_BASE: u32 = 20;

/// Wire tag of a halo message travelling in direction `dir`.
pub fn halo_tag(dir: Dir) -> u32 {
    // Tag identifies the direction of travel.
    TAG_HALO_BASE
        + match dir {
            Dir::West => 0,
            Dir::East => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
}

/// Is `tag` one of the four [`halo_tag`]s?
pub fn is_halo_tag(tag: u32) -> bool {
    Dir::ALL.into_iter().any(|d| halo_tag(d) == tag)
}

impl RankState {
    /// Advance one time step over `link`: stamp the iteration as the
    /// phase, send every edge (in [`Dir::ALL`] order), receive every
    /// halo, update. Edges are serialised straight into pooled message
    /// buffers and halos installed straight from the received payloads,
    /// so each η edge is copied exactly once in each direction and a
    /// steady-state step allocates nothing (`runtime.alloc.msg_buffers`
    /// stays flat).
    pub fn step(&mut self, p: &TsunamiParams, link: &(impl HaloLink + ?Sized)) {
        link.set_phase(self.iteration());
        let (lnx, lny) = (self.decomp().lnx, self.decomp().lny);
        for dir in Dir::ALL {
            if let Some(nbr) = self.neighbor(dir) {
                let cells = match dir {
                    Dir::West | Dir::East => lny,
                    Dir::North | Dir::South => lnx,
                };
                link.send_with(nbr, halo_tag(dir), 8 * cells, &mut |buf| {
                    self.edge_out_bytes(dir, buf)
                });
            }
        }
        for dir in Dir::ALL {
            if let Some(nbr) = self.neighbor(dir) {
                // The halo landing on our `dir` side travelled in
                // direction `dir.opposite()` from the neighbour.
                link.recv_with(nbr, halo_tag(dir.opposite()), &mut |raw| {
                    self.set_halo_bytes(dir, raw)
                });
            }
        }
        self.update(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_simmpi::World;

    #[test]
    fn energy_stays_bounded() {
        let r = World::run(4, |c| {
            let p = TsunamiParams::stable(32, 32);
            let mut st = RankState::new(&p, c.size(), c.rank());
            let energy = |st: &RankState| {
                let local: f64 = st.local_eta().iter().map(|e| e * e).sum();
                c.allgather(&[local]).iter().sum::<f64>()
            };
            let e0 = energy(&st);
            for _ in 0..50 {
                st.step(&p, c);
            }
            (e0, energy(&st))
        });
        let (e0, e1) = r.outputs[0];
        assert!(e0 > 0.0);
        assert!(e1 < 10.0 * e0, "unstable: {e0} -> {e1}");
        assert!(e1 > 1e-3 * e0, "wave vanished: {e0} -> {e1}");
    }

    #[test]
    fn wave_propagates_outward() {
        let r = World::run(1, |c| {
            let p = TsunamiParams::stable(64, 64);
            let mut st = RankState::new(&p, 1, 0);
            let before = st.local_eta();
            for _ in 0..60 {
                st.step(&p, c);
            }
            (before, st.local_eta())
        });
        let (before, after) = &r.outputs[0];
        let corner = 5 * 64 + 5;
        assert!(before[corner].abs() < 1e-9);
        assert!(after[corner].abs() > 1e-12);
        let center = 32 * 64 + 32;
        assert!(after[center].abs() < before[center]);
    }

    #[test]
    fn save_restore_roundtrip_preserves_trajectory() {
        let r = World::run(4, |c| {
            let p = TsunamiParams::stable(24, 24);
            let mut st = RankState::new(&p, c.size(), c.rank());
            let run = |st: &mut RankState| {
                for _ in 0..10 {
                    st.step(&p, c);
                }
            };
            run(&mut st);
            let snap = st.save_state();
            run(&mut st);
            let straight = st.local_eta();
            st.restore_state(&snap).expect("restore");
            assert_eq!(st.iteration(), 10);
            run(&mut st);
            (straight, st.local_eta())
        });
        for (straight, replayed) in r.outputs {
            assert_eq!(straight, replayed, "replay must be bit-identical");
        }
    }

    #[test]
    fn halo_traffic_is_neighbour_only() {
        let r = World::run(16, |c| {
            let p = TsunamiParams::stable(32, 32);
            let mut st = RankState::new(&p, c.size(), c.rank());
            for _ in 0..3 {
                st.step(&p, c);
            }
        });
        let m = r.trace.byte_matrix();
        for (s, d, _) in m.entries() {
            let diff = s.abs_diff(d);
            assert!(
                diff == 1 || diff == 4,
                "non-neighbour stencil traffic {s}->{d}"
            );
        }
    }

    #[test]
    fn halo_tags_are_recognised() {
        for dir in Dir::ALL {
            assert!(is_halo_tag(halo_tag(dir)));
        }
        assert!(!is_halo_tag(TAG_HALO_BASE + 4));
        assert!(!is_halo_tag(TAG_HALO_BASE - 1));
    }
}
