//! The parallel shallow-water solver: the decomposition's one halo
//! exchange and one time step of [`RankState`] over a [`HaloLink`].
//!
//! Per step, ship the four boundary edges to the Cartesian neighbours
//! (buffered sends, so no ordering hazards), install the received halos,
//! and run the kernel update. η is the only field needing a halo, so each
//! iteration costs one message per neighbour — the double-diagonal
//! pattern of Fig. 5b.
//!
//! Who sends how many bytes to whom depends on the decomposition alone,
//! so the exchange is [`CartDecomp::exchange`]: the replay engine and the
//! tests drive it through [`RankState::step`], which fills and installs
//! real η edges; the traced world drives it through
//! [`CartDecomp::exchange_shape`], which sends every edge as
//! [`HaloLink::send_zeros`] of the same length — on a `Comm`, a view of
//! one shared zero block, so no payload byte is written — and keeps no
//! solver state at all.

use crate::decomp::CartDecomp;
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

impl CartDecomp {
    /// One halo exchange over `link`: stamp `phase` (the step's
    /// iteration) on this rank's sends, send an edge of
    /// `CartDecomp::edge_cells` cells to every neighbour (in
    /// [`Dir::ALL`] order, on its [`halo_tag`]), then receive every halo.
    ///
    /// `fill(state, dir, buf)` writes the edge towards `dir` into the
    /// empty pooled message buffer; with no `fill`, every edge goes out
    /// as [`HaloLink::send_zeros`]. `install(state, dir, raw)` takes the
    /// halo landing on the `dir` side. A caller that only needs the
    /// traffic passes no filler and a no-op install; a solver passes its
    /// own edge and halo methods with itself as `state`.
    pub fn exchange<S: ?Sized>(
        &self,
        phase: u64,
        link: &(impl HaloLink + ?Sized),
        state: &mut S,
        fill: Option<impl Fn(&S, Dir, &mut Vec<u8>)>,
        install: impl Fn(&mut S, Dir, &[u8]),
    ) {
        link.set_phase(phase);
        for dir in Dir::ALL {
            if let Some(nbr) = self.neighbor(dir) {
                let (tag, len) = (halo_tag(dir), 8 * self.edge_cells(dir));
                match &fill {
                    Some(fill) => link.send_with(nbr, tag, len, &mut |buf| fill(state, dir, buf)),
                    None => link.send_zeros(nbr, tag, len),
                }
            }
        }
        for dir in Dir::ALL {
            if let Some(nbr) = self.neighbor(dir) {
                // The halo landing on our `dir` side travelled in
                // direction `dir.opposite()` from the neighbour.
                link.recv_with(nbr, halo_tag(dir.opposite()), &mut |raw| {
                    install(state, dir, raw)
                });
            }
        }
    }

    /// The exchange's traffic without a field: every edge goes out as
    /// zeros of its decomposed length ([`HaloLink::send_zeros`]) and
    /// every halo is dropped. Sends, tags, lengths and phases are those
    /// of [`RankState::step`] at iteration `phase`; the traced world runs
    /// this.
    pub fn exchange_shape(&self, phase: u64, link: &(impl HaloLink + ?Sized)) {
        self.exchange(
            phase,
            link,
            &mut (),
            None::<fn(&(), Dir, &mut Vec<u8>)>,
            |(), _, _| {},
        );
    }
}

impl RankState {
    /// Advance one time step over `link`: the decomposition's halo
    /// exchange at this iteration's phase, then the update. Edges are
    /// serialised straight into pooled message buffers and halos
    /// installed straight from the received payloads, so each η edge is
    /// copied exactly once in each direction and a steady-state step
    /// allocates nothing (`runtime.alloc.msg_buffers` stays flat).
    pub fn step(&mut self, p: &TsunamiParams, link: &(impl HaloLink + ?Sized)) {
        // A copy, so the exchange can borrow `self` as its state.
        let d = *self.decomp();
        d.exchange(
            self.iteration(),
            link,
            self,
            Some(Self::edge_out_bytes),
            Self::set_halo_bytes,
        );
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
