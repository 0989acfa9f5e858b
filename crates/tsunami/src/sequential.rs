//! Sequential reference solver.
//!
//! Identical arithmetic to [`RankState::step`](crate::RankState::step),
//! on the global grid, with no communication. Because the parallel
//! step's per-cell updates use exactly the same expressions (halos only
//! *transport* values), the parallel field must match this reference
//! bit-for-bit — the strongest possible correctness oracle for both the
//! solver and the recovery paths built on top of it.

use crate::params::{TsunamiParams, GRAVITY};

/// Sequential solver state over the global grid.
pub struct SequentialSim {
    p: TsunamiParams,
    /// η at cell centres, nx × ny row-major (no halo needed).
    pub eta: Vec<f64>,
    /// u on x faces: (nx+1) × ny.
    u: Vec<f64>,
    /// v on y faces: nx × (ny+1).
    v: Vec<f64>,
}

impl SequentialSim {
    /// Initialise with the earthquake hump.
    pub fn new(p: TsunamiParams) -> Self {
        let mut eta = vec![0.0; p.nx * p.ny];
        for j in 0..p.ny {
            for i in 0..p.nx {
                eta[j * p.nx + i] = p.initial_eta(i, j);
            }
        }
        SequentialSim {
            u: vec![0.0; (p.nx + 1) * p.ny],
            v: vec![0.0; p.nx * (p.ny + 1)],
            eta,
            p,
        }
    }

    /// Advance one step.
    pub(crate) fn step(&mut self) {
        let p = &self.p;
        let (nx, ny) = (p.nx, p.ny);
        let gdt = GRAVITY * p.dt / p.dx;
        for j in 0..ny {
            for i in 0..=nx {
                let idx = j * (nx + 1) + i;
                if i == 0 || i == nx {
                    self.u[idx] = 0.0;
                } else {
                    self.u[idx] -= gdt * (self.eta[j * nx + i] - self.eta[j * nx + i - 1]);
                }
            }
        }
        for j in 0..=ny {
            for i in 0..nx {
                let idx = j * nx + i;
                if j == 0 || j == ny {
                    self.v[idx] = 0.0;
                } else {
                    self.v[idx] -= gdt * (self.eta[j * nx + i] - self.eta[(j - 1) * nx + i]);
                }
            }
        }
        let ddt = p.depth * p.dt / p.dx;
        for j in 0..ny {
            for i in 0..nx {
                let du = self.u[j * (nx + 1) + i + 1] - self.u[j * (nx + 1) + i];
                let dv = self.v[(j + 1) * nx + i] - self.v[j * nx + i];
                self.eta[j * nx + i] -= ddt * (du + dv);
            }
        }
    }

    /// Run `iters` steps.
    pub fn run(&mut self, iters: u64) {
        for _ in 0..iters {
            self.step();
        }
    }
}

/// Run the sequential solver for `iters` steps and return the final η.
#[cfg(test)]
fn solve_sequential(p: TsunamiParams, iters: u64) -> Vec<f64> {
    let mut sim = SequentialSim::new(p);
    sim.run(iters);
    sim.eta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankState;
    use hcft_simmpi::World;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for nprocs in [1usize, 2, 4, 6, 9] {
            let p = TsunamiParams::stable(30, 24);
            let reference = solve_sequential(p.clone(), 25);
            let pclone = p.clone();
            let r = World::run(nprocs, move |c| {
                let mut st = RankState::new(&pclone, c.size(), c.rank());
                for _ in 0..25 {
                    st.step(&pclone, c);
                }
                (*st.decomp(), st.local_eta())
            });
            let mut parallel = vec![0.0; p.nx * p.ny];
            for (d, local) in &r.outputs {
                for j in 0..d.lny {
                    let row = (d.y0 + j) * p.nx + d.x0;
                    parallel[row..row + d.lnx].copy_from_slice(&local[j * d.lnx..(j + 1) * d.lnx]);
                }
            }
            assert_eq!(
                parallel, reference,
                "parallel ({nprocs} ranks) diverged from sequential"
            );
        }
    }

    #[test]
    fn mass_is_conserved() {
        let p = TsunamiParams::stable(40, 40);
        let mut sim = SequentialSim::new(p);
        let mass0: f64 = sim.eta.iter().sum();
        sim.run(100);
        let mass1: f64 = sim.eta.iter().sum();
        // Reflective walls: total volume is conserved up to roundoff.
        assert!(
            (mass0 - mass1).abs() < 1e-9 * mass0.abs().max(1.0),
            "mass drifted: {mass0} -> {mass1}"
        );
    }

    #[test]
    fn flat_ocean_stays_flat() {
        let mut p = TsunamiParams::stable(16, 16);
        p.amplitude = 0.0;
        let eta = solve_sequential(p, 50);
        assert!(eta.iter().all(|&e| e == 0.0));
    }
}
