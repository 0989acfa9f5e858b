//! Simulation parameters for the shallow-water solver.

use crate::decomp::CartDecomp;

/// Gravitational acceleration, m/s².
pub(crate) const GRAVITY: f64 = 9.81;

/// Parameters of a tsunami run.
#[derive(Clone, Debug, PartialEq)]
pub struct TsunamiParams {
    /// Global grid cells in x.
    pub nx: usize,
    /// Global grid cells in y.
    pub ny: usize,
    /// Grid spacing in metres (uniform in x and y).
    pub dx: f64,
    /// Time step in seconds.
    pub dt: f64,
    /// Uniform ocean depth in metres.
    pub depth: f64,
    /// Initial free-surface displacement amplitude (metres) — the
    /// earthquake-generated hump.
    pub amplitude: f64,
    /// Hump centre as a fraction of the domain (0..1, 0..1).
    pub center: (f64, f64),
    /// Hump standard deviation as a fraction of the domain width.
    pub sigma_frac: f64,
    /// Explicit process grid `(px, py)`; `None` chooses a near-square
    /// grid. The paper's tsunami run behaves like a strongly anisotropic
    /// decomposition (east–west halos ≫ north–south), which an explicit
    /// wide grid reproduces.
    pub process_grid: Option<(usize, usize)>,
}

impl TsunamiParams {
    /// A stable configuration for an `nx × ny` grid: deep-ocean depth,
    /// 1 km cells and a time step at half the CFL limit.
    pub fn stable(nx: usize, ny: usize) -> Self {
        let dx = 1000.0;
        let depth = 4000.0;
        let wave_speed = (GRAVITY * depth).sqrt();
        // 2-D CFL for the explicit scheme: dt < dx / (c·√2); take half.
        let dt = 0.5 * dx / (wave_speed * std::f64::consts::SQRT_2);
        TsunamiParams {
            nx,
            ny,
            dx,
            dt,
            depth,
            amplitude: 2.0,
            center: (0.5, 0.5),
            sigma_frac: 0.05,
            process_grid: None,
        }
    }

    /// Same as [`TsunamiParams::stable`] with an explicit process grid.
    pub fn stable_with_grid(nx: usize, ny: usize, px: usize, py: usize) -> Self {
        let mut p = Self::stable(nx, ny);
        p.process_grid = Some((px, py));
        p
    }

    /// Rank `rank`'s block of the grid when `nprocs` ranks run it: on
    /// the explicit [`TsunamiParams::process_grid`], else on a
    /// near-square one.
    ///
    /// # Panics
    /// Panics when an explicit process grid does not cover `nprocs`.
    pub fn decomp(&self, nprocs: usize, rank: usize) -> CartDecomp {
        match self.process_grid {
            Some((px, py)) => {
                assert_eq!(px * py, nprocs, "process grid must cover nprocs");
                CartDecomp::with_grid(self.nx, self.ny, px, py, rank)
            }
            None => CartDecomp::new(self.nx, self.ny, nprocs, rank),
        }
    }

    /// Initial free-surface displacement at global cell `(i, j)`.
    pub(crate) fn initial_eta(&self, i: usize, j: usize) -> f64 {
        let x = (i as f64 + 0.5) / self.nx as f64;
        let y = (j as f64 + 0.5) / self.ny as f64;
        let (cx, cy) = self.center;
        let s2 = self.sigma_frac * self.sigma_frac;
        let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
        self.amplitude * (-d2 / (2.0 * s2)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_params_respect_cfl() {
        // The explicit scheme is stable below a CFL number of 1/√2.
        let p = TsunamiParams::stable(128, 64);
        let cfl = (GRAVITY * p.depth).sqrt() * p.dt / p.dx;
        assert!(cfl < 1.0 / std::f64::consts::SQRT_2);
        assert!(p.dt > 0.0);
    }

    #[test]
    fn initial_condition_peaks_at_center() {
        let p = TsunamiParams::stable(100, 100);
        let peak = p.initial_eta(50, 50);
        assert!(peak > 0.9 * p.amplitude);
        assert!(p.initial_eta(0, 0) < 1e-6);
        assert!(peak <= p.amplitude);
    }
}
