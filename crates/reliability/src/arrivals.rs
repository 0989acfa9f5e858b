//! Failure arrival processes.
//!
//! For end-to-end failure injection the experiment driver needs *when*
//! failures strike, not only what they hit. Exponential arrivals model
//! the memoryless steady state (constant hazard, the usual MTBF
//! abstraction); Weibull with shape < 1 models the infant-mortality-heavy
//! behaviour observed on real HPC systems.

use rand::Rng;

/// A renewal process of failure arrivals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailureArrivals {
    /// Exponential inter-arrival times with the given mean (MTBF), hours.
    Exponential {
        /// Mean time between failures.
        mtbf: f64,
    },
    /// Weibull inter-arrival times: scale λ and shape k.
    Weibull {
        /// Scale parameter (hours).
        scale: f64,
        /// Shape parameter (k < 1: decreasing hazard).
        shape: f64,
    },
}

impl FailureArrivals {
    /// Exponential process with the given MTBF (hours).
    pub fn exponential(mtbf: f64) -> Self {
        assert!(mtbf > 0.0);
        FailureArrivals::Exponential { mtbf }
    }

    /// Weibull process. The mean inter-arrival is `scale·Γ(1 + 1/shape)`.
    pub fn weibull(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && shape > 0.0);
        FailureArrivals::Weibull { scale, shape }
    }

    /// Draw one inter-arrival time (hours) by inverse-CDF sampling.
    pub(crate) fn sample_interval<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // U in (0, 1]: avoid ln(0).
        let u: f64 = 1.0 - rng.random::<f64>();
        match *self {
            FailureArrivals::Exponential { mtbf } => -mtbf * u.ln(),
            FailureArrivals::Weibull { scale, shape } => scale * (-u.ln()).powf(1.0 / shape),
        }
    }

    /// All failure times within `[0, duration)` hours.
    pub fn sample_times<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        self.sample_times_into(duration, rng, &mut out);
        out
    }

    /// [`FailureArrivals::sample_times`] into a caller-owned buffer.
    ///
    /// Clears `out` and refills it, keeping its capacity — the batched
    /// Monte-Carlo campaign kernel calls this once per trial and must not
    /// touch the allocator in steady state. Consumes the RNG identically
    /// to [`FailureArrivals::sample_times`], so the two are
    /// interchangeable mid-stream.
    pub fn sample_times_into<R: Rng + ?Sized>(
        &self,
        duration: f64,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let mut t = 0.0;
        loop {
            t += self.sample_interval(rng);
            if t >= duration {
                return;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_matches_mtbf() {
        let mut rng = StdRng::seed_from_u64(1);
        let proc_ = FailureArrivals::exponential(10.0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| proc_.sample_interval(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let w = FailureArrivals::weibull(5.0, 1.0);
        let e = FailureArrivals::exponential(5.0);
        for _ in 0..100 {
            let x = w.sample_interval(&mut a);
            let y = e.sample_interval(&mut b);
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_times_are_increasing_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let times = FailureArrivals::exponential(1.0).sample_times(50.0, &mut rng);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|&t| t < 50.0));
        // Expect roughly 50 events.
        assert!(times.len() > 25 && times.len() < 90, "{}", times.len());
    }

    #[test]
    fn sample_times_into_matches_sample_times() {
        let proc_ = FailureArrivals::weibull(2.0, 0.7);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut buf = vec![99.0; 4]; // stale content must be cleared
        for _ in 0..10 {
            let owned = proc_.sample_times(30.0, &mut a);
            proc_.sample_times_into(30.0, &mut b, &mut buf);
            assert_eq!(owned, buf);
        }
    }

    #[test]
    fn lower_mtbf_means_more_failures() {
        let mut rng = StdRng::seed_from_u64(9);
        let many = FailureArrivals::exponential(1.0)
            .sample_times(100.0, &mut rng)
            .len();
        let few = FailureArrivals::exponential(10.0)
            .sample_times(100.0, &mut rng)
            .len();
        assert!(many > few);
    }
}
