//! The failure-event class distribution.
//!
//! FTI's failure analysis (and the broader literature the paper cites)
//! observes that most failures touch a single node; simultaneous
//! multi-node failures happen — shared power supplies, chassis, switches —
//! but with fast-decaying probability in the number of nodes involved.
//! Soft errors (transient, recoverable from the node-local checkpoint
//! alone) make up the remainder.
//!
//! [`EventDistribution::fti_calibrated`] encodes a distribution consistent
//! with the paper's Table II: with FTI's Reed–Solomon tolerating half of
//! each encoding cluster,
//! * same-node clusters of 8 → P(cat) ≈ 0.95 (any node event kills them);
//! * naïve 32-process clusters spanning 2 nodes → ≈ 1e-4;
//! * hierarchical L2 clusters of 4 distributed over 4 nodes → ≈ 1e-6;
//! * distributed clusters of 16 over 16 nodes → ≈ 1e-15.

use hcft_telemetry::HcftError;

/// Distribution over failure-event classes. An event is either transient
/// (no node loses its storage) or the simultaneous loss of `j ≥ 1` nodes
/// chosen uniformly at random.
#[derive(Clone, Debug, PartialEq)]
pub struct EventDistribution {
    /// Probability that a failure event is transient.
    pub p_transient: f64,
    /// `p_nodes[j-1]` = probability that a failure event takes down
    /// exactly `j` simultaneous nodes.
    pub p_nodes: Vec<f64>,
}

impl EventDistribution {
    /// Calibrated to FTI's observations (see module docs): 5 % transient,
    /// single-node dominant, correlated j-node events decaying by ~12.5×
    /// per extra node beyond the PSU-pair class.
    pub fn fti_calibrated() -> Self {
        let p_transient = 0.05;
        // Pair failures (shared PSU etc.): ~0.66 % of all events; deeper
        // correlations decay geometrically.
        let p2 = 6.3e-3;
        let decay: f64 = 0.08;
        let max_j = 12;
        let mut p_nodes = vec![0.0; max_j];
        for j in 2..=max_j {
            p_nodes[j - 1] = p2 * decay.powi(j as i32 - 2);
        }
        let tail: f64 = p_nodes.iter().sum();
        p_nodes[0] = 1.0 - p_transient - tail;
        EventDistribution {
            p_transient,
            p_nodes,
        }
    }

    /// Every failure event takes down exactly one node — the simplest
    /// model, useful for isolating the placement effect (Fig. 4a uses a
    /// variant of this view).
    pub fn single_node_only() -> Self {
        EventDistribution {
            p_transient: 0.0,
            p_nodes: vec![1.0],
        }
    }

    /// A custom distribution. Returns [`HcftError::Config`] unless every
    /// probability is a finite non-negative number and they sum to 1
    /// (within 1e-9).
    pub fn new(p_transient: f64, p_nodes: Vec<f64>) -> Result<Self, HcftError> {
        if !p_transient.is_finite()
            || p_transient < 0.0
            || p_nodes.iter().any(|&p| !p.is_finite() || p < 0.0)
        {
            return Err(HcftError::Config(
                "event probabilities must be finite and non-negative".to_string(),
            ));
        }
        let total: f64 = p_transient + p_nodes.iter().sum::<f64>();
        if (total - 1.0).abs() >= 1e-9 {
            return Err(HcftError::Config(format!(
                "event probabilities sum to {total}, not 1"
            )));
        }
        Ok(EventDistribution {
            p_transient,
            p_nodes,
        })
    }

    /// Precompute the cumulative table + guide LUT used to draw event
    /// classes in the Monte-Carlo hot loop.
    pub fn sampler(&self) -> ClassSampler {
        ClassSampler::new(self)
    }

    /// Largest simultaneous-failure cardinality with non-zero probability.
    pub fn max_nodes(&self) -> usize {
        self.p_nodes
            .iter()
            .rposition(|&p| p > 0.0)
            .map_or(0, |i| i + 1)
    }
}

/// Precomputed event-class sampler: one uniform draw in `[0, 1)` maps to
/// `None` (transient) or `Some(j)` (simultaneous loss of `j` nodes).
///
/// The class is located on a cumulative-probability table; a 256-bucket
/// guide LUT skips the prefix of boundaries that cannot match the draw,
/// so the expected scan length is ~1 regardless of how many correlated
/// classes the distribution carries. [`ClassSampler::draw`] (LUT) and
/// [`ClassSampler::draw_scan`] (plain linear scan, retained as the
/// reference) compare the draw against the *same* boundaries and are
/// therefore bit-identical — the campaign proptests rely on that.
///
/// A draw past the last boundary (possible only through floating-point
/// rounding in the cumulative sums) clamps to the last class with
/// non-zero probability instead of silently re-labelling the event.
#[derive(Clone, Debug)]
pub struct ClassSampler {
    /// `bounds[0]` = P(transient); `bounds[k]` = P(transient) +
    /// p_nodes[0] + … + p_nodes[k-1]. A draw `u` belongs to the first
    /// `k` with `u < bounds[k]`.
    bounds: Vec<f64>,
    /// `lut[b]` = first boundary index worth testing for draws in
    /// `[b/256, (b+1)/256)`: every earlier boundary is ≤ the bucket's
    /// lower edge, so `u < bounds[k]` is false for it.
    lut: [u32; 256],
    /// Largest class with non-zero probability (0 = transient only).
    last: usize,
}

impl ClassSampler {
    fn new(events: &EventDistribution) -> Self {
        let mut bounds = Vec::with_capacity(events.p_nodes.len() + 1);
        let mut acc = events.p_transient;
        bounds.push(acc);
        for &p in &events.p_nodes {
            acc += p;
            bounds.push(acc);
        }
        let mut lut = [0u32; 256];
        for (b, slot) in lut.iter_mut().enumerate() {
            let lo = b as f64 / 256.0;
            *slot = bounds.iter().position(|&x| x > lo).unwrap_or(bounds.len()) as u32;
        }
        ClassSampler {
            bounds,
            lut,
            last: events.max_nodes(),
        }
    }

    /// Map a uniform draw `u ∈ [0, 1)` to an event class (LUT-guided).
    #[inline]
    pub fn draw(&self, u: f64) -> Option<usize> {
        let bucket = ((u * 256.0) as usize).min(255);
        let mut k = self.lut[bucket] as usize;
        while k < self.bounds.len() {
            if u < self.bounds[k] {
                return if k == 0 { None } else { Some(k) };
            }
            k += 1;
        }
        // FP rounding pushed u past the final cumulative sum.
        if self.last == 0 {
            None
        } else {
            Some(self.last)
        }
    }

    /// Plain linear scan over the same boundaries — the scalar reference
    /// the campaign's `run_trial_reference` uses. Bit-identical to
    /// [`ClassSampler::draw`] for every `u`.
    #[inline]
    pub fn draw_scan(&self, u: f64) -> Option<usize> {
        for (k, &b) in self.bounds.iter().enumerate() {
            if u < b {
                return if k == 0 { None } else { Some(k) };
            }
        }
        if self.last == 0 {
            None
        } else {
            Some(self.last)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_distribution_is_normalised() {
        let d = EventDistribution::fti_calibrated();
        let total = d.p_transient + d.p_nodes.iter().sum::<f64>();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((d.p_nodes.iter().sum::<f64>() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn single_node_dominates() {
        let d = EventDistribution::fti_calibrated();
        assert!(d.p_nodes[0] > 0.9);
        // Monotone decay beyond j=1.
        for j in 2..d.p_nodes.len() {
            assert!(d.p_nodes[j] <= d.p_nodes[j - 1]);
        }
    }

    #[test]
    fn max_nodes_reports_support() {
        assert_eq!(EventDistribution::single_node_only().max_nodes(), 1);
        assert_eq!(EventDistribution::fti_calibrated().max_nodes(), 12);
    }

    #[test]
    fn new_rejects_unnormalised() {
        let err = EventDistribution::new(0.5, vec![0.6]).unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err:?}");
        let err = EventDistribution::new(-0.1, vec![1.1]).unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err:?}");
        let err = EventDistribution::new(f64::NAN, vec![1.0]).unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err:?}");
        let ok = EventDistribution::new(0.25, vec![0.5, 0.25]).unwrap();
        assert_eq!(ok.max_nodes(), 2);
    }

    #[test]
    fn sampler_covers_the_distribution() {
        let d = EventDistribution::fti_calibrated();
        let s = d.sampler();
        // Boundary cases: 0 is transient (p_transient > 0), a draw in the
        // single-node bulk is Some(1), a draw just under 1 lands in the
        // support, and the clamp path returns the last class.
        assert_eq!(s.draw(0.0), None);
        assert_eq!(s.draw(0.5), Some(1));
        let tail = s.draw(1.0 - 1e-12).expect("support");
        assert!(tail >= 1 && tail <= d.max_nodes());
        assert_eq!(s.draw(1.0), Some(d.max_nodes()));
    }

    #[test]
    fn sampler_lut_matches_scan_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dists = [
            EventDistribution::fti_calibrated(),
            EventDistribution::single_node_only(),
            EventDistribution::new(1.0, vec![]).unwrap(),
            EventDistribution::new(0.3, vec![0.0, 0.7]).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0xC1A55);
        for d in &dists {
            let s = d.sampler();
            for _ in 0..20_000 {
                let u: f64 = rng.random();
                assert_eq!(s.draw(u), s.draw_scan(u), "u={u}");
            }
        }
    }

    #[test]
    fn sampler_matches_subtractive_frequencies() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let d = EventDistribution::fti_calibrated();
        let s = d.sampler();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut transient = 0usize;
        let mut single = 0usize;
        for _ in 0..n {
            match s.draw(rng.random()) {
                None => transient += 1,
                Some(1) => single += 1,
                Some(_) => {}
            }
        }
        assert!((transient as f64 / n as f64 - d.p_transient).abs() < 0.01);
        assert!((single as f64 / n as f64 - d.p_nodes[0]).abs() < 0.01);
    }
}
