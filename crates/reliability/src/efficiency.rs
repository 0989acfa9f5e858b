//! Application efficiency under checkpoint/restart — the first-order
//! Young/Daly analysis, extended with failure containment.
//!
//! The paper's introduction argues that (i) checkpoint time must shrink
//! (hence multi-level checkpointing) and (ii) restarting everything
//! wastes resources (hence containment). This model quantifies both: for
//! checkpoint cost δ, system MTBF M, recovery latency R and restarted
//! fraction f, the first-order waste of a checkpoint interval τ is
//!
//! ```text
//! W(τ) = δ/τ  +  f · (τ/2 + R) / M
//! ```
//!
//! (checkpoint overhead + expected redone work, scaled by how much of the
//! machine actually rolls back). Minimising gives the containment-aware
//! optimal interval `τ* = √(2δM/f)` — failure containment (f < 1) both
//! lengthens the optimal interval and raises peak efficiency, which is
//! exactly the resource argument of §I.

/// First-order checkpoint/restart efficiency model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EfficiencyModel {
    /// System mean time between failures, seconds.
    pub mtbf_s: f64,
    /// Cost of one coordinated checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Recovery latency (rebuild + restart), seconds.
    pub recovery_s: f64,
    /// Fraction of the machine's work redone per failure (1.0 without
    /// containment; the L1 cluster fraction with it).
    pub restart_fraction: f64,
    /// Probability that a failure defeats the erasure level entirely
    /// (the paper's P(catastrophic)); such failures pay
    /// `catastrophic_penalty_s` machine-wide.
    pub p_catastrophic: f64,
    /// Machine-seconds lost to one catastrophic failure (fall back to an
    /// old PFS checkpoint and redo the gap).
    pub catastrophic_penalty_s: f64,
}

impl EfficiencyModel {
    /// Build a model; arguments must be positive (`restart_fraction` in
    /// (0, 1]).
    ///
    /// # Panics
    /// Panics on non-positive or out-of-range arguments.
    pub fn new(mtbf_s: f64, checkpoint_s: f64, recovery_s: f64, restart_fraction: f64) -> Self {
        assert!(mtbf_s > 0.0 && checkpoint_s > 0.0 && recovery_s >= 0.0);
        assert!(
            restart_fraction > 0.0 && restart_fraction <= 1.0,
            "restart fraction in (0, 1]"
        );
        EfficiencyModel {
            mtbf_s,
            checkpoint_s,
            recovery_s,
            restart_fraction,
            p_catastrophic: 0.0,
            catastrophic_penalty_s: 0.0,
        }
    }

    /// Account for catastrophic failures: with probability `p` a failure
    /// defeats the erasure protection and costs `penalty_s` machine-wide.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]` and `penalty_s ≥ 0`.
    pub fn with_catastrophe(mut self, p: f64, penalty_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&p) && penalty_s >= 0.0);
        self.p_catastrophic = p;
        self.catastrophic_penalty_s = penalty_s;
        self
    }

    /// First-order waste fraction at checkpoint interval `tau_s`:
    /// checkpoint overhead + contained redo work + catastrophic
    /// fallbacks.
    pub(crate) fn waste(&self, tau_s: f64) -> f64 {
        assert!(tau_s > 0.0);
        self.checkpoint_s / tau_s
            + self.restart_fraction * (tau_s / 2.0 + self.recovery_s) / self.mtbf_s
            + self.p_catastrophic * self.catastrophic_penalty_s / self.mtbf_s
    }

    /// Efficiency (1 − waste, floored at 0) at interval `tau_s`.
    pub(crate) fn efficiency(&self, tau_s: f64) -> f64 {
        (1.0 - self.waste(tau_s)).max(0.0)
    }

    /// The waste-minimising checkpoint interval `τ* = √(2δM/f)`.
    pub fn optimal_interval(&self) -> f64 {
        (2.0 * self.checkpoint_s * self.mtbf_s / self.restart_fraction).sqrt()
    }

    /// Efficiency at the optimal interval.
    pub fn peak_efficiency(&self) -> f64 {
        self.efficiency(self.optimal_interval())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EfficiencyModel {
        EfficiencyModel::new(3600.0, 60.0, 120.0, 1.0)
    }

    #[test]
    fn optimum_matches_daly_first_order() {
        let m = base();
        let tau = m.optimal_interval();
        assert!((tau - (2.0f64 * 60.0 * 3600.0).sqrt()).abs() < 1e-9);
        // τ* is a minimum of the waste curve.
        assert!(m.waste(tau) < m.waste(tau * 0.5));
        assert!(m.waste(tau) < m.waste(tau * 2.0));
    }

    #[test]
    fn containment_raises_peak_efficiency() {
        let full = base();
        let contained = EfficiencyModel::new(3600.0, 60.0, 120.0, 0.0625);
        assert!(contained.peak_efficiency() > full.peak_efficiency());
        // And lengthens the optimal interval by 1/√f = 4×.
        assert!((contained.optimal_interval() / full.optimal_interval() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn faster_checkpoints_raise_efficiency() {
        let slow = EfficiencyModel::new(3600.0, 204.0, 60.0, 1.0); // naive-32 encode
        let fast = EfficiencyModel::new(3600.0, 26.0, 60.0, 1.0); // hierarchical L2=4
        assert!(fast.peak_efficiency() > slow.peak_efficiency());
    }

    #[test]
    fn waste_grows_at_extremes() {
        let m = base();
        // Checkpointing constantly or never both approach total waste.
        assert!(m.efficiency(1.0) < 0.1);
        assert!(m.waste(1e7) > m.waste(m.optimal_interval()));
    }

    #[test]
    fn efficiency_is_clamped() {
        let hopeless = EfficiencyModel::new(10.0, 60.0, 60.0, 1.0);
        assert_eq!(hopeless.efficiency(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "restart fraction")]
    fn rejects_zero_restart_fraction() {
        EfficiencyModel::new(1.0, 1.0, 1.0, 0.0);
    }
}

#[cfg(test)]
mod catastrophe_tests {
    use super::*;

    #[test]
    fn catastrophe_term_shifts_the_verdict() {
        // The paper's size-guided vs hierarchical efficiency story: the
        // size-guided clustering has *better* containment numbers but is
        // catastrophic on ~every node failure, so once the PFS-fallback
        // penalty is billed it loses.
        let size_guided = EfficiencyModel::new(4.0 * 3600.0, 51.0, 51.0, 0.0156)
            .with_catastrophe(0.95, 2.0 * 3600.0);
        let hierarchical = EfficiencyModel::new(4.0 * 3600.0, 26.0, 26.0, 0.0625)
            .with_catastrophe(1e-6, 2.0 * 3600.0);
        assert!(hierarchical.peak_efficiency() > size_guided.peak_efficiency());
        // Without the catastrophe term the comparison flips.
        let sg_naive = EfficiencyModel::new(4.0 * 3600.0, 51.0, 51.0, 0.0156);
        let hi_naive = EfficiencyModel::new(4.0 * 3600.0, 26.0, 26.0, 0.0625);
        assert!(sg_naive.peak_efficiency() > hi_naive.peak_efficiency());
    }

    #[test]
    fn catastrophe_term_is_interval_independent() {
        let m = EfficiencyModel::new(3600.0, 60.0, 60.0, 0.25).with_catastrophe(0.5, 600.0);
        let base = EfficiencyModel::new(3600.0, 60.0, 60.0, 0.25);
        for tau in [100.0, 1000.0, 10000.0] {
            let delta = m.waste(tau) - base.waste(tau);
            assert!((delta - 0.5 * 600.0 / 3600.0).abs() < 1e-12);
        }
        // So the optimal interval is unchanged.
        assert!((m.optimal_interval() - base.optimal_interval()).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_probability() {
        let _ = EfficiencyModel::new(1.0, 1.0, 0.0, 1.0).with_catastrophe(1.5, 1.0);
    }
}
