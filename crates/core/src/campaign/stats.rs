//! Streaming statistics and the deterministic batched driver.
//!
//! Each campaign metric is accumulated in a [`Welford`] estimator
//! (numerically stable single-pass mean/variance), merged across worker
//! chunks with Chan's parallel update. Chunk boundaries are fixed
//! multiples of `CHUNK` and the merge happens sequentially in chunk
//! order, so the resulting statistics are **byte-identical at any rayon
//! thread count** — the same guarantee the rest of the pipeline gives.
//!
//! Early stopping ([`StopRule::target_ci`]) is evaluated only on batch
//! boundaries, against statistics whose value does not depend on
//! execution order; whether the stop triggers is therefore just as
//! deterministic as the trial data itself. A run with early stopping
//! that halts after `n` trials is byte-identical to a run with
//! `max_trials = n` and no target.

use hcft_cluster::{ClusteringScheme, SchemeIndex};
use hcft_topology::Placement;
use rayon::prelude::*;

use super::kernel::{CampaignKernel, TrialTotals};
use super::{CampaignConfig, CampaignOutcome};

/// Trials per worker chunk. Fixed so chunk (and therefore Welford merge)
/// boundaries never depend on thread count.
pub(crate) const CHUNK: u64 = 64;

/// Welford's streaming mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fold one observation in.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Chan's parallel merge. Call in a fixed order for deterministic
    /// results.
    pub(crate) fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * (other.n as f64 / n as f64);
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64 / n as f64);
        *self = Welford { n, mean, m2 };
    }

    /// Sample mean (0 with no observations).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 below two observations).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Half-width of the 95 % normal confidence interval on the mean,
    /// `1.96·√(s²/n)`. Infinite below two observations so an early-stop
    /// check can never trigger on no evidence.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            f64::INFINITY
        } else {
            1.96 * (self.variance() / self.n as f64).sqrt()
        }
    }
}

/// Target CI half-widths for early stopping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CiTarget {
    /// Stop once the availability CI half-width is at most this.
    pub availability: f64,
    /// … and the per-campaign catastrophic-count CI half-width is at
    /// most this ([`f64::INFINITY`] to gate on availability alone).
    pub catastrophic: f64,
}

/// When to stop sampling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StopRule {
    /// Hard cap on trials.
    pub max_trials: u64,
    /// Trials per batch; early stopping is only evaluated on batch
    /// boundaries, so results are reproducible by trial count alone.
    pub batch: u64,
    /// Never stop before this many trials even if the CI target is met.
    pub min_trials: u64,
    /// Optional CI target enabling early stopping.
    pub target_ci: Option<CiTarget>,
}

impl StopRule {
    /// Exactly `trials` trials, no early stopping.
    pub fn fixed(trials: u64) -> Self {
        StopRule {
            max_trials: trials,
            batch: trials.max(1),
            min_trials: trials,
            target_ci: None,
        }
    }

    /// Up to `max_trials`, checking `target` every `batch` trials after
    /// at least `min_trials`.
    pub fn until_ci(max_trials: u64, batch: u64, min_trials: u64, target: CiTarget) -> Self {
        StopRule {
            max_trials,
            batch: batch.max(1),
            min_trials,
            target_ci: Some(target),
        }
    }
}

/// Full campaign statistics: exact event totals plus streaming moments
/// (and hence 95 % CIs) for every reported metric.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CampaignStats {
    /// Trials actually run.
    pub trials: u64,
    /// Exact total failure events across all trials.
    pub total_failures: u64,
    /// Exact total catastrophic events.
    pub total_catastrophic: u64,
    /// Exact total transient events.
    pub total_transient: u64,
    /// Per-trial failure count moments.
    pub failures: Welford,
    /// Per-trial catastrophic count moments.
    pub catastrophic: Welford,
    /// Per-trial transient count moments.
    pub transient: Welford,
    /// Per-trial availability moments.
    pub availability: Welford,
    /// Whether a [`StopRule::target_ci`] ended the run before
    /// `max_trials`.
    pub early_stopped: bool,
}

impl CampaignStats {
    /// Fold one trial in. `availability` is the trial's availability
    /// fraction (see [`trial_availability`]).
    pub(crate) fn push(&mut self, t: &TrialTotals, availability: f64) {
        self.trials += 1;
        self.total_failures += t.failures;
        self.total_catastrophic += t.catastrophic;
        self.total_transient += t.transient;
        self.failures.push(t.failures as f64);
        self.catastrophic.push(t.catastrophic as f64);
        self.transient.push(t.transient as f64);
        self.availability.push(availability);
    }

    /// Merge another accumulator in (Chan update per metric). Call in a
    /// fixed chunk order for deterministic results.
    pub(crate) fn merge(&mut self, other: &CampaignStats) {
        self.trials += other.trials;
        self.total_failures += other.total_failures;
        self.total_catastrophic += other.total_catastrophic;
        self.total_transient += other.total_transient;
        self.failures.merge(&other.failures);
        self.catastrophic.merge(&other.catastrophic);
        self.transient.merge(&other.transient);
        self.availability.merge(&other.availability);
        self.early_stopped |= other.early_stopped;
    }

    /// Collapse to the mean-level [`CampaignOutcome`]. Counts come from
    /// the exact integer totals, availability from the per-trial mean.
    pub(crate) fn outcome(&self) -> CampaignOutcome {
        let trials = (self.trials as f64).max(1.0);
        CampaignOutcome {
            failures: self.total_failures as f64 / trials,
            catastrophic: self.total_catastrophic as f64 / trials,
            transient: self.total_transient as f64 / trials,
            availability: self.availability.mean(),
        }
    }
}

/// One trial's useful-work availability: steady checkpoint overhead plus
/// the trial's recovery waste, clamped at zero.
#[inline]
pub(crate) fn trial_availability(t: &TrialTotals, cfg: &CampaignConfig) -> f64 {
    let duration_s = cfg.duration_h * 3600.0;
    let ckpt_fraction = cfg.checkpoint_cost_s / cfg.checkpoint_interval_s;
    (1.0 - (ckpt_fraction + t.waste_s / duration_s)).max(0.0)
}

/// Run a campaign cell through the batched kernel under `stop`,
/// returning full statistics.
///
/// Trials fan out across rayon workers in fixed `CHUNK`-sized chunks;
/// each chunk owns a [`CampaignKernel`] (scratch buffers, no steady-state
/// allocation) and its partial statistics are merged in chunk order, so
/// the result is byte-identical at any thread count.
pub fn simulate_campaign_stats(
    scheme: &ClusteringScheme,
    placement: &Placement,
    cfg: &CampaignConfig,
    stop: &StopRule,
) -> CampaignStats {
    let index = SchemeIndex::new(scheme, placement);
    let sampler = cfg.events.sampler();
    let nprocs = placement.nprocs();
    let mut stats = CampaignStats::default();
    let mut done = 0u64;
    while done < stop.max_trials {
        let batch = stop.batch.max(1).min(stop.max_trials - done);
        let ranges: Vec<(u64, u64)> = (0..batch.div_ceil(CHUNK))
            .map(|k| {
                let lo = done + k * CHUNK;
                (lo, (lo + CHUNK).min(done + batch))
            })
            .collect();
        let parts: Vec<CampaignStats> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut kernel = CampaignKernel::new(&index, &sampler, cfg, nprocs);
                let mut cs = CampaignStats::default();
                for trial in lo..hi {
                    let t = kernel.run_trial(trial);
                    cs.push(&t, trial_availability(&t, cfg));
                }
                cs
            })
            .collect();
        for p in &parts {
            stats.merge(p);
        }
        done += batch;
        if let Some(target) = &stop.target_ci {
            if done >= stop.min_trials
                && stats.availability.ci95() <= target.availability
                && stats.catastrophic.ci95() <= target.catastrophic
            {
                stats.early_stopped = true;
                break;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_moments() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.variance() - var).abs() < 1e-8);
        assert!(w.ci95() > 0.0 && w.ci95().is_finite());
    }

    #[test]
    fn welford_merge_equals_sequential_push() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let mut whole = Welford::default();
        for &x in &xs {
            whole.push(x);
        }
        let mut merged = Welford::default();
        for chunk in xs.chunks(64) {
            let mut part = Welford::default();
            for &x in chunk {
                part.push(x);
            }
            merged.merge(&part);
        }
        assert_eq!(whole.n, merged.n);
        assert!((whole.mean() - merged.mean()).abs() < 1e-12);
        assert!((whole.variance() - merged.variance()).abs() < 1e-10);
    }

    #[test]
    fn ci_is_infinite_until_two_observations() {
        let mut w = Welford::default();
        assert!(w.ci95().is_infinite());
        w.push(1.0);
        assert!(w.ci95().is_infinite());
        w.push(2.0);
        assert!(w.ci95().is_finite());
    }

    #[test]
    fn fixed_stop_rule_runs_exactly_n_trials() {
        let placement = Placement::block(8, 4);
        let scheme = hcft_cluster::naive(32, 8);
        let cfg = CampaignConfig {
            trials: 130, // not a multiple of CHUNK
            duration_h: 48.0,
            ..Default::default()
        };
        let stats = simulate_campaign_stats(&scheme, &placement, &cfg, &StopRule::fixed(130));
        assert_eq!(stats.trials, 130);
        assert!(!stats.early_stopped);
        assert_eq!(stats.availability.n, 130);
    }

    #[test]
    fn early_stop_prefix_matches_fixed_run() {
        let placement = Placement::block(8, 4);
        let scheme = hcft_cluster::naive(32, 8);
        let cfg = CampaignConfig {
            duration_h: 72.0,
            ..Default::default()
        };
        // A generous target stops at the first eligible boundary.
        let target = CiTarget {
            availability: 1.0,
            catastrophic: f64::INFINITY,
        };
        let rule = StopRule::until_ci(10_000, 64, 128, target);
        let stopped = simulate_campaign_stats(&scheme, &placement, &cfg, &rule);
        assert!(stopped.early_stopped);
        assert_eq!(stopped.trials, 128);
        // Same trial count without early stopping: byte-identical stats
        // apart from the flag.
        let fixed = StopRule {
            max_trials: 128,
            batch: 64,
            min_trials: 128,
            target_ci: None,
        };
        let plain = simulate_campaign_stats(&scheme, &placement, &cfg, &fixed);
        assert_eq!(stopped.availability, plain.availability);
        assert_eq!(stopped.total_failures, plain.total_failures);
        assert_eq!(stopped.trials, plain.trials);
    }
}
