//! The batched, allocation-free trial kernel.
//!
//! [`CampaignKernel`] runs one Monte-Carlo trial per call with zero
//! steady-state allocations: arrival times and sampled node indices live
//! in reusable scratch buffers, failed nodes come from the workspace's one
//! [`NodeSampler`] (a persistent identity pool restored by undoing its own
//! swaps), and the catastrophe/restart judgements go through the counting
//! fast path ([`SchemeIndex`]) instead of materialising `Vec<NodeId>` /
//! `Vec<Rank>` per event.
//!
//! The kernel is *exactly* equivalent to
//! [`run_trial_reference`](super::run_trial_reference): it consumes the
//! per-trial RNG in the same order (all arrival times, then one uniform
//! per event for the class, then one `u64` per sampled node) and
//! evaluates the same floating-point expressions in the same order for
//! the waste ledger. `tests/campaign_kernel.rs` proptests the match
//! trial-for-trial.

use hcft_cluster::{SchemeIndex, SchemeScratch};
use hcft_reliability::{ClassSampler, NodeSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::CampaignConfig;

/// Per-trial event counts and machine-time waste.
///
/// Event counts are integers — a trial sees whole failures — so they are
/// carried as `u64` and only converted to means at reporting time;
/// telemetry gets the exact totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrialTotals {
    /// Failure events in the trial.
    pub failures: u64,
    /// Events that defeated the L2 erasure level.
    pub catastrophic: u64,
    /// Transient events absorbed by the local checkpoint.
    pub transient: u64,
    /// Machine-seconds lost to recoveries (checkpoint overhead is billed
    /// separately as a steady fraction).
    pub waste_s: f64,
}

/// Reusable per-thread state for running trials of one campaign cell.
///
/// Build once per worker (cheap: a handful of `nodes`-sized buffers),
/// then call [`CampaignKernel::run_trial`] millions of times.
pub struct CampaignKernel<'a> {
    index: &'a SchemeIndex,
    sampler: &'a ClassSampler,
    cfg: &'a CampaignConfig,
    nodes: usize,
    nodes_f: f64,
    nprocs_f: f64,
    /// Arrival-time buffer reused across trials.
    times: Vec<f64>,
    /// Sampled node indices for the current event.
    failed: Vec<u32>,
    /// Draws `failed` exactly like `rand::seq::index::sample`.
    node_sampler: NodeSampler,
    scratch: SchemeScratch,
    /// Quotient bound under which [`fast_fmod`] is exact for
    /// `checkpoint_interval_s`; 0 disables the fast path.
    fmod_limit: f64,
}

/// Largest quotient for which `q * y` is exact: `2^53 / odd(y)`, where
/// `odd(y)` is `y`'s mantissa with trailing zeros stripped. 0 for
/// non-positive, non-finite or zero `y`.
fn exact_quotient_limit(y: f64) -> f64 {
    if !(y.is_finite() && y > 0.0) {
        return 0.0;
    }
    let bits = y.to_bits();
    let frac = bits & ((1u64 << 52) - 1);
    let mant = if (bits >> 52) & 0x7FF == 0 {
        frac
    } else {
        frac | (1 << 52)
    };
    if mant == 0 {
        return 0.0;
    }
    let odd = mant >> mant.trailing_zeros();
    9007199254740992.0 / odd as f64 // 2^53 / odd
}

/// `x % y` without the libm `fmod` call, **bit-identical** to `%` when
/// `x ≥ 0`, `y > 0` and `trunc(x / y) < limit` (see
/// [`exact_quotient_limit`]): under the limit `q·y` is an exact product,
/// the subtraction is exact by Sterbenz's lemma, and the ±1 quotient
/// rounding slip is repaired by one exact correction step. `fmod` costs
/// ~50 ns on glibc and sits on the per-event hot path; this is ~6 ns.
#[inline]
fn fast_fmod(x: f64, y: f64, limit: f64) -> f64 {
    let q = (x / y).trunc();
    if !(x >= 0.0 && q >= 0.0 && q < limit) {
        return x % y;
    }
    let mut r = x - q * y;
    if r < 0.0 {
        r += y;
    }
    if r >= y {
        r -= y;
    }
    r
}

impl<'a> CampaignKernel<'a> {
    /// A kernel for one (scheme, placement) cell.
    ///
    /// `index` must be built from the same scheme/placement the config
    /// targets; `sampler` from `cfg.events`.
    pub fn new(
        index: &'a SchemeIndex,
        sampler: &'a ClassSampler,
        cfg: &'a CampaignConfig,
        nprocs: usize,
    ) -> Self {
        let nodes = index.nodes();
        CampaignKernel {
            index,
            sampler,
            cfg,
            nodes,
            nodes_f: nodes as f64,
            nprocs_f: nprocs as f64,
            times: Vec::new(),
            failed: Vec::with_capacity(nodes),
            node_sampler: NodeSampler::new(nodes),
            scratch: index.scratch(),
            fmod_limit: exact_quotient_limit(cfg.checkpoint_interval_s),
        }
    }

    /// Run trial `trial`, seeded `cfg.seed + trial` exactly like the
    /// scalar reference.
    pub fn run_trial(&mut self, trial: u64) -> TrialTotals {
        let mut acc = TrialTotals::default();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(trial));
        // Take the buffer so iterating it doesn't hold a borrow of self;
        // the capacity travels with it and comes back below.
        let mut times = std::mem::take(&mut self.times);
        self.cfg
            .arrivals
            .sample_times_into(self.cfg.duration_h, &mut rng, &mut times);
        for &t_h in &times {
            acc.failures += 1;
            let u: f64 = rng.random();
            let Some(j) = self.sampler.draw(u) else {
                acc.transient += 1;
                acc.waste_s += self.cfg.recovery_latency_s / self.nodes_f;
                continue;
            };
            let j = j.min(self.nodes);
            self.failed.clear();
            self.node_sampler.sample_into(&mut rng, j, &mut self.failed);
            if self.index.defeated_by(&self.failed, &mut self.scratch) {
                acc.catastrophic += 1;
                acc.waste_s += self.cfg.catastrophic_penalty_s;
                continue;
            }
            let restart = self.index.restart_ranks(&self.failed, &mut self.scratch) as f64;
            let since_ckpt = fast_fmod(
                t_h * 3600.0,
                self.cfg.checkpoint_interval_s,
                self.fmod_limit,
            );
            acc.waste_s += (restart / self.nprocs_f) * (since_ckpt + self.cfg.recovery_latency_s);
        }
        self.times = times;
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_fmod_is_bit_identical_to_fmod() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xF30D);
        // The hot-path divisors plus awkward ones (full mantissa, huge,
        // tiny, subnormal-adjacent); x spans the campaign's range and
        // values engineered to sit on or next to multiples of y.
        let ys = [
            600.0,
            30.0,
            7.3,
            601.7654321098765,
            1e-3,
            1.0 + f64::EPSILON,
            3600.0,
        ];
        for &y in &ys {
            let limit = exact_quotient_limit(y);
            for i in 0..20_000u64 {
                let x: f64 = match i % 4 {
                    0 => rng.random::<f64>() * 2_592_000.0,
                    1 => (i / 4) as f64 * y,
                    2 => (i / 4) as f64 * y + f64::EPSILON * i as f64,
                    _ => ((i / 4) as f64).mul_add(y, -(f64::EPSILON * i as f64)),
                };
                let want = x % y;
                let got = fast_fmod(x, y, limit);
                assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "x={x:e} y={y:e}: fast {got:e} vs fmod {want:e}"
                );
            }
        }
        // Degenerate divisors must fall back, not misbehave.
        for y in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let limit = exact_quotient_limit(y);
            let got = fast_fmod(123.456, y, limit);
            let want = 123.456 % y;
            assert!(got == want || (got.is_nan() && want.is_nan()), "y={y}");
        }
    }
}
