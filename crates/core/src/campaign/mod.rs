//! Operational campaign simulation: a month of failures, end to end.
//!
//! The paper evaluates its clusterings on per-failure metrics; this
//! module closes the loop by simulating an operating *campaign*: failure
//! events arrive by a stochastic process, each event hits concrete nodes,
//! the configured clustering decides who rolls back (or whether the
//! erasure level is defeated and the machine falls back to an old PFS
//! checkpoint), and the machine-time ledger accumulates checkpoint
//! overhead, redone work and recovery stalls. The output is the number
//! operators actually care about: **useful-work availability**.
//!
//! The module is built to sustain *millions* of trials per command:
//!
//! * [`kernel`] — the batched trial kernel: scratch-buffer reuse for
//!   arrival times and failed-node samples, a counting fast path for
//!   catastrophe/restart judgements ([`hcft_cluster::SchemeIndex`], over
//!   the one judge [`hcft_reliability::EventJudge`]) and a LUT-guided
//!   event-class sampler. Trial-for-trial identical to the
//!   retained scalar [`run_trial_reference`] — proptested in
//!   `tests/campaign_kernel.rs`.
//! * [`stats`] — streaming Welford mean/variance per metric with 95 %
//!   confidence intervals, order-preserving parallel folds (results are
//!   byte-identical at any thread count) and deterministic early
//!   stopping at a target CI width ([`StopRule`]).
//! * [`grid`] — [`CampaignGrid`], a parameter sweep over
//!   strategy × MTBF × cluster size × machine size producing one
//!   [`GridCell`] (with CIs) per combination.

pub mod grid;
pub mod kernel;
pub mod stats;

pub use grid::{CampaignGrid, GridCell, GridStrategy};
pub use kernel::{CampaignKernel, TrialTotals};
pub use stats::{simulate_campaign_stats, CampaignStats, CiTarget, StopRule, Welford};

use hcft_cluster::{ClusteringScheme, SchemeIndex};
use hcft_reliability::{ClassSampler, EventDistribution, FailureArrivals};
use hcft_topology::{NodeId, Placement};

use crate::scenario::FaultScenario;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::Rng;
use rand::SeedableRng;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign length in hours.
    pub duration_h: f64,
    /// Failure arrival process.
    pub arrivals: FailureArrivals,
    /// Failure event class distribution.
    pub events: EventDistribution,
    /// Coordinated checkpoint interval, seconds.
    pub checkpoint_interval_s: f64,
    /// Cost of one coordinated (encoded) checkpoint, seconds.
    pub checkpoint_cost_s: f64,
    /// Latency of a contained recovery (rebuild + coordination), seconds.
    pub recovery_latency_s: f64,
    /// Machine-seconds lost to a catastrophic failure (PFS fallback and
    /// redo of the PFS-interval gap).
    pub catastrophic_penalty_s: f64,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            duration_h: 30.0 * 24.0,
            arrivals: FailureArrivals::exponential(6.0),
            events: EventDistribution::fti_calibrated(),
            checkpoint_interval_s: 600.0,
            checkpoint_cost_s: 30.0,
            recovery_latency_s: 60.0,
            catastrophic_penalty_s: 2.0 * 3600.0,
            trials: 200,
            seed: 0xCA3A,
        }
    }
}

/// Averaged campaign outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignOutcome {
    /// Mean failures per campaign.
    pub failures: f64,
    /// Mean catastrophic failures per campaign.
    pub catastrophic: f64,
    /// Mean transient (locally absorbed) failures per campaign.
    pub transient: f64,
    /// Fraction of machine-time spent on useful work.
    pub availability: f64,
}

/// Run the campaign for one clustering scheme through the batched
/// engine. Equivalent trial-for-trial to [`run_trial_reference`]; orders
/// of magnitude faster.
pub fn simulate_campaign(
    scheme: &ClusteringScheme,
    placement: &Placement,
    cfg: &CampaignConfig,
) -> CampaignOutcome {
    let stats =
        simulate_campaign_stats(scheme, placement, cfg, &StopRule::fixed(cfg.trials as u64));
    // Event counts are integers; report them to telemetry exactly
    // instead of truncating a float total.
    let reg = hcft_telemetry::Registry::global();
    reg.counter("campaign.trials").add(stats.trials);
    reg.counter("campaign.failures").add(stats.total_failures);
    reg.counter("campaign.catastrophic")
        .add(stats.total_catastrophic);
    reg.counter("campaign.transient").add(stats.total_transient);
    stats.outcome()
}

/// The pre-engine scalar implementation, retained as the correctness
/// reference: per-event `Vec` materialisation, [`FaultScenario`]
/// construction and a catastrophe judge built per trial in O(nprocs).
#[cfg(test)]
fn simulate_campaign_reference(
    scheme: &ClusteringScheme,
    placement: &Placement,
    cfg: &CampaignConfig,
) -> CampaignOutcome {
    use rayon::prelude::*;
    let sampler = cfg.events.sampler();
    let duration_s = cfg.duration_h * 3600.0;
    let ckpt_fraction = cfg.checkpoint_cost_s / cfg.checkpoint_interval_s;
    // Trials are independent and each reseeds its own RNG, so they fan
    // out across threads. Partials are collected in trial order and
    // folded sequentially below, which makes the totals bit-identical
    // regardless of thread count (floating-point addition order is
    // fixed by the fold, not by execution order).
    let partials: Vec<TrialTotals> = (0..cfg.trials)
        .into_par_iter()
        .map(|trial| run_trial_reference(trial as u64, scheme, placement, cfg, &sampler))
        .collect();
    let mut tot_failures = 0u64;
    let mut tot_catastrophic = 0u64;
    let mut tot_transient = 0u64;
    let mut tot_waste_s = 0.0;
    for p in &partials {
        tot_failures += p.failures;
        tot_catastrophic += p.catastrophic;
        tot_transient += p.transient;
        tot_waste_s += p.waste_s;
    }
    let trials = cfg.trials as f64;
    let waste_fraction = ckpt_fraction + tot_waste_s / trials / duration_s;
    CampaignOutcome {
        failures: tot_failures as f64 / trials,
        catastrophic: tot_catastrophic as f64 / trials,
        transient: tot_transient as f64 / trials,
        availability: (1.0 - waste_fraction).max(0.0),
    }
}

/// One scalar Monte-Carlo trial, seeded by trial index so execution
/// order is irrelevant to the outcome.
///
/// This is the reference the batched [`CampaignKernel`] must match
/// trial-for-trial: same RNG consumption order (arrival times, then one
/// uniform per event class, then one `u64` per sampled node), same
/// floating-point expressions for the waste ledger. It builds the
/// scheme's [`SchemeIndex`] once per trial, judges every event through
/// [`FaultScenario::is_catastrophic`] and counts its restarted ranks
/// with [`SchemeIndex::restart_ranks`].
pub fn run_trial_reference(
    trial: u64,
    scheme: &ClusteringScheme,
    placement: &Placement,
    cfg: &CampaignConfig,
    sampler: &ClassSampler,
) -> TrialTotals {
    let nprocs = placement.nprocs() as f64;
    let nodes = placement.nodes();
    let index = SchemeIndex::new(scheme, placement);
    let mut scratch = index.scratch();
    let mut acc = TrialTotals::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(trial));
    let times = cfg.arrivals.sample_times(cfg.duration_h, &mut rng);
    for t_h in times {
        acc.failures += 1;
        let u: f64 = rng.random();
        let Some(j) = sampler.draw_scan(u) else {
            acc.transient += 1;
            // Absorbed by the local (L1) checkpoint: bill only the
            // restart latency of the affected node's ranks.
            acc.waste_s += cfg.recovery_latency_s / nodes as f64;
            continue;
        };
        let j = j.min(nodes);
        let failed_nodes: Vec<NodeId> = sample(&mut rng, nodes, j)
            .into_iter()
            .map(NodeId::from)
            .collect();
        // Each sampled event becomes a FaultScenario, so the reference
        // resolves and judges it as every fault-injection surface does
        // (FaultScenario::is_catastrophic, through the trial's index).
        let event = FaultScenario::nodes_loss(&failed_nodes, (t_h * 3600.0) as u64);
        if event
            .is_catastrophic(placement, scheme, None, &index)
            .expect("sampled nodes are in range")
        {
            acc.catastrophic += 1;
            acc.waste_s += cfg.catastrophic_penalty_s;
            continue;
        }
        // Contained recovery: the affected L1 clusters redo the work
        // since their last checkpoint.
        let failed: Vec<u32> = failed_nodes.iter().map(|n| n.0).collect();
        let restart = index.restart_ranks(&failed, &mut scratch) as f64;
        let since_ckpt = (t_h * 3600.0) % cfg.checkpoint_interval_s;
        acc.waste_s += (restart / nprocs) * (since_ckpt + cfg.recovery_latency_s);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_cluster::{distributed, hierarchical, size_guided, HierarchicalConfig};
    use hcft_graph::{CommMatrix, WeightedGraph};

    fn setup() -> (Placement, WeightedGraph) {
        let placement = Placement::block(16, 4);
        let mut m = CommMatrix::new(16);
        for n in 0..15 {
            m.add(n, n + 1, 100);
            m.add(n + 1, n, 100);
        }
        (placement, WeightedGraph::from_comm_matrix(&m))
    }

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            trials: 50,
            duration_h: 24.0 * 7.0,
            arrivals: FailureArrivals::exponential(4.0),
            ..Default::default()
        }
    }

    #[test]
    fn hierarchical_beats_size_guided_on_availability() {
        let (placement, g) = setup();
        let cfg = quick_cfg();
        let hier = hierarchical(
            &placement,
            &g,
            &HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                ..Default::default()
            },
        );
        let sg = size_guided(64, 4); // one node per cluster: dies often
        let out_hier = simulate_campaign(&hier, &placement, &cfg);
        let out_sg = simulate_campaign(&sg, &placement, &cfg);
        assert!(out_sg.catastrophic > 10.0 * out_hier.catastrophic.max(0.5));
        assert!(out_hier.availability > out_sg.availability);
        assert!(out_hier.availability > 0.8, "{out_hier:?}");
    }

    #[test]
    fn distributed_rarely_catastrophic_but_wastes_restart() {
        let (placement, g) = setup();
        let _ = g;
        let cfg = quick_cfg();
        let ds = distributed(&placement, 8);
        let out = simulate_campaign(&ds, &placement, &cfg);
        assert_eq!(out.catastrophic, 0.0, "{out:?}");
        // Everything restarts per failure, so availability suffers vs a
        // contained scheme with identical reliability.
        let hier = hierarchical(
            &placement,
            &setup().1,
            &HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                ..Default::default()
            },
        );
        let out_hier = simulate_campaign(&hier, &placement, &cfg);
        assert!(out_hier.availability >= out.availability);
    }

    #[test]
    fn failure_counts_scale_with_duration() {
        let (placement, g) = setup();
        let hier = hierarchical(
            &placement,
            &g,
            &HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                ..Default::default()
            },
        );
        let mut cfg = quick_cfg();
        cfg.duration_h = 24.0;
        let short = simulate_campaign(&hier, &placement, &cfg);
        cfg.duration_h = 96.0;
        let long = simulate_campaign(&hier, &placement, &cfg);
        assert!((long.failures / short.failures - 4.0).abs() < 0.8);
    }

    #[test]
    fn deterministic_given_seed() {
        let (placement, g) = setup();
        let hier = hierarchical(
            &placement,
            &g,
            &HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                ..Default::default()
            },
        );
        let cfg = quick_cfg();
        let a = simulate_campaign(&hier, &placement, &cfg);
        let b = simulate_campaign(&hier, &placement, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn engine_and_reference_agree_on_counts() {
        let (placement, g) = setup();
        let hier = hierarchical(
            &placement,
            &g,
            &HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                ..Default::default()
            },
        );
        let cfg = quick_cfg();
        let fast = simulate_campaign(&hier, &placement, &cfg);
        let slow = simulate_campaign_reference(&hier, &placement, &cfg);
        // Event counts are integral per trial, so the means match
        // exactly; availability aggregates differently (per-trial mean
        // vs mean-waste) but must agree closely.
        assert_eq!(fast.failures, slow.failures);
        assert_eq!(fast.catastrophic, slow.catastrophic);
        assert_eq!(fast.transient, slow.transient);
        assert!((fast.availability - slow.availability).abs() < 1e-9);
    }
}
