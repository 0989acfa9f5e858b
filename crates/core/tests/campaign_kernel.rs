//! The batched campaign kernel must match the retained scalar reference
//! **trial-for-trial, bit-for-bit** — same RNG consumption, same event
//! judgements, same waste arithmetic. Any divergence (a re-ordered
//! float add, a class-sampler edge case, a leaked scratch counter) shows
//! up here as an exact-compare failure on a concrete trial index.

use hcft_cluster::{distributed, naive, striped, SchemeIndex};
use hcft_core::campaign::{
    run_trial_reference, simulate_campaign_stats, CampaignConfig, CampaignKernel, StopRule,
};
use hcft_reliability::{EventDistribution, FailureArrivals};
use hcft_topology::Placement;
use proptest::prelude::*;

fn assert_kernel_matches_reference(
    scheme: &hcft_cluster::ClusteringScheme,
    placement: &Placement,
    cfg: &CampaignConfig,
    trials: u64,
) {
    let sampler = cfg.events.sampler();
    let index = SchemeIndex::new(scheme, placement);
    let mut kernel = CampaignKernel::new(&index, &sampler, cfg, placement.nprocs());
    for trial in 0..trials {
        let fast = kernel.run_trial(trial);
        let slow = run_trial_reference(trial, scheme, placement, cfg, &sampler);
        assert_eq!(fast, slow, "trial {trial} diverged ({})", scheme.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_reference_trial_for_trial(
        seed in any::<u64>(),
        mtbf_tenths in 5u32..200,
        duration_h in 24.0f64..400.0,
        nodes_q in 1usize..8,
        ppn in 1usize..6,
        dist_size in 2usize..9,
    ) {
        let nodes = nodes_q * 4; // striped needs nodes % 4 == 0
        let nprocs = nodes * ppn;
        let placement = Placement::block(nodes, ppn);
        let cfg = CampaignConfig {
            duration_h,
            arrivals: FailureArrivals::exponential(mtbf_tenths as f64 / 10.0),
            seed,
            ..Default::default()
        };
        let schemes = vec![
            naive(nprocs, dist_size.min(nprocs)),
            distributed(&placement, dist_size.min(nodes)),
            striped(&placement, 4, ppn.max(2).min(nprocs)),
        ];
        for scheme in &schemes {
            assert_kernel_matches_reference(scheme, &placement, &cfg, 8);
        }
    }

    #[test]
    fn kernel_matches_reference_under_weibull_and_custom_events(
        seed in any::<u64>(),
        shape_pct in 40u32..160,
        p_transient in 0.0f64..0.5,
    ) {
        let placement = Placement::block(16, 4);
        let p1 = (1.0 - p_transient) * 0.9;
        let p2 = 1.0 - p_transient - p1;
        let cfg = CampaignConfig {
            duration_h: 200.0,
            arrivals: FailureArrivals::weibull(3.0, shape_pct as f64 / 100.0),
            events: EventDistribution::new(p_transient, vec![p1, p2]).unwrap(),
            seed,
            ..Default::default()
        };
        let scheme = distributed(&placement, 8);
        assert_kernel_matches_reference(&scheme, &placement, &cfg, 16);
    }
}

#[test]
fn kernel_matches_reference_on_default_cell() {
    // The paper machine, then the full TSUBAME2 machine the ledger's
    // `campaign` workload runs (22 528 ranks), where the reference pays
    // its O(nprocs) per-event scan and the kernel's counting path must
    // still agree.
    let cfg = CampaignConfig::default();
    assert_kernel_matches_reference(&naive(1024, 32), &Placement::block(64, 16), &cfg, 64);
    assert_kernel_matches_reference(&naive(22_528, 32), &Placement::block(1408, 16), &cfg, 32);
}

#[test]
fn stats_totals_equal_summed_kernel_trials() {
    let placement = Placement::block(12, 4);
    let scheme = naive(48, 8);
    let cfg = CampaignConfig {
        duration_h: 96.0,
        ..Default::default()
    };
    let stats = simulate_campaign_stats(&scheme, &placement, &cfg, &StopRule::fixed(200));
    let sampler = cfg.events.sampler();
    let index = SchemeIndex::new(&scheme, &placement);
    let mut kernel = CampaignKernel::new(&index, &sampler, &cfg, placement.nprocs());
    let mut failures = 0u64;
    let mut catastrophic = 0u64;
    let mut transient = 0u64;
    for trial in 0..200 {
        let t = kernel.run_trial(trial);
        failures += t.failures;
        catastrophic += t.catastrophic;
        transient += t.transient;
    }
    assert_eq!(stats.total_failures, failures);
    assert_eq!(stats.total_catastrophic, catastrophic);
    assert_eq!(stats.total_transient, transient);
    assert_eq!(stats.trials, 200);
}
