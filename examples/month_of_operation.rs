//! A month of operation: Monte-Carlo campaign simulation comparing the
//! four clustering strategies on the metric operators care about —
//! useful-work availability — across a sweep of failure rates.
//!
//! ```text
//! cargo run --release --example month_of_operation
//! ```

use hcft::core::campaign::{simulate_campaign, CampaignConfig};
use hcft::prelude::*;

fn main() {
    // Machine + traced workload (32 nodes × 8 ranks, anisotropic stencil).
    let trace = run_traced_job(&TracedJobConfig::small(32, 8));
    let placement = trace.layout.app_placement();
    let evaluator = Evaluator::new(trace.app.clone(), placement.clone());
    let rows = SchemeFamilySpec::paper(32, 8, 16, HierarchicalConfig::default())
        .score(&evaluator)
        .expect("the paper schemes fit 32 nodes x 8 ranks");

    println!("30-day campaign, checkpoints every 10 minutes, 100 trials\n");
    for mtbf_h in [24.0, 6.0, 2.0] {
        println!("=== system MTBF {mtbf_h} h ===");
        println!("method                    failures  catastrophic  availability");
        for FamilyScore { scheme, score, .. } in &rows {
            let cfg = CampaignConfig {
                arrivals: FailureArrivals::exponential(mtbf_h),
                checkpoint_cost_s: score.encode_s_per_gb,
                recovery_latency_s: score.encode_s_per_gb,
                trials: 100,
                ..Default::default()
            };
            let out = simulate_campaign(scheme, &placement, &cfg);
            println!(
                "{:<24} {:>9.1}  {:>12.2}  {:>11.4}",
                scheme.name, out.failures, out.catastrophic, out.availability
            );
        }
        println!();
    }
    println!(
        "As failures accelerate, the catastrophic-failure term dominates: schemes\n\
         whose encoding clusters die with a node (size-guided) collapse first,\n\
         while the hierarchical clustering holds availability the longest."
    );
}
