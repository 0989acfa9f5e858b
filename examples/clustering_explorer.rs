//! Clustering explorer: score the autotuner's sweep of cluster sizes and
//! placement strategies over a traced workload and print the full 4-D
//! trade-off surface — the interactive version of the paper's §III
//! study.
//!
//! ```text
//! cargo run --release --example clustering_explorer [nodes] [ranks_per_node]
//! ```

use hcft::prelude::*;

fn main() -> Result<(), HcftError> {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let ppn: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let cfg = TracedJobConfig::small(nodes, ppn);
    println!(
        "tracing {} application ranks on {nodes} nodes…\n",
        nodes * ppn
    );
    let trace = run_traced_job(&cfg);
    let placement = trace.layout.app_placement();
    let evaluator = Evaluator::new(trace.app.clone(), placement);
    let baseline = BaselineRequirements::default();

    // The §III sweet-spot search, automated: every candidate that fits
    // this machine, scored, then the one with the smallest worst ratio.
    println!("scheme                     logging   restart  enc(1GB)     P(cat) worst ratio");
    for c in candidates(&evaluator, &baseline)? {
        let s = &c.score;
        println!(
            "{:<24} {:>8.1}%  {:>7.2}%  {:>6.0} s  {:>9.1e}  {:>10.3}",
            s.name,
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            s.p_catastrophic,
            c.chebyshev
        );
    }
    let best = autotune(&evaluator, &baseline)?;
    println!(
        "\nautotune winner: {} (worst baseline ratio {:.3}, {})",
        best.scheme.name,
        best.chebyshev,
        if best.chebyshev <= 1.0 {
            "admissible"
        } else {
            "INADMISSIBLE"
        }
    );
    println!(
        "\nReading guide: consecutive clusters trade logging vs restart but die with\n\
         their node (P(cat)); distributed clusters are reliable but log everything\n\
         and amplify restarts; hierarchical separates the two concerns (§IV)."
    );
    Ok(())
}
