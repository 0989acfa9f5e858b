//! Quickstart: trace a small FTI-style job, build all four clustering
//! strategies, and print their Table-II-style scores.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hcft::prelude::*;

fn main() {
    // 1. Run the instrumented workload: 32 nodes × 8 application ranks
    //    plus one FTI encoder rank per node (288 "MPI" ranks in-process).
    let cfg = TracedJobConfig::small(32, 8);
    println!(
        "tracing {} ranks ({} app + {} encoders)…",
        cfg.layout().total_ranks(),
        cfg.layout().app_ranks(),
        cfg.layout().encoder_ranks().len()
    );
    let trace = run_traced_job(&cfg);
    println!(
        "traced {} bytes over {} directed edges\n",
        trace.full.total_bytes(),
        trace.full.edge_count()
    );

    // 2. Build the four §III/§IV clustering strategies at the paper's
    //    sizes and score every scheme on the four dimensions.
    let placement = trace.layout.app_placement();
    let evaluator = Evaluator::new(trace.app.clone(), placement.clone());
    let rows = SchemeFamilySpec::paper(32, 8, 16, HierarchicalConfig::default())
        .score(&evaluator)
        .expect("the paper schemes fit 32 nodes x 8 ranks");

    // 3. Compare them against the §III baseline.
    let baseline = BaselineRequirements::default();
    println!("method                    logging   restart  enc(1GB)   P(cat)   baseline");
    for s in rows.iter().map(|row| &row.score) {
        println!(
            "{:<24} {:>7.1}%  {:>7.2}%  {:>6.0} s  {:>8.1e}   {}",
            s.name,
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            s.p_catastrophic,
            if baseline.meets_all(s) {
                "PASS"
            } else {
                "fail"
            }
        );
    }
    println!(
        "\nThe hierarchical clustering is the only scheme designed to satisfy all\n\
         four §III requirements simultaneously (Fig. 5c / Table II)."
    );

    // 4. Describe failures once, reuse everywhere: the same FaultScenario
    //    drives the live replay engine and campaign analysis. Here, just
    //    ask each scheme whether losing node 0's whole L1 cluster defeats
    //    its L2 redundancy.
    let scenario = FaultScenario::at(100).l1_cluster_of(Rank(0)).build();
    println!("\nscenario: lose the L1 cluster of rank 0 at iteration 100");
    for scheme in rows.iter().map(|row| &row.scheme) {
        let nodes = scenario
            .failed_nodes(&placement, scheme, None)
            .expect("resolvable");
        let catastrophic = scenario
            .is_catastrophic(
                &placement,
                scheme,
                None,
                &SchemeIndex::new(scheme, &placement),
            )
            .expect("resolvable");
        println!(
            "  {:<24} {:>2} nodes lost — {}",
            scheme.name,
            nodes.len(),
            if catastrophic {
                "CATASTROPHIC (L2 defeated)"
            } else {
                "recoverable from parity"
            }
        );
    }
}
