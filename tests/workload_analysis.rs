//! Network-science analysis of workloads — the §IV-A angle: HPC
//! communication graphs have low degree and strong community structure
//! (like brain networks), which is what makes cluster-based partial
//! logging and hierarchical modularity work at all.

use hcft::graph::metrics::{
    clustering_coefficient, degree_distribution, intra_cluster_fraction, mean_degree, modularity,
};
use hcft::graph::patterns;
use hcft::prelude::*;

#[test]
fn traced_stencil_has_low_degree_and_high_modularity() {
    let trace = run_traced_job(&TracedJobConfig::small(16, 4));
    let placement = trace.layout.app_placement();
    let g = WeightedGraph::from_comm_matrix(&trace.app);
    // Kamil et al. [15]: low degree of connectivity. A 2-D stencil rank
    // talks to ≤4 neighbours plus a handful of collective partners.
    assert!(
        mean_degree(&g) < 16.0,
        "stencil degree should be low, got {}",
        mean_degree(&g)
    );
    // Node-aligned consecutive clusters form strong communities.
    let node_graph = WeightedGraph::from_comm_matrix(&trace.app.aggregate_by_node(&placement));
    let quads = Clustering::consecutive(placement.nodes(), 4);
    let q = modularity(&node_graph, &quads);
    assert!(q > 0.4, "node-graph modularity {q}");
}

#[test]
fn all_to_all_has_no_community_structure() {
    let m = patterns::all_to_all(32, 100);
    let g = WeightedGraph::from_comm_matrix(&m);
    // Degree = everyone; modularity of any balanced partition ≈ 0.
    assert_eq!(mean_degree(&g), 31.0);
    for k in [2usize, 4, 8] {
        let c = Clustering::consecutive(32, k);
        let q = modularity(&g, &c);
        assert!(q.abs() < 0.05, "k={k}: q={q}");
    }
    // Its clustering coefficient is 1 (complete graph).
    assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-9);
}

#[test]
fn partitioner_finds_stencil_communities_better_than_chance() {
    // Anisotropic stencil: strong EW chain, weak NS rungs.
    let m = patterns::stencil_2d(32, 2, 1024, 8);
    let g = WeightedGraph::from_comm_matrix(&m);
    let k = 8;
    let bounds = SizeBounds::new(8, 8);
    let part = MultilevelPartitioner::new(MultilevelConfig::new(k, bounds)).partition(&g);
    let c = Clustering::from_assignment(&part);
    let intra = intra_cluster_fraction(&g, &c);
    // 64 ranks in 8 clusters of 8: the EW chain dominates; a good
    // partition keeps ≥ 80 % of bytes internal, random keeps ~12 %.
    assert!(intra > 0.8, "partitioner intra fraction {intra}");
}

#[test]
fn degree_distribution_shapes_differ_by_pattern() {
    let stencil = WeightedGraph::from_comm_matrix(&patterns::stencil_2d(8, 8, 10, 10));
    let bfly = WeightedGraph::from_comm_matrix(&patterns::butterfly(64, 10));
    let hist_stencil = degree_distribution(&stencil);
    let hist_bfly = degree_distribution(&bfly);
    // Stencil: degrees 2..4; corner ranks have 2 neighbours.
    assert_eq!(hist_stencil[2], 4);
    assert_eq!(hist_stencil[4], 36);
    // Butterfly: everyone has exactly log2(64) = 6 partners.
    assert_eq!(hist_bfly[6], 64);
}

#[test]
fn cost_function_prefers_communicating_clusters() {
    use hcft::partition::{partition_cost, CostWeights};
    let m = patterns::stencil_2d(16, 1, 100, 0);
    let g = WeightedGraph::from_comm_matrix(&m);
    // Contiguous quads vs strided assignment of the same sizes.
    let contiguous: Vec<usize> = (0..16).map(|u| u / 4).collect();
    let strided: Vec<usize> = (0..16).map(|u| u % 4).collect();
    let good = partition_cost(&g, &contiguous, CostWeights::default());
    let bad = partition_cost(&g, &strided, CostWeights::default());
    assert!(good.scalar < bad.scalar);
    assert_eq!(good.restart_fraction, bad.restart_fraction); // same sizes
    assert!(good.logging_fraction < bad.logging_fraction);
}

#[test]
fn traced_tsunami_is_send_deterministic_across_runs() {
    use hcft::msglog::{check_send_determinism, MsgEvent};
    use hcft::simmpi::{World, WorldConfig};

    // Two independent executions of the same SPMD program must emit
    // identical per-sender message sequences — HydEE's prerequisite.
    let run = || {
        let cfg = WorldConfig {
            trace_events: true,
            ..Default::default()
        };
        let r = World::run_with(9, cfg, |c| {
            let p = TsunamiParams::stable(24, 24);
            let mut st = RankState::new(&p, c.size(), c.rank());
            for _ in 0..8 {
                st.step(&p, c);
            }
            let energy: f64 = st.local_eta().iter().map(|e| e * e).sum();
            let _ = c.allgather(&[energy]);
        });
        let events: Vec<Vec<MsgEvent>> = r
            .trace
            .take_events()
            .into_iter()
            .map(|stream| {
                stream
                    .into_iter()
                    .map(|e| MsgEvent {
                        src: e.src,
                        dst: e.dst,
                        bytes: e.bytes,
                        phase: e.phase,
                    })
                    .collect()
            })
            .collect();
        events
    };
    let a = run();
    let b = run();
    let report = check_send_determinism(&a, &b);
    assert!(
        report.is_deterministic(),
        "divergence: {:?}",
        report.divergence
    );
    assert!(report.events_compared > 100);
}
