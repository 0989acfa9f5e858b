//! Cross-crate property tests: invariants that must hold for *any*
//! machine shape, clustering and traffic pattern.

use hcft::msglog::{Containment, HybridProtocol};
use hcft::prelude::*;
use hcft::reliability::model::fti_tolerance;
use proptest::prelude::*;
use std::sync::Arc;

/// Random machine shape + random clustering over its ranks.
fn arb_machine() -> impl Strategy<Value = (Placement, Clustering)> {
    (2usize..12, 1usize..6).prop_flat_map(|(nodes, ppn)| {
        let n = nodes * ppn;
        (
            Just(Placement::block(nodes, ppn)),
            proptest::collection::vec(0usize..n.min(8), n)
                .prop_map(|a| Clustering::from_assignment(&a)),
        )
    })
}

/// Random sparse traffic over `n` ranks.
fn arb_matrix(n: usize) -> impl Strategy<Value = CommMatrix> {
    proptest::collection::vec((0usize..n, 0usize..n, 1u64..1000), 0..64).prop_map(move |edges| {
        let mut m = CommMatrix::new(n);
        for (s, d, b) in edges {
            if s != d {
                m.add(s, d, b);
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logging_fraction_is_a_fraction(
        (placement, clustering) in arb_machine(),
    ) {
        let n = placement.nprocs();
        let mut m = CommMatrix::new(n);
        for r in 0..n {
            m.add(r, (r + 1) % n, 10);
        }
        let p = HybridProtocol::new(clustering);
        let s = p.stats_from_matrix(&m);
        let f = s.logged_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(s.logged_bytes <= s.total_bytes);
        prop_assert_eq!(
            s.per_sender_logged.iter().sum::<u64>(),
            s.logged_bytes
        );
    }

    #[test]
    fn restart_fraction_bounds(
        (placement, clustering) in arb_machine(),
    ) {
        let clustering = Arc::new(clustering);
        let containment = Containment::new(&clustering, &placement);
        let f = containment.expected_restart_fraction();
        // At least the failing node's own ranks restart, at most all.
        let min_frac = placement.ranks_on(NodeId(0)).len() as f64
            / placement.nprocs() as f64
            / placement.nodes() as f64; // very loose lower bound
        prop_assert!(f > 0.0 && f <= 1.0);
        prop_assert!(f >= min_frac);
        // Restart sets hold the node's ranks and are closed under the
        // clustering: per-node check.
        for node in 0..placement.nodes() {
            let rs = containment.restart_set(&[node as u32]);
            for r in placement.ranks_on(NodeId::from(node)) {
                prop_assert!(rs.contains(r));
            }
            for &r in &rs {
                let c = clustering.cluster_of(r);
                for &member in clustering.members(c) {
                    prop_assert!(rs.contains(&member));
                }
            }
        }
    }

    #[test]
    fn catastrophic_probability_is_monotone_in_tolerance(
        (placement, clustering) in arb_machine(),
    ) {
        // Single-node events isolate the tolerance rule from the event
        // distribution.
        let model = ReliabilityModel::new(
            placement.nodes(),
            EventDistribution::single_node_only(),
        );
        let strict = model.p_catastrophic(&clustering, &placement, &|_| 0);
        let fti = model.p_catastrophic(&clustering, &placement, &fti_tolerance);
        let lax = model.p_catastrophic(&clustering, &placement, &|s| s);
        prop_assert!((0.0..=1.0).contains(&fti));
        prop_assert!(strict + 1e-9 >= fti, "strict {strict} < fti {fti}");
        // Tolerating the whole cluster means nothing is catastrophic.
        prop_assert!(lax.abs() < 1e-12);
    }

    #[test]
    fn cut_bytes_and_protocol_agree(
        m in arb_matrix(12),
        assignment in proptest::collection::vec(0usize..4, 12),
    ) {
        let clustering = Clustering::from_assignment(&assignment);
        let protocol = HybridProtocol::new(clustering.clone());
        let stats = protocol.stats_from_matrix(&m);
        // Summing per-cluster cut bytes double-counts each inter-cluster
        // message exactly twice (once at each endpoint's cluster).
        let mut double_cut = 0u64;
        for (c, _) in clustering.iter() {
            let members: Vec<Rank> = clustering.members(c).to_vec();
            double_cut += m.cut_bytes(&members);
        }
        prop_assert_eq!(double_cut, 2 * stats.logged_bytes);
    }

    #[test]
    fn graph_roundtrip_preserves_volume(m in arb_matrix(10)) {
        let g = WeightedGraph::from_comm_matrix(&m);
        let diag: u64 = (0..10).map(|r| m.get(r, r)).sum();
        prop_assert_eq!(g.total_edge_weight() + diag, m.total_bytes());
    }

    #[test]
    fn multilevel_partition_is_always_valid(
        seed in 0u64..1000,
        nodes in 8usize..40,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(nodes);
        for u in 0..nodes - 1 {
            g.add_edge(u, u + 1, rng.random_range(1..100));
        }
        for _ in 0..nodes {
            let a = rng.random_range(0..nodes);
            let b = rng.random_range(0..nodes);
            if a != b {
                g.add_edge(a, b, rng.random_range(1..20));
            }
        }
        let k = (nodes / 4).max(1);
        let bounds = SizeBounds::new(2, nodes as u64);
        let part = MultilevelPartitioner::new(MultilevelConfig::new(k, bounds))
            .partition(&g);
        hcft::partition::check_partition(&g, &part, Some(bounds))
            .map_err(TestCaseError::fail)?;
    }
}
