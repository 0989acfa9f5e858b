//! `ReliabilityModel`'s branch and table counters, read as deltas of the
//! process-global registry. This file is its own test binary, so no other
//! test moves the counters while it runs.

use std::collections::BTreeSet;

use hcft_graph::Clustering;
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, ReliabilityModel};
use hcft_telemetry::Registry;
use hcft_topology::Placement;

const BRANCHES: [&str; 5] = ["single", "pair", "exact", "monte_carlo", "mixed"];

fn branch_counts() -> [u64; 5] {
    BRANCHES.map(|b| {
        Registry::global()
            .counter(&format!("reliability.q.{b}"))
            .get()
    })
}

fn tables_built() -> u64 {
    Registry::global()
        .counter("reliability.mc_tables_built")
        .get()
}

/// Six clusterings of a 16 × 4 machine that between them reach every
/// branch: same-node, two- and four-node blocks, one rank per node over
/// groups of 4 and 16 nodes, and two-node blocks beside a split node.
fn family() -> Vec<Clustering> {
    let strided = |group: usize| {
        let assignment: Vec<usize> = (0..64).map(|r| (r / 4) / group * 4 + r % 4).collect();
        Clustering::from_assignment(&assignment)
    };
    let split: Vec<usize> = (0..64)
        .map(|r| if r < 4 { r / 2 } else { 2 + (r - 4) / 8 })
        .collect();
    vec![
        Clustering::consecutive(64, 4),
        Clustering::consecutive(64, 8),
        Clustering::consecutive(64, 16),
        strided(4),
        strided(16),
        Clustering::from_assignment(&split),
    ]
}

#[test]
fn one_table_per_sampled_event_size_and_none_on_rescoring() {
    let placement = Placement::block(16, 4);
    let family = family();
    let dist = EventDistribution::fti_calibrated();
    let sizes = dist.max_nodes();

    // Which event sizes reach a Monte-Carlo branch? Ask a probe model,
    // one q(j) at a time.
    let mut sampled = BTreeSet::new();
    let probe = ReliabilityModel::new(16, dist.clone());
    for c in &family {
        for j in 1..=sizes {
            let [.., mc, mixed] = branch_counts();
            probe.q_given_j(j, c, &placement, &fti_tolerance);
            let [.., mc_after, mixed_after] = branch_counts();
            if mc_after + mixed_after > mc + mixed {
                sampled.insert(j);
            }
        }
    }
    assert!(!sampled.is_empty(), "no event size sampled");

    let model = ReliabilityModel::new(16, dist);
    let score = || -> Vec<u64> {
        family
            .iter()
            .map(|c| {
                model
                    .p_catastrophic(c, &placement, &fti_tolerance)
                    .to_bits()
            })
            .collect()
    };
    let (tables, branches) = (tables_built(), branch_counts());
    let first = score();
    let built = tables_built() - tables;
    let moved: Vec<u64> = branch_counts()
        .iter()
        .zip(branches)
        .map(|(after, before)| after - before)
        .collect();
    assert!(
        built >= 1 && built as usize <= sampled.len(),
        "{built} tables for sampled sizes {sampled:?}"
    );
    // One branch per q(j) evaluation, and the family reaches all five.
    assert_eq!(moved.iter().sum::<u64>(), (family.len() * sizes) as u64);
    assert!(moved.iter().all(|&m| m > 0), "branch deltas {moved:?}");

    // Scoring the family again reuses every table.
    let tables = tables_built();
    assert_eq!(score(), first);
    assert_eq!(tables_built() - tables, 0);
}
