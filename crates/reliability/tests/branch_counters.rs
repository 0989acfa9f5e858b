//! `ReliabilityModel`'s branch and table counters, read as deltas of the
//! process-global registry. This file is its own test binary, so no test
//! elsewhere moves the counters while it runs, and its tests take
//! [`SERIAL`] so they do not move each other's.

use std::collections::BTreeSet;
use std::sync::{Barrier, Mutex};

use hcft_graph::Clustering;
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, ReliabilityModel};
use hcft_telemetry::Registry;
use hcft_topology::Placement;

/// Held by every test here: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

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
fn tables_are_drawn_once_per_process_and_none_on_rescoring() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let placement = Placement::block(16, 4);
    let family = family();
    let dist = EventDistribution::fti_calibrated();
    let sizes = dist.max_nodes();

    // Which event sizes reach a Monte-Carlo branch? Ask the first model
    // over 16 nodes, one q(j) at a time: it draws at most one table per
    // sampled size.
    let mut sampled = BTreeSet::new();
    let tables = tables_built();
    let first_model = ReliabilityModel::new(16, dist.clone());
    for c in &family {
        for j in 1..=sizes {
            let [.., mc, mixed] = branch_counts();
            first_model.q_given_j(j, c, &placement, &fti_tolerance);
            let [.., mc_after, mixed_after] = branch_counts();
            if mc_after + mixed_after > mc + mixed {
                sampled.insert(j);
            }
        }
    }
    assert!(!sampled.is_empty(), "no event size sampled");
    let built = tables_built() - tables;
    assert!(
        built >= 1 && built as usize <= sampled.len(),
        "{built} tables for sampled sizes {sampled:?}"
    );

    // A second model over the same node count draws none: the tables are
    // the process's.
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
    assert_eq!(tables_built() - tables, 0, "second model drew tables");
    let moved: Vec<u64> = branch_counts()
        .iter()
        .zip(branches)
        .map(|(after, before)| after - before)
        .collect();
    // One branch per q(j) evaluation, and the family reaches all five.
    assert_eq!(moved.iter().sum::<u64>(), (family.len() * sizes) as u64);
    assert!(moved.iter().all(|&m| m > 0), "branch deltas {moved:?}");

    // Scoring the family again reuses every table.
    let tables = tables_built();
    assert_eq!(score(), first);
    assert_eq!(tables_built() - tables, 0);
}

#[test]
fn racing_threads_draw_a_fresh_table_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 96 nodes, two ranks each; clusters of 4 over two nodes lose 2 of 4
    // to either node and die only with both, so a 12-node event takes
    // the pure Monte-Carlo branch. No other test here uses 96 nodes.
    let placement = Placement::block(96, 2);
    let clustering = Clustering::consecutive(192, 4);
    let start = Barrier::new(2);
    let (tables, branches) = (tables_built(), branch_counts());
    let q: Vec<u64> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let model = ReliabilityModel::new(96, EventDistribution::fti_calibrated());
                    start.wait();
                    model
                        .q_given_j(12, &clustering, &placement, &fti_tolerance)
                        .to_bits()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(q[0], q[1]);
    assert_eq!(branch_counts()[3] - branches[3], 2, "both took the branch");
    assert_eq!(tables_built() - tables, 1, "one draw for two racers");
}
