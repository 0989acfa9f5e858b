//! The process-wide Monte-Carlo table registry stays within its byte
//! budget, evicts the least-recently-used node count first, and leaves a
//! model that still holds an evicted table scoring bit-identically. Read
//! through the global telemetry, in a test binary of its own so that no
//! other test draws tables while this one walks node counts.

use hcft_graph::Clustering;
use hcft_reliability::model::{fti_tolerance, MC_TABLE_BUDGET_BYTES};
use hcft_reliability::{EventDistribution, ReliabilityModel};
use hcft_telemetry::Registry;
use hcft_topology::Placement;

fn counter(name: &str) -> u64 {
    Registry::global().counter(name).get()
}

fn gauge(name: &str) -> f64 {
    Registry::global().gauge(name).get()
}

/// Every failure event takes down 12 nodes.
fn twelve_node_events() -> EventDistribution {
    let mut p_nodes = vec![0.0; 12];
    p_nodes[11] = 1.0;
    EventDistribution::new(0.0, p_nodes).expect("valid distribution")
}

/// A model over `nodes` nodes and its P(catastrophic) for two-node
/// clusters of 4 (two ranks a node): no node is singly bad and the union
/// bound is loose, so scoring reads the one 12-node table of `nodes`.
fn score(nodes: usize) -> (ReliabilityModel, u64) {
    let model = ReliabilityModel::new(nodes, twelve_node_events());
    let p = score_with(&model);
    (model, p)
}

fn score_with(model: &ReliabilityModel) -> u64 {
    let nodes = model.nodes();
    model
        .p_catastrophic(
            &Clustering::consecutive(2 * nodes, 4),
            &Placement::block(nodes, 2),
            &fti_tolerance,
        )
        .to_bits()
}

/// Bytes of one table over `nodes` nodes: 16 000 sets, one bit each, a
/// `u64` word per node and 64 sets.
fn table_bytes(nodes: usize) -> usize {
    nodes * 16_000usize.div_ceil(64) * 8
}

#[test]
fn registry_stays_in_budget_and_evicts_the_least_recently_used_node_count() {
    let (a, b) = (300, 301);
    let built = counter("reliability.mc_tables_built");
    let (_, a_bits) = score(a);
    let (held_b, b_bits) = score(b);
    assert_eq!(counter("reliability.mc_tables_built") - built, 2);
    // A new model over `a` draws nothing and makes `b` the least
    // recently used.
    let built = counter("reliability.mc_tables_built");
    assert_eq!(score(a).1, a_bits);
    assert_eq!(counter("reliability.mc_tables_built") - built, 0);

    let evicted = counter("reliability.mc_tables_evicted");
    let mut resident = vec![a, b];
    let resident_bytes =
        |resident: &[usize]| resident.iter().map(|&n| table_bytes(n)).sum::<usize>();
    while counter("reliability.mc_tables_evicted") == evicted {
        let bytes = gauge("reliability.mc_tables.bytes");
        assert!(bytes <= MC_TABLE_BUDGET_BYTES as f64, "{bytes} B resident");
        assert_eq!(bytes, resident_bytes(&resident) as f64);
        assert_eq!(
            gauge("reliability.mc_tables.node_counts"),
            resident.len() as f64
        );
        let next = a + resident.len();
        let built = counter("reliability.mc_tables_built");
        score(next);
        assert_eq!(counter("reliability.mc_tables_built") - built, 1);
        resident.push(next);
    }
    // The first table past the budget evicted exactly one node count,
    // the least recently used: `b`.
    let last = *resident.last().unwrap();
    let before_last = resident_bytes(&resident) - table_bytes(last);
    assert!(before_last <= MC_TABLE_BUDGET_BYTES, "no eviction");
    assert!(before_last + table_bytes(last) > MC_TABLE_BUDGET_BYTES);
    assert_eq!(counter("reliability.mc_tables_evicted") - evicted, 1);
    resident.retain(|&n| n != b);
    let bytes = gauge("reliability.mc_tables.bytes");
    assert_eq!(bytes, resident_bytes(&resident) as f64);
    assert!(bytes <= MC_TABLE_BUDGET_BYTES as f64);

    // `a` is still resident: a new model over it draws nothing.
    let built = counter("reliability.mc_tables_built");
    assert_eq!(score(a).1, a_bits);
    assert_eq!(counter("reliability.mc_tables_built") - built, 0);
    // `b` was evicted, but the model holding its table scores it again
    // without a draw, and bit-identically.
    assert_eq!(score_with(&held_b), b_bits);
    assert_eq!(counter("reliability.mc_tables_built") - built, 0);
    // A new model over `b` draws it again, to the same bits.
    assert_eq!(score(b).1, b_bits);
    assert_eq!(counter("reliability.mc_tables_built") - built, 1);
    let bytes = gauge("reliability.mc_tables.bytes");
    assert!(bytes <= MC_TABLE_BUDGET_BYTES as f64, "{bytes} B resident");
}
