//! Exact counts of the scoring work a served request does in each stage
//! state, in a test binary of its own: the seven `cluster.stage.*`
//! counters are process-global, so no other test may run beside this
//! one.
//!
//! One service walks a 16 × 8 machine through four states:
//! 1. `table2` cold: one node matrix, the node graph derived from it,
//!    one L1 partition, its four layout rows and its hierarchical row;
//! 2. `full` on the same trace: the node matrix, the graph, the `(4, 8)`
//!    partition and the `table2` rows are reused; two more partitions,
//!    nine more layout rows and three more hierarchical rows are built;
//! 3. `table2` again (its body was evicted from the one-entry memo):
//!    nothing but the walks;
//! 4. `full` on a second cadence: a new trace, so a new node matrix and
//!    graph, its three partitions and four hierarchical rows, and no
//!    layout row at all.
//!
//! Every request walks each row once, at the grain its L1 is defined on:
//! `table2` walks the node matrix for naïve 32, size-guided 8, striped
//! and hierarchical, and the rank matrix for distributed 16; `full`
//! walks the rank matrix for size-guided 4 and the three distributed
//! rows, and the node matrix for its other thirteen.
//!
//! `cargo test --release -p hcft-service --test stage_counts`

use hcft_service::{EvalRequest, EvalService};
use hcft_telemetry::Registry;

/// `(node matrices, node graphs, L1 partitioner runs, layout rows,
/// hierarchical rows, node walks, rank walks)` so far.
fn counts() -> [u64; 7] {
    let reg = Registry::global();
    [
        "cluster.stage.node_matrices",
        "cluster.stage.node_graphs",
        "cluster.stage.l1_partitions",
        "cluster.stage.layout_rows",
        "cluster.stage.hierarchical_rows",
        "cluster.stage.node_walks",
        "cluster.stage.rank_walks",
    ]
    .map(|name| reg.counter(name).get())
}

#[test]
fn each_stage_state_builds_exactly_what_it_lacks() {
    let svc = EvalService::new(2, 1);
    let steps = [
        ("ck=21&families=table2", [1, 1, 1, 4, 1, 4, 1]),
        ("ck=21&families=full", [0, 0, 2, 9, 3, 13, 4]),
        ("ck=21&families=table2", [0, 0, 0, 0, 0, 4, 1]),
        ("ck=22&families=full", [1, 1, 3, 0, 4, 13, 4]),
    ];
    for (i, (query, want)) in steps.into_iter().enumerate() {
        let query = format!("nodes=16&ppn=8&iters=50&{query}");
        let req = EvalRequest::from_query(&query).expect("valid query");
        let before = counts();
        svc.evaluate(&req)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let after = counts();
        let built: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(
            built,
            want,
            "step {} ({query}): (node matrices, node graphs, L1 partitions, layout rows, \
             hierarchical rows, node walks, rank walks)",
            i + 1
        );
    }
    // Every request missed the memo; two traces were built, two reused.
    assert_eq!(
        svc.trace_cache().stats(),
        (2, 2, 0),
        "trace (hits, misses, evictions)"
    );
    assert_eq!(svc.layout_stage().len(), 13, "one full grid of layout rows");
}
