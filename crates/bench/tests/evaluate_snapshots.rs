//! The served bytes must not drift: `EvalService::evaluate` bodies for
//! `families=table2` and `families=full` on five machine shapes are
//! compared with snapshots under `tests/snapshots/`. This is the served
//! path's counterpart of the byte-compare of `results/*.csv`: any change
//! to which strategies a request ranks, their order, their scores or the
//! rendering shows up here.

use std::path::Path;

use hcft_service::{EvalRequest, EvalService};

/// Even and uneven node counts, with and without a striped entrant and
/// with hierarchical bounds that fit and bounds that do not.
const SHAPES: [(usize, usize); 5] = [(4, 2), (5, 2), (8, 4), (9, 2), (16, 4)];

#[test]
fn evaluate_bodies_match_committed_snapshots() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let svc = EvalService::new(1, 1);
    for (nodes, ppn) in SHAPES {
        for families in ["table2", "full"] {
            let query = format!("nodes={nodes}&ppn={ppn}&families={families}");
            let req = EvalRequest::from_query(&query).expect("valid query");
            let body = svc
                .evaluate(&req)
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            let path = dir.join(format!("evaluate_{nodes}x{ppn}_{families}.json"));
            let snapshot = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_eq!(*body, snapshot, "{query} drifted from its snapshot");
        }
    }
}
