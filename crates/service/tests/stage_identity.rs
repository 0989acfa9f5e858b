//! Byte identity in every stage state, in a test binary of its own: the
//! `cluster.stage.layout_rows` counter that proves a layout's rows were
//! evicted is process-global.
//!
//! On every machine of 1..=17 nodes × 1..=3 ranks a node, with both
//! presets, a long-lived one-entry service must answer exactly what a
//! fresh service answers: cold, trace-warm, layout-warm with a cold
//! trace, after the trace was evicted and after the layout rows were
//! evicted. And the staged rows, cold and warm, must equal
//! `evaluate_family_sweep`'s and those of the one-scheme path
//! (`ClusteringStrategy::build`, then `Evaluator::evaluate`), row by
//! row.
//!
//! `cargo test --release -p hcft-service --test stage_identity`

use hcft_cluster::{Evaluator, StrategyContext};
use hcft_core::trace_cache::TraceCache;
use hcft_core::{evaluate_family_sweep, FamilyScore, LayoutStage};
use hcft_graph::WeightedGraph;
use hcft_service::{EvalRequest, EvalService};
use hcft_telemetry::Registry;

fn shapes() -> Vec<(usize, usize)> {
    (1..=17)
        .flat_map(|nodes| (1..=3).map(move |ppn| (nodes, ppn)))
        .collect()
}

fn query(nodes: usize, ppn: usize, ck: u64, families: &str) -> EvalRequest {
    EvalRequest::from_query(&format!(
        "nodes={nodes}&ppn={ppn}&iters=4&ck={ck}&families={families}"
    ))
    .expect("valid query")
}

/// The body, or the error's text for a machine no family fits.
fn body(svc: &EvalService, req: &EvalRequest) -> Result<String, String> {
    svc.evaluate(req)
        .map(|b| (*b).clone())
        .map_err(|e| e.to_string())
}

fn fresh(req: &EvalRequest) -> Result<String, String> {
    body(&EvalService::new(1, 1), req)
}

fn layout_rows() -> u64 {
    Registry::global()
        .counter("cluster.stage.layout_rows")
        .get()
}

fn assert_rows_equal(got: &[FamilyScore], want: &[FamilyScore], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.family, w.family, "{what}");
        assert_eq!(g.score, w.score, "{what}");
        assert_eq!(g.scheme.name, w.scheme.name, "{what}");
        assert_eq!(g.scheme.l1, w.scheme.l1, "{what}: {} L1", g.scheme.name);
        assert_eq!(g.scheme.l2, w.scheme.l2, "{what}: {} L2", g.scheme.name);
    }
}

#[test]
fn bodies_and_rows_are_identical_in_every_stage_state() {
    let svc = EvalService::new(1, 1);
    for (nodes, ppn) in shapes() {
        let (table2, full, table2_b) = (
            query(nodes, ppn, 1, "table2"),
            query(nodes, ppn, 1, "full"),
            query(nodes, ppn, 2, "table2"),
        );
        for (req, state) in [
            (&table2, "cold"),
            (&full, "trace-warm"),
            (&table2, "trace- and layout-warm"),
            (&table2_b, "layout-warm, trace-cold"),
            (&table2, "after its trace was evicted"),
        ] {
            assert_eq!(
                body(&svc, req),
                fresh(req),
                "{nodes}x{ppn} {state}: {}",
                req.memo_key().expect("key")
            );
        }
    }
    // A second pass: every machine's layout rows were evicted by the
    // machines after it (far more than the stage's capacity), so each
    // request with a layout row rebuilds it.
    for (nodes, ppn) in shapes() {
        let req = query(nodes, ppn, 1, "full");
        let before = layout_rows();
        let got = body(&svc, &req);
        let rebuilt = layout_rows() - before;
        let flat = got.as_deref().map_or(0, |b| {
            b.matches("\"family\": ").count() - b.matches("\"family\": \"hierarchical\"").count()
        });
        assert_eq!(
            rebuilt, flat as u64,
            "{nodes}x{ppn}: every layout row was evicted and is rebuilt"
        );
        assert_eq!(
            got,
            fresh(&req),
            "{nodes}x{ppn} after its layout was evicted"
        );
    }

    // Row by row: the staged path cold and warm, the fresh-stage sweep
    // and the one-scheme path.
    let layouts = LayoutStage::new();
    for (nodes, ppn) in shapes() {
        let cache = TraceCache::new(1);
        for families in ["table2", "full"] {
            let req = query(nodes, ppn, 1, families);
            let spec = req.family_spec();
            let trace = cache.get_or_trace(&req.job_config().expect("valid job"));
            let what = format!("{nodes}x{ppn} {families}");
            let Ok(sweep) = evaluate_family_sweep(&trace, &spec) else {
                continue;
            };
            let mut kept: Option<Vec<FamilyScore>> = None;
            for pass in ["cold", "warm"] {
                let staged = spec
                    .score_staged(&trace.app, &layouts, trace.stage())
                    .expect("the sweep scored");
                assert_rows_equal(&staged, &sweep, &format!("{what} staged {pass}"));
                // The warm pass reuses every row the cold pass kept.
                for (old, new) in kept.iter().flatten().zip(&staged) {
                    assert!(
                        std::sync::Arc::ptr_eq(&old.scheme.l1, &new.scheme.l1),
                        "{what}: {} was rebuilt on warm stages",
                        new.scheme.name
                    );
                }
                kept = Some(staged);
            }
            let placement = trace.layout.app_placement();
            let node_graph =
                WeightedGraph::from_comm_matrix(&trace.app.aggregate_by_node(&placement));
            let ctx = StrategyContext {
                placement: &placement,
                node_graph: &node_graph,
            };
            let evaluator = Evaluator::new(trace.app.clone(), placement.clone());
            let one_by_one: Vec<FamilyScore> = spec
                .strategies()
                .map(|(family, strategy)| {
                    let scheme = strategy.build(&ctx).expect("preset entries build");
                    FamilyScore {
                        family,
                        score: evaluator.evaluate(&scheme),
                        scheme,
                    }
                })
                .collect();
            assert_rows_equal(&sweep, &one_by_one, &format!("{what} one by one"));
        }
    }
}
