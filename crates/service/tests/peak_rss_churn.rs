//! Peak memory of a long-lived server that walks the ledger's churn keys
//! and then five further machine sizes, in a test binary of its own so
//! that the process's high-water mark is this test's alone.
//!
//! `cargo test --release -p hcft-service --test peak_rss_churn -- --ignored --nocapture`
//! prints the peak RSS (`VmHWM`). Release only, like `peak_rss`.

use hcft_service::{EvalRequest, EvalService};

/// Peak resident set of this process in kB, from `/proc/self/status`.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in kB")
}

fn evaluate(svc: &EvalService, query: &str) {
    let req = EvalRequest::from_query(query).expect("valid query");
    let body = svc
        .evaluate(&req)
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    assert!(body.contains("\"ranking\""), "{query}: {body}");
}

#[test]
#[ignore = "measures process memory; run explicitly in release"]
fn churn_then_more_machine_sizes_stay_under_the_peak_rss_bound() {
    // Measured ≈ 6.5–6.6 MB on x86_64 Linux (≈ 7.5 MB with pooled,
    // zero-filled halo buffers; ≈ 9.0 MB with fresh stack slabs per world
    // and two pages a stack on top). The bound is what the walk read
    // when each request drew its own sampled failure-set tables
    // (14.9–15.1 MB), plus 15 %.
    const PEAK_RSS_BOUND_KB: u64 = 17 * 1024;
    // The ledger's `eval_churn` server and its 12 keys (16/32 nodes, 8
    // ranks a node, 50/55/60 iterations, both family grids), twice.
    let svc = EvalService::new(2, 4);
    for _ in 0..2 {
        for iters in [50, 55, 60] {
            for nodes in [16, 32] {
                for families in ["table2", "full"] {
                    evaluate(
                        &svc,
                        &format!("nodes={nodes}&ppn=8&iters={iters}&ck=23&families={families}"),
                    );
                }
            }
        }
    }
    for nodes in [20, 24, 28, 36, 40] {
        evaluate(
            &svc,
            &format!("nodes={nodes}&ppn=8&iters=50&ck=23&families=full"),
        );
    }
    let peak_kb = peak_rss_kb();
    println!("churn and more machine sizes: peak RSS {peak_kb} kB");
    assert!(
        peak_kb <= PEAK_RSS_BOUND_KB,
        "peak RSS {peak_kb} kB exceeds its {PEAK_RSS_BOUND_KB} kB bound"
    );
}
