//! Peak memory of a long-lived server that walks the ledger's churn keys
//! and then enough further machine sizes to make the process-wide
//! Monte-Carlo table registry evict, in a test binary of its own so that
//! the process's high-water mark is this test's alone.
//!
//! `cargo test --release -p hcft-service --test peak_rss_churn -- --ignored --nocapture`
//! prints the peak RSS (`VmHWM`) and the registry's gauges. Release only,
//! like `peak_rss`.

use hcft_service::{EvalRequest, EvalService};
use hcft_telemetry::Registry;

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
fn churn_then_registry_eviction_stays_under_the_peak_rss_bound() {
    // Measured ≈ 11.0 MB on x86_64 Linux, of which the registry holds
    // ≈ 1.9 MB of bitset tables over three node counts; traced ranks
    // that still built their solver fields read ≈ 17.2 MB. Before the
    // registry (each request drew its own `u32` tables) it read
    // 14.9–15.1 MB; the bound is that plus 15 %. `u32` tables that are
    // never evicted read ≈ 42.7 MB.
    const PEAK_RSS_BOUND_KB: u64 = 17 * 1024;
    let evicted = || {
        Registry::global()
            .counter("reliability.mc_tables_evicted")
            .get()
    };
    let gauge = |name: &str| Registry::global().gauge(name).get();
    // The ledger's `eval_churn` server and its 12 keys (16/32 nodes, 8
    // ranks a node, 50/55/60 iterations, both family grids), twice. The
    // two machine sizes' tables take ≈ 0.9 MB together, so the 2 MiB
    // registry holds both and evicts nothing.
    let svc = EvalService::new(2, 4);
    let before = evicted();
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
    assert_eq!(evicted(), before, "the churn keys evicted a table");
    // A table takes 2 000 B a node, so these five sizes' tables pass the
    // budget and the walk evicts.
    let before = evicted();
    for nodes in [20, 24, 28, 36, 40] {
        evaluate(
            &svc,
            &format!("nodes={nodes}&ppn=8&iters=50&ck=23&families=full"),
        );
    }
    let peak_kb = peak_rss_kb();
    println!(
        "churn and eviction: peak RSS {peak_kb} kB; registry {} B in {} node counts, {} tables evicted",
        gauge("reliability.mc_tables.bytes"),
        gauge("reliability.mc_tables.node_counts"),
        evicted() - before
    );
    assert!(
        peak_kb <= PEAK_RSS_BOUND_KB,
        "peak RSS {peak_kb} kB exceeds its {PEAK_RSS_BOUND_KB} kB bound"
    );
    assert!(evicted() > before, "the walk evicted no table");
}
