//! Peak memory of cold paper-machine evaluations, in a test binary of its
//! own so that the process's high-water mark is this test's alone.
//!
//! `cargo test --release -p hcft-service --test peak_rss -- --ignored --nocapture`
//! prints the peak RSS (`VmHWM`). Release only: a debug build's frames
//! would measure the build, not the representation.

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

#[test]
#[ignore = "measures process memory; run explicitly in release"]
fn two_cold_paper_evaluations_stay_under_the_peak_rss_bound() {
    // Measured ≈ 11.7–11.9 MB on x86_64 Linux: sparse matrices and
    // recorder rows, traced ranks that send their halos and parity blocks
    // as views of one shared zero block, and a second world that runs on
    // the first one's pooled stack slabs, one page a stack. Pooled,
    // zero-filled halo buffers read ≈ 15.9 MB; fresh slabs per world, two
    // pages a stack, on top ≈ 19.8 MB;
    // ranks that build and step their solver fields again read ≈ 39 MB and
    // fail this bound; dense n² matrices on top (five of them per cold
    // request, ≈ 45 MB) read ≈ 72 MB.
    const PEAK_RSS_BOUND_KB: u64 = 32 * 1024;
    // A one-entry server, as the ledger's `eval_cold` runs it: the
    // second cadence misses both tiers and evicts the first trace.
    let svc = EvalService::new(1, 1);
    for ck in [21, 22] {
        let query = format!("nodes=64&ppn=16&iters=100&ck={ck}&families=full");
        let req = EvalRequest::from_query(&query).expect("valid query");
        let body = svc
            .evaluate(&req)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        assert!(body.contains("\"ranking\""), "{query}: {body}");
    }
    assert_eq!(
        svc.trace_cache().stats(),
        (0, 2, 1),
        "both requests were cold"
    );
    let peak_kb = peak_rss_kb();
    println!("two cold paper evaluations: peak RSS {peak_kb} kB");
    assert!(
        peak_kb <= PEAK_RSS_BOUND_KB,
        "peak RSS {peak_kb} kB exceeds its {PEAK_RSS_BOUND_KB} kB bound"
    );
}
