//! Four threads of mixed `table2` / `full` requests over three cadences
//! on a one-entry trace cache and a one-entry memo, so nearly every
//! request evicts a trace, a body or both while other threads score on
//! the stages being evicted. Every body must equal the one a
//! single-threaded fresh service returns, and the whole run must end
//! within a bounded wall time (a lost wake-up would hang it).
//!
//! `cargo test --release -p hcft-service --test stage_concurrency`

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use hcft_service::{EvalRequest, EvalService};

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 24;

fn queries() -> Vec<String> {
    let mut out = Vec::new();
    for ck in [21, 22, 23] {
        for families in ["table2", "full"] {
            out.push(format!(
                "nodes=16&ppn=8&iters=50&ck={ck}&families={families}"
            ));
        }
    }
    out
}

#[test]
fn mixed_threads_on_a_one_entry_service_return_single_threaded_bodies() {
    let queries = queries();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let req = EvalRequest::from_query(q).expect("valid query");
            (*EvalService::new(1, 1).evaluate(&req).expect("scores")).clone()
        })
        .collect();
    let svc = Arc::new(EvalService::new(1, 1));
    let (done, finished) = mpsc::channel();
    for t in 0..THREADS {
        let (svc, queries, expected, done) = (
            Arc::clone(&svc),
            queries.clone(),
            expected.clone(),
            done.clone(),
        );
        std::thread::spawn(move || {
            let mismatches = (0..REQUESTS_PER_THREAD)
                .filter(|i| {
                    // Each thread walks the six queries in its own order.
                    let k = (i * (2 * t + 1) + t) % queries.len();
                    let req = EvalRequest::from_query(&queries[k]).expect("valid query");
                    *svc.evaluate(&req).expect("scores") != expected[k]
                })
                .count();
            done.send(mismatches).expect("the test waits");
        });
    }
    for _ in 0..THREADS {
        let mismatches = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("every thread finishes in bounded time");
        assert_eq!(mismatches, 0, "bodies differ from single-threaded ones");
    }
    let (_, _, evictions) = svc.trace_cache().stats();
    assert!(evictions > 0, "the one-entry trace cache evicted");
}
