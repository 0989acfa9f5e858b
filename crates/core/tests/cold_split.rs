//! Where a cold `/evaluate` on the served paper shape spends its time.
//!
//! A cold request traces the job (`run_traced_job`: a two-step,
//! two-round prefix world of 1 088 ranks, then `compose` and `project`)
//! and scores it on a fresh trace stage. This tool times each piece
//! through public calls only and prints the median of `RUNS` runs, so the
//! next optimisation of that path is chosen from measured shares:
//!
//! ```text
//! cargo test --release -p hcft-core --test cold_split -- --ignored --nocapture
//! ```
//!
//! Worlds in order of growing work: an empty world, one `allgather`, the
//! traced world at 0, 1 and 2 steps without checkpoint rounds, and at 1
//! and 2 steps with a round after each (the prefix world). The rows
//! below them are differences of those medians. The last block is each
//! task-engine worker's busy and idle time in the prefix world, from the
//! scheduler's per-worker gauges. Nothing is asserted: timings depend on
//! the host.

use std::time::Instant;

use hcft_core::experiment::{run_traced_job, run_traced_world, TracedJobConfig};
use hcft_core::{LayoutStage, Registry, SchemeFamilySpec, TraceStage};
use hcft_simmpi::{World, WorldConfig};

/// Timed runs per row.
const RUNS: usize = 40;
/// `/evaluate?nodes=64&ppn=16`: 64 nodes of 16 application ranks plus
/// one encoder each.
const NODES: usize = 64;
const PPN: usize = 16;
/// The ledger's `eval_cold` cadence: 100 steps, a round every 21.
const ITERATIONS: u64 = 100;
const CHECKPOINT_EVERY: u64 = 21;

/// Median of `RUNS` timings of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2]
}

/// The served job at `iterations` steps and a round every
/// `checkpoint_every` (0: none), with the event log on as the prefix
/// world runs it.
fn traced(iterations: u64, checkpoint_every: u64) -> TracedJobConfig {
    TracedJobConfig::builder(NODES, PPN)
        .iterations(iterations)
        .checkpoint_every(checkpoint_every)
        .record_events(true)
        .build()
        .expect("served shape")
}

/// The world size of the served job.
fn ranks() -> usize {
    traced(0, 0).layout().total_ranks()
}

#[test]
#[ignore = "a timing tool; run explicitly in release with --nocapture"]
fn cold_request_split() {
    let n = ranks();
    let empty = median_ms(|| {
        World::run_with(n, WorldConfig::default(), |_| ());
    });
    let allgather = median_ms(|| {
        World::run_with(n, WorldConfig::default(), |c| c.allgather_zeros(8));
    });
    let world = |iterations, checkpoint_every| {
        let cfg = traced(iterations, checkpoint_every);
        median_ms(|| {
            run_traced_world(&cfg);
        })
    };
    let (w0, w1, w2) = (world(0, 0), world(1, 0), world(2, 0));
    let (r1, r2) = (world(1, 1), world(2, 1));

    let job = TracedJobConfig::builder(NODES, PPN)
        .iterations(ITERATIONS)
        .checkpoint_every(CHECKPOINT_EVERY)
        .build()
        .expect("served shape");
    let traced_job = median_ms(|| {
        run_traced_job(&job);
    });
    let trace = run_traced_job(&job);
    let app_ranks = trace.layout.application_ranks();
    let project = median_ms(|| {
        trace.full.project(&app_ranks);
    });

    let spec = SchemeFamilySpec::for_layout(NODES, PPN);
    let placement = trace.layout.app_placement();
    // The layout stage is warm in a served cold request: the ledger's
    // cold keys share a machine shape and differ only in cadence.
    let layouts = LayoutStage::new();
    let score = |stage: &TraceStage| {
        spec.score_staged(&trace.app, &layouts, stage)
            .expect("the served preset fits its machine");
    };
    score(&TraceStage::new(placement.clone()));
    let cold_score = median_ms(|| score(&TraceStage::new(placement.clone())));
    let warm = TraceStage::new(placement.clone());
    score(&warm);
    let warm_score = median_ms(|| score(&warm));

    // Per-worker busy and idle time of the prefix world.
    let reg = Registry::global();
    let workers = reg.gauge("simmpi.sched.workers");
    let prefix = traced(2, 1);
    let mut per_worker: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for _ in 0..RUNS {
        run_traced_world(&prefix);
        let count = workers.get() as usize;
        per_worker.resize(count, (Vec::new(), Vec::new()));
        for (w, (busy, idle)) in per_worker.iter_mut().enumerate() {
            let ms = |what| reg.gauge(&format!("simmpi.sched.worker.{w}.{what}")).get() / 1e6;
            busy.push(ms("busy_nanos"));
            idle.push(ms("idle_nanos"));
        }
    }

    println!("cold /evaluate split, {NODES}x{PPN} ({n} ranks), medians of {RUNS} runs, ms");
    let rows = [
        ("empty world", empty),
        ("  + allgather", allgather - empty),
        ("  + split (traced world, 0 steps)", w0 - allgather),
        ("  + first halo step", w1 - w0),
        ("  + second halo step", w2 - w1),
        ("  + first round (1 step)", r1 - w1),
        ("  + two rounds (2 steps)", r2 - w2),
        ("traced world, 0 steps", w0),
        ("traced world, 1 step", w1),
        ("traced world, 2 steps", w2),
        ("traced world, 1 step + 1 round", r1),
        ("prefix world: 2 steps + 2 rounds", r2),
        ("run_traced_job", traced_job),
        ("  of which project", project),
        ("  of which compose, drops, rest", traced_job - r2 - project),
        ("score_staged, cold trace stage", cold_score),
        ("score_staged, warm trace stage", warm_score),
    ];
    for (what, ms) in rows {
        println!("{what:<36} {ms:>8.3}");
    }
    for (w, (busy, idle)) in per_worker.iter_mut().enumerate() {
        busy.sort_by(f64::total_cmp);
        idle.sort_by(f64::total_cmp);
        println!(
            "prefix world, worker {w}: busy {:>8.3}  idle {:>8.3}",
            busy[busy.len() / 2],
            idle[idle.len() / 2]
        );
    }
}
