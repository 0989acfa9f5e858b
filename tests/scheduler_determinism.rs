//! The M:N scheduler must be invisible in results.
//!
//! Worker count and engine choice (cooperative tasks vs thread-per-rank)
//! are performance knobs; nothing observable may depend on them. Two
//! guarantees are pinned here:
//!
//! * **traced CSVs** — the byte and message-count matrices of a traced
//!   FTI-style job, serialised exactly as the figure pipeline writes
//!   them, are byte-identical across worker counts {1, 2, cores} and
//!   across engines;
//! * **collective results** — allgather/allreduce outputs (including
//!   f64 sums, whose bit pattern depends on reduction order) are
//!   byte-identical across the same axis, because the collective
//!   algorithms fix the combining order independently of scheduling.

use hcft::core::experiment::{run_traced_job, run_traced_world, TraceResult, TracedJobConfig};
use hcft::simmpi::{Engine, World, WorldConfig};

/// Worker counts under test: 1, 2 and the core count, deduplicated.
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Serialise a trace the way the figure CSVs do: one `src,dst,bytes`
/// line per non-zero cell, in matrix iteration order.
fn trace_csv(t: &TraceResult) -> String {
    let mut out = String::from("src,dst,bytes\n");
    for (s, d, b) in t.full.entries() {
        out.push_str(&format!("{s},{d},{b}\n"));
    }
    out.push_str("app:src,dst,bytes\n");
    for (s, d, b) in t.app.entries() {
        out.push_str(&format!("{s},{d},{b}\n"));
    }
    out
}

/// The whole 50-step traced world, never the composed prefix of
/// `run_traced_job`: the axis below must see every step's interleaving.
fn full_world(cfg: &TracedJobConfig) -> TraceResult {
    let world = run_traced_world(cfg);
    let full = world.trace.byte_matrix();
    let app = full.project(&world.layout.application_ranks());
    TraceResult {
        layout: world.layout,
        process_grid: world.process_grid,
        full,
        app,
        app_events: Vec::new(),
    }
}

#[test]
fn traced_csvs_identical_across_workers_and_engines() {
    let job = |workers: usize, engine: Engine| {
        let mut cfg = TracedJobConfig::small(4, 2);
        cfg.workers = workers;
        cfg.engine = engine;
        full_world(&cfg)
    };
    let reference = trace_csv(&job(1, Engine::Tasks));
    assert!(reference.lines().count() > 2, "reference trace is empty");
    assert_eq!(
        trace_csv(&run_traced_job(&TracedJobConfig::small(4, 2))),
        reference,
        "the composed trace differs from the whole run"
    );
    for workers in worker_counts() {
        assert_eq!(
            trace_csv(&job(workers, Engine::Tasks)),
            reference,
            "traced CSV diverged at {workers} worker(s)"
        );
    }
    // The thread engine (one OS thread per rank, no cooperative
    // scheduling at all) must reproduce the same bytes.
    let threads = trace_csv(&job(0, Engine::Threads));
    assert_eq!(threads, reference, "thread engine diverged from tasks");
}

/// Full-TSUBAME2 scale: 1408 nodes × 16 app ranks + one encoder per node
/// = 23 936 simulated ranks, past `pid_max` for thread-per-rank — it
/// completes only on the M:N task scheduler with the sparse trace
/// recorder, and must show the full traffic structure. About a minute
/// and several GB in release: `cargo test --release -- --ignored ranks_22k`
/// (add `--nocapture` to see the process's peak RSS).
#[test]
#[ignore = "23 936-rank traced run; run explicitly in release"]
fn ranks_22k_traced_run_completes_on_the_task_scheduler() {
    let job = TracedJobConfig::builder(1408, 16)
        .iterations(10)
        .checkpoint_every(5)
        .grid(22528, 4096)
        .process_grid(11264, 2)
        .encoder_group_nodes(4)
        .build()
        .expect("tsubame2 config is valid");
    let world = run_traced_world(&job);
    assert_eq!(world.layout.total_ranks(), 23_936);
    assert_eq!(world.trace.n(), 23_936);
    // 22 528 app ranks × 10 iterations × ≥2 halo messages bounds the
    // stencil traffic alone from below; the allgathers add more.
    let msgs = world.trace.total_messages();
    assert!(msgs > 450_000, "22k-rank run traced only {msgs} messages");
    // Record the peak, do not gate it: no bound has been measured yet.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    match status.lines().find(|l| l.starts_with("VmHWM:")) {
        Some(line) => println!("ranks_22k peak RSS: {}", line["VmHWM:".len()..].trim()),
        None => println!("ranks_22k peak RSS: unavailable (no /proc/self/status)"),
    }
}

#[test]
fn collective_results_identical_across_workers_and_engines() {
    // Non-power-of-two size exercises Bruck + the allreduce fold-in
    // phases; f64 payloads make combining order visible in the bits.
    let run = |workers: usize, engine: Engine| {
        let cfg = WorldConfig {
            workers,
            engine,
            ..WorldConfig::default()
        };
        World::run_with(6, cfg, |c| {
            let r = c.rank() as f64;
            let gathered = c.allgather(&[r * 0.1, r * 0.3]);
            let summed = c.allreduce_sum(&[r * 1e-3, 1.0 / (r + 1.0)]);
            let maxed = c.allreduce_max(&[r.sin()]);
            (gathered, summed, maxed)
        })
        .outputs
    };
    let bits = |outs: &[(Vec<f64>, Vec<f64>, Vec<f64>)]| -> Vec<u64> {
        outs.iter()
            .flat_map(|(g, s, m)| {
                g.iter()
                    .chain(s)
                    .chain(m)
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let reference = bits(&run(1, Engine::Tasks));
    for workers in worker_counts() {
        assert_eq!(
            bits(&run(workers, Engine::Tasks)),
            reference,
            "collective bits diverged at {workers} worker(s)"
        );
    }
    assert_eq!(
        bits(&run(0, Engine::Threads)),
        reference,
        "collective bits diverged between engines"
    );
}
