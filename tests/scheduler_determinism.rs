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
//! * **collective results** — allgather outputs and a point-to-point
//!   recursive-doubling f64 sum (whose bit pattern depends on the order
//!   partial sums meet) are byte-identical across the same axis, because
//!   the algorithms fix the combining order independently of scheduling.

use hcft::core::experiment::{run_traced_job, run_traced_world, TraceResult, TracedJobConfig};
use hcft::simmpi::{Comm, Engine, World, WorldConfig};

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
/// recorder, and must show the full traffic structure within its memory
/// bound. About 1 s and 0.17 GB in release:
/// `cargo test --release -- --ignored ranks_22k` (add `--nocapture` to
/// see the process's peak RSS).
#[test]
#[ignore = "23 936-rank traced run; run explicitly in release"]
fn ranks_22k_traced_run_completes_on_the_task_scheduler() {
    // Measured VmHWM 171 144–171 404 kB (x86_64 Linux, 2 workers).
    // Traced ranks hold no solver field and send their halos and parity
    // blocks as views of one shared zero block, so the peak is the
    // touched coroutine stacks and the sparse recorder; the FTI
    // allgather and split add one n-block buffer per call, not one per
    // rank. Zero-filled pooled halo buffers, in flight per rank, read
    // 903 248–955 276 kB and fail this bound; ranks that built their
    // 22 528 × 4 096-cell solver state read 4.2–4.3 GB.
    const PEAK_RSS_BOUND_KB: u64 = 500_000;
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
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let peak_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in kB");
    println!("ranks_22k peak RSS: {peak_kb} kB");
    assert!(
        peak_kb <= PEAK_RSS_BOUND_KB,
        "ranks_22k peak RSS {peak_kb} kB exceeds its {PEAK_RSS_BOUND_KB} kB bound"
    );
}

/// Element-wise f64 sum over `c` by MPICH2's recursive doubling: with
/// `2ᵏ` the largest power of two ≤ n, the first `2·(n − 2ᵏ)` ranks pair
/// up and the even rank of each pair folds into the odd one, the `2ᵏ`
/// survivors exchange partial sums at distances 1, 2, 4, …, and the
/// folded ranks get the result back. Each step adds the partner's
/// partial sum, so the bits depend on which partial sums meet in which
/// order.
fn recursive_doubling_sum(c: &Comm, mine: &[f64]) -> Vec<f64> {
    const TAG: u32 = 7 << 20;
    let (n, rank) = (c.size(), c.rank());
    let pof2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
    let rem = n - pof2;
    let add = |acc: &mut Vec<f64>, theirs: Vec<f64>| {
        for (a, b) in acc.iter_mut().zip(theirs) {
            *a += b;
        }
    };
    let mut acc = mine.to_vec();
    let newrank = match rank {
        r if r < 2 * rem && r % 2 == 0 => {
            c.send_slice(r + 1, TAG, &acc);
            None
        }
        r if r < 2 * rem => {
            add(&mut acc, c.recv_vec(r - 1, TAG));
            Some(r / 2)
        }
        r => Some(r - rem),
    };
    if let Some(nr) = newrank {
        let mut dist = 1;
        while dist < pof2 {
            let p = nr ^ dist;
            let partner = if p < rem { 2 * p + 1 } else { p + rem };
            let tag = TAG | dist as u32;
            c.send_slice(partner, tag, &acc);
            add(&mut acc, c.recv_vec(partner, tag));
            dist <<= 1;
        }
    }
    if rank < 2 * rem {
        if rank % 2 == 1 {
            c.send_slice(rank - 1, TAG | 1 << 16, &acc);
        } else {
            acc = c.recv_vec(rank + 1, TAG | 1 << 16);
        }
    }
    acc
}

#[test]
fn collective_results_identical_across_workers_and_engines() {
    // Non-power-of-two size exercises Bruck and the recursive-doubling
    // fold-in phases; f64 payloads make combining order visible in the
    // bits.
    let run = |workers: usize, engine: Engine| {
        let cfg = WorldConfig {
            workers,
            engine,
            ..WorldConfig::default()
        };
        World::run_with(6, cfg, |c| {
            let r = c.rank() as f64;
            let gathered = c.allgather(&[r * 0.1, r * 0.3]);
            let summed = recursive_doubling_sum(c, &[r * 1e-3, 1.0 / (r + 1.0)]);
            let maxed = vec![c.allgather(&[r.sin()]).into_iter().fold(f64::MIN, f64::max)];
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
