//! `run_traced_job` composes its matrices from a two-step prefix world;
//! they must be byte-identical to the whole traced run
//! (`run_traced_world` → `byte_matrix` → `project`) on every machine
//! shape and cadence, and the whole run must still serve the jobs the
//! composition does not cover.
//!
//! Both sides are shape-only runs: the traced world's application ranks
//! send every halo as a zero view of its decomposed length and build no
//! solver field. That shape-only traffic equals a full solver step's is
//! proven in `hcft-tsunami`'s `tests/properties.rs`
//! (`shape_only_exchange_sends_what_the_full_step_sends`).

use hcft_core::experiment::{run_traced_job, run_traced_world, TracedJobConfig};
use hcft_core::Registry;
use parking_lot::Mutex;

const NODES: [usize; 5] = [1, 2, 3, 4, 8];
const PPN: [usize; 3] = [1, 2, 4];
const ITERS: [u64; 6] = [0, 1, 2, 3, 7, 50];
const CK: [u64; 6] = [0, 1, 2, 3, 25, 60];
const GROUPS: [usize; 3] = [1, 2, 4];

/// The path counters are process-global: tests that read their deltas
/// take this lock so they do not count each other's traces.
static PATH_COUNTERS: Mutex<()> = Mutex::new(());

/// `(composed, full_runs)` so far.
fn paths() -> (u64, u64) {
    let reg = Registry::global();
    (
        reg.counter("core.trace.composed").get(),
        reg.counter("core.trace.full_runs").get(),
    )
}

/// Assert `run_traced_job(cfg)` equals the whole traced run, and return
/// whether it was composed.
fn assert_composes_exactly(cfg: &TracedJobConfig) -> bool {
    let before = paths();
    let job = run_traced_job(cfg);
    let after = paths();
    let world = run_traced_world(cfg);
    let full = world.trace.byte_matrix();
    let shape = cfg.to_canonical();
    assert!(full == job.full, "full matrix differs for {shape}");
    assert!(
        full.project(&world.layout.application_ranks()) == job.app,
        "app matrix differs for {shape}"
    );
    assert_eq!(job.process_grid, world.process_grid, "{shape}");
    after.0 > before.0
}

fn config(nodes: usize, ppn: usize, iters: u64, ck: u64, enc: bool, eg: usize) -> TracedJobConfig {
    TracedJobConfig::builder(nodes, ppn)
        .with_encoders(enc)
        .iterations(iters)
        .checkpoint_every(ck)
        .encoder_group_nodes(eg.min(nodes))
        .build()
        .expect("valid config")
}

#[test]
fn every_cadence_on_every_machine_shape_composes_exactly() {
    let _serial = PATH_COUNTERS.lock();
    let mut i = 0;
    for nodes in NODES {
        for ppn in PPN {
            for iters in ITERS {
                for ck in CK {
                    // Rotate the layout and the encoder group along the
                    // grid so each cadence meets several of both.
                    let cfg = config(nodes, ppn, iters, ck, i % 4 != 3, GROUPS[i % 3]);
                    let composed = assert_composes_exactly(&cfg);
                    assert_eq!(composed, iters > 2, "{}", cfg.to_canonical());
                    i += 1;
                }
            }
        }
    }
}

#[test]
fn every_machine_shape_and_encoder_group_composes_exactly() {
    let _serial = PATH_COUNTERS.lock();
    for nodes in NODES {
        for ppn in PPN {
            for eg in GROUPS.into_iter().filter(|&g| g <= nodes) {
                assert!(assert_composes_exactly(&config(nodes, ppn, 7, 2, true, eg)));
            }
            assert!(assert_composes_exactly(&config(nodes, ppn, 7, 2, false, 1)));
        }
    }
    let auto = TracedJobConfig::builder(4, 4)
        .auto_process_grid()
        .iterations(9)
        .checkpoint_every(4)
        .build()
        .expect("valid config");
    assert_eq!(auto.process_grid(), (4, 4), "a 2-D decomposition");
    assert!(assert_composes_exactly(&auto));
}

#[test]
fn event_logged_and_short_jobs_run_the_whole_world() {
    let _serial = PATH_COUNTERS.lock();
    let mut logged = config(4, 2, 20, 5, true, 4);
    logged.record_events = true;
    let before = paths();
    let t = run_traced_job(&logged);
    assert!(
        !t.app_events.is_empty(),
        "the event log needs the whole run"
    );
    assert_eq!(paths(), (before.0, before.1 + 1));
    for iters in [0, 1, 2] {
        let before = paths();
        run_traced_job(&config(4, 2, iters, 1, true, 4));
        assert_eq!(paths(), (before.0, before.1 + 1), "iters={iters}");
    }
}

/// The exact trace shapes of the ledger's `eval_cold` and `eval_churn`
/// workloads (`/evaluate` at the builder's defaults plus `iters` and
/// `ck`). Release only: `cargo test --release -p hcft-core --test
/// trace_compose -- --ignored ledger_shapes`.
#[test]
#[ignore = "paper-machine traces; run explicitly in release"]
fn ledger_shapes_compose_exactly() {
    let _serial = PATH_COUNTERS.lock();
    let build = |nodes, ppn, iters, ck| {
        TracedJobConfig::builder(nodes, ppn)
            .iterations(iters)
            .checkpoint_every(ck)
            .build()
            .expect("valid config")
    };
    for ck in 21..=25 {
        assert!(assert_composes_exactly(&build(64, 16, 100, ck)));
        for nodes in [16, 32] {
            for iters in [50, 55, 60] {
                assert!(assert_composes_exactly(&build(nodes, 8, iters, ck)));
            }
        }
    }
}
