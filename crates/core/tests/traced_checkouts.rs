//! The traced world moves no payload bytes: on the served paper shape,
//! the only pooled message buffers a prefix world checks out are its
//! checkpoint notes. Halos and parity blocks are views of one shared
//! zero block (`Comm::send_zeros`), and an empty rendezvous release
//! shares the process-wide empty `Bytes`.
//!
//! This test lives in its own binary because it reads the global
//! `runtime.pool.hits` and `runtime.pool.misses` counters, which any
//! other world in the process would move.

use hcft_core::experiment::{run_traced_world, TracedJobConfig};
use hcft_core::Registry;

/// Buffers checked out of any world's pool so far.
fn checkouts() -> u64 {
    let reg = Registry::global();
    reg.counter("runtime.pool.hits").get() + reg.counter("runtime.pool.misses").get()
}

#[test]
fn served_prefix_world_checks_out_one_buffer_per_checkpoint_note() {
    // `/evaluate?nodes=64&ppn=16`'s job with the prefix world's cadence:
    // two steps, a checkpoint round after each, the event log on.
    let cfg = TracedJobConfig::builder(64, 16)
        .iterations(2)
        .checkpoint_every(1)
        .record_events(true)
        .build()
        .expect("served shape");
    let before = checkouts();
    let world = run_traced_world(&cfg);
    let taken = checkouts() - before;
    let notes = (cfg.nodes * cfg.app_per_node) as u64 * cfg.iterations;
    assert_eq!(notes, 2048);
    assert_eq!(
        taken, notes,
        "pooled checkouts of a served prefix world (the notes are {notes})"
    );
    // The world did trace its halos and parity blocks.
    assert!(world.trace.total_messages() > 2 * notes);
}
