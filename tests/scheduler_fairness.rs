//! Preemption and work stealing: behavioural guarantees.
//!
//! `scheduler_determinism.rs` pins that the fairness knobs change no
//! observable result. This suite pins that they change the *scheduling*
//! the way they claim to:
//!
//! * a rank that computes for much longer than `recv_timeout` without
//!   blocking must NOT trip the deadlock watchdog for its peers — the
//!   watchdog only fires when the whole world is quiescent (a blocked
//!   rank's sender is always either running or runnable, so a live
//!   computation is proof of progress);
//! * with stealing on, an imbalanced rank pile is actually redistributed
//!   (the `simmpi.sched.steal_hits` counter moves) while outputs and
//!   traffic stay identical;
//! * with a yield budget, a compute loop on ONE worker cedes the worker
//!   to its sibling rank — cooperative starvation is broken by counted
//!   preemption alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcft::simmpi::{maybe_yield, Engine, World, WorldConfig};
use hcft::telemetry::Registry;

/// Regression: a long-computing rank used to starve the deadline scan's
/// view of progress — a peer blocked in `recv` with a short
/// `recv_timeout` would be declared deadlocked while its sender was
/// busy computing the very message it waits for. The watchdog is now
/// gated on global quiescence, so a running rank anywhere suppresses
/// timeouts everywhere.
#[test]
fn busy_rank_does_not_trip_peer_watchdog() {
    for workers in [1usize, 2] {
        let cfg = WorldConfig {
            workers,
            engine: Engine::Tasks,
            // Far shorter than the computation below: the old
            // per-deadline watchdog fired at ~150 ms into the spin.
            recv_timeout: Duration::from_millis(150),
            ..WorldConfig::default()
        };
        let result = World::run_with(2, cfg, |c| {
            if c.rank() == 0 {
                // Compute (without yielding or blocking) for 4x the
                // receive timeout, then produce the awaited message.
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(600) {
                    std::hint::spin_loop();
                }
                c.send_slice(1, 1, &[42u64]);
                0
            } else {
                c.recv_vec::<u64>(0, 1)[0]
            }
        });
        assert_eq!(result.outputs, vec![0, 42], "at {workers} worker(s)");
    }
}

/// An imbalanced pile of compute-heavy ranks must actually migrate when
/// stealing is on — and migration must be invisible in the results.
#[test]
fn stealing_rebalances_without_changing_results() {
    let workers = 4usize;
    let n = workers * 2;
    let run = |steal: bool| {
        let cfg = WorldConfig {
            workers,
            engine: Engine::Tasks,
            steal: Some(steal),
            yield_budget: Some(16),
            ..WorldConfig::default()
        };
        World::run_with(n, cfg, move |c| {
            let rank = c.rank();
            // Static chunk placement puts ranks {2i, 2i+1} on worker i:
            // the first half of the ranks (the heavies) pile onto the
            // low-numbered workers, the rest finish almost instantly.
            let value = if rank < workers {
                let mut acc = 0u64;
                for i in 0..400_000u64 {
                    maybe_yield();
                    acc = acc
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i ^ rank as u64);
                }
                acc
            } else {
                rank as u64
            };
            let last = c.size() - 1;
            if rank == last {
                let mut sum = value;
                for src in 0..last {
                    sum = sum.wrapping_add(c.recv_vec::<u64>(src, 9)[0]);
                }
                sum
            } else {
                c.send_slice(last, 9, &[value]);
                value
            }
        })
    };
    let off = run(false);
    let hits = Registry::global().counter("simmpi.sched.steal_hits");
    let hits_before = hits.get();
    let on = run(true);
    assert_eq!(off.outputs, on.outputs, "stealing changed outputs");
    assert_eq!(
        off.trace.byte_matrix(),
        on.trace.byte_matrix(),
        "stealing changed the traffic matrix"
    );
    assert!(
        hits.get() > hits_before,
        "steal-enabled run on {workers} workers never stole a task"
    );
}

/// On a single worker, a yield budget is the only thing standing between
/// a compute loop and starvation of its sibling: rank 0 spins until
/// rank 1 raises a flag, and rank 1 can only run if `maybe_yield`
/// actually preempts rank 0.
#[test]
fn yield_budget_breaks_cooperative_starvation() {
    let flag = Arc::new(AtomicBool::new(false));
    let flag_for_world = Arc::clone(&flag);
    let preemptions = Registry::global().counter("simmpi.sched.preemptions");
    let preemptions_before = preemptions.get();
    let cfg = WorldConfig {
        workers: 1,
        engine: Engine::Tasks,
        steal: Some(false),
        yield_budget: Some(4),
        ..WorldConfig::default()
    };
    let result = World::run_with(2, cfg, move |c| {
        if c.rank() == 0 {
            let mut spins = 0u64;
            while !flag_for_world.load(Ordering::Acquire) {
                maybe_yield();
                spins += 1;
                assert!(
                    spins < 50_000_000,
                    "rank 1 starved: yield budget never preempted rank 0"
                );
            }
            spins
        } else {
            flag_for_world.store(true, Ordering::Release);
            0
        }
    });
    assert!(flag.load(Ordering::Acquire));
    assert!(result.outputs[0] > 0);
    assert!(
        preemptions.get() > preemptions_before,
        "simmpi.sched.preemptions never moved"
    );
}
