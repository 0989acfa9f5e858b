//! The deadlock watchdog and cooperative scheduling.
//!
//! `scheduler_determinism.rs` pins that the scheduler changes no
//! observable result. This suite pins the one scheduling guarantee the
//! watchdog makes: a rank that computes for much longer than
//! `recv_timeout` without blocking must NOT trip the deadlock watchdog
//! for its peers. The watchdog only fires when the whole world is
//! quiescent (a blocked rank's sender is always either running or
//! runnable, so a live computation is proof of progress), and the
//! scheduler is cooperative — the computing rank keeps its worker until
//! it blocks or returns.

use std::time::{Duration, Instant};

use hcft::simmpi::{Engine, World, WorldConfig};

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
