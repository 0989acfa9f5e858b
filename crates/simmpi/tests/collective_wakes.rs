//! The wake gate of the collective rendezvous.
//!
//! A member that is not last parks on the meeting itself, and the member
//! that completes it releases the others with one wake each, batched per
//! worker; no collective sends a mailbox message. So on the task engine a
//! world that runs only collectives resumes every task once to start it
//! and every non-completing member once per collective, on one worker
//! and on two. This test lives in its own binary because it reads the
//! global `simmpi.sched.resumes` and `simmpi.mailbox.messages` counters,
//! which any other world running at the same time would move.

use hcft_simmpi::{Engine, World, WorldConfig};
use hcft_telemetry::Registry;

/// Ranks of the paper's traced job: 64 nodes × 16 + 64 encoders.
const PAPER_RANKS: usize = 1088;

/// Barriers before the allgather and the split.
const BARRIERS: usize = 3;

#[test]
fn collectives_cost_one_resume_per_waiting_member_and_no_message() {
    let reg = Registry::global();
    let resumes = reg.counter("simmpi.sched.resumes");
    let messages = reg.counter("simmpi.mailbox.messages");
    // On one worker every wake is a same-worker push onto the local run
    // queue; on two, the members on the other worker go through its
    // injector.
    for workers in [1, 2] {
        let (resumes_before, messages_before) = (resumes.get(), messages.get());
        let cfg = WorldConfig {
            engine: Engine::Tasks,
            workers,
            ..WorldConfig::default()
        };
        let r = World::run_with(PAPER_RANKS, cfg, |c| {
            for _ in 0..BARRIERS {
                c.barrier();
            }
            let sum: u64 = c.allgather(&[c.rank() as u64]).iter().sum();
            let sub = c.split(Some((c.rank() % 17) as u32), 0).expect("member");
            (sum, sub.size())
        });
        let n = PAPER_RANKS as u64;
        let sum = n * (n - 1) / 2;
        assert!(r.outputs.iter().all(|&o| o == (sum, PAPER_RANKS / 17)));
        let collectives = BARRIERS as u64 + 2;
        assert_eq!(
            resumes.get() - resumes_before,
            n + collectives * (n - 1),
            "{workers} worker(s): one start per task, one release per waiting member"
        );
        assert_eq!(
            messages.get() - messages_before,
            0,
            "{workers} worker(s): a collective sent a mailbox message"
        );
    }
}
