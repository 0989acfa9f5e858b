//! Per-thread runtime tallies.
//!
//! The runtime's per-operation counters — mailbox traffic, scheduler
//! resumes and wakes, pool checkouts and collective calls — are counted
//! in plain cells of the thread doing the work: a task-engine worker, or
//! a rank thread of `Engine::Threads`. Each such thread adds its counts
//! to the global registry once, with [`publish`], when it retires from
//! its world (the exit hook that also flushes its buffer magazine). So
//! the per-message and per-resume paths write no cache line another
//! thread writes, and every total is exact by the time `World::run*`
//! returns, which is when the readers look (the ledger, the wake and
//! checkout gates). Names and units are those of the registry counters.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};

use hcft_telemetry::{Counter, Histogram, HistogramSnapshot, Registry};

/// A counted event, indexing [`NAMES`].
#[derive(Clone, Copy)]
pub(crate) enum Count {
    /// Messages deposited into any mailbox.
    Messages,
    /// Payload bytes moved through mailboxes.
    Bytes,
    /// Times a receiver parked (message not ready).
    Waits,
    /// Time slices a thread-engine receiver yielded before parking.
    Yields,
    /// Sends that found the mailbox lock held.
    Contended,
    /// Task resumes on the task engine.
    Resumes,
    /// Wakes pushed straight onto the waker's own run queue.
    WakesLocal,
    /// Wakes handed to another worker's injector.
    WakesRemote,
    /// Pool checkouts served from a recycled buffer.
    PoolHits,
    /// Pool checkouts that allocated a fresh buffer.
    PoolMisses,
    /// `barrier` calls, one per member.
    BarrierCalls,
    /// `barrier` payload bytes (always 0: a barrier carries none).
    BarrierBytes,
    /// `allgather` (and `split`) calls, one per member.
    AllgatherCalls,
    /// Bytes each member contributed to an `allgather` or `split`.
    AllgatherBytes,
}

/// Registry names of the counts, in [`Count`] order.
const NAMES: [&str; 14] = [
    "simmpi.mailbox.messages",
    "simmpi.mailbox.bytes",
    "simmpi.mailbox.wait_events",
    "simmpi.mailbox.yield_events",
    "simmpi.mailbox.send_contended",
    "simmpi.sched.resumes",
    "simmpi.sched.wakes_local",
    "simmpi.sched.wakes_remote",
    "runtime.pool.hits",
    "runtime.pool.misses",
    "simmpi.barrier.calls",
    "simmpi.barrier.bytes",
    "simmpi.allgather.calls",
    "simmpi.allgather.bytes",
];

/// One thread's unpublished counts.
struct Tally {
    counts: [Cell<u64>; NAMES.len()],
    /// Run-queue depths seen by a task-engine worker
    /// (`simmpi.sched.runq_depth`).
    runq_depth: RefCell<HistogramSnapshot>,
}

thread_local! {
    static TALLY: Tally = const {
        Tally {
            counts: [const { Cell::new(0) }; NAMES.len()],
            runq_depth: RefCell::new(HistogramSnapshot::EMPTY),
        }
    };
}

/// Count `n` more of `what` on this thread.
#[inline]
pub(crate) fn add(what: Count, n: u64) {
    TALLY.with(|t| {
        let c = &t.counts[what as usize];
        c.set(c.get() + n);
    });
}

/// Record one run-queue depth on this thread.
pub(crate) fn observe_runq_depth(depth: u64) {
    TALLY.with(|t| t.runq_depth.borrow_mut().record(depth));
}

/// Add this thread's counts to the global registry and reset them. A
/// world's worker and rank threads call it as they retire.
pub(crate) fn publish() {
    static COUNTERS: OnceLock<([Arc<Counter>; NAMES.len()], Arc<Histogram>)> = OnceLock::new();
    let (counters, runq_depth) = COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        (
            NAMES.map(|name| reg.counter(name)),
            reg.histogram("simmpi.sched.runq_depth"),
        )
    });
    TALLY.with(|t| {
        for (count, counter) in t.counts.iter().zip(counters) {
            let n = count.replace(0);
            if n > 0 {
                counter.add(n);
            }
        }
        runq_depth.merge(&t.runq_depth.replace(HistogramSnapshot::EMPTY));
    });
}
