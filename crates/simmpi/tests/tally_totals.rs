//! The runtime's per-operation counters are counted per thread and
//! published when each worker or rank thread retires from its world, so
//! their registry totals must be exact once `World::run_with` returns,
//! on either engine and at any worker count.
//!
//! Each world runs a token ring of pooled `send_bytes` and `send_zeros`
//! messages, then a `barrier`, an `allgather` and a `split`, and the
//! deltas of the counters it moves are checked against the counts the
//! program implies. This test lives in its own binary, in one function,
//! because the counters are process-wide: any other world running at
//! the same time would move them.

use hcft_simmpi::{Engine, World, WorldConfig};
use hcft_telemetry::Registry;

/// Ranks in the ring: not a power of two, so the allgather and the
/// split trace Bruck's schedule.
const RANKS: u64 = 24;
/// Times the token goes round.
const ROUNDS: u64 = 5;
/// Bytes of the pooled message and of the zero view of each hop.
const POOLED: usize = 24;
const ZEROS: usize = 1000;
/// Bytes each member contributes to the allgather (one `u64`) and to
/// the split (the `(colour, key, rank)` block MPICH2 gathers).
const GATHERED: u64 = 8;
const SPLIT_BLOCK: u64 = 24;

const COUNTERS: [&str; 9] = [
    "simmpi.mailbox.messages",
    "simmpi.mailbox.bytes",
    "runtime.pool.hits",
    "runtime.pool.misses",
    "simmpi.barrier.calls",
    "simmpi.barrier.bytes",
    "simmpi.allgather.calls",
    "simmpi.allgather.bytes",
    "simmpi.sched.resumes",
];

fn read() -> [u64; COUNTERS.len()] {
    let reg = Registry::global();
    COUNTERS.map(|name| reg.counter(name).get())
}

/// Run the ring and the collectives; returns what each counter moved.
fn run(engine: Engine, workers: usize) -> [u64; COUNTERS.len()] {
    let cfg = WorldConfig {
        engine,
        workers,
        ..WorldConfig::default()
    };
    let before = read();
    let r = World::run_with(RANKS as usize, cfg, |c| {
        let (rank, n) = (c.rank(), c.size());
        let (next, prev) = ((rank + 1) % n, (rank + n - 1) % n);
        // Rank 0 starts each lap; every other rank passes the token on.
        let hop = |c: &hcft_simmpi::Comm| {
            c.send_bytes(next, 1, &[rank as u8; POOLED]);
            c.send_zeros(next, 2, ZEROS);
        };
        let take = |c: &hcft_simmpi::Comm| {
            let pooled = c.recv_bytes(prev, 1);
            assert_eq!(pooled.len(), POOLED);
            c.recycle(pooled);
            assert_eq!(c.recv_bytes(prev, 2).len(), ZEROS);
        };
        for _ in 0..ROUNDS {
            if rank == 0 {
                hop(c);
                take(c);
            } else {
                take(c);
                hop(c);
            }
        }
        c.barrier();
        let sum: u64 = c.allgather(&[rank as u64]).iter().sum();
        let sub = c
            .split(Some((rank % 2) as u32), 0)
            .expect("every rank has a colour");
        (sum, sub.size())
    });
    let after = read();
    let n = RANKS;
    assert!(r
        .outputs
        .iter()
        .all(|&o| o == (n * (n - 1) / 2, RANKS as usize / 2)));
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn batched_tallies_publish_exact_totals_on_every_engine() {
    let n = RANKS;
    let hops = n * ROUNDS;
    for (engine, workers) in [(Engine::Tasks, 1), (Engine::Tasks, 2), (Engine::Threads, 0)] {
        let [messages, bytes, hits, misses, barriers, barrier_bytes, gathers, gathered, resumes] =
            run(engine, workers);
        let case = format!("{engine:?} at {workers} worker(s)");
        assert_eq!(messages, 2 * hops, "{case}: mailbox messages");
        assert_eq!(
            bytes,
            hops * (POOLED + ZEROS) as u64,
            "{case}: mailbox bytes"
        );
        assert_eq!(hits + misses, hops, "{case}: one checkout per pooled send");
        assert_eq!((barriers, barrier_bytes), (n, 0), "{case}: barrier tallies");
        // The allgather and the split each count one call per member.
        assert_eq!(gathers, 2 * n, "{case}: allgather calls");
        assert_eq!(
            gathered,
            n * (GATHERED + SPLIT_BLOCK),
            "{case}: allgather bytes"
        );
        match (engine, workers) {
            (Engine::Tasks, 1) => {
                // One worker runs the ranks in rank order. Each starts
                // once. Rank 0 parks on every lap's receive; the others
                // find lap 1's token waiting and park on each later lap's.
                // Each collective parks all members but the last arriver.
                let laps = ROUNDS + (n - 1) * (ROUNDS - 1);
                assert_eq!(resumes, n + laps + 3 * (n - 1), "{case}: resumes");
            }
            (Engine::Threads, _) => assert_eq!(resumes, 0, "{case}: no task ever resumes"),
            _ => assert!(resumes >= n, "{case}: every task starts once"),
        }
    }
}
