//! Property test for the sharded-mailbox runtime: per-channel FIFO.
//!
//! Each rank's mailbox is split into 8 per-sender lock domains (sender
//! rank mod 8). The invariant the split must preserve is exactly MPI's
//! non-overtaking rule: messages on one (sender, receiver, tag) channel
//! are received in the order they were sent, however sends on *other*
//! channels interleave.
//!
//! Strategy: draw a random world size and a random multiset of channels
//! with random message counts, stamp every payload with its per-channel
//! sequence number, blast everything through a `World`, and assert each
//! receiver drains every channel in stamped order. Worlds reach 17 ranks,
//! so senders 0/8/16 and 1/9 share a shard and a FIFO break in the shard
//! routing cannot hide; the schedule runs on both engines. Orthogonally
//! it runs at task-engine worker counts 1 (pure cooperative round-robin),
//! 2 (cross-worker wakes on every remote channel) and the core count (the
//! default), so a FIFO break introduced by the M:N scheduler's wake path
//! cannot hide either.

use hcft::simmpi::{Engine, World, WorldConfig};
use proptest::prelude::*;

/// A randomly drawn traffic schedule: `channels[i]` = (src, dst, tag,
/// message count). Channels may repeat (src, dst) with different tags and
/// different (src, dst) pairs may collide on the same mailbox shard.
#[derive(Clone, Debug)]
struct Schedule {
    ranks: usize,
    channels: Vec<(usize, usize, u32, usize)>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (2usize..=17).prop_flat_map(|ranks| {
        proptest::collection::vec((0..ranks, 0..ranks, 0u32..4, 1usize..6), 1..12)
            // Self-sends stay in: sends are buffered, so a rank receiving
            // from itself after its send phase is legal and exercises the
            // same shard path as remote senders.
            .prop_map(move |channels| Schedule { ranks, channels })
    })
}

/// Worker counts the schedules run at: 1, 2 and the core count
/// (deduplicated — on a 1- or 2-core box the distinct counts collapse).
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Run one schedule on an engine at a worker count and assert
/// per-channel FIFO.
fn run_schedule(s: &Schedule, engine: Engine, workers: usize) {
    let channels = s.channels.clone();
    let cfg = WorldConfig {
        workers,
        engine,
        ..WorldConfig::default()
    };
    let result = World::run_with(s.ranks, cfg, move |comm| {
        let me = comm.rank();
        // Send phase: walk the schedule in order; per-channel send order
        // is the schedule order, stamped into the payload.
        let mut sent: Vec<(usize, usize, u32, u64)> = Vec::new();
        for &(src, dst, tag, count) in &channels {
            if src != me {
                continue;
            }
            for _ in 0..count {
                let seq = next_seq(&mut sent, src, dst, tag);
                comm.send_slice(dst, tag, &[seq]);
            }
        }
        // Receive phase: drain every channel addressed to me and check
        // the stamps come back in send order.
        let mut expected: Vec<(usize, usize, u32, u64)> = Vec::new();
        for &(src, dst, tag, count) in &channels {
            if dst != me {
                continue;
            }
            for _ in 0..count {
                let want = next_seq(&mut expected, src, dst, tag);
                let got = comm.recv_vec::<u64>(src, tag);
                assert_eq!(
                    got,
                    vec![want],
                    "channel ({src}->{dst}, tag {tag}) out of order on \
                     {engine:?} with {workers} worker(s)"
                );
            }
        }
    });
    assert_eq!(result.outputs.len(), s.ranks);
}

/// Next sequence number for channel (src, dst, tag), tracked in `seen`.
fn next_seq(seen: &mut Vec<(usize, usize, u32, u64)>, src: usize, dst: usize, tag: u32) -> u64 {
    match seen
        .iter_mut()
        .find(|(s, d, t, _)| (*s, *d, *t) == (src, dst, tag))
    {
        Some(entry) => {
            entry.3 += 1;
            entry.3
        }
        None => {
            seen.push((src, dst, tag, 0));
            0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fifo_per_channel_survives_sharding(s in arb_schedule()) {
        for engine in [Engine::Tasks, Engine::Threads] {
            run_schedule(&s, engine, 0);
        }
    }

    #[test]
    fn fifo_per_channel_survives_worker_counts(s in arb_schedule()) {
        for workers in worker_counts() {
            run_schedule(&s, Engine::Tasks, workers);
        }
    }
}

/// Deterministic worst case: every rank floods rank 0 on two tags at
/// once, so all senders hammer one mailbox concurrently and, with 16
/// senders over 8 shards, four channels share each lock domain. At 2 and
/// more workers the receiving task and most senders live on different
/// workers, so every message can race a cross-worker wake.
#[test]
fn all_to_one_flood_is_fifo() {
    const N: usize = 17;
    const MSGS: u64 = 50;
    for (engine, workers) in [
        (Engine::Threads, 0usize),
        (Engine::Tasks, 1),
        (Engine::Tasks, 2),
        (Engine::Tasks, 8),
    ] {
        let result = World::run_with(
            N,
            WorldConfig {
                workers,
                engine,
                ..WorldConfig::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    for src in 1..N {
                        for tag in 0..2u32 {
                            for want in 0..MSGS {
                                let got = comm.recv_vec::<u64>(src, tag);
                                assert_eq!(got, vec![want], "src {src} tag {tag}");
                            }
                        }
                    }
                } else {
                    for seq in 0..MSGS {
                        // Interleave the two tags to stress intra-shard
                        // queue separation.
                        comm.send_slice(0, 0, &[seq]);
                        comm.send_slice(0, 1, &[seq]);
                    }
                }
            },
        );
        assert_eq!(result.outputs.len(), N);
    }
}
