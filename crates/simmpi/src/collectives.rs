//! Collective operations.
//!
//! The paper's Fig. 5b identifies "diagonals … starting from processes
//! with a power-of-two rank" as the MPICH2 `MPI_Allgather` signature.
//! Those diagonals are the power-of-two partner distances of recursive
//! doubling (power-of-two communicators) and Bruck's algorithm
//! (everything else), so the trace must carry exactly those messages.
//!
//! `barrier`, `allgather` and `split` — the collectives the traced FTI
//! job and the replay engine call — trace those messages without sending
//! them. Each call is one rendezvous (`rendezvous.rs`): every member
//! deposits its block in the meeting keyed by (communicator context,
//! collective sequence number) and parks on the meeting; the last to
//! arrive assembles the result once, publishes it and releases the
//! others with one wake batch per worker (one condvar notify on the
//! thread engine), and every member copies out its own typed result. No
//! mailbox message is sent. Before it meets, each member records into
//! the [`crate::TraceRecorder`], under one lock, exactly the messages
//! the MPICH2 schedule sends from it, in schedule order, at its current
//! phase:
//!
//! | schedule | step k goes to | bytes | tag |
//! |---|---|---|---|
//! | Bruck | `rank − 2^k` | `min(2^k, n − 2^k)·blk` | `TAG_ALLGATHER\|k` |
//! | recursive doubling | `rank ^ 2^k` | `2^k·blk` | `TAG_ALLGATHER\|k` |
//! | dissemination barrier | `rank + 2^k` | 1 | `TAG_BARRIER\|k` |
//!
//! So the byte and count matrices and the per-sender event logs are
//! those of the point-to-point algorithms, which survive as the test
//! oracle (`oracle` below) that a property test holds the rendezvous to.
//!
//! These three are the only collectives: the paper's FTI job calls no
//! others. A reduction is an `allgather` followed by a local fold in
//! rank order, which fixes its combining order on every schedule.

use std::time::Instant;

use crate::comm::Comm;
use crate::datatype::{decode, encode, Datum};
use crate::rendezvous::{Arrival, Deposit, Outcome};
use crate::sched;
use crate::tally::{self, Count};
use crate::trace::MessageEvent;

/// The collectives counted in telemetry.
#[derive(Clone, Copy)]
enum Op {
    Barrier,
    Allgather,
}

/// Tally one collective invocation: `simmpi.<op>.calls` and
/// `simmpi.<op>.bytes` (the caller's contributed payload, not the
/// algorithm's internal traffic — the trace matrices already capture
/// wire bytes). Counted on the calling thread and published when it
/// retires from its world (`crate::tally`).
fn tally(op: Op, bytes: u64) {
    let (calls, total) = match op {
        Op::Barrier => (Count::BarrierCalls, Count::BarrierBytes),
        Op::Allgather => (Count::AllgatherCalls, Count::AllgatherBytes),
    };
    tally::add(calls, 1);
    tally::add(total, bytes);
}

/// Contributed payload size of a typed slice.
fn payload_bytes<T: Datum>(xs: &[T]) -> u64 {
    (xs.len() * T::WIDTH) as u64
}

// Reserved tag blocks (above MAX_USER_TAG).
const TAG_BARRIER: u32 = 0xC100_0000;
const TAG_ALLGATHER: u32 = 0xC200_0000;

/// Encoded `(colour, key, world rank)` block `split` traces per rank:
/// the allgather MPICH2's `MPI_Comm_split` runs.
const SPLIT_BLOCK: usize = 3 * 8;

/// The partner distances 1, 2, 4, … below `n`, one per schedule step:
/// ⌈log₂ n⌉ of them, an exact count, so a member's whole schedule is
/// recorded with one reservation.
fn distances(n: usize) -> impl ExactSizeIterator<Item = usize> {
    let steps = usize::BITS - n.saturating_sub(1).leading_zeros();
    (0..steps as usize).map(|k| 1usize << k)
}

/// `(destination, bytes)` of each message MPICH2's allgather sends from
/// `rank`: recursive doubling when `n` is a power of two, Bruck's
/// algorithm otherwise.
fn allgather_schedule(
    n: usize,
    rank: usize,
    blk: usize,
) -> impl ExactSizeIterator<Item = (usize, u64)> {
    let doubling = n.is_power_of_two();
    distances(n).map(move |d| {
        if doubling {
            (rank ^ d, (d * blk) as u64)
        } else {
            ((rank + n - d) % n, (d.min(n - d) * blk) as u64)
        }
    })
}

impl Comm {
    /// Dissemination barrier. Traced as ⌈log₂ n⌉ rounds in which rank r
    /// signals r + 2ᵏ with one byte; run as one rendezvous.
    pub fn barrier(&self) {
        tally(Op::Barrier, 0);
        let (n, rank) = (self.size(), self.rank());
        let schedule = distances(n).map(|d| ((rank + d) % n, 1));
        self.meet(Deposit::Barrier, TAG_BARRIER, schedule, |_, _| ());
    }

    /// Allgather: every rank contributes `mine` (same length everywhere)
    /// and receives the concatenation in rank order. Traced as the
    /// MPICH2 short-message strategy — recursive doubling when `size` is
    /// a power of two, Bruck's algorithm otherwise; run as one
    /// rendezvous.
    ///
    /// # Panics
    /// Every member panics, naming two ranks and their lengths, when the
    /// contributions differ in length.
    pub fn allgather<T: Datum>(&self, mine: &[T]) -> Vec<T> {
        tally(Op::Allgather, payload_bytes(mine));
        let block = encode(mine);
        let schedule = allgather_schedule(self.size(), self.rank(), block.len());
        let deposit = Deposit::Allgather {
            bytes: &block,
            width: T::WIDTH,
        };
        self.meet(
            deposit,
            TAG_ALLGATHER,
            schedule,
            |outcome, _| match outcome {
                Outcome::Allgather(flat) => decode(flat),
                _ => unreachable!("a meeting's members called one collective"),
            },
        )
    }

    /// Allgather of a block of `len` zero bytes from every rank, for a
    /// collective whose content no rank reads: traced, counted and
    /// checked exactly as [`Comm::allgather`] of a `len`-byte block, but
    /// no rank copies the result out (at 1 088 ranks that is 1 088
    /// copies of 8.7 KB for a one-`u64` block). The trace needs only the
    /// schedule, as it needs only the lengths of halos sent with
    /// [`Comm::send_zeros`].
    ///
    /// # Panics
    /// As [`Comm::allgather`]; a member calling the typed `allgather`
    /// instead contributes another shape.
    pub fn allgather_zeros(&self, len: usize) {
        tally(Op::Allgather, len as u64);
        let block = vec![0; len];
        let schedule = allgather_schedule(self.size(), self.rank(), len);
        let deposit = Deposit::Allgather {
            bytes: &block,
            width: 1,
        };
        self.meet(deposit, TAG_ALLGATHER, schedule, |_, _| ());
    }

    /// `MPI_Comm_split`: collective over this communicator. Ranks passing
    /// the same `color` end up in the same new communicator, ordered by
    /// `(key, old rank)`. Returns `None` for ranks passing `color: None`.
    ///
    /// Traced — and counted in telemetry — as the allgather of
    /// `(colour, key, world rank)` that MPICH2 runs. The colour groups
    /// are built once at the rendezvous, and every member of a colour
    /// shares one member list.
    pub fn split(&self, color: Option<u32>, key: i64) -> Option<Comm> {
        tally(Op::Allgather, SPLIT_BLOCK as u64);
        let schedule = allgather_schedule(self.size(), self.rank(), SPLIT_BLOCK);
        let deposit = Deposit::Split { color, key };
        self.meet(deposit, TAG_ALLGATHER, schedule, |outcome, seq| {
            let Outcome::Split(groups) = outcome else {
                unreachable!("a meeting's members called one collective")
            };
            let (members, rank) = groups[self.rank()].clone()?;
            Some(self.sub(self.split_ctx(seq, color?), rank as usize, members))
        })
    }

    /// One rendezvous: check every member is alive, record this rank's
    /// `schedule` (`(destination, bytes)` of step k, tagged `tag | k`),
    /// deposit, then either complete the meeting and release the others
    /// or park until released. `read` gets the outcome and the
    /// collective's sequence number.
    ///
    /// # Panics
    /// When a member is dead in a replay world; when the meeting is
    /// poisoned (mismatched collectives or block lengths — every member
    /// panics with the same message); and when the release does not come
    /// within `recv_timeout`, naming the collective, its sequence number
    /// and how many members arrived.
    fn meet<R>(
        &self,
        deposit: Deposit,
        tag: u32,
        schedule: impl ExactSizeIterator<Item = (usize, u64)>,
        read: impl FnOnce(&Outcome, u64) -> R,
    ) -> R {
        let kind = deposit.name();
        let seq = self.next_seq();
        let (n, rank) = (self.size(), self.rank());
        if let Some(replay) = self.shared.replay.as_deref() {
            if let Some(dead) = (0..n).find(|&r| !replay.live[self.world_rank_of(r)]) {
                panic!(
                    "simmpi {kind} #{seq} on ctx {:#x}: rank {dead} (world rank {}) is dead \
                     in this replay world; collectives run only among live ranks",
                    self.ctx,
                    self.world_rank_of(dead)
                );
            }
        }
        let src = self.world_rank() as u32;
        let phase = self.phase();
        self.shared.trace.record_from(
            src,
            schedule.enumerate().map(|(k, (dst, bytes))| MessageEvent {
                src,
                dst: self.world_rank_of(dst) as u32,
                bytes,
                tag: tag | k as u32,
                phase,
            }),
        );
        let key = (self.ctx, seq);
        let task = sched::current();
        let meetings = &self.shared.meetings;
        let slot = match meetings.arrive(key, n, rank, deposit, task.as_ref()) {
            Arrival::Last(meeting, slot) => {
                meetings.publish(&slot, meeting.assemble(|r| self.world_rank_of(r) as u32));
                if let Some(sched) = self.shared.sched.get() {
                    let mut others: Vec<u32> = (0..n)
                        .filter(|&r| r != rank)
                        .map(|r| self.world_rank_of(r) as u32)
                        .collect();
                    sched.wake_all(&mut others);
                }
                slot
            }
            Arrival::Wait(slot) => {
                let deadline = Instant::now() + self.shared.recv_timeout;
                if !meetings.wait(&slot, task.as_ref(), deadline) {
                    panic!(
                        "simmpi collective stalled: rank {rank} waited {:?} in {kind} #{seq} \
                         on ctx {:#x}; {} of {n} ranks arrived",
                        self.shared.recv_timeout,
                        self.ctx,
                        meetings.arrived(key)
                    );
                }
                slot
            }
        };
        match slot.get().expect("a released member finds the outcome") {
            Ok(outcome) => read(outcome, seq),
            Err(why) => panic!("simmpi collective #{seq} on ctx {:#x}: {why}", self.ctx),
        }
    }
}

/// The point-to-point algorithms `barrier`, `allgather` and `split` trace:
/// MPICH2's dissemination barrier, recursive-doubling and Bruck
/// allgathers, and a split over that allgather. Every step is a real
/// traced message, so a world run on these is the reference the
/// rendezvous must reproduce event for event.
#[cfg(test)]
pub(crate) mod oracle {
    use std::sync::Arc;

    use super::{TAG_ALLGATHER, TAG_BARRIER};
    use crate::comm::Comm;
    use crate::datatype::{decode, encode, Datum};

    /// Dissemination barrier: ⌈log₂ n⌉ rounds, rank r signals r+2ᵏ and
    /// waits for r−2ᵏ.
    pub(crate) fn barrier(c: &Comm) {
        let n = c.size();
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = (c.rank() + dist) % n;
            let from = (c.rank() + n - dist) % n;
            c.send_raw(to, TAG_BARRIER | k, c.pooled_from(&[0]));
            let token = c.recv_raw(from, TAG_BARRIER | k);
            c.recycle(token);
            dist <<= 1;
            k += 1;
        }
    }

    /// Recursive doubling for power-of-two sizes, Bruck otherwise.
    pub(crate) fn allgather<T: Datum>(c: &Comm, mine: &[T]) -> Vec<T> {
        let n = c.size();
        if n == 1 {
            return mine.to_vec();
        }
        if n.is_power_of_two() {
            recursive_doubling(c, mine)
        } else {
            bruck(c, mine)
        }
    }

    /// At step k exchange all currently held blocks with partner
    /// `rank XOR 2^k`; block i sits at `i * blk` of one flat buffer.
    fn recursive_doubling<T: Datum>(c: &Comm, mine: &[T]) -> Vec<T> {
        let n = c.size();
        let rank = c.rank();
        let blk = mine.len() * T::WIDTH;
        let mut flat = vec![0u8; n * blk];
        flat[rank * blk..(rank + 1) * blk].copy_from_slice(&encode(mine));
        let mut dist = 1usize;
        let mut step = 0u32;
        while dist < n {
            let partner = rank ^ dist;
            // My corner of the butterfly owns blocks base..base+2*dist; I
            // hold the half my dist-bit selects, the partner the other.
            let base = rank & !(2 * dist - 1);
            let (my_lo, their_lo) = if rank & dist == 0 {
                (base, base + dist)
            } else {
                (base + dist, base)
            };
            c.send_raw(
                partner,
                TAG_ALLGATHER | step,
                c.pooled_from(&flat[my_lo * blk..(my_lo + dist) * blk]),
            );
            let recv = c.recv_raw(partner, TAG_ALLGATHER | step);
            flat[their_lo * blk..(their_lo + dist) * blk].copy_from_slice(&recv);
            c.recycle(recv);
            dist <<= 1;
            step += 1;
        }
        decode(&flat)
    }

    /// Step k sends the first `min(2^k, n − 2^k)` held blocks to
    /// `rank − 2^k` and receives from `rank + 2^k`; block j of the buffer
    /// is rank `(rank + j) mod n`'s, and a final rotation restores rank
    /// order.
    fn bruck<T: Datum>(c: &Comm, mine: &[T]) -> Vec<T> {
        let n = c.size();
        let rank = c.rank();
        let blk = mine.len() * T::WIDTH;
        let mut flat = vec![0u8; n * blk];
        flat[..blk].copy_from_slice(&encode(mine));
        let mut have = 1usize;
        let mut dist = 1usize;
        let mut step = 0u32;
        while have < n {
            let to = (rank + n - dist) % n;
            let from = (rank + dist) % n;
            let cnt = have.min(n - have);
            c.send_raw(to, TAG_ALLGATHER | step, c.pooled_from(&flat[..cnt * blk]));
            let recv = c.recv_raw(from, TAG_ALLGATHER | step);
            flat[have * blk..(have + cnt) * blk].copy_from_slice(&recv);
            c.recycle(recv);
            have += cnt;
            dist <<= 1;
            step += 1;
        }
        flat.rotate_right(rank * blk);
        decode(&flat)
    }

    /// `MPI_Comm_split` over [`allgather`] of `(colour, key, world rank)`,
    /// each rank building its own member list.
    pub(crate) fn split(c: &Comm, color: Option<u32>, key: i64) -> Option<Comm> {
        const NO_COLOR: u64 = u64::MAX;
        let mine = [
            color.map(|c| c as u64).unwrap_or(NO_COLOR),
            (key as i128 - i64::MIN as i128) as u64,
            c.world_rank() as u64,
        ];
        let all = allgather(c, &mine);
        let seq = c.next_seq();
        let my_color = color?;
        let mut members: Vec<(u64, u64, usize)> = all
            .chunks_exact(3)
            .enumerate()
            .filter(|(_, m)| m[0] == my_color as u64)
            .map(|(comm_rank, m)| (m[1], comm_rank as u64, m[2] as usize))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<u32> = members.iter().map(|&(_, _, w)| w as u32).collect();
        let my_world = c.world_rank() as u32;
        let new_rank = world_ranks
            .iter()
            .position(|&w| w == my_world)
            .expect("caller is in its own color group");
        Some(c.sub(c.split_ctx(seq, my_color), new_rank, Arc::new(world_ranks)))
    }
}

/// The rendezvous collectives against [`oracle`]: per-sender event
/// streams, matrices and outputs must be identical.
#[cfg(test)]
mod rendezvous_tests {
    use std::time::Duration;

    use proptest::prelude::*;

    use super::oracle;
    use crate::comm::Comm;
    use crate::runtime::{Engine, World, WorldConfig};
    use crate::trace::MessageEvent;

    /// One SPMD step of a random program, as `(opcode, argument)`:
    /// 0 set a per-rank phase, 1 ring exchange (point to point),
    /// 2 barrier, 3/4/5 allgather of `a % 4` `u8`/`u64`/`f64` elements,
    /// 6 split and descend into the new communicator (ranks with no
    /// colour skip to the matching ascend), 7 ascend, 8 allgather of
    /// `a % 20` zero bytes whose result is not read.
    type Step = (u8, u64);

    #[derive(Clone, Copy)]
    enum Impl {
        Oracle,
        Rendezvous,
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut h = (a ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= b.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn allgather<T: crate::Datum>(c: &Comm, imp: Impl, mine: &[T]) -> Vec<T> {
        match imp {
            Impl::Oracle => oracle::allgather(c, mine),
            Impl::Rendezvous => c.allgather(mine),
        }
    }

    /// Run `program` on this rank; the log is everything it observed.
    fn run_program(world: &Comm, program: &[Step], imp: Impl) -> Vec<u64> {
        let mut log = Vec::new();
        let wr = world.world_rank() as u64;
        // Innermost last; `None` while this rank sits out a split.
        let mut stack: Vec<Option<Comm>> = Vec::new();
        for (i, &(op, a)) in program.iter().enumerate() {
            let skipping = matches!(stack.last(), Some(None));
            let c = match stack.last() {
                Some(Some(c)) => c,
                _ => world,
            };
            match op {
                6 if skipping => stack.push(None),
                7 => {
                    stack.pop();
                }
                _ if skipping => {}
                0 => world.set_phase(a % 1000 + wr % 3),
                1 => {
                    let (n, r) = (c.size(), c.rank());
                    let tag = (a % 100) as u32;
                    c.send_slice((r + 1) % n, tag, &[wr ^ a]);
                    log.extend(c.recv_vec::<u64>((r + n - 1) % n, tag));
                }
                2 => match imp {
                    Impl::Oracle => oracle::barrier(c),
                    Impl::Rendezvous => c.barrier(),
                },
                3 => {
                    let mine: Vec<u8> = (0..a % 4).map(|k| (wr * 7 + k + a) as u8).collect();
                    log.extend(allgather(c, imp, &mine).into_iter().map(u64::from));
                }
                4 => {
                    let mine: Vec<u64> = (0..a % 4).map(|k| mix(a, wr + k)).collect();
                    log.extend(allgather(c, imp, &mine));
                }
                5 => {
                    let mine: Vec<f64> = (0..a % 4)
                        .map(|k| (wr + k) as f64 * 0.1 + (a % 1000) as f64)
                        .collect();
                    log.extend(allgather(c, imp, &mine).into_iter().map(f64::to_bits));
                }
                6 => {
                    let r = c.rank() as u64;
                    let colors = 1 + a % 3;
                    let color = mix(a, r) % (colors + 1);
                    let color = (color < colors).then_some(color as u32);
                    let key = (mix(a ^ 0xffff, r) % 5) as i64 - 2;
                    let sub = match imp {
                        Impl::Oracle => oracle::split(c, color, key),
                        Impl::Rendezvous => c.split(color, key),
                    };
                    log.push(u64::MAX - i as u64);
                    if let Some(s) = &sub {
                        log.extend([s.size() as u64, s.rank() as u64]);
                        log.extend((0..s.size()).map(|r| s.world_rank_of(r) as u64));
                    }
                    stack.push(sub);
                }
                8 => {
                    let len = (a % 20) as usize;
                    match imp {
                        Impl::Oracle => drop(oracle::allgather(c, &vec![0u8; len])),
                        Impl::Rendezvous => c.allgather_zeros(len),
                    }
                }
                _ => unreachable!("opcode {op}"),
            }
        }
        log
    }

    struct Run {
        outputs: Vec<Vec<u64>>,
        events: Vec<Vec<MessageEvent>>,
        cells: Vec<(usize, usize, u64)>,
        counts: Vec<(usize, usize, u64)>,
    }

    fn run(n: usize, program: &[Step], imp: Impl, engine: Engine, workers: usize) -> Run {
        let program = program.to_vec();
        let cfg = WorldConfig {
            trace_events: true,
            engine,
            workers,
            recv_timeout: Duration::from_secs(30),
            ..WorldConfig::default()
        };
        let r = World::run_with(n, cfg, move |c| run_program(c, &program, imp));
        Run {
            outputs: r.outputs,
            events: r.trace.take_events(),
            cells: r.trace.byte_matrix().entries().collect(),
            counts: r.trace.count_matrix().entries().collect(),
        }
    }

    /// The engines a program runs on: tasks at 1 and 2 workers, threads.
    const ENGINES: [(Engine, usize); 3] =
        [(Engine::Tasks, 1), (Engine::Tasks, 2), (Engine::Threads, 0)];

    fn check(n: usize, program: &[Step]) -> Result<(), String> {
        let want = run(n, program, Impl::Oracle, Engine::Tasks, 1);
        for (engine, workers) in ENGINES {
            let got = run(n, program, Impl::Rendezvous, engine, workers);
            let at = format!("{engine:?} × {workers} worker(s)");
            for (rank, (g, w)) in got.events.iter().zip(&want.events).enumerate() {
                prop_assert_eq!(g, w, "events sent by rank {rank}, {at}");
            }
            prop_assert_eq!(&got.outputs, &want.outputs, "outputs, {at}");
            prop_assert_eq!(&got.cells, &want.cells, "byte matrix, {at}");
            prop_assert_eq!(&got.counts, &want.counts, "count matrix, {at}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn rendezvous_equals_the_point_to_point_oracle(
            n in 1usize..71,
            program in prop::collection::vec((0u8..9, any::<u64>()), 1..14),
        ) {
            check(n, &program)?;
        }
    }

    #[test]
    fn every_collective_on_nested_splits_matches_the_oracle() {
        // Fixed coverage next to the random programs: both allgather
        // schedules, empty blocks, zero blocks, a `None` colour and a
        // nested split.
        let program: Vec<Step> = vec![
            (0, 5),
            (4, 3),
            (8, 8),
            (3, 0),
            (6, 1),
            (2, 0),
            (5, 2),
            (1, 9),
            (6, 4),
            (4, 1),
            (8, 3),
            (7, 0),
            (2, 0),
            (7, 0),
            (5, 3),
        ];
        for n in [1, 2, 3, 8, 17, 33] {
            check(n, &program).unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }

    /// The paper's 1 088-rank world (64 nodes × 16 application ranks + 1
    /// encoder): FTI's world allgather and split, then collectives on
    /// both halves of the split. Release only:
    /// `cargo test --release -p hcft-simmpi --lib -- --ignored paper_world`.
    #[test]
    #[ignore = "1 088-rank worlds; run explicitly in release"]
    fn rendezvous_equals_the_oracle_on_the_paper_world() {
        let n = 64 * 17;
        let run_paper = |imp: Impl, engine: Engine, workers: usize| {
            let cfg = WorldConfig {
                trace_events: true,
                engine,
                workers,
                ..WorldConfig::default()
            };
            let r = World::run_with(n, cfg, move |c| {
                let wr = c.world_rank() as u64;
                let mut log = allgather(c, imp, &[wr]);
                let color = u32::from(wr.is_multiple_of(17));
                let sub = match imp {
                    Impl::Oracle => oracle::split(c, Some(color), wr as i64),
                    Impl::Rendezvous => c.split(Some(color), wr as i64),
                }
                .expect("every rank has a colour");
                c.set_phase(1);
                log.extend(
                    allgather(&sub, imp, &[wr as f64 * 0.5, 1.0])
                        .iter()
                        .map(|x| x.to_bits()),
                );
                match imp {
                    Impl::Oracle => {
                        oracle::barrier(&sub);
                        oracle::barrier(c);
                    }
                    Impl::Rendezvous => {
                        sub.barrier();
                        c.barrier();
                    }
                }
                log.extend([sub.size() as u64, sub.rank() as u64]);
                log
            });
            (r.outputs, r.trace.take_events())
        };
        let want = run_paper(Impl::Oracle, Engine::Tasks, 1);
        for (engine, workers) in ENGINES {
            let got = run_paper(Impl::Rendezvous, engine, workers);
            assert!(
                got.1 == want.1,
                "event streams differ on {engine:?} × {workers}"
            );
            assert!(got.0 == want.0, "outputs differ on {engine:?} × {workers}");
        }
    }

    fn short_timeout(engine: Engine) -> WorldConfig {
        WorldConfig {
            recv_timeout: Duration::from_millis(100),
            engine,
            ..WorldConfig::default()
        }
    }

    /// Run `body` on `n` ranks of each engine (tasks on 2 workers, then
    /// threads) and return each engine's panic message; a world that
    /// finishes fails the test.
    fn panics_on_both_engines(n: usize, body: fn(&mut Comm)) -> [String; 2] {
        [(Engine::Tasks, 2), (Engine::Threads, 0)].map(|(engine, workers)| {
            let cfg = WorldConfig {
                workers,
                ..short_timeout(engine)
            };
            let run = std::panic::catch_unwind(|| World::run_with(n, cfg, body).outputs);
            let err = run.expect_err("the world must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            format!("{engine:?}: {msg}")
        })
    }

    fn assert_both_contain(msgs: [String; 2], want: &str) {
        for msg in msgs {
            assert!(msg.contains(want), "{msg}\n  does not contain: {want}");
        }
    }

    #[test]
    fn unequal_allgather_contributions_fail_at_the_rendezvous() {
        let msgs = panics_on_both_engines(3, |c| {
            let mine = vec![7u64; if c.rank() == 2 { 2 } else { 1 }];
            c.allgather(&mine);
        });
        assert_both_contain(
            msgs,
            "allgather contributions differ: rank 0 gave 1 × 8 B, rank 2 gave 2 × 8 B",
        );
    }

    #[test]
    fn mismatched_collectives_fail_at_the_rendezvous() {
        let msgs = panics_on_both_engines(2, |c| {
            if c.rank() == 0 {
                c.barrier();
            } else {
                c.allgather(&[1u8]);
            }
        });
        assert_both_contain(
            msgs,
            "mismatched collectives: rank 0 called barrier, rank 1 called allgather",
        );
    }

    #[test]
    fn a_missing_member_trips_the_watchdog() {
        let msgs = panics_on_both_engines(3, |c| {
            c.barrier();
            if c.rank() != 1 {
                c.barrier();
            }
        });
        assert_both_contain(msgs, "in barrier #1 on ctx 0x0; 2 of 3 ranks arrived");
    }

    #[test]
    #[should_panic(expected = "rank 1 (world rank 1) is dead in this replay world")]
    fn a_collective_over_dead_ranks_in_a_replay_world_panics() {
        use crate::replay::{ReplayFeed, ReplayPlan};
        let plan = ReplayPlan {
            live: vec![true, false, true],
            feed: ReplayFeed::new(3),
        };
        World::run_replay(3, short_timeout(Engine::Tasks), plan, |c| c.barrier());
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{World, WorldConfig};

    fn expected_allgather(n: usize) -> Vec<u64> {
        (0..n as u64).flat_map(|r| [r * 10, r * 10 + 1]).collect()
    }

    fn run_allgather(n: usize) {
        let r = World::run(n, move |c| {
            let me = c.rank() as u64 * 10;
            c.allgather(&[me, me + 1])
        });
        for out in r.outputs {
            assert_eq!(out, expected_allgather(n));
        }
    }

    #[test]
    fn allgather_power_of_two() {
        run_allgather(8);
    }

    #[test]
    fn allgather_non_power_of_two() {
        run_allgather(6);
        run_allgather(17); // the paper's ranks-per-node count
    }

    #[test]
    fn allgather_single_rank() {
        run_allgather(1);
    }

    #[test]
    fn recursive_doubling_traffic_uses_pow2_distances() {
        let r = World::run(8, |c| {
            c.allgather(&[c.rank() as u64]);
        });
        let m = r.trace.byte_matrix();
        for (s, d, _) in m.entries() {
            let dist = s.abs_diff(d);
            assert!(
                dist.is_power_of_two(),
                "unexpected edge {s}->{d} (distance {dist})"
            );
        }
    }

    #[test]
    fn bruck_traffic_uses_pow2_distances_mod_n() {
        let r = World::run(6, |c| {
            c.allgather(&[c.rank() as u64]);
        });
        let m = r.trace.byte_matrix();
        for (s, d, _) in m.entries() {
            let fwd = (d + 6 - s) % 6;
            let back = (s + 6 - d) % 6;
            assert!(
                fwd.is_power_of_two() || back.is_power_of_two(),
                "unexpected edge {s}->{d}"
            );
        }
    }

    #[test]
    fn barrier_completes_at_odd_sizes() {
        let cfg = WorldConfig {
            recv_timeout: std::time::Duration::from_secs(10),
            ..Default::default()
        };
        for n in [2usize, 3, 9] {
            World::run_with(n, cfg.clone(), |c| {
                for _ in 0..5 {
                    c.barrier();
                }
            });
        }
    }
}

#[cfg(test)]
mod subcomm_tests {
    use crate::runtime::{Engine, World, WorldConfig};

    /// Collectives must work identically inside split communicators —
    /// FTI runs its allgathers on the application communicator, not the
    /// world.
    #[test]
    fn allgather_sum_within_split_groups() {
        let r = World::run(12, |c| {
            let color = (c.rank() % 3) as u32;
            let sub = c.split(Some(color), 0).expect("member");
            sub.allgather(&[c.rank() as f64]).iter().sum::<f64>()
        });
        for (rank, &sum) in r.outputs.iter().enumerate() {
            let color = rank % 3;
            let expect: usize = (0..12).filter(|r| r % 3 == color).sum();
            assert_eq!(sum, expect as f64, "rank {rank}");
        }
    }

    #[test]
    fn allgather_within_split_groups() {
        let r = World::run(10, |c| {
            // Two groups of 5 (Bruck path inside the sub-communicator).
            let sub = c.split(Some((c.rank() / 5) as u32), 0).expect("member");
            c.barrier();
            sub.allgather(&[c.rank() as u64])
        });
        assert_eq!(r.outputs[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(r.outputs[7], vec![5, 6, 7, 8, 9]);
    }

    /// On the thread engine every meeting's waiters share one condvar, so
    /// a waiter woken by its sibling meeting's outcome must wait again.
    #[test]
    fn concurrent_collectives_in_sibling_comms_do_not_interfere() {
        for engine in [Engine::Tasks, Engine::Threads] {
            let cfg = WorldConfig {
                engine,
                workers: 2,
                ..WorldConfig::default()
            };
            let r = World::run_with(8, cfg, |c| {
                let sub = c.split(Some((c.rank() % 2) as u32), 0).expect("member");
                // Both halves run different collective sequences at once.
                let sum = |x: f64| sub.allgather(&[x]).iter().sum::<f64>();
                if c.rank() % 2 == 0 {
                    let g = sub.allgather(&[c.rank() as u64]);
                    let s = sum(1.0);
                    (g, s)
                } else {
                    let s = sum(2.0);
                    let g = sub.allgather(&[c.rank() as u64]);
                    (g, s)
                }
            });
            assert_eq!(r.outputs[0].0, vec![0, 2, 4, 6], "{engine:?}");
            assert_eq!(r.outputs[0].1, 4.0, "{engine:?}");
            assert_eq!(r.outputs[1].0, vec![1, 3, 5, 7], "{engine:?}");
            assert_eq!(r.outputs[1].1, 8.0, "{engine:?}");
        }
    }
}
