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
//! collective sequence number), the last to arrive assembles the result
//! once and releases the others with one mailbox delivery each, and
//! every member copies out its own typed result. Before it meets, each
//! member records into the [`crate::TraceRecorder`] exactly the messages
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
//! The other collectives (`allreduce`, `bcast`, `gather`, `reduce`,
//! `alltoall`, `allgatherv`, `scatter`, `scan`) run their algorithms as
//! point-to-point messages through the ordinary traced layer.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use hcft_telemetry::{Counter, Registry};

use crate::comm::Comm;
use crate::datatype::{decode, encode, Datum};
use crate::rendezvous::{Deposit, Outcome};
use crate::trace::MessageEvent;

/// The collectives counted in telemetry, indexing [`OP_NAMES`].
#[derive(Clone, Copy)]
enum Op {
    Barrier,
    Allgather,
    Allreduce,
    Bcast,
    Gather,
    Reduce,
    Alltoall,
    Allgatherv,
    Scatter,
    Scan,
}

const OP_NAMES: [&str; 10] = [
    "barrier",
    "allgather",
    "allreduce",
    "bcast",
    "gather",
    "reduce",
    "alltoall",
    "allgatherv",
    "scatter",
    "scan",
];

/// Tally one collective invocation in the global telemetry registry:
/// `simmpi.<op>.calls` and `simmpi.<op>.bytes` (the caller's contributed
/// payload, not the algorithm's internal traffic — the trace matrices
/// already capture wire bytes). The counters are looked up once per
/// process; a call is two relaxed atomic adds.
fn tally(op: Op, bytes: u64) {
    static COUNTERS: OnceLock<Vec<[Arc<Counter>; 2]>> = OnceLock::new();
    let [calls, total] = &COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        OP_NAMES
            .iter()
            .map(|op| {
                [
                    reg.counter(&format!("simmpi.{op}.calls")),
                    reg.counter(&format!("simmpi.{op}.bytes")),
                ]
            })
            .collect()
    })[op as usize];
    calls.inc();
    total.add(bytes);
}

/// Contributed payload size of a typed slice.
fn payload_bytes<T: Datum>(xs: &[T]) -> u64 {
    (xs.len() * T::WIDTH) as u64
}

// Reserved tag blocks (above MAX_USER_TAG).
const TAG_BARRIER: u32 = 0xC100_0000;
const TAG_ALLGATHER: u32 = 0xC200_0000;
const TAG_ALLREDUCE: u32 = 0xC300_0000;
const TAG_BCAST: u32 = 0xC400_0000;
const TAG_GATHER: u32 = 0xC500_0000;
const TAG_ALLTOALL: u32 = 0xC600_0000;
const TAG_REDUCE: u32 = 0xC700_0000;
/// Rendezvous release: one empty delivery per waiting member.
const TAG_RELEASE: u32 = 0xCB00_0000;

/// Encoded `(colour, key, world rank)` block `split` traces per rank:
/// the allgather MPICH2's `MPI_Comm_split` runs.
const SPLIT_BLOCK: usize = 3 * 8;

/// The partner distances 1, 2, 4, … below `n`, one per schedule step.
fn distances(n: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS)
        .map(|k| 1usize << k)
        .take_while(move |&d| d < n)
}

/// `(destination, bytes)` of each message MPICH2's allgather sends from
/// `rank`: recursive doubling when `n` is a power of two, Bruck's
/// algorithm otherwise.
fn allgather_schedule(n: usize, rank: usize, blk: usize) -> impl Iterator<Item = (usize, u64)> {
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
    /// or wait to be released. `read` gets the outcome and the
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
        schedule: impl Iterator<Item = (usize, u64)>,
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
        for (k, (dst, bytes)) in schedule.enumerate() {
            self.shared.trace.record(MessageEvent {
                src,
                dst: self.world_rank_of(dst) as u32,
                bytes,
                tag: tag | k as u32,
                phase,
            });
        }
        let key = (self.ctx, seq);
        let (slot, last) = self.shared.meetings.arrive(key, n, rank, deposit);
        let release = |r: usize| (self.ctx, r as u32, TAG_RELEASE);
        match last {
            Some(meeting) => {
                let outcome = meeting.assemble(|r| self.world_rank_of(r) as u32);
                if slot.set(outcome).is_err() {
                    unreachable!("a meeting completes once");
                }
                for r in (0..n).filter(|&r| r != rank) {
                    self.shared
                        .deliver(self.world_rank_of(r), release(r), Bytes::new());
                }
            }
            None => {
                let released = self
                    .shared
                    .recv_within_timeout(self.world_rank(), release(rank));
                if released.is_none() {
                    panic!(
                        "simmpi collective stalled: rank {rank} waited {:?} in {kind} #{seq} \
                         on ctx {:#x}; {} of {n} ranks arrived",
                        self.shared.recv_timeout,
                        self.ctx,
                        self.shared.meetings.arrived(key)
                    );
                }
            }
        }
        match slot.get().expect("a released member finds the outcome") {
            Ok(outcome) => read(outcome, seq),
            Err(why) => panic!("simmpi collective #{seq} on ctx {:#x}: {why}", self.ctx),
        }
    }

    /// Allreduce with an element-wise operation (recursive doubling, with
    /// the MPICH2 pre/post phase folding non-power-of-two stragglers into
    /// the nearest power of two).
    pub fn allreduce<T: Datum, F>(&self, mine: &[T], op: F) -> Vec<T>
    where
        F: Fn(T, T) -> T,
    {
        tally(Op::Allreduce, payload_bytes(mine));
        let n = self.size();
        let rank = self.rank();
        let mut acc = mine.to_vec();
        if n == 1 {
            return acc;
        }
        let m = usize::BITS - 1 - n.leading_zeros(); // floor(log2 n)
        let pof2 = 1usize << m;
        let rem = n - pof2;
        let reduce_in = |acc: &mut Vec<T>, bytes: &[u8], op: &F| {
            let theirs = decode::<T>(bytes);
            assert_eq!(theirs.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = op(*a, b);
            }
        };
        // Phase 1: ranks < 2*rem pair up; odd ranks absorb even ranks.
        let newrank = if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                self.send_raw(rank + 1, TAG_ALLREDUCE, self.encode_pooled(&acc));
                None
            } else {
                let b = self.recv_raw(rank - 1, TAG_ALLREDUCE);
                reduce_in(&mut acc, &b, &op);
                self.recycle(b);
                Some(rank / 2)
            }
        } else {
            Some(rank - rem)
        };
        // Phase 2: recursive doubling among pof2 participants.
        if let Some(nr) = newrank {
            let mut dist = 1usize;
            let mut step = 1u32;
            while dist < pof2 {
                let partner_nr = nr ^ dist;
                let partner = if partner_nr < rem {
                    partner_nr * 2 + 1
                } else {
                    partner_nr + rem
                };
                self.send_raw(partner, TAG_ALLREDUCE | step, self.encode_pooled(&acc));
                let b = self.recv_raw(partner, TAG_ALLREDUCE | step);
                reduce_in(&mut acc, &b, &op);
                self.recycle(b);
                dist <<= 1;
                step += 1;
            }
        }
        // Phase 3: hand results back to the absorbed even ranks.
        if rank < 2 * rem {
            if rank % 2 == 1 {
                self.send_raw(rank - 1, TAG_ALLREDUCE | 0xFF, self.encode_pooled(&acc));
            } else {
                let b = self.recv_raw(rank + 1, TAG_ALLREDUCE | 0xFF);
                acc = decode(&b);
                self.recycle(b);
            }
        }
        acc
    }

    /// Element-wise sum allreduce for f64 — the common HPC reduction.
    pub fn allreduce_sum(&self, mine: &[f64]) -> Vec<f64> {
        self.allreduce(mine, |a, b| a + b)
    }

    /// Maximum allreduce for f64 (CFL time-step computation etc.).
    pub fn allreduce_max(&self, mine: &[f64]) -> Vec<f64> {
        self.allreduce(mine, f64::max)
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast<T: Datum>(&self, root: usize, data: &mut Vec<T>) {
        tally(Op::Bcast, payload_bytes(data));
        let n = self.size();
        if n == 1 {
            return;
        }
        let rank = self.rank();
        let vrank = (rank + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % n;
                let b = self.recv_raw(src, TAG_BCAST);
                *data = decode(&b);
                self.recycle(b);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < n {
                let dst = (vrank + mask + root) % n;
                self.send_raw(dst, TAG_BCAST, self.encode_pooled(data));
            }
            mask >>= 1;
        }
    }

    /// Linear gather to `root`: returns `Some(concatenation)` at the root,
    /// `None` elsewhere.
    pub fn gather<T: Datum>(&self, root: usize, mine: &[T]) -> Option<Vec<T>> {
        tally(Op::Gather, payload_bytes(mine));
        let n = self.size();
        if self.rank() == root {
            let mut out = Vec::with_capacity(n * mine.len());
            for src in 0..n {
                if src == root {
                    out.extend_from_slice(mine);
                } else {
                    let b = self.recv_raw(src, TAG_GATHER);
                    out.extend(decode::<T>(&b));
                    self.recycle(b);
                }
            }
            Some(out)
        } else {
            self.send_raw(root, TAG_GATHER, self.encode_pooled(mine));
            None
        }
    }

    /// Reduce to `root` with an element-wise op (linear reference
    /// algorithm; the hot path in this codebase is allreduce).
    pub fn reduce<T: Datum, F>(&self, root: usize, mine: &[T], op: F) -> Option<Vec<T>>
    where
        F: Fn(T, T) -> T,
    {
        tally(Op::Reduce, payload_bytes(mine));
        let n = self.size();
        if self.rank() == root {
            let mut acc = mine.to_vec();
            for src in 0..n {
                if src == root {
                    continue;
                }
                let raw = self.recv_raw(src, TAG_REDUCE);
                let theirs = decode::<T>(&raw);
                self.recycle(raw);
                for (a, b) in acc.iter_mut().zip(theirs) {
                    *a = op(*a, b);
                }
            }
            Some(acc)
        } else {
            self.send_raw(root, TAG_REDUCE, self.encode_pooled(mine));
            None
        }
    }

    /// Pairwise all-to-all personalised exchange: `sends[d]` goes to rank
    /// `d`; returns the vector received from each rank.
    pub fn alltoall<T: Datum>(&self, sends: &[Vec<T>]) -> Vec<Vec<T>> {
        tally(Op::Alltoall, sends.iter().map(|s| payload_bytes(s)).sum());
        let n = self.size();
        assert_eq!(sends.len(), n, "alltoall needs one buffer per rank");
        let rank = self.rank();
        let mut recvs: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        recvs[rank] = sends[rank].clone();
        for step in 1..n {
            let to = (rank + step) % n;
            let from = (rank + n - step) % n;
            self.send_raw(
                to,
                TAG_ALLTOALL | step as u32,
                self.encode_pooled(&sends[to]),
            );
            let raw = self.recv_raw(from, TAG_ALLTOALL | step as u32);
            recvs[from] = decode(&raw);
            self.recycle(raw);
        }
        recvs
    }
}

// ---------------------------------------------------------------------
// Variable-size and prefix collectives.
// ---------------------------------------------------------------------

const TAG_ALLGATHERV: u32 = 0xC800_0000;
const TAG_SCATTER: u32 = 0xC900_0000;
const TAG_SCAN: u32 = 0xCA00_0000;

impl Comm {
    /// Allgatherv: every rank contributes a slice of *any* length; the
    /// result holds each rank's contribution separately, in rank order.
    /// Ring-based (the robust MPICH2 choice for irregular sizes).
    pub fn allgatherv<T: Datum>(&self, mine: &[T]) -> Vec<Vec<T>> {
        tally(Op::Allgatherv, payload_bytes(mine));
        let n = self.size();
        let rank = self.rank();
        let mut have: Vec<Option<bytes::Bytes>> = vec![None; n];
        have[rank] = Some(self.encode_pooled(mine));
        if n > 1 {
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            let mut cursor = rank;
            for step in 0..(n - 1) as u32 {
                // Refcount-bump forward, no copy.
                let payload = have[cursor].clone().expect("held block");
                self.send_raw(next, TAG_ALLGATHERV | step, payload);
                let recv = self.recv_raw(prev, TAG_ALLGATHERV | step);
                cursor = (cursor + n - 1) % n;
                have[cursor] = Some(recv);
            }
        }
        have.into_iter()
            .map(|b| decode(&b.expect("ring complete")))
            .collect()
    }

    /// Scatter: the root splits `data` into `size` equal chunks; rank i
    /// receives chunk i. Non-roots pass `None`.
    ///
    /// # Panics
    /// Panics if the root's data length is not divisible by the
    /// communicator size, or if a non-root passes data.
    pub fn scatter<T: Datum>(&self, root: usize, data: Option<&[T]>) -> Vec<T> {
        tally(Op::Scatter, data.map(payload_bytes).unwrap_or(0));
        let n = self.size();
        if self.rank() == root {
            let data = data.expect("root provides data");
            assert!(
                data.len().is_multiple_of(n),
                "scatter data ({}) not divisible by {n}",
                data.len()
            );
            let chunk = data.len() / n;
            for dst in 0..n {
                if dst != root {
                    self.send_raw(
                        dst,
                        TAG_SCATTER,
                        encode(&data[dst * chunk..(dst + 1) * chunk]),
                    );
                }
            }
            data[root * chunk..(root + 1) * chunk].to_vec()
        } else {
            assert!(data.is_none(), "only the root provides data");
            decode(&self.recv_raw(root, TAG_SCATTER))
        }
    }

    /// Inclusive prefix scan: rank i receives `op` folded over the
    /// contributions of ranks 0..=i, element-wise. Linear chain
    /// (latency-optimal variants exist; this is the reference algorithm).
    pub fn scan<T: Datum, F>(&self, mine: &[T], op: F) -> Vec<T>
    where
        F: Fn(T, T) -> T,
    {
        tally(Op::Scan, payload_bytes(mine));
        let rank = self.rank();
        let mut acc = mine.to_vec();
        if rank > 0 {
            let b = self.recv_raw(rank - 1, TAG_SCAN);
            let prev = decode::<T>(&b);
            self.recycle(b);
            assert_eq!(prev.len(), acc.len(), "scan length mismatch");
            for (a, p) in acc.iter_mut().zip(prev) {
                *a = op(p, *a);
            }
        }
        if rank + 1 < self.size() {
            self.send_raw(rank + 1, TAG_SCAN, self.encode_pooled(&acc));
        }
        acc
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
    /// colour skip to the matching ascend), 7 ascend.
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
            program in prop::collection::vec((0u8..8, any::<u64>()), 1..14),
        ) {
            check(n, &program)?;
        }
    }

    #[test]
    fn every_collective_on_nested_splits_matches_the_oracle() {
        // Fixed coverage next to the random programs: both allgather
        // schedules, empty blocks, a `None` colour and a nested split.
        let program: Vec<Step> = vec![
            (0, 5),
            (4, 3),
            (3, 0),
            (6, 1),
            (2, 0),
            (5, 2),
            (1, 9),
            (6, 4),
            (4, 1),
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

    fn short_timeout() -> WorldConfig {
        WorldConfig {
            recv_timeout: Duration::from_millis(100),
            ..WorldConfig::default()
        }
    }

    #[test]
    #[should_panic(
        expected = "allgather contributions differ: rank 0 gave 1 × 8 B, rank 2 gave 2 × 8 B"
    )]
    fn unequal_allgather_contributions_fail_at_the_rendezvous() {
        World::run_with(3, short_timeout(), |c| {
            let mine = vec![7u64; if c.rank() == 2 { 2 } else { 1 }];
            c.allgather(&mine);
        });
    }

    #[test]
    #[should_panic(
        expected = "mismatched collectives: rank 0 called barrier, rank 1 called allgather"
    )]
    fn mismatched_collectives_fail_at_the_rendezvous() {
        World::run_with(2, short_timeout(), |c| {
            if c.rank() == 0 {
                c.barrier();
            } else {
                c.allgather(&[1u8]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "in barrier #1 on ctx 0x0; 2 of 3 ranks arrived")]
    fn a_missing_member_trips_the_watchdog() {
        World::run_with(3, short_timeout(), |c| {
            c.barrier();
            if c.rank() != 1 {
                c.barrier();
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 (world rank 1) is dead in this replay world")]
    fn a_collective_over_dead_ranks_in_a_replay_world_panics() {
        use crate::replay::{ReplayFeed, ReplayPlan};
        let plan = ReplayPlan {
            live: vec![true, false, true],
            feed: ReplayFeed::new(3),
        };
        World::run_replay(3, short_timeout(), plan, |c| c.barrier());
    }
}

#[cfg(test)]
mod v_tests {
    use crate::runtime::World;

    #[test]
    fn allgatherv_handles_ragged_sizes() {
        let r = World::run(5, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64 + 1).collect();
            c.allgatherv(&mine)
        });
        for out in r.outputs {
            assert_eq!(out.len(), 5);
            for (rank, chunk) in out.iter().enumerate() {
                assert_eq!(chunk, &(0..rank as u64 + 1).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn allgatherv_with_empty_contributions() {
        let r = World::run(3, |c| {
            let mine: Vec<f64> = if c.rank() == 1 {
                vec![]
            } else {
                vec![c.rank() as f64]
            };
            c.allgatherv(&mine)
        });
        assert_eq!(r.outputs[0], vec![vec![0.0], vec![], vec![2.0]]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let r = World::run(4, |c| {
            let data: Option<Vec<u32>> = (c.rank() == 2).then(|| (0..8).collect());
            c.scatter(2, data.as_deref())
        });
        for (rank, out) in r.outputs.iter().enumerate() {
            assert_eq!(out, &vec![2 * rank as u32, 2 * rank as u32 + 1]);
        }
    }

    #[test]
    fn scan_computes_inclusive_prefix() {
        let r = World::run(5, |c| c.scan(&[c.rank() as u64 + 1], |a, b| a + b));
        let prefix: Vec<u64> = r.outputs.iter().map(|v| v[0]).collect();
        assert_eq!(prefix, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn scan_with_non_commutative_op_respects_rank_order() {
        // op = keep-left composed in rank order: result at rank i is
        // rank 0's value.
        let r = World::run(4, |c| c.scan(&[c.rank() as u64 + 7], |a, _b| a));
        for out in r.outputs {
            assert_eq!(out, vec![7]);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn scatter_rejects_ragged_data() {
        // Short watchdog: the non-root ranks block on the never-sent
        // chunks while the root's panic propagates.
        let cfg = crate::runtime::WorldConfig {
            recv_timeout: std::time::Duration::from_millis(100),
            ..Default::default()
        };
        World::run_with(3, cfg, |c| {
            let data: Option<Vec<u32>> = (c.rank() == 0).then(|| (0..7).collect());
            c.scatter(0, data.as_deref());
        });
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
    fn allreduce_sum_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 12] {
            let r = World::run(n, |c| c.allreduce_sum(&[c.rank() as f64, 1.0]));
            let expect = vec![(0..n).sum::<usize>() as f64, n as f64];
            for (rank, out) in r.outputs.iter().enumerate() {
                assert_eq!(out, &expect, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let r = World::run(5, |c| {
            c.allreduce_max(&[-(c.rank() as f64), c.rank() as f64])
        });
        for out in r.outputs {
            assert_eq!(out, vec![0.0, 4.0]);
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let r = World::run(5, move |c| {
                let mut v = if c.rank() == root {
                    vec![3.5f64, 4.5]
                } else {
                    Vec::new()
                };
                c.bcast(root, &mut v);
                v
            });
            for out in r.outputs {
                assert_eq!(out, vec![3.5, 4.5]);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let r = World::run(4, |c| c.gather(2, &[c.rank() as u32]));
        for (rank, out) in r.outputs.iter().enumerate() {
            if rank == 2 {
                assert_eq!(out.as_deref(), Some(&[0u32, 1, 2, 3][..]));
            } else {
                assert!(out.is_none());
            }
        }
    }

    #[test]
    fn reduce_applies_op_at_root() {
        let r = World::run(4, |c| c.reduce(0, &[c.rank() as u64 + 1], |a, b| a * b));
        assert_eq!(r.outputs[0].as_deref(), Some(&[24u64][..]));
    }

    #[test]
    fn alltoall_transposes() {
        let n = 4;
        let r = World::run(n, move |c| {
            let sends: Vec<Vec<u64>> = (0..n).map(|d| vec![(c.rank() * 100 + d) as u64]).collect();
            c.alltoall(&sends)
        });
        for (rank, out) in r.outputs.iter().enumerate() {
            for (src, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![(src * 100 + rank) as u64]);
            }
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
    use crate::runtime::World;

    /// Collectives must work identically inside split communicators —
    /// FTI runs its allgathers on the application communicator, not the
    /// world.
    #[test]
    fn allreduce_within_split_groups() {
        let r = World::run(12, |c| {
            let color = (c.rank() % 3) as u32;
            let sub = c.split(Some(color), 0).expect("member");
            sub.allreduce_sum(&[c.rank() as f64])[0]
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

    #[test]
    fn concurrent_collectives_in_sibling_comms_do_not_interfere() {
        let r = World::run(8, |c| {
            let sub = c.split(Some((c.rank() % 2) as u32), 0).expect("member");
            // Both halves run different collective sequences at once.
            if c.rank() % 2 == 0 {
                let g = sub.allgather(&[c.rank() as u64]);
                let s = sub.allreduce_sum(&[1.0])[0];
                (g, s)
            } else {
                let s = sub.allreduce_sum(&[2.0])[0];
                let g = sub.allgather(&[c.rank() as u64]);
                (g, s)
            }
        });
        assert_eq!(r.outputs[0].0, vec![0, 2, 4, 6]);
        assert_eq!(r.outputs[0].1, 4.0);
        assert_eq!(r.outputs[1].0, vec![1, 3, 5, 7]);
        assert_eq!(r.outputs[1].1, 8.0);
    }
}
