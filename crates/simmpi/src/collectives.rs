//! Collective operations, implemented with the algorithms MPICH2 uses.
//!
//! The choice of algorithm matters here beyond performance: the paper's
//! Fig. 5b identifies "diagonals … starting from processes with a
//! power-of-two rank" as the MPICH2 `MPI_Allgather` signature. Those
//! diagonals come from the power-of-two partner distances of recursive
//! doubling (power-of-two communicators) and Bruck's algorithm (everything
//! else), so that is what we implement. All collective-internal traffic
//! flows through the ordinary traced point-to-point layer.

use crate::comm::Comm;
use crate::datatype::{decode, encode, Datum};

/// Tally one collective invocation in the global telemetry registry:
/// `simmpi.<op>.calls` and `simmpi.<op>.bytes` (the caller's contributed
/// payload, not the algorithm's internal traffic — the trace matrices
/// already capture wire bytes).
fn tally(op: &str, bytes: u64) {
    let reg = hcft_telemetry::Registry::global();
    reg.counter(&format!("simmpi.{op}.calls")).inc();
    reg.counter(&format!("simmpi.{op}.bytes")).add(bytes);
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

impl Comm {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds, rank r signals r+2ᵏ and
    /// waits for r−2ᵏ.
    pub fn barrier(&self) {
        tally("barrier", 0);
        let n = self.size();
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            self.send_raw(to, TAG_BARRIER | k, self.pooled_from(&[0]));
            let token = self.recv_raw(from, TAG_BARRIER | k);
            self.recycle(token);
            dist <<= 1;
            k += 1;
        }
    }

    /// Allgather: every rank contributes `mine` (same length everywhere)
    /// and receives the concatenation in rank order. Uses recursive
    /// doubling when `size` is a power of two, Bruck's algorithm
    /// otherwise — the MPICH2 short-message strategy.
    pub fn allgather<T: Datum>(&self, mine: &[T]) -> Vec<T> {
        tally("allgather", payload_bytes(mine));
        let n = self.size();
        if n == 1 {
            return mine.to_vec();
        }
        if n.is_power_of_two() {
            self.allgather_recursive_doubling(mine)
        } else {
            self.allgather_bruck(mine)
        }
    }

    /// Recursive doubling (power-of-two sizes): at step k exchange all
    /// currently held blocks with partner `rank XOR 2^k`.
    ///
    /// All n blocks live in one flat byte buffer (every rank contributes
    /// the same encoded width, so block i sits at `i * blk`), and each
    /// step ships a single contiguous slice of it with no framing — the
    /// wire carries exactly the payload bytes. At 22k+ ranks this is the
    /// difference between one buffer per call and hundreds of millions
    /// of per-block `Vec`s across the init allgathers.
    fn allgather_recursive_doubling<T: Datum>(&self, mine: &[T]) -> Vec<T> {
        let n = self.size();
        let rank = self.rank();
        let blk = mine.len() * T::WIDTH;
        let mut flat = vec![0u8; n * blk];
        crate::datatype::encode_to_slice(mine, &mut flat[rank * blk..(rank + 1) * blk]);
        let mut dist = 1usize;
        let mut step = 0u32;
        while dist < n {
            let partner = rank ^ dist;
            // My "corner" of the butterfly owns the contiguous block
            // range base..base+2*dist; I hold the half my dist-bit
            // selects, the partner holds — and sends — the other half.
            let base = rank & !(2 * dist - 1);
            let (my_lo, their_lo) = if rank & dist == 0 {
                (base, base + dist)
            } else {
                (base + dist, base)
            };
            self.send_raw(
                partner,
                TAG_ALLGATHER | step,
                self.pooled_from(&flat[my_lo * blk..(my_lo + dist) * blk]),
            );
            let recv = self.recv_raw(partner, TAG_ALLGATHER | step);
            flat[their_lo * blk..(their_lo + dist) * blk].copy_from_slice(&recv);
            self.recycle(recv);
            dist <<= 1;
            step += 1;
        }
        decode(&flat)
    }

    /// Bruck's allgather (any size): step k sends the first
    /// `min(2^k, n − 2^k)` held blocks to `rank − 2^k` and receives from
    /// `rank + 2^k`; a final rotation restores rank order.
    ///
    /// Same flat-buffer discipline as recursive doubling: block j of the
    /// buffer is the contribution of rank `(rank + j) mod n`, the blocks
    /// held so far are always a prefix, and each step ships that prefix
    /// (or the part of it still needed) unframed. The closing rotation
    /// is a single `rotate_right` on the byte buffer.
    fn allgather_bruck<T: Datum>(&self, mine: &[T]) -> Vec<T> {
        let n = self.size();
        let rank = self.rank();
        let blk = mine.len() * T::WIDTH;
        let mut flat = vec![0u8; n * blk];
        crate::datatype::encode_to_slice(mine, &mut flat[..blk]);
        let mut have = 1usize;
        let mut dist = 1usize;
        let mut step = 0u32;
        while have < n {
            let to = (rank + n - dist) % n;
            let from = (rank + dist) % n;
            let cnt = have.min(n - have);
            self.send_raw(
                to,
                TAG_ALLGATHER | step,
                self.pooled_from(&flat[..cnt * blk]),
            );
            let recv = self.recv_raw(from, TAG_ALLGATHER | step);
            flat[have * blk..(have + cnt) * blk].copy_from_slice(&recv);
            self.recycle(recv);
            have += cnt;
            dist <<= 1;
            step += 1;
        }
        // Block j belongs to rank (rank + j) mod n → rotate into order.
        flat.rotate_right(rank * blk);
        decode(&flat)
    }

    /// Allreduce with an element-wise operation (recursive doubling, with
    /// the MPICH2 pre/post phase folding non-power-of-two stragglers into
    /// the nearest power of two).
    pub fn allreduce<T: Datum, F>(&self, mine: &[T], op: F) -> Vec<T>
    where
        F: Fn(T, T) -> T,
    {
        tally("allreduce", payload_bytes(mine));
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
        tally("bcast", payload_bytes(data));
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
        tally("gather", payload_bytes(mine));
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
        tally("reduce", payload_bytes(mine));
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
        tally("alltoall", sends.iter().map(|s| payload_bytes(s)).sum());
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
        tally("allgatherv", payload_bytes(mine));
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
        tally("scatter", data.map(payload_bytes).unwrap_or(0));
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
        tally("scan", payload_bytes(mine));
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
