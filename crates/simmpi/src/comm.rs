//! Communicator handle: point-to-point operations.
//!
//! A `Comm` is owned by exactly one rank thread. Destination and source
//! arguments are ranks *within this communicator*; tracing always resolves
//! them to world ranks so the global matrix stays meaningful after a
//! `split` (FTI replaces the world communicator with an
//! application-only one at init — §V — and the paper's heat map still
//! shows world ranks).

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{decode, encode_into, Datum};
use crate::runtime::Shared;
use crate::trace::MessageEvent;

/// Highest tag value usable by applications; larger tags are reserved for
/// collective-internal traffic.
pub const MAX_USER_TAG: u32 = 0x0FFF_FFFF;

thread_local! {
    /// This thread's zero block behind [`Comm::send_zeros`]: one per
    /// task-engine worker or rank thread, so a zero send takes no lock
    /// and bumps no reference count that another sending thread bumps
    /// too. A longer request swaps in a larger block; views of the old
    /// one keep it alive until they are dropped.
    static ZEROS: RefCell<Option<Bytes>> = const { RefCell::new(None) };
}

/// A view of `len` zero bytes on this thread's zero block.
fn zeros(len: usize) -> Bytes {
    ZEROS.with_borrow_mut(|block| match &*block {
        Some(b) if b.len() >= len => b.slice(0..len),
        _ => {
            let b = Bytes::from(vec![0u8; len.next_power_of_two().max(4096)]);
            let view = b.slice(0..len);
            *block = Some(b);
            view
        }
    })
}

/// Rank membership of a communicator.
enum Group {
    /// The world communicator: comm rank == world rank.
    World,
    /// A sub-communicator: `members[comm_rank] = world_rank`.
    Sub(Arc<Vec<u32>>),
}

/// A communicator bound to the calling rank.
pub struct Comm {
    pub(crate) shared: Arc<Shared>,
    /// Communicator context id (world = 0).
    pub(crate) ctx: u64,
    /// This rank's position within the communicator.
    rank: usize,
    group: Group,
    /// Collectives this rank has entered on this communicator. Every
    /// member counts the same calls in the same order, so the count keys
    /// the rendezvous and makes successive `split` contexts unique.
    coll_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn world(shared: Arc<Shared>, world_rank: usize) -> Self {
        Comm {
            shared,
            ctx: 0,
            rank: world_rank,
            group: Group::World,
            coll_seq: Cell::new(0),
        }
    }

    /// The sub-communicator of `members` (world ranks, in new rank order)
    /// in which this rank is `rank`, with context `ctx`.
    pub(crate) fn sub(&self, ctx: u64, rank: usize, members: Arc<Vec<u32>>) -> Comm {
        Comm {
            shared: Arc::clone(&self.shared),
            ctx,
            rank,
            group: Group::Sub(members),
            coll_seq: Cell::new(0),
        }
    }

    /// Enter the next collective on this communicator: its sequence
    /// number.
    pub(crate) fn next_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// Context id of the `color` communicator split off by collective
    /// `seq`: identical on all members and distinct from every other
    /// communicator — parent context, sequence number and colour mixed
    /// through an FNV-style avalanche, never the world's 0.
    pub(crate) fn split_ctx(&self, seq: u64, color: u32) -> u64 {
        let mut ctx = 0xcbf2_9ce4_8422_2325u64;
        for v in [self.ctx, seq, color as u64, 0x9e37_79b9] {
            ctx ^= v;
            ctx = ctx.wrapping_mul(0x100_0000_01b3);
        }
        ctx | 1
    }

    /// This rank within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        match &self.group {
            Group::World => self.shared.n,
            Group::Sub(m) => m.len(),
        }
    }

    /// World rank of a communicator rank.
    #[inline]
    pub(crate) fn world_rank_of(&self, comm_rank: usize) -> usize {
        match &self.group {
            Group::World => comm_rank,
            Group::Sub(m) => m[comm_rank] as usize,
        }
    }

    /// This rank's world rank.
    #[inline]
    pub(crate) fn world_rank(&self) -> usize {
        self.world_rank_of(self.rank)
    }

    /// Set the application *phase* stamped on subsequently traced messages
    /// (e.g. solver iteration or checkpoint epoch). Used by the
    /// message-logging replay analysis to reason about rollback points.
    pub fn set_phase(&self, phase: u64) {
        self.shared.phases[self.world_rank()].store(phase, Ordering::Relaxed);
    }

    /// Current phase of this rank.
    pub fn phase(&self) -> u64 {
        self.shared.phases[self.world_rank()].load(Ordering::Relaxed)
    }

    // ----- point to point ------------------------------------------------

    /// Buffered (non-blocking semantics) send of raw bytes. The bytes
    /// are copied once into a pooled buffer; no further copies happen on
    /// the way to the receiver.
    ///
    /// # Panics
    /// Panics on an out-of-range destination or a reserved tag.
    pub fn send_bytes(&self, dst: usize, tag: u32, bytes: &[u8]) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        let mut buf = self.shared.pool.checkout(bytes.len());
        buf.buf().extend_from_slice(bytes);
        self.send_raw(dst, tag, buf.freeze());
    }

    /// Zero-copy send of an already-refcounted payload: the mailbox gets
    /// the `Bytes` by reference count, no bytes move. Clone the payload
    /// first to fan it out to several destinations.
    pub fn send_shared(&self, dst: usize, tag: u32, payload: Bytes) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.send_raw(dst, tag, payload);
    }

    /// Send `len` zero bytes without writing, copying or pooling any: the
    /// payload is a view of the sending thread's zero block. For traffic
    /// whose content no receiver reads — a trace needs only who sent how
    /// many bytes to whom.
    pub fn send_zeros(&self, dst: usize, tag: u32, len: usize) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.send_raw(dst, tag, zeros(len));
    }

    /// Blocking receive of raw bytes from `src` with `tag`. The returned
    /// [`Bytes`] is the sender's buffer, not a copy; hand it back via
    /// [`Comm::recycle`] when done to keep the pool warm.
    pub fn recv_bytes(&self, src: usize, tag: u32) -> Bytes {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.recv_raw(src, tag)
    }

    /// Typed send: encodes `data` into a pooled buffer and ships it, so
    /// the caller's slice is never retained and steady-state sends do
    /// not allocate.
    pub fn send_slice<T: Datum>(&self, dst: usize, tag: u32, data: &[T]) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        self.send_raw(dst, tag, self.encode_pooled(data));
    }

    /// Scratch-free send: checks out a pooled buffer with `size_hint`
    /// bytes reserved and lets `fill` serialise the payload straight into
    /// it. Producers that can write their own wire bytes (e.g. strided
    /// stencil edges) skip the intermediate staging copy entirely.
    pub fn send_with(
        &self,
        dst: usize,
        tag: u32,
        size_hint: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        let mut buf = self.shared.pool.checkout(size_hint);
        fill(buf.buf());
        self.send_raw(dst, tag, buf.freeze());
    }

    /// Typed receive.
    pub fn recv_vec<T: Datum>(&self, src: usize, tag: u32) -> Vec<T> {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        let raw = self.recv_raw(src, tag);
        let out = decode(&raw);
        self.shared.pool.recycle(raw);
        out
    }

    /// Copy raw bytes into a pooled buffer (the point-to-point collective
    /// oracle's payloads).
    #[cfg(test)]
    pub(crate) fn pooled_from(&self, bytes: &[u8]) -> Bytes {
        let mut buf = self.shared.pool.checkout(bytes.len());
        buf.buf().extend_from_slice(bytes);
        buf.freeze()
    }

    /// Encode into a pooled buffer (the matching typed receive recycles
    /// it on the other side).
    pub(crate) fn encode_pooled<T: Datum>(&self, data: &[T]) -> Bytes {
        let mut buf = self.shared.pool.checkout(data.len() * T::WIDTH);
        encode_into(data, buf.buf());
        buf.freeze()
    }

    /// Hand a spent payload back to the world's pool. Payloads still
    /// referenced elsewhere are dropped instead — recycling is always
    /// safe, never required.
    pub fn recycle(&self, payload: Bytes) {
        self.shared.pool.recycle(payload);
    }

    pub(crate) fn send_raw(&self, dst: usize, tag: u32, payload: impl Into<Bytes>) {
        let payload = payload.into();
        let size = self.size();
        assert!(dst < size, "dst {dst} out of range (size {size})");
        let dst_world = self.world_rank_of(dst);
        let src_world = self.world_rank();
        if let Some(replay) = self.shared.replay.as_deref() {
            if !replay.live[dst_world] {
                // Replay mode: the dead destination already consumed this
                // message in the pre-failure world — suppress the
                // duplicate (and keep it out of the trace; it is not new
                // traffic). Send determinism guarantees the payload is
                // bit-identical to the one originally delivered.
                replay
                    .suppressed_sends
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return;
            }
        }
        self.shared.trace.record(MessageEvent {
            src: src_world as u32,
            dst: dst_world as u32,
            bytes: payload.len() as u64,
            tag,
            phase: self.shared.phases[src_world].load(Ordering::Relaxed),
        });
        self.shared
            .deliver(dst_world, (self.ctx, self.rank as u32, tag), payload);
    }

    pub(crate) fn recv_raw(&self, src: usize, tag: u32) -> Bytes {
        let size = self.size();
        assert!(src < size, "src {src} out of range (size {size})");
        if let Some(replay) = self.shared.replay.as_deref() {
            let src_world = self.world_rank_of(src);
            if !replay.live[src_world] {
                // Replay mode: the sender is dead — serve its logged
                // payload from the feed in original send order.
                return replay.serve(self.world_rank(), src_world as u32, tag);
            }
        }
        self.shared
            .blocking_recv(self.world_rank(), (self.ctx, src as u32, tag))
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::World;

    #[test]
    fn split_by_parity_forms_two_comms() {
        let r = World::run(6, |c| {
            let sub = c.split(Some((c.rank() % 2) as u32), 0).unwrap();
            // Ring exchange inside the sub-communicator.
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            sub.send_slice(next, 2, &[sub.world_rank() as u64]);
            let got = sub.recv_vec::<u64>(prev, 2)[0];
            (sub.size(), sub.rank(), got)
        });
        for (wr, &(size, rank, got)) in r.outputs.iter().enumerate() {
            assert_eq!(size, 3);
            assert_eq!(rank, wr / 2);
            // Predecessor in my parity class.
            let expect = if wr >= 2 { wr - 2 } else { wr + 4 };
            assert_eq!(got as usize, expect, "world rank {wr}");
        }
    }

    #[test]
    fn split_with_none_color_returns_none() {
        let r = World::run(4, |c| {
            let sub = c.split((c.rank() != 0).then_some(7), 0);
            match sub {
                None => {
                    assert_eq!(c.rank(), 0);
                    0
                }
                Some(s) => s.size(),
            }
        });
        assert_eq!(r.outputs, vec![0, 3, 3, 3]);
    }

    #[test]
    fn split_key_reorders_ranks() {
        let r = World::run(4, |c| {
            // Reverse order via descending key.
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(r.outputs, vec![3, 2, 1, 0]);
    }

    #[test]
    fn nested_splits_do_not_cross_talk() {
        let r = World::run(4, |c| {
            let half = c.split(Some((c.rank() / 2) as u32), 0).unwrap();
            let pair = half.split(Some(0), 0).unwrap();
            let other = 1 - pair.rank();
            pair.send_slice(other, 1, &[c.rank() as u64]);
            pair.recv_vec::<u64>(other, 1)[0]
        });
        assert_eq!(r.outputs, vec![1, 0, 3, 2]);
    }

    #[test]
    fn phase_is_stamped_on_events() {
        let r = World::run_with(
            2,
            crate::runtime::WorldConfig {
                trace_events: true,
                ..Default::default()
            },
            |c| {
                if c.rank() == 0 {
                    c.set_phase(41);
                    c.send_bytes(1, 1, &[0]);
                    c.set_phase(42);
                    c.send_bytes(1, 1, &[0]);
                } else {
                    c.recv_bytes(0, 1);
                    c.recv_bytes(0, 1);
                }
            },
        );
        let ev = r.trace.take_events();
        assert_eq!(ev[0].iter().map(|e| e.phase).collect::<Vec<_>>(), [41, 42]);
    }

    #[test]
    fn zero_sends_are_views_of_one_block() {
        let r = World::run(2, |c| {
            if c.rank() == 0 {
                for len in [0, 24, 24, 5000] {
                    c.send_zeros(1, 3, len);
                }
                Vec::new()
            } else {
                (0..4).map(|_| c.recv_bytes(0, 3)).collect()
            }
        });
        let got = &r.outputs[1];
        assert_eq!(
            got.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [0, 24, 24, 5000]
        );
        assert!(got.iter().all(|b| b.iter().all(|&x| x == 0)));
        // Equal requests share the block; the traced lengths are the
        // requested ones.
        assert_eq!(got[1].as_ptr(), got[2].as_ptr());
        assert_eq!(r.trace.total_bytes(), 5048);
        // A longer request swaps in a larger block; earlier views stay
        // valid, and later short requests view the larger one.
        let long = super::zeros(1 << 16);
        assert_eq!(long.len(), 1 << 16);
        assert!(got[1].iter().all(|&x| x == 0));
        assert_eq!(super::zeros(24).as_ptr(), long.as_ptr());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        World::run(1, |c| c.send_bytes(0, 0xF000_0000, &[]));
    }
}
