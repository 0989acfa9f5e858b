//! Message tracing — the stand-in for the paper's modified MPICH2.
//!
//! Two views are recorded:
//! * a **byte matrix** over world ranks — this becomes Fig. 5a/5b and
//!   feeds every clustering metric;
//! * an optional **ordered event log per sender** carrying the
//!   application-defined *phase* (iteration / checkpoint epoch), which the
//!   message-logging replay simulation consumes.
//!
//! Each send is recorded once. Without a log, it is added to its cell:
//! one lock-guarded map per sender, keyed by destination, at every world
//! size. A traced job's matrix is overwhelmingly zeros (stencil and
//! power-of-two collective edges are O(n log n) cells), so the
//! recorder's memory follows the cells sent, not `n²`. With a log, it is
//! appended to the sender's log only, and the cells are folded from the
//! log when read; [`TraceRecorder::take_events`] folds what it drains
//! into the cell maps, so the matrices read the same before and after,
//! and [`TraceRecorder::into_events`] consumes a finished world's
//! recorder and returns the log unfolded, for a reader of the log alone.
//! A rank only ever locks its own row. `TraceRecorder::for_each_cell` visits the cells
//! row-major, sorted by destination, which is the order
//! [`CommMatrix::entries`] keeps.

use crate::runtime::FnvMap;
use hcft_graph::CommMatrix;
use parking_lot::Mutex;
use std::sync::Arc;

/// One traced point-to-point message (collective steps decompose into
/// these too, exactly as a PMPI tracer would see them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageEvent {
    /// Sender world rank.
    pub src: u32,
    /// Receiver world rank.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Message tag (collective-internal tags have the top bits set).
    pub tag: u32,
    /// Application phase at send time (see [`crate::Comm::set_phase`]).
    pub phase: u64,
}

/// Concurrent trace sink shared by all ranks of a [`crate::World`].
pub struct TraceRecorder {
    /// `rows[src]` maps destination → (bytes, msgs): every send without
    /// a log, only the drained part of the log with one.
    rows: Vec<Mutex<FnvMap<u32, (u64, u64)>>>,
    /// `events[src]`: the sends not yet drained, in send order.
    events: Option<Vec<Mutex<Vec<MessageEvent>>>>,
}

impl TraceRecorder {
    /// A recorder over `n` world ranks. `with_events` additionally keeps
    /// the per-sender ordered event log (costs memory proportional to the
    /// message count).
    pub(crate) fn new(n: usize, with_events: bool) -> Self {
        TraceRecorder {
            rows: (0..n).map(|_| Mutex::new(FnvMap::default())).collect(),
            events: with_events.then(|| (0..n).map(|_| Mutex::new(Vec::new())).collect()),
        }
    }

    /// Number of world ranks covered.
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Record one message. Called by the runtime on every send: into
    /// the log when there is one, into its cell otherwise.
    pub(crate) fn record(&self, ev: MessageEvent) {
        self.record_from(ev.src, [ev]);
    }

    /// Record messages of sender `src`, in order, under one lock (a
    /// collective's whole schedule from one member).
    pub(crate) fn record_from(&self, src: u32, evs: impl IntoIterator<Item = MessageEvent>) {
        match &self.events {
            Some(logs) => logs[src as usize].lock().extend(evs),
            None => fold(&mut self.rows[src as usize].lock(), evs),
        }
    }

    /// Visit every cell that saw a message as `(src, dst, bytes, msgs)`,
    /// row-major and sorted by destination within a row. A logged
    /// sender's cells are its folded row plus its undrained log, read
    /// under the log's lock and then the row's (the order
    /// [`TraceRecorder::take_events`] takes them in), so a read that
    /// overlaps a drain sees each drained batch exactly once.
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut(usize, usize, u64, u64)) {
        let mut cells = Vec::new();
        for (s, row) in self.rows.iter().enumerate() {
            cells.clear();
            let log = self.events.as_ref().map(|logs| logs[s].lock());
            cells.extend(row.lock().iter().map(|(&d, &(b, c))| (d, b, c)));
            if let Some(log) = log {
                cells.extend(log.iter().map(|e| (e.dst, e.bytes, 1)));
            }
            cells.sort_unstable_by_key(|&(d, _, _)| d);
            cells.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                    kept.2 += next.2;
                }
                same
            });
            for &(d, b, c) in &cells {
                f(s, d as usize, b, c);
            }
        }
    }

    /// Snapshot the byte matrix.
    pub fn byte_matrix(&self) -> CommMatrix {
        let mut m = CommMatrix::new(self.n());
        self.for_each_cell(|s, d, b, _| m.add(s, d, b));
        m
    }

    /// Snapshot the message-count matrix (the tests compare traces by it).
    #[cfg(test)]
    pub(crate) fn count_matrix(&self) -> CommMatrix {
        let mut m = CommMatrix::new(self.n());
        self.for_each_cell(|s, d, _, c| m.add(s, d, c));
        m
    }

    /// Total traced bytes.
    pub fn total_bytes(&self) -> u64 {
        let mut t = 0;
        self.for_each_cell(|_, _, b, _| t += b);
        t
    }

    /// Total traced messages.
    pub fn total_messages(&self) -> u64 {
        let mut t = 0;
        self.for_each_cell(|_, _, _, c| t += c);
        t
    }

    /// Drain the ordered event logs (sender-major), folding each drained
    /// log into its sender's cells so the matrices and totals read the
    /// same afterwards. Empty if the recorder was built without event
    /// logging.
    pub fn take_events(&self) -> Vec<Vec<MessageEvent>> {
        match &self.events {
            None => Vec::new(),
            Some(logs) => logs
                .iter()
                .zip(&self.rows)
                .map(|(log, row)| {
                    let mut log = log.lock();
                    fold(&mut row.lock(), log.iter().copied());
                    std::mem::take(&mut *log)
                })
                .collect(),
        }
    }

    /// The ordered event logs (sender-major) of a finished world's
    /// recorder, without folding them into cells: for a consumer that
    /// reads only the log. Empty if the recorder was built without event
    /// logging.
    ///
    /// # Panics
    /// If anything else still holds the recorder; a finished
    /// [`crate::World`] keeps no reference to it.
    pub fn into_events(self: Arc<Self>) -> Vec<Vec<MessageEvent>> {
        Arc::into_inner(self)
            .expect("a finished world holds no recorder")
            .events
            .map(|logs| logs.into_iter().map(Mutex::into_inner).collect())
            .unwrap_or_default()
    }

    /// Cells folded into the sender maps so far (a logged recorder's
    /// stay empty until its log is drained).
    #[cfg(test)]
    fn folded_cells(&self) -> usize {
        self.rows.iter().map(|r| r.lock().len()).sum()
    }
}

/// Add `events` of one sender to its destination → (bytes, msgs) map.
fn fold(row: &mut FnvMap<u32, (u64, u64)>, events: impl IntoIterator<Item = MessageEvent>) {
    for ev in events {
        let slot = row.entry(ev.dst).or_insert((0, 0));
        slot.0 += ev.bytes;
        slot.1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, dst: u32, bytes: u64) -> MessageEvent {
        MessageEvent {
            src,
            dst,
            bytes,
            tag: 0,
            phase: 0,
        }
    }

    #[test]
    fn records_bytes_and_counts() {
        let t = TraceRecorder::new(3, false);
        t.record(ev(0, 1, 10));
        t.record(ev(0, 1, 5));
        t.record(ev(2, 0, 7));
        let b = t.byte_matrix();
        assert_eq!(b.get(0, 1), 15);
        assert_eq!(b.get(2, 0), 7);
        assert_eq!(t.count_matrix().get(0, 1), 2);
        assert_eq!(t.total_bytes(), 22);
        assert_eq!(t.total_messages(), 3);
    }

    /// `for_each_cell` is row-major and sorted by destination, and both
    /// matrices are the sums over the event log.
    fn assert_cells_match_log(t: &TraceRecorder) {
        let mut cells = Vec::new();
        t.for_each_cell(|s, d, b, c| cells.push((s, d, b, c)));
        assert!(
            cells
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "cells out of order at n = {}",
            t.n()
        );
        let (bytes, counts) = (t.byte_matrix(), t.count_matrix());
        let mut want_bytes = CommMatrix::new(t.n());
        let mut want_counts = CommMatrix::new(t.n());
        for e in t.take_events().iter().flatten() {
            want_bytes.add(e.src as usize, e.dst as usize, e.bytes);
            want_counts.add(e.src as usize, e.dst as usize, 1);
        }
        assert_eq!(bytes, want_bytes, "byte matrix at n = {}", t.n());
        assert_eq!(counts, want_counts, "count matrix at n = {}", t.n());
        assert_eq!(cells.len(), counts.edge_count());
        assert_eq!(t.total_bytes(), want_bytes.total_bytes());
        assert_eq!(t.total_messages(), want_counts.total_bytes());
    }

    #[test]
    fn cells_are_row_major_and_match_the_log_at_every_world_size() {
        // Sizes on both sides of the old 4 096-rank dense/sparse split.
        for n in [1usize, 2, 7, 64, 4097] {
            let t = TraceRecorder::new(n, true);
            let mut x = n as u64;
            for _ in 0..600 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (src, dst) = ((x >> 33) as usize % n, (x >> 13) as usize % n);
                // Small destination ranges repeat cells; zero-byte
                // messages count but add no bytes.
                let dst = if x & 1 == 0 { dst % 5 % n } else { dst };
                t.record(ev(src as u32, dst as u32, (x >> 50) % 4));
            }
            assert_cells_match_log(&t);
        }
    }

    /// A small world mixing the rendezvous collectives with uneven
    /// point-to-point traffic, zero-byte messages included.
    fn traced_world(n: usize) -> Arc<TraceRecorder> {
        let cfg = crate::WorldConfig {
            trace_events: true,
            ..crate::WorldConfig::default()
        };
        let r = crate::World::run_with(n, cfg, |c| {
            let (me, n) = (c.rank(), c.size());
            let _ = c.allgather(&[me as u64]);
            let sub = c.split(Some((me % 2) as u32), -(me as i64));
            // Far destinations first, then the ring neighbour.
            for k in (1..n).rev().step_by(3) {
                c.send_bytes((me + k) % n, 5, &vec![0; k]);
            }
            if n > 1 {
                c.send_bytes((me + 1) % n, 6, &[]);
            }
            for k in (1..n).rev().step_by(3) {
                let _ = c.recv_bytes((me + n - k) % n, 5);
            }
            if n > 1 {
                let _ = c.recv_bytes((me + n - 1) % n, 6);
            }
            sub.expect("every rank has a colour").barrier();
        });
        r.trace
    }

    /// The matrices and totals, which must not depend on how much of
    /// the log has been drained.
    fn readings(t: &TraceRecorder) -> (CommMatrix, CommMatrix, u64, u64) {
        (
            t.byte_matrix(),
            t.count_matrix(),
            t.total_bytes(),
            t.total_messages(),
        )
    }

    #[test]
    fn traced_worlds_record_row_major_cells_that_match_the_log() {
        for n in [1usize, 3, 17, 70] {
            let t = traced_world(n);
            let before = readings(&t);
            assert_cells_match_log(&t);
            assert_eq!(readings(&t), before, "drained readings at n = {n}");
            assert!(t.take_events().iter().all(Vec::is_empty));
            // Consuming the log returns what draining it would.
            assert_eq!(
                traced_world(n).into_events(),
                traced_world(n).take_events(),
                "owned log at n = {n}"
            );
        }
    }

    #[test]
    fn logged_sends_are_folded_into_cells_only_when_drained() {
        let t = traced_world(17);
        assert_eq!(t.folded_cells(), 0, "a logged send is recorded once");
        let before = readings(&t);
        assert!(before.3 > 0);
        assert_eq!(t.folded_cells(), 0, "reading folds nothing");
        let drained = t.take_events().iter().map(Vec::len).sum::<usize>();
        assert_eq!(drained as u64, before.3);
        assert_eq!(t.folded_cells(), before.1.edge_count());
        assert_eq!(readings(&t), before);

        let unlogged = Arc::new(TraceRecorder::new(2, false));
        unlogged.record(ev(0, 1, 3));
        assert_eq!(unlogged.folded_cells(), 1);
        assert!(unlogged.into_events().is_empty());
    }

    #[test]
    fn event_log_preserves_sender_order() {
        let t = TraceRecorder::new(2, true);
        t.record(MessageEvent {
            src: 0,
            dst: 1,
            bytes: 1,
            tag: 9,
            phase: 3,
        });
        t.record(ev(0, 1, 2));
        let logs = t.take_events();
        assert_eq!(logs[0].len(), 2);
        assert_eq!(logs[0][0].tag, 9);
        assert_eq!(logs[0][0].phase, 3);
        assert_eq!(logs[0][1].bytes, 2);
        assert!(logs[1].is_empty());
        // Drained.
        assert!(t.take_events()[0].is_empty());
    }

    #[test]
    fn no_event_log_when_disabled_at_construction() {
        let t = TraceRecorder::new(2, false);
        t.record(ev(0, 1, 1));
        assert!(t.take_events().is_empty());
    }
}
