//! Integer gain buckets for boundary refinement.
//!
//! The classic Fiduccia–Mattheyses bucket array assumes gains bounded by
//! the maximum vertex degree; this repo's edge weights are byte counts
//! (up to ~10⁹ per edge in the traces), so the buckets are keyed by the
//! exact integer gain in a binary heap instead — `pop_best` is the
//! highest gain with the lowest vertex id, every operation is O(log) in
//! the entries pushed, and the order never depends on hash state,
//! keeping refinement bit-deterministic. Removal is lazy: a per-vertex
//! current gain marks which heap entry is live, so the refinement loop
//! allocates nothing once the heap has grown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Gain → vertex priority queue with O(log) insert/remove/pop.
pub(crate) struct GainBuckets {
    /// `(gain, Reverse(vertex))` entries, max first; an entry is live
    /// only while it matches `cur` (removal and re-insertion leave stale
    /// entries behind, dropped when they surface).
    heap: BinaryHeap<(i128, Reverse<u32>)>,
    /// Current gain per vertex (`None` = not enqueued).
    cur: Vec<Option<i128>>,
    /// Number of bucket insert/update/remove operations (telemetry).
    moves: u64,
}

impl GainBuckets {
    /// Empty structure for `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        GainBuckets {
            heap: BinaryHeap::new(),
            cur: vec![None; n],
            moves: 0,
        }
    }

    /// Insert `u` with `gain`, replacing any previous entry.
    pub(crate) fn insert(&mut self, u: usize, gain: i128) {
        self.remove(u);
        self.heap.push((gain, Reverse(u as u32)));
        self.cur[u] = Some(gain);
        self.moves += 1;
    }

    /// Remove `u` if enqueued.
    pub(crate) fn remove(&mut self, u: usize) {
        if self.cur[u].take().is_some() {
            self.moves += 1;
        }
    }

    /// Pop the entry with the highest gain (lowest vertex id on ties).
    pub(crate) fn pop_best(&mut self) -> Option<(usize, i128)> {
        while let Some((gain, Reverse(u))) = self.heap.pop() {
            let u = u as usize;
            if self.cur[u] == Some(gain) {
                self.cur[u] = None;
                self.moves += 1;
                return Some((u, gain));
            }
        }
        None
    }

    /// Total bucket operations performed (for `partition.fm.bucket_moves`).
    pub(crate) fn moves(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pop_orders_by_gain_then_vertex() {
        let mut b = GainBuckets::new(8);
        b.insert(3, 10);
        b.insert(5, 10);
        b.insert(1, 4);
        assert_eq!(b.pop_best(), Some((3, 10)));
        assert_eq!(b.pop_best(), Some((5, 10)));
        assert_eq!(b.pop_best(), Some((1, 4)));
        assert_eq!(b.pop_best(), None);
    }

    #[test]
    fn insert_replaces_previous_gain() {
        let mut b = GainBuckets::new(4);
        b.insert(2, 7);
        b.insert(2, -3);
        assert_eq!(b.pop_best(), Some((2, -3)));
        assert_eq!(b.pop_best(), None);
    }

    #[test]
    fn remove_clears_entry() {
        let mut b = GainBuckets::new(4);
        b.insert(0, 1);
        b.remove(0);
        assert_eq!(b.pop_best(), None);
        // Removing a non-enqueued vertex is a no-op.
        b.remove(3);
    }

    proptest! {
        /// The lazy heap pops exactly what the ordered-map buckets of the
        /// refinement oracle pop, and counts the same bucket operations
        /// (`partition.fm.bucket_moves`), over random insert / re-insert /
        /// remove / pop sequences with many equal gains.
        #[test]
        fn lazy_heap_matches_the_ordered_map(
            ops in proptest::collection::vec((0u8..4, 0usize..12, -3i64..4), 0..200),
        ) {
            let mut heap = GainBuckets::new(12);
            let mut map = crate::reference::refine::GainBuckets::new(12);
            for (op, u, gain) in ops {
                let gain = gain as i128;
                match op {
                    0 | 1 => {
                        heap.insert(u, gain);
                        map.insert(u, gain);
                    }
                    2 => {
                        heap.remove(u);
                        map.remove(u);
                    }
                    _ => prop_assert_eq!(heap.pop_best(), map.pop_best()),
                }
            }
            while let Some(best) = map.pop_best() {
                prop_assert_eq!(heap.pop_best(), Some(best));
            }
            prop_assert_eq!(heap.pop_best(), None);
            prop_assert_eq!(heap.moves(), map.moves());
        }
    }
}
