//! Integer gain buckets for boundary refinement.
//!
//! The classic Fiduccia–Mattheyses bucket array assumes gains bounded by
//! the maximum vertex degree; this repo's edge weights are byte counts
//! (up to ~10⁹ per edge in the traces), so the buckets are keyed by the
//! exact integer gain in an ordered map instead — `pop_best` is the
//! highest gain with the lowest vertex id, every operation is
//! O(log #distinct gains), and iteration order never depends on hash
//! state, keeping refinement bit-deterministic.

use std::collections::{BTreeMap, BTreeSet};

/// Ordered gain → vertex buckets with O(log) insert/remove/pop.
pub(crate) struct GainBuckets {
    buckets: BTreeMap<i128, BTreeSet<u32>>,
    /// Current gain per vertex (`None` = not enqueued).
    cur: Vec<Option<i128>>,
    /// Number of bucket insert/update/remove operations (telemetry).
    moves: u64,
}

impl GainBuckets {
    /// Empty structure for `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        GainBuckets {
            buckets: BTreeMap::new(),
            cur: vec![None; n],
            moves: 0,
        }
    }

    /// Insert `u` with `gain`, replacing any previous entry.
    pub(crate) fn insert(&mut self, u: usize, gain: i128) {
        self.remove(u);
        self.buckets.entry(gain).or_default().insert(u as u32);
        self.cur[u] = Some(gain);
        self.moves += 1;
    }

    /// Remove `u` if enqueued.
    pub(crate) fn remove(&mut self, u: usize) {
        if let Some(g) = self.cur[u].take() {
            let empty = {
                let set = self.buckets.get_mut(&g).expect("bucket for cached gain");
                set.remove(&(u as u32));
                set.is_empty()
            };
            if empty {
                self.buckets.remove(&g);
            }
            self.moves += 1;
        }
    }

    /// Pop the entry with the highest gain (lowest vertex id on ties).
    pub(crate) fn pop_best(&mut self) -> Option<(usize, i128)> {
        let (&gain, set) = self.buckets.iter_mut().next_back()?;
        let u = *set.iter().next().expect("non-empty bucket") as usize;
        set.remove(&(u as u32));
        if set.is_empty() {
            self.buckets.remove(&gain);
        }
        self.cur[u] = None;
        self.moves += 1;
        Some((u, gain))
    }

    /// Total bucket operations performed (for `partition.fm.bucket_moves`).
    pub(crate) fn moves(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
