//! Scalar metric primitives: counters, gauges and histograms.
//!
//! Everything here is lock-free and uses `Ordering::Relaxed` — metrics
//! observe totals, they never synchronise program state, and the hot
//! paths (erasure kernels, sender-log appends, mailbox sends) cannot
//! afford anything stronger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event/byte counter.
///
/// `max`/`store` are provided for high-water marks and snapshot-style
/// mirroring of externally maintained totals; both keep the relaxed
/// ordering.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value (mirroring an externally maintained total).
    #[inline]
    pub fn store(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` cell for derived quantities (fractions,
/// throughputs, seconds-per-GB). The float is bit-cast into an atomic
/// word so reads and writes stay lock-free.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets. Bucket `i` counts observations with
/// `63 - leading_zeros(v) == i` (bucket 0 also takes `v == 0`), so the
/// range spans 1 ns .. ~585 years when observations are nanoseconds.
const BUCKETS: usize = 64;

/// The bucket of an observation (see [`BUCKETS`]).
#[inline]
fn bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// A power-of-two-bucketed histogram for durations (nanoseconds) or
/// sizes (bytes). All updates are relaxed atomics; a snapshot is a
/// consistent-enough view for reporting, not a linearisable one.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one observation (nanoseconds, bytes, …).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Add the observations a thread kept in a local
    /// [`HistogramSnapshot`] (see [`HistogramSnapshot::record`]): one
    /// atomic update per field and per non-empty bucket, however many
    /// observations it holds.
    pub fn merge(&self, local: &HistogramSnapshot) {
        if local.count == 0 {
            return;
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.min.fetch_min(local.min, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
        for (bucket, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Record a monotonic duration measurement.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Consistent-enough view for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` (bucket 0
    /// also holds zero-valued observations).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// A histogram with no observations, as a thread's local
    /// accumulator.
    pub const EMPTY: HistogramSnapshot = HistogramSnapshot {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        buckets: [0; BUCKETS],
    };

    /// Record one observation locally, with the semantics of
    /// [`Histogram::observe`]; [`Histogram::merge`] publishes the lot.
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v;
        self.buckets[bucket(v)] += 1;
    }

    /// Arithmetic mean of the observations, 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_store() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.store(5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
        g.set(-1.5e9);
        assert_eq!(g.get(), -1.5e9);
    }

    #[test]
    fn histogram_stats_and_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 1024] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1029);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 3); // 0, 1, 1
        assert_eq!(s.buckets[1], 1); // 3
        assert_eq!(s.buckets[10], 1); // 1024
        assert!((s.mean() - 205.8).abs() < 1e-9);
    }

    #[test]
    fn merging_local_records_equals_observing() {
        let values = [7u64, 0, 1, 3, 1024, 5];
        let shared = Histogram::new();
        for v in values {
            shared.observe(v);
        }
        let merged = Histogram::new();
        merged.merge(&HistogramSnapshot::EMPTY);
        merged.observe(7);
        for part in [&values[1..3], &values[3..]] {
            let mut local = HistogramSnapshot::EMPTY;
            for &v in part {
                local.record(v);
            }
            merged.merge(&local);
        }
        assert_eq!(merged.snapshot(), shared.snapshot());
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
