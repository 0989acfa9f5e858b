//! The traced-matrix cache behind the always-on evaluation service.
//!
//! Tracing the communication matrix is the expensive input to a scheme
//! comparison (≈ 8–9 ms of a cold served paper-machine evaluate in
//! process, against a ≈ 2 ms family sweep on cold stages, even though
//! [`run_traced_job`] composes it from a two-step prefix world; 2 vCPU),
//! and it is a pure function of the trace-affecting [`TracedJobConfig`]
//! fields — the scheduler-determinism suite proves the bytes identical
//! across engines and worker counts. So the service caches
//! [`CachedTrace`]s behind `Arc`, keyed by the stable
//! [`TracedJobConfig::content_hash`]. Each entry is the
//! [`TraceResult`] plus its [`TraceStage`]: the node matrix, the node
//! graph, L1 partitions and hierarchical rows scored on that trace,
//! which grow as requests ask for them and are evicted with the trace.
//!
//!
//! * a **hit** returns the shared `Arc` without running
//!   [`run_traced_job`] at all;
//! * a **miss** runs the trace exactly once even under a concurrent
//!   stampede of identical requests (single-flight: the first caller
//!   computes, later callers park on the in-flight entry and share the
//!   result; if the first caller unwinds, the entry is withdrawn and the
//!   parked callers retry);
//! * entries are bounded by a strict **LRU** policy over completed
//!   entries — eviction order is a deterministic function of the access
//!   sequence, never of timing;
//! * `service.cache.{hits,misses,evictions}` counters, a
//!   `service.cache.bytes` gauge and a `service.cache.entries` gauge
//!   track behavior through the process-global telemetry registry.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcft_cluster::TraceStage;
use hcft_telemetry::{Counter, Registry};
use parking_lot::{Condvar, Mutex};

use crate::experiment::{run_traced_job, TraceKey, TraceResult, TracedJobConfig};

/// A cached trace: the [`TraceResult`] (what it derefs to) and the
/// scoring work done on it so far.
pub struct CachedTrace {
    trace: TraceResult,
    stage: TraceStage,
}

impl CachedTrace {
    /// Wrap `trace` with an empty trace stage on its application
    /// placement.
    pub fn new(trace: TraceResult) -> Self {
        let stage = TraceStage::new(trace.layout.app_placement());
        CachedTrace { trace, stage }
    }

    /// The trace stage: what scoring has kept of this trace.
    pub fn stage(&self) -> &TraceStage {
        &self.stage
    }

    /// Resident bytes: the trace and its stage.
    fn approx_bytes(&self) -> u64 {
        self.trace.approx_bytes() + self.stage.resident_bytes()
    }
}

impl Deref for CachedTrace {
    type Target = TraceResult;

    fn deref(&self) -> &TraceResult {
        &self.trace
    }
}

enum FlightState {
    Pending,
    Done(Arc<CachedTrace>),
    /// The builder unwound without a result; joiners must retry.
    Abandoned,
}

/// A single-flight slot: the first missing caller publishes the result
/// here; stampeding callers wait on the condvar.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn settle(&self, state: FlightState) {
        *self.state.lock() = state;
        self.cv.notify_all();
    }

    /// The builder's result, or `None` if the builder abandoned the
    /// flight.
    fn wait(&self) -> Option<Arc<CachedTrace>> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                FlightState::Pending => self.cv.wait(&mut state),
                FlightState::Done(t) => return Some(Arc::clone(t)),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// Held by the builder while [`run_traced_job`] runs outside the cache
/// lock. If that call unwinds (a rank panic or a watchdog trip inside
/// the simulated world), dropping the guard removes the `Building`
/// entry and wakes the joiners, so they — and every later request for
/// the key — retry as builders instead of waiting forever.
struct BuildGuard<'a> {
    cache: &'a TraceCache,
    key: TraceKey,
    flight: &'a Flight,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        self.cache
            .inner
            .lock()
            .entries
            .retain(|e| !(e.key == self.key && matches!(e.slot, Slot::Building(_))));
        self.flight.settle(FlightState::Abandoned);
    }
}

enum Slot {
    /// Trace computed and resident.
    Ready(Arc<CachedTrace>),
    /// Trace being computed by the first caller; join it, don't re-run.
    Building(Arc<Flight>),
}

struct Entry {
    key: TraceKey,
    slot: Slot,
    /// Logical access stamp for LRU (monotone per cache operation, so
    /// eviction order depends only on the access sequence).
    last_used: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
}

/// LRU + single-flight cache of traced runs keyed by
/// [`TracedJobConfig::content_hash`]. Cheap to share: wrap in an `Arc`
/// (the service does) or hold per subsystem.
pub struct TraceCache {
    max_entries: usize,
    inner: Mutex<Inner>,
    // Per-instance counts (what `stats` reports) mirrored into the
    // process-global `service.cache.*` telemetry counters, which several
    // caches may share.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hits_telemetry: Arc<Counter>,
    misses_telemetry: Arc<Counter>,
    evictions_telemetry: Arc<Counter>,
}

impl TraceCache {
    /// A cache retaining at most `max_entries` completed traces
    /// (minimum 1). Telemetry lands in the process-global registry under
    /// `service.cache.*`.
    pub fn new(max_entries: usize) -> Self {
        let reg = Registry::global();
        TraceCache {
            max_entries: max_entries.max(1),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits_telemetry: reg.counter("service.cache.hits"),
            misses_telemetry: reg.counter("service.cache.misses"),
            evictions_telemetry: reg.counter("service.cache.evictions"),
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.hits_telemetry.inc();
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.misses_telemetry.inc();
    }

    fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.evictions_telemetry.inc();
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// Completed entries currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .entries
            .iter()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }

    /// Is the cache empty of completed entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across completed entries, each trace with its
    /// stage (what the `service.cache.bytes` gauge reports as of the
    /// last insertion; stages grow after it).
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .lock()
            .entries
            .iter()
            .filter_map(|e| match &e.slot {
                Slot::Ready(t) => Some(t.approx_bytes()),
                Slot::Building(_) => None,
            })
            .sum()
    }

    /// The trace for `cfg`: served from cache when resident, joined to
    /// an in-flight computation when one exists, computed (exactly once)
    /// otherwise. A hit — shared or resident — never calls
    /// [`run_traced_job`].
    pub fn get_or_trace(&self, cfg: &TracedJobConfig) -> Arc<CachedTrace> {
        let key = cfg.content_hash();
        let flight = loop {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let Some(e) = inner.entries.iter_mut().find(|e| e.key == key) else {
                self.record_miss();
                let flight = Arc::new(Flight::new());
                inner.entries.push(Entry {
                    key,
                    slot: Slot::Building(Arc::clone(&flight)),
                    last_used: tick,
                });
                break flight;
            };
            e.last_used = tick;
            let joined = match &e.slot {
                Slot::Ready(t) => Some(Arc::clone(t)),
                Slot::Building(f) => {
                    // Single-flight join: someone is tracing this very
                    // config right now. Counted as a hit — the trace
                    // runs once either way.
                    let f = Arc::clone(f);
                    drop(inner);
                    f.wait()
                }
            };
            if let Some(t) = joined {
                self.record_hit();
                return t;
            }
        };
        // Trace outside the lock: concurrent requests for *other* keys
        // proceed, identical ones join the flight above.
        let guard = BuildGuard {
            cache: self,
            key,
            flight: &flight,
        };
        let result = Arc::new(CachedTrace::new(run_traced_job(cfg)));
        std::mem::forget(guard);
        {
            let mut inner = self.inner.lock();
            let e = inner
                .entries
                .iter_mut()
                .find(|e| e.key == key)
                .expect("building entry cannot be evicted");
            e.slot = Slot::Ready(Arc::clone(&result));
            self.evict_over_bound(&mut inner);
            self.publish_gauges(&inner);
        }
        flight.settle(FlightState::Done(Arc::clone(&result)));
        result
    }

    /// Evict least-recently-used *completed* entries until the bound
    /// holds. In-flight entries are never evicted (their computation is
    /// the expensive thing the cache exists to share); they count
    /// against the bound once completed.
    fn evict_over_bound(&self, inner: &mut Inner) {
        loop {
            let ready = inner
                .entries
                .iter()
                .filter(|e| matches!(e.slot, Slot::Ready(_)))
                .count();
            if ready <= self.max_entries {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("ready > bound >= 1");
            inner.entries.remove(victim);
            self.record_eviction();
        }
    }

    fn publish_gauges(&self, inner: &Inner) {
        let reg = Registry::global();
        let mut bytes = 0u64;
        let mut entries = 0u64;
        for e in &inner.entries {
            if let Slot::Ready(t) = &e.slot {
                bytes += t.approx_bytes();
                entries += 1;
            }
        }
        reg.gauge("service.cache.bytes").set(bytes as f64);
        reg.gauge("service.cache.entries").set(entries as f64);
    }

    /// Counter snapshot `(hits, misses, evictions)` for *this* cache
    /// instance. The `service.cache.*` telemetry counters carry the same
    /// increments but are process-global (shared across caches).
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = TraceCache::new(4);
        let cfg = TracedJobConfig::small(2, 2);
        let (h0, m0, _) = cache.stats();
        let a = cache.get_or_trace(&cfg);
        let b = cache.get_or_trace(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the traced result");
        let (h1, m1, _) = cache.stats();
        assert_eq!(m1 - m0, 1, "one miss");
        assert_eq!(h1 - h0, 1, "one hit");
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn resident_bytes_count_the_stage_and_leave_with_its_trace() {
        use hcft_cluster::{LayoutStage, SchemeFamilySpec};
        let cache = TraceCache::new(1);
        let t1 = cache.get_or_trace(&TracedJobConfig::small(8, 2));
        let bare = cache.resident_bytes();
        assert_eq!(bare, t1.approx_bytes());
        SchemeFamilySpec::for_layout(8, 2)
            .score_staged(&t1.app, &LayoutStage::new(), t1.stage())
            .expect("the preset fits");
        let staged = cache.resident_bytes();
        // What the node-aligned rows' walks built and the stage keeps.
        let node_matrix = t1
            .app
            .aggregate_by_node(&t1.layout.app_placement())
            .heap_bytes();
        assert!(
            staged > bare + node_matrix,
            "the node matrix, node graph, partitions and hierarchical rows count"
        );
        assert_eq!(staged, t1.approx_bytes());
        // A second trace evicts the first, stage and all: its node
        // matrix leaves the count with it.
        let c2 = TracedJobConfig::builder(8, 2)
            .iterations(7)
            .build()
            .expect("valid");
        let t2 = cache.get_or_trace(&c2);
        assert_eq!(cache.resident_bytes(), t2.approx_bytes());
        assert!(cache.resident_bytes() + node_matrix <= staged);
        assert!(t2.stage().resident_bytes() + node_matrix < t1.stage().resident_bytes());
    }

    #[test]
    fn lru_eviction_is_by_access_order() {
        let cache = TraceCache::new(2);
        // Same cheap machine shape, distinct keys via iteration count.
        let c1 = TracedJobConfig::small(2, 2);
        let c2 = TracedJobConfig::builder(2, 2)
            .iterations(7)
            .build()
            .expect("valid");
        let c3 = TracedJobConfig::builder(2, 2)
            .iterations(9)
            .build()
            .expect("valid");
        let t1 = cache.get_or_trace(&c1);
        let _t2 = cache.get_or_trace(&c2);
        // Touch c1 so c2 becomes the LRU victim.
        let t1b = cache.get_or_trace(&c1);
        assert!(Arc::ptr_eq(&t1, &t1b));
        let (_, _, ev0) = cache.stats();
        let _t3 = cache.get_or_trace(&c3);
        let (_, m_after_insert, ev1) = cache.stats();
        assert_eq!(ev1 - ev0, 1, "third entry evicts exactly one");
        assert_eq!(cache.len(), 2);
        // c1 must still be resident (recently used), c2 evicted.
        let t1c = cache.get_or_trace(&c1);
        assert!(Arc::ptr_eq(&t1, &t1c), "recently-used entry survived");
        let (_, m_after_c1, _) = cache.stats();
        assert_eq!(m_after_c1, m_after_insert, "c1 re-request was a hit");
        cache.get_or_trace(&c2);
        let (_, m_after_c2, _) = cache.stats();
        assert_eq!(m_after_c2, m_after_c1 + 1, "LRU victim c2 was re-traced");
    }
}
