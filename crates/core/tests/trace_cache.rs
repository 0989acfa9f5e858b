//! The trace-cache contract behind the always-on evaluation service:
//!
//! * the [`TracedJobConfig`] content hash is **stable** — pinned values
//!   here must never drift for an unchanged config (bump the canonical
//!   `hcft-trace-v1` version instead when the traced protocol changes);
//! * distinct configurations (notably the scaled-down test shapes vs the
//!   paper shape) never collide on a key;
//! * runtime knobs (workers, engine) do NOT enter the key — the scheduler-determinism suite proves they cannot
//!   change a traced byte, so they must share a cache entry;
//! * the canonical wire form is exactly the trace-affecting fields, in a
//!   pinned order (its bytes are pinned beside the hash);
//! * a concurrent stampede of identical requests runs the trace exactly
//!   once (single-flight) and every caller shares the same result;
//! * a builder that panics withdraws its in-flight entry, so later
//!   callers for the key become builders instead of waiting forever.

use std::sync::Arc;
use std::thread;

use hcft_core::trace_cache::TraceCache;
use hcft_core::TracedJobConfig;
use hcft_simmpi::Engine;

#[test]
fn content_hash_is_pinned() {
    // These values are the on-the-wire cache identity; a drift here
    // silently invalidates every persisted key and breaks warm-restart
    // byte-identity. Never update them for an unchanged config — bump
    // the canonical version string instead.
    let small = TracedJobConfig::small(2, 2);
    assert_eq!(
        small.to_canonical(),
        "hcft-trace-v1;nodes=2;ppn=2;enc=1;it=50;ck=25;gx=16;gy=512;px=2;py=2;eg=2;ev=0"
    );
    assert_eq!(
        small.content_hash().to_string(),
        "cb7a3047da27bb79333e6e680db5296e"
    );

    let paper = TracedJobConfig::paper_1024();
    assert_eq!(
        paper.to_canonical(),
        "hcft-trace-v1;nodes=64;ppn=16;enc=1;it=100;ck=25;gx=1024;gy=4096;px=512;py=2;eg=4;ev=0"
    );
    assert_eq!(
        paper.content_hash().to_string(),
        "fb9cd4a57eeecd5f6b0799686b539310"
    );
}

#[test]
fn keys_do_not_collide_across_config_family() {
    // One config per trace-affecting knob change, spanning the shapes
    // the service actually sees (small smoke shapes through the paper
    // machine). Every pair must hash apart.
    let family: Vec<TracedJobConfig> = vec![
        TracedJobConfig::small(2, 2),
        TracedJobConfig::small(4, 2),
        TracedJobConfig::small(8, 4),
        TracedJobConfig::paper_1024(),
        TracedJobConfig::builder(2, 2)
            .iterations(51)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .checkpoint_every(10)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .grid(32, 512)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .process_grid(1, 4)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .with_encoders(false)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .encoder_group_nodes(1)
            .build()
            .unwrap(),
        TracedJobConfig::builder(2, 2)
            .record_events(true)
            .build()
            .unwrap(),
        // A would-be ambiguity if fields were concatenated instead of
        // delimited: 2 nodes × 12 ppn vs 21 nodes × 2 ppn.
        TracedJobConfig::small(2, 12),
        TracedJobConfig::small(21, 2),
    ];
    for (i, a) in family.iter().enumerate() {
        for (j, b) in family.iter().enumerate().skip(i + 1) {
            assert_ne!(
                a.content_hash(),
                b.content_hash(),
                "configs {i} and {j} collide:\n  {}\n  {}",
                a.to_canonical(),
                b.to_canonical()
            );
            assert_ne!(a.to_canonical(), b.to_canonical());
        }
    }
}

#[test]
fn runtime_knobs_do_not_change_the_key() {
    // Workers and engine cannot change a traced byte (proved by the
    // scheduler-determinism suite), so they are excluded from the key:
    // all these configs share one cache entry.
    let base = TracedJobConfig::small(4, 2);
    let variants = [
        TracedJobConfig::builder(4, 2).workers(3).build().unwrap(),
        TracedJobConfig::builder(4, 2)
            .engine(Engine::Threads)
            .build()
            .unwrap(),
    ];
    for v in &variants {
        assert_eq!(base.content_hash(), v.content_hash());
    }
    // And an explicit process grid equal to the resolved default is the
    // same trace, hence the same key.
    let explicit = TracedJobConfig::builder(4, 2)
        .process_grid(4, 2)
        .build()
        .unwrap();
    assert_eq!(base.content_hash(), explicit.content_hash());
}

#[test]
fn concurrent_identical_requests_trace_once() {
    // A stampede of identical requests must collapse onto one traced
    // run: exactly one miss, everyone else joins the in-flight entry and
    // shares the same Arc (hence byte-identical responses for free).
    let cache = Arc::new(TraceCache::new(4));
    let cfg = TracedJobConfig::small(2, 2);
    let n = 8;
    let barrier = Arc::new(std::sync::Barrier::new(n));
    let results: Vec<Arc<hcft_core::trace_cache::CachedTrace>> = thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let cfg = cfg.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    cache.get_or_trace(&cfg)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (hits, misses, _) = cache.stats();
    assert_eq!(misses, 1, "stampede must trace exactly once");
    assert_eq!(hits, n as u64 - 1, "every other caller joins the flight");
    for r in &results[1..] {
        assert!(
            Arc::ptr_eq(&results[0], r),
            "all callers share the single traced result"
        );
    }
    assert_eq!(cache.len(), 1);
}

#[test]
fn concurrent_distinct_requests_all_complete() {
    // Distinct keys trace concurrently (the computation happens outside
    // the cache lock) and each lands in its own entry.
    let cache = Arc::new(TraceCache::new(4));
    let configs: Vec<TracedJobConfig> = (0..3)
        .map(|i| {
            TracedJobConfig::builder(2, 2)
                .iterations(30 + i)
                .build()
                .unwrap()
        })
        .collect();
    thread::scope(|s| {
        for cfg in &configs {
            let cache = Arc::clone(&cache);
            s.spawn(move || cache.get_or_trace(cfg));
        }
    });
    let (hits, misses, evictions) = cache.stats();
    assert_eq!(misses, 3);
    assert_eq!(hits, 0);
    assert_eq!(evictions, 0);
    assert_eq!(cache.len(), 3);
    // Re-requests are hits and return the resident traces.
    for cfg in &configs {
        cache.get_or_trace(cfg);
    }
    assert_eq!(cache.stats().0, 3);
}

#[test]
fn panicked_builder_does_not_poison_the_key() {
    // Every rank of this job panics in the solver's decomposition (two
    // ranks cannot tile a 1x1 grid), so `run_traced_job` unwinds out of
    // the first builder while its in-flight entry is published.
    let bad = TracedJobConfig {
        with_encoders: false,
        grid: (1, 1),
        ..TracedJobConfig::small(2, 1)
    };
    let cache = Arc::new(TraceCache::new(2));
    let attempt = |cache: &TraceCache, cfg: &TracedJobConfig| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get_or_trace(cfg))).is_ok()
    };
    assert!(!attempt(&cache, &bad), "the bad config must panic");

    // Later callers for the same key must come back (here: by panicking
    // as builders themselves), not park on the dead flight. Detached
    // threads, because a regression leaves them blocked forever.
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..3 {
        let (cache, bad, tx) = (Arc::clone(&cache), bad.clone(), tx.clone());
        thread::spawn(move || tx.send(attempt(&cache, &bad)));
    }
    for _ in 0..3 {
        let traced = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("caller blocked on a panicked builder's in-flight entry");
        assert!(!traced);
    }
    assert_eq!(cache.len(), 0);
    assert_eq!(cache.stats().0, 0, "an abandoned flight is not a hit");
    // The cache still serves other keys.
    cache.get_or_trace(&TracedJobConfig::small(2, 1));
    assert_eq!(cache.len(), 1);
}
