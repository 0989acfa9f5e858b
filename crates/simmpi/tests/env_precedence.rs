//! Env-override precedence for long-running processes.
//!
//! `HCFT_SIMMPI_STACK_KB` is the runtime's one environment variable. It
//! is parsed once, into one process-wide snapshot, at the first
//! resolution. For a one-shot CLI
//! that is invisible; for an always-on service it means the environment
//! seen at the *first* request pins every later one. The contract is
//! therefore: explicit `WorldConfig` / `TracedJobConfig` values always
//! win over the snapshot, and only the env *default* is pinned. The
//! worker count has no env override: it is the explicit value, else the
//! core count. This test locks in all three.
//!
//! Everything lives in ONE `#[test]` so the env mutations cannot race
//! another test thread in this process (integration tests get their own
//! process, so other binaries are unaffected). The parse rule itself is
//! unit-tested in `runtime.rs` without touching the environment.

use hcft_simmpi::{Engine, WorldConfig};

#[test]
fn explicit_config_beats_cached_env_lookups() {
    // Phase 1: set the environment BEFORE any resolution has happened in
    // this process, then resolve a default config — the env must apply.
    std::env::set_var("HCFT_SIMMPI_STACK_KB", "256");

    let defaults = WorldConfig::default()
        .resolve(1024)
        .expect("default config resolves");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(defaults.workers, cores.min(1024), "default workers = cores");
    assert_eq!(
        WorldConfig::default().engine,
        Engine::Tasks,
        "default engine"
    );
    assert_eq!(defaults.stack_size, 256 * 1024, "env stack size applies");

    // Phase 2: mutate the environment after the first resolution, even
    // to values that would not parse. The snapshot must hold — a
    // long-running process sees ONE environment, not a time-varying one.
    std::env::set_var("HCFT_SIMMPI_STACK_KB", "abc");

    let pinned = WorldConfig::default()
        .resolve(1024)
        .expect("the snapshot, not the new garbage, is resolved");
    assert_eq!(
        pinned, defaults,
        "env lookups are a process-lifetime snapshot"
    );

    // Phase 3: explicit config values always win over the snapshot —
    // this is what lets an always-on service honour per-request
    // settings. Every overridable setting is exercised.
    let explicit = WorldConfig {
        workers: 2,
        engine: Engine::Threads,
        stack_size: 128 * 1024,
        ..WorldConfig::default()
    };
    let resolved = explicit.resolve(1024).expect("explicit config resolves");
    assert_eq!(resolved.workers, 2, "explicit workers beat cached env");
    assert_eq!(resolved.engine, Engine::Threads, "explicit engine wins");
    assert_eq!(resolved.stack_size, 128 * 1024, "explicit stack wins");

    // The workers cap still applies, to explicit and default values alike.
    assert_eq!(explicit.resolve(1).unwrap().workers, 1);
    assert_eq!(WorldConfig::default().resolve(2).unwrap().workers, 2);

    // Phase 4: the resolved settings drive a real world — a 4-rank
    // thread-engine ring on the env-set stack size must run and produce
    // rank-ordered outputs.
    let ring = WorldConfig {
        engine: Engine::Threads,
        ..WorldConfig::default()
    };
    let r = hcft_simmpi::World::run_with(4, ring, |c| {
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        c.send_slice(next, 1, &[c.rank() as u64]);
        c.recv_vec::<u64>(prev, 1)[0]
    });
    assert_eq!(r.outputs, vec![3, 0, 1, 2]);
}
