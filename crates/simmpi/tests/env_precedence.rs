//! Env-override precedence for long-running processes.
//!
//! The `HCFT_SIMMPI_{WORKERS,STEAL,YIELD_BUDGET,SHARDS,ENGINE}`
//! lookups are `OnceLock`-cached: the first resolution snapshots the
//! environment for the life of the process. For a one-shot CLI that is
//! invisible; for an always-on service it means the environment seen at
//! the *first* request silently pins every later one. The contract is
//! therefore: explicit `WorldConfig` / `TracedJobConfig` values always
//! win over the cached env lookups, and only the env *defaults* are
//! pinned. This test locks in both halves.
//!
//! Everything lives in ONE `#[test]` so the env mutations cannot race
//! another test thread in this process (integration tests get their own
//! process, so other binaries are unaffected).

use hcft_simmpi::{Engine, WorldConfig};

#[test]
fn explicit_config_beats_cached_env_lookups() {
    // Phase 1: set the environment BEFORE any resolution has happened in
    // this process, then resolve a default config — the env must apply.
    std::env::set_var("HCFT_SIMMPI_WORKERS", "3");
    std::env::set_var("HCFT_SIMMPI_SHARDS", "5");
    std::env::set_var("HCFT_SIMMPI_STEAL", "1");
    std::env::set_var("HCFT_SIMMPI_YIELD_BUDGET", "7");
    std::env::set_var("HCFT_SIMMPI_ENGINE", "threads");

    let defaults = WorldConfig::default()
        .resolve(1024)
        .expect("default config resolves");
    assert_eq!(defaults.workers, 3, "env workers apply to default config");
    assert_eq!(defaults.mailbox_shards, 5, "env shards apply");
    assert!(defaults.steal, "env steal applies");
    assert_eq!(defaults.yield_budget, 7, "env yield budget applies");
    assert_eq!(defaults.engine, Engine::Threads, "env engine applies");

    // Phase 2: mutate the environment after the first resolution. The
    // OnceLock snapshot must hold — a long-running process sees ONE
    // environment, not a time-varying one.
    std::env::set_var("HCFT_SIMMPI_WORKERS", "11");
    std::env::set_var("HCFT_SIMMPI_SHARDS", "13");
    std::env::set_var("HCFT_SIMMPI_STEAL", "0");
    std::env::set_var("HCFT_SIMMPI_YIELD_BUDGET", "17");
    std::env::set_var("HCFT_SIMMPI_ENGINE", "tasks");

    let pinned = WorldConfig::default()
        .resolve(1024)
        .expect("default config resolves");
    assert_eq!(
        pinned, defaults,
        "cached env lookups are a process-lifetime snapshot"
    );

    // Phase 3: explicit config values always win over the cached env —
    // this is what lets an always-on service honour per-request
    // settings. Every overridable knob is exercised.
    let explicit = WorldConfig {
        workers: 2,
        mailbox_shards: 4,
        steal: Some(false),
        yield_budget: Some(1),
        engine: Engine::Threads,
        stack_size: 256 * 1024,
        ..WorldConfig::default()
    };
    let resolved = explicit.resolve(1024).expect("explicit config resolves");
    assert_eq!(resolved.workers, 2, "explicit workers beat cached env");
    assert_eq!(
        resolved.mailbox_shards, 4,
        "explicit shards beat cached env"
    );
    assert!(
        !resolved.steal,
        "explicit steal=false beats cached env STEAL=1"
    );
    assert_eq!(resolved.yield_budget, 1, "explicit budget beats cached env");
    assert_eq!(resolved.engine, Engine::Threads, "explicit engine wins");
    assert_eq!(resolved.stack_size, 256 * 1024, "explicit stack wins");

    // The workers/shards caps still apply on top of explicit values.
    let capped = explicit.resolve(2).expect("tiny world resolves");
    assert_eq!(capped.workers, 2, "workers capped at world size");
    assert_eq!(capped.mailbox_shards, 2, "shards capped at world size");

    // Phase 4: the resolved settings drive a real world — a 4-rank
    // thread-engine ring with the explicit (env-contradicting) knobs
    // must run and produce rank-ordered outputs.
    let ring = WorldConfig {
        engine: Engine::Threads,
        mailbox_shards: 4,
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
