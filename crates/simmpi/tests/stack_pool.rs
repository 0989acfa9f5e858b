//! The task engine's process-wide stack-slab pool.
//!
//! Worlds of one stack size share a bounded free list of 256 MiB stack
//! slabs: a finished world hands its slabs back, the next takes them.
//! These tests live in their own binary because they read the global
//! `simmpi.sched.stack_slabs_allocated` counter; they also serialise on
//! one lock, so no two of them run worlds at the same time.
//!
//! The layout of a slab and a world run on the slabs a stack-overflow
//! panic left behind are unit-tested in `src/sched.rs`, where the test
//! hook that clobbers a canary lives.

use std::sync::Mutex;

use hcft_simmpi::{Comm, Engine, World, WorldConfig};
use hcft_telemetry::Registry;

/// Ranks of the paper's traced job: 64 nodes × 16 + 64 encoders.
const PAPER_RANKS: usize = 1088;

/// The default stack size, explicit so that no environment override
/// changes the slab counts below: 512 stacks a slab.
const STACK: usize = 512 << 10;

/// Slabs the pool keeps between worlds.
const POOLED_SLABS: u64 = 4;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn slabs_allocated() -> u64 {
    Registry::global()
        .counter("simmpi.sched.stack_slabs_allocated")
        .get()
}

fn tasks(stack_size: usize) -> WorldConfig {
    WorldConfig {
        engine: Engine::Tasks,
        workers: 2,
        stack_size,
        ..WorldConfig::default()
    }
}

/// A ring exchange plus an allgather: every rank blocks at least once,
/// so every stack is switched away from and back to.
fn ring_body(c: &mut Comm) -> u64 {
    let (rank, n) = (c.rank(), c.size());
    c.send_slice((rank + 1) % n, 7, &[rank as u64]);
    let left = c.recv_vec::<u64>((rank + n - 1) % n, 7)[0];
    let all: u64 = c.allgather(&[rank as u64]).iter().sum();
    left * 1_000_000 + all
}

fn check_ring(n: usize, outputs: &[u64]) {
    let sum = (n * (n - 1) / 2) as u64;
    for (rank, &out) in outputs.iter().enumerate() {
        let left = ((rank + n - 1) % n) as u64;
        assert_eq!(out, left * 1_000_000 + sum, "rank {rank} of {n}");
    }
}

/// Run a ring world and return how many slabs it allocated.
fn ring_world(n: usize, stack_size: usize) -> u64 {
    let before = slabs_allocated();
    let r = World::run_with(n, tasks(stack_size), ring_body);
    check_ring(n, &r.outputs);
    slabs_allocated() - before
}

#[test]
fn second_paper_world_allocates_no_slab() {
    let _g = serial();
    // 1 088 stacks of 512 KiB are 3 slabs of 512; the first world
    // allocates whatever the pool does not already hold.
    assert!(ring_world(PAPER_RANKS, STACK) <= 3);
    assert_eq!(ring_world(PAPER_RANKS, STACK), 0, "the second world reuses");
}

#[test]
fn another_stack_size_allocates_its_own_and_the_pool_stays_bounded() {
    let _g = serial();
    ring_world(PAPER_RANKS, STACK);
    // 1 MiB stacks: one slab of 256, never one of the 512 KiB slabs.
    assert_eq!(ring_world(16, 1 << 20), 1, "a new stack size allocates");
    // The pool holds that slab beside the three of the paper world.
    assert_eq!(ring_world(PAPER_RANKS, STACK), 0, "both sizes fit the pool");
    assert_eq!(ring_world(16, 1 << 20), 0, "both sizes fit the pool");
    // 64 MiB stacks: 4 a slab, so 20 ranks take 5 slabs. The pool keeps
    // only its bound of them, so the same world again allocates the rest.
    ring_world(20, 64 << 20);
    assert_eq!(ring_world(20, 64 << 20), 5 - POOLED_SLABS);
    // And the pool now holds nothing but those: the paper world starts over.
    assert_eq!(ring_world(PAPER_RANKS, STACK), 3);
}

#[test]
fn two_worlds_at_once_on_two_threads_both_run_correctly() {
    let _g = serial();
    let worlds: Vec<_> = [PAPER_RANKS, PAPER_RANKS - 1]
        .into_iter()
        .map(|n| {
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let r = World::run_with(n, tasks(STACK), ring_body);
                    check_ring(n, &r.outputs);
                }
            })
        })
        .collect();
    for w in worlds {
        w.join().expect("world thread");
    }
}

/// This process's minor page faults so far (`/proc/self/stat` field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    rest.split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// A second paper-size world whose ranks do nothing runs on the pages
/// the first one faulted in. Ignored because it reads a process-wide
/// count; CI runs it alone, in release:
/// `cargo test --release -p hcft-simmpi --test stack_pool -- --ignored --nocapture`.
#[test]
#[ignore]
fn second_paper_world_takes_well_under_one_fault_per_rank() {
    let _g = serial();
    let empty = |c: &mut Comm| c.rank();
    World::run_with(PAPER_RANKS, tasks(STACK), empty);
    let before = minor_faults();
    let r = World::run_with(PAPER_RANKS, tasks(STACK), empty);
    let faults = minor_faults() - before;
    assert_eq!(r.outputs, (0..PAPER_RANKS).collect::<Vec<_>>());
    println!("second {PAPER_RANKS}-rank world: {faults} minor faults");
    assert!(
        faults < PAPER_RANKS as u64 / 8,
        "{faults} minor faults for {PAPER_RANKS} ranks"
    );
}
