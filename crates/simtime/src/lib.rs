//! Discrete-event virtual-time simulation of checkpointing.
//!
//! The paper's §III requirements are *time* requirements ("encode 1 GB in
//! less than one minute"), and its analysis uses closed-form cost models.
//! This crate rebuilds those times from first principles instead: a
//! dependency-scheduled task simulation over explicit hardware resources
//! (per-node SSDs and NICs, per-node encoder cores, the shared PFS), so
//! the linear-in-cluster-size encoding law and the level cost ordering
//! *emerge from the mechanics* rather than being assumed — an independent
//! cross-validation of `hcft_checkpoint::CheckpointCostModel`, the same
//! way enumeration and sampling oracles cross-validate the reliability
//! model.
//!
//! * `engine` — the event engine: FCFS resources + dependency-counted
//!   tasks, deterministic;
//! * [`rates`] — hardware rates derived from Table I plus one measured
//!   constant (GF(2⁸) multiply-accumulate throughput);
//! * [`checkpoint_sim`] — task graphs for every checkpoint level.

#![warn(unreachable_pub)]

pub mod checkpoint_sim;
mod engine;
pub mod rates;

pub use checkpoint_sim::{simulate_checkpoint, SimConfig};
pub use rates::Rates;
