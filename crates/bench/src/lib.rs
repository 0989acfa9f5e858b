//! Benchmark & reproduction harness.
//!
//! The `repro` binary (this crate's `src/bin/repro.rs`) regenerates every
//! table and figure of the paper's evaluation; the `ledger` binary
//! (`src/bin/ledger/`, see its README) is the repo's benchmark and
//! measures the real implementations, end to end and layer by layer.
//!
//! [`figures`] holds one function per paper artefact, each returning a
//! printable report plus CSV series; [`harness`] holds the shared
//! machinery (scales, trace caching, CSV writing).

#![warn(unreachable_pub)]

pub mod figures;
pub mod harness;
