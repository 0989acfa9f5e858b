//! Observability substrate for the whole FT stack.
//!
//! The paper's argument is quantitative — logged bytes, restart
//! fractions, encode seconds, P(catastrophe) — but until this crate the
//! runtime computed those numbers as one-shot outputs with no visibility
//! into *where* time and bytes go during a recovery or campaign. This crate
//! provides the measurement substrate every subsystem reports through:
//!
//! * [`Counter`] — a monotonically increasing relaxed atomic, cheap
//!   enough for hot paths (one `fetch_add(Relaxed)` per observation);
//! * [`Gauge`] — a last-write-wins `f64` cell (bit-cast into an atomic)
//!   for derived quantities such as fractions and throughputs;
//! * [`Histogram`] — a power-of-two-bucketed latency/size histogram with
//!   count/sum/min/max, fed from monotonic [`std::time::Instant`]
//!   measurements (never wall-clock dates);
//! * [`EventJournal`] — a bounded ring buffer of structured
//!   [`Event`]s carrying a *virtual* timestamp (application phase /
//!   checkpoint epoch) next to the monotonic wall offset;
//! * [`Registry`] — a named collection of all of the above with a
//!   process-wide default ([`Registry::global`]) and dedicated instances
//!   for scoped measurements (one replay engine, one test), snapshotted to JSON
//!   with no external dependencies.
//!
//! The crate is also the home of [`HcftError`], the workspace-level
//! error type unifying the previously ad-hoc mix of `io::Result`,
//! recovery-specific enums and bare `unwrap()`s across the public API.
//! It lives here (rather than in `hcft-core`) because this is the one
//! crate every other crate already depends on; `hcft-core` re-exports it
//! as its canonical public path.
//!
//! # Overhead contract
//!
//! Counters are relaxed atomics; the journal is bounded (old events are
//! dropped, never reallocated without bound); name→handle resolution is
//! a locked map lookup that callers amortise by caching the returned
//! `Arc` handle. The ledger's `telemetry.counter_inc_ns` /
//! `telemetry.histogram_observe_ns` rows price one observation in the
//! instrumented hot loops (erasure kernels, sender-log appends).

#![warn(unreachable_pub)]

pub mod error;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use error::HcftError;
pub use journal::{Event, EventJournal, EventKind};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{json_string, Registry, Snapshot};
