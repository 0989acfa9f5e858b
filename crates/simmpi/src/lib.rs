//! `simmpi` — an in-process MPI-like runtime for six-figure rank counts.
//!
//! The paper runs its tsunami workload under a modified MPICH2 that traces
//! every message. We have no cluster and no MPI, so this crate *is* the
//! substitute substrate: each rank is a resumable task multiplexed M:N
//! onto a fixed worker pool (or, as a portable fallback, an OS thread),
//! point-to-point messages go through per-rank mailboxes, and the three
//! collectives the paper's FTI job calls (`barrier`, `allgather` and
//! `split`) each run as one rendezvous that traces the messages MPICH2's
//! algorithms send (notably recursive-doubling allgather, whose
//! power-of-two communication diagonals are explicitly visible in the
//! paper's Fig. 5b). A
//! [`TraceRecorder`] observes every byte on the wire, exactly like the
//! paper's instrumented MPI library.
//!
//! Design notes:
//! * **Buffered sends** — `send` never blocks, so naive SPMD exchange
//!   patterns cannot deadlock; `recv` blocks with a watchdog timeout that
//!   converts genuine deadlocks into a panic naming rank/src/tag.
//! * **Communicators** — `Comm::split` implements `MPI_Comm_split` as one
//!   rendezvous that traces the allgather MPICH2 would run;
//!   sub-communicator traffic is still traced in *world* ranks so the
//!   global communication matrix stays coherent.
//! * **Determinism** — matching is FIFO per (communicator, sender, tag),
//!   and there is no wildcard receive, so applications written against
//!   this API are send-deterministic — the property HydEE requires of its
//!   MPI applications.

#![warn(unreachable_pub)]

pub mod collectives;
pub mod comm;
pub mod datatype;
mod rendezvous;
pub mod replay;
pub mod runtime;
mod sched;
mod tally;
pub mod trace;

pub use comm::Comm;
pub use datatype::Datum;
pub use replay::{ReplayFeed, ReplayPlan, ReplayWorldResult};
pub use runtime::{Engine, ResolvedWorldConfig, World, WorldConfig};
pub use trace::{MessageEvent, TraceRecorder};
