//! 2-D shallow-water tsunami simulation — the paper's workload.
//!
//! The paper (§III) traces "a tsunami simulation application \[1\] with 1024
//! processes": a stencil code that performs a 2-dimensional decomposition
//! of a sea region; each process computes the fluid dynamics of its
//! segment and exchanges ghost regions with its neighbours every
//! iteration. This crate implements that workload for real: a linear
//! long-wave (shallow-water) finite-difference solver — the standard model
//! for trans-oceanic tsunami propagation — with block 2-D decomposition
//! and halo exchange over [`hcft_simmpi`].
//!
//! Each stencil has exactly one halo exchange, run over a [`HaloLink`]
//! (a plain [`hcft_simmpi::Comm`], or the replay engine's logging link):
//! [`CartDecomp::exchange`] for the shallow-water solver and
//! [`Heat3dState::step`] for the heat kernel. [`RankState::step`] is the
//! tsunami exchange with real η edges followed by the update; the replay
//! engine and the tests drive it. The traced world in `hcft-core` drives
//! the same exchange shape-only ([`CartDecomp::exchange_shape`]): the
//! traffic depends on the decomposition alone, so it builds no field and
//! sends every edge as [`HaloLink::send_zeros`], which writes no byte.
//!
//! A sequential reference solver ([`sequential::SequentialSim`])
//! verifies that the parallel code computes the *identical* field
//! (bit-for-bit: the per-cell arithmetic is order-identical, only the
//! halo values travel), which is also what makes failure-injection tests
//! meaningful: after recovery, the field must match an uninterrupted run
//! exactly.

#![warn(unreachable_pub)]

pub mod decomp;
pub mod heat3d;
pub mod kernel;
pub mod link;
pub mod params;
pub mod sequential;
pub mod solver;

pub use decomp::CartDecomp;
pub use heat3d::{Heat3dParams, Heat3dState};
pub use kernel::{Dir, RankState};
pub use link::HaloLink;
pub use params::TsunamiParams;
