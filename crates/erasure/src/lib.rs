//! Erasure codes for diskless checkpointing.
//!
//! FTI (the paper's checkpointing substrate) protects node-local
//! checkpoints with Reed–Solomon parity computed inside each encoding
//! cluster, so that the data of failed nodes can be rebuilt from the
//! survivors. This crate implements the full data path:
//!
//! * [`gf256`] — GF(2⁸) arithmetic (tables over the AES-adjacent
//!   polynomial `x⁸+x⁴+x³+x²+1`);
//! * [`kernel`] — the multiply-accumulate kernels behind the hot loops:
//!   4-bit split tables in scalar `u64` and SSSE3/AVX2 `pshufb` forms,
//!   selected at runtime by CPU feature detection;
//! * `matrix` — matrices over the field, Gauss–Jordan inversion and the
//!   Cauchy construction whose every square submatrix is invertible (the
//!   MDS property Reed–Solomon needs);
//! * [`rs`] — systematic Reed–Solomon encode / verify / reconstruct over
//!   byte shards, parallelised with Rayon;
//! * [`timing`] — the encoding-time model calibrated to the paper
//!   (≈6.4 s per GiB per cluster member: 25 s for clusters of 4,
//!   51 s for 8, 102 s for 16, 204 s for 32 — Fig. 3b / Table II).

#![warn(unreachable_pub)]

pub mod gf256;
pub mod kernel;
mod matrix;
pub mod rs;
pub mod timing;

pub use kernel::Kernel;
pub use rs::ReedSolomon;
pub use timing::EncodingModel;
