//! Communication graphs and clusterings for `hcft`.
//!
//! The paper's entire analysis is driven by one artefact: the byte-level
//! communication matrix of the traced application (Fig. 5a/5b). This crate
//! provides:
//!
//! * [`CommMatrix`] — sparse (sender, receiver) → bytes matrix, one
//!   destination-sorted row per sender, with aggregation to a node-level matrix, projection onto rank subsets and
//!   CSV/ASCII rendering;
//! * [`WeightedGraph`] — the undirected weighted graph the partitioner
//!   consumes;
//! * [`CsrGraph`] — the same adjacency packed into sorted compressed
//!   sparse rows: canonical iteration order, binary-search edge lookups
//!   and bulk duplicate-aggregating construction for the partitioner's
//!   inner loops;
//! * [`Clustering`] — a validated partition of ranks into clusters, the
//!   common currency between the clustering strategies, the evaluator, the
//!   message-logging protocol and the checkpointing system;
//! * [`metrics`] — the brain-network measures the paper cites as
//!   inspiration (§IV-A): degree distribution, weighted modularity,
//!   clustering coefficient.

#![warn(unreachable_pub)]

pub mod clustering;
pub mod csr;
pub mod graph;
pub mod matrix;
pub mod metrics;
pub mod patterns;

pub use clustering::Clustering;
pub use csr::CsrGraph;
pub use graph::WeightedGraph;
pub use matrix::CommMatrix;
