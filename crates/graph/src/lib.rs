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
//!   consumes, with one neighbour-sorted row per vertex whichever way it
//!   was built: canonical iteration order, binary-search edge lookups and
//!   a bulk duplicate-folding constructor for graph contraction;
//! * [`Clustering`] — a validated partition of ranks into clusters, the
//!   common currency between the clustering strategies, the evaluator, the
//!   message-logging protocol and the checkpointing system;
//! * [`metrics`] — the brain-network measures the paper cites as
//!   inspiration (§IV-A): degree distribution, weighted modularity,
//!   clustering coefficient.

#![warn(unreachable_pub)]

pub mod clustering;
pub mod graph;
pub mod matrix;
pub mod metrics;
pub mod patterns;

pub use clustering::Clustering;
pub use graph::WeightedGraph;
pub use matrix::CommMatrix;
