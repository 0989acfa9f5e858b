//! Clustering strategies for coupled fast-checkpointing + failure
//! containment — the paper's primary contribution.
//!
//! Section III establishes that one clustering must serve both the hybrid
//! message-logging protocol and the erasure encoder, creating a
//! four-dimensional optimisation problem (logging overhead, recovery
//! cost, encoding time, reliability). This crate implements:
//!
//! * the three straw-man strategies the paper studies and rejects —
//!   [`naive`], [`size_guided`] (consecutive ranks) and [`distributed`]
//!   (round-robin across nodes);
//! * the contribution, [`hierarchical`]: L1 clusters from a node-graph
//!   partition (≥ 4 nodes each, every node wholly inside one cluster)
//!   for containment, and distributed L2 clusters of one-rank-per-node
//!   inside each L1 cluster for encoding (§IV-B, Fig. 6);
//! * [`ClusteringStrategy`], one enum variant per family, each with one
//!   feasibility rule and one build arm, and [`SchemeFamilySpec`], the
//!   one ordered list of sized strategies (Table II, the `/evaluate`
//!   grids, the autotuner's sweep) with the one path that builds and
//!   scores it, in [`stages`] that a long-lived caller keeps between
//!   requests;
//! * the [`FourDScore`] evaluator wiring the message-logging accounting,
//!   restart model, encoding model and catastrophic-failure model
//!   together (Table II);
//! * the baseline requirements of §III and the Fig. 5c normalisation.

#![warn(unreachable_pub)]

pub mod autotune;
pub mod baseline;
pub mod evaluator;
pub mod fastpath;
pub mod stages;
pub mod strategies;
pub mod strategy;

pub use autotune::{autotune, candidates, Candidate};
pub use baseline::BaselineRequirements;
pub use evaluator::{Evaluator, FourDScore};
pub use fastpath::{SchemeIndex, SchemeScratch};
pub use hcft_telemetry::HcftError;
pub use stages::{LayoutStage, TraceStage, LAYOUT_STAGE_ROWS};
pub use strategies::{
    distributed, hierarchical, naive, size_guided, striped, ClusteringScheme, HierarchicalConfig,
    PartitionEngine,
};
pub use strategy::{ClusteringStrategy, FamilyScore, SchemeFamilySpec, StrategyContext};
