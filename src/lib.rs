//! # hcft — Hierarchical Clustering for Fault Tolerance
//!
//! A complete, from-scratch reproduction of *"Hierarchical Clustering
//! Strategies for Fault Tolerance in Large Scale HPC Systems"*
//! (Bautista-Gomez, Ropars, Maruyama, Cappello, Matsuoka — IEEE CLUSTER
//! 2012), including every substrate the paper builds on:
//!
//! | module | contents |
//! |---|---|
//! | [`topology`] | machine model (TSUBAME2 Table I), rank placement, FTI job layout |
//! | [`graph`] | communication matrices, weighted graphs, clusterings, network metrics |
//! | [`simmpi`] | MPI-like runtime multiplexing rank tasks onto an M:N worker pool, with MPICH2-traced barrier/allgather/split and byte-exact tracing |
//! | [`tsunami`] | 2-D shallow-water stencil workload (parallel solver bit-identical to its sequential reference) |
//! | [`erasure`] | GF(2⁸) arithmetic, the Reed–Solomon erasure code, paper-calibrated encoding-time model |
//! | [`checkpoint`] | FTI-style multi-level checkpoint store (local / RS-encoded / PFS) over real files |
//! | [`msglog`] | HydEE-style hybrid protocol: partial sender-based logging, restart sets, replay checks |
//! | [`partition`] | multilevel k-way graph partitioner, CNM modularity clustering, the \[24\] cost function |
//! | [`cluster`] | **the paper's contribution**: naïve / size-guided / distributed / hierarchical clustering, the `SchemeFamilySpec` list of sized strategies, the 4-D evaluator and §III baseline |
//! | [`reliability`] | failure-event distributions and the catastrophic-failure probability model of \[3\] |
//! | [`telemetry`] | zero-dependency observability: counters, histograms, failure/recovery event journal, JSON export, [`HcftError`](telemetry::HcftError) |
//! | [`core`] | the wired-together framework: §V traced experiment, Monte-Carlo campaign and the live kill-and-replay engine |
//! | [`service`] | always-on HTTP evaluation service: traced-matrix cache + concurrent strategy-family fan-out (`repro serve`) |
//!
//! ## Quickstart
//!
//! ```
//! use hcft::prelude::*;
//!
//! // Trace a small FTI-style job (app ranks + one encoder per node).
//! let trace = run_traced_job(&TracedJobConfig::small(8, 4));
//!
//! // Build the paper's hierarchical clustering from the node graph.
//! let placement = trace.layout.app_placement();
//! let node_graph =
//!     WeightedGraph::from_comm_matrix(&trace.app.aggregate_by_node(&placement));
//! let scheme = hierarchical(&placement, &node_graph, &HierarchicalConfig::default());
//!
//! // Score it on the four dimensions of §III.
//! let score = Evaluator::new(trace.app.clone(), placement).evaluate(&scheme);
//! assert!(BaselineRequirements::default().meets(&score)[2], "fast encoding");
//! ```

#![warn(unreachable_pub)]

pub use hcft_checkpoint as checkpoint;
pub use hcft_cluster as cluster;
pub use hcft_core as core;
pub use hcft_erasure as erasure;
pub use hcft_graph as graph;
pub use hcft_msglog as msglog;
pub use hcft_partition as partition;
pub use hcft_reliability as reliability;
pub use hcft_service as service;
pub use hcft_simmpi as simmpi;
pub use hcft_simtime as simtime;
pub use hcft_telemetry as telemetry;
pub use hcft_topology as topology;
pub use hcft_tsunami as tsunami;

/// The most commonly used items in one import.
///
/// Covers the full fault-injection surface: describe a failure once with
/// [`FaultScenario`](hcft_core::scenario::FaultScenario), then hand it to
/// the live [`ReplayEngine`](hcft_core::replay::ReplayEngine) — alone or
/// as one of a sequence — or to campaign analysis.
pub mod prelude {
    pub use hcft_checkpoint::{CheckpointStore, Level, MultilevelCheckpointer};
    pub use hcft_cluster::{
        autotune, candidates, distributed, hierarchical, naive, size_guided, striped,
        BaselineRequirements, ClusteringScheme, ClusteringStrategy, Evaluator, FamilyScore,
        FourDScore, HierarchicalConfig, SchemeFamilySpec, SchemeIndex, StrategyContext,
    };
    pub use hcft_core::campaign::{
        simulate_campaign, simulate_campaign_stats, CampaignConfig, CampaignGrid, CampaignOutcome,
        CampaignStats, CiTarget, GridStrategy, StopRule,
    };
    pub use hcft_core::experiment::{run_traced_job, TraceResult, TracedJobConfig};
    pub use hcft_core::replay::{
        Heat3dWorkload, ReplayConfig, ReplayEngine, ReplayOutcome, ReplayWorkload, TsunamiWorkload,
    };
    pub use hcft_core::scenario::{FaultScenario, FaultScenarioBuilder, FaultTarget, Injection};
    pub use hcft_erasure::{EncodingModel, ReedSolomon};
    pub use hcft_graph::{Clustering, CommMatrix, WeightedGraph};
    pub use hcft_msglog::{check_replay, Containment, HybridProtocol, ReplayReport, SenderLog};
    pub use hcft_partition::{MultilevelConfig, MultilevelPartitioner, SizeBounds};
    pub use hcft_reliability::{EventDistribution, FailureArrivals, ReliabilityModel};
    pub use hcft_service::{EvalRequest, EvalService, FamilySelect};
    pub use hcft_simmpi::{Comm, World, WorldConfig};
    pub use hcft_telemetry::{EventKind, HcftError, Registry};
    pub use hcft_topology::{JobLayout, MachineSpec, NetworkTopology, NodeId, Placement, Rank};
    pub use hcft_tsunami::{HaloLink, Heat3dParams, RankState, TsunamiParams};
}
