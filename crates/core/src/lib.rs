//! `hcft-core` — the complete checkpoint-restart framework of the paper.
//!
//! Everything below this crate is a subsystem (runtime, workload, codes,
//! checkpointing, logging, partitioning, reliability); this crate wires
//! them into the two artefacts the evaluation needs:
//!
//! * [`experiment`] — the §V experiment: run the tsunami application with
//!   one FTI encoder rank per node under the traced runtime (FTI-style
//!   init allgather, application stencil, per-checkpoint app→encoder
//!   transfers and encoder↔encoder parity exchange), producing the
//!   communication matrices behind Fig. 5a/5b, plus
//!   [`evaluate_family_sweep`], which scores a [`SchemeFamilySpec`]
//!   (re-exported from `hcft-cluster`) on a trace — Table II and the
//!   `/evaluate` rankings;
//! * [`replay`] — the live replay engine, the one recovery executor:
//!   kill a node, an entire L1 cluster or a PSU group of a *running*
//!   `simmpi` world (its on-disk checkpoints deleted), restore the
//!   restart set from L2-encoded checkpoints (lost shards
//!   Reed–Solomon-rebuilt), and re-feed logged inter-cluster messages
//!   until the restored ranks catch up — bit-identical to an
//!   uninterrupted run, over one failure or a sequence of them, with
//!   cascading failures, corrupted checkpoints and
//!   failures-during-encoding injectable via the unified
//!   [`scenario::FaultScenario`] API.

#![warn(unreachable_pub)]

pub mod campaign;
pub mod experiment;
pub mod replay;
pub mod scenario;
pub mod trace_cache;

pub use campaign::{
    simulate_campaign, simulate_campaign_stats, CampaignConfig, CampaignGrid, CampaignKernel,
    CampaignOutcome, CampaignStats, CiTarget, GridCell, GridStrategy, StopRule, TrialTotals,
    Welford,
};
pub use experiment::{
    evaluate_family_sweep, run_traced_job, TraceKey, TraceResult, TracedJobConfig,
    TracedJobConfigBuilder,
};
pub use hcft_cluster::{FamilyScore, LayoutStage, SchemeFamilySpec, TraceStage};
pub use hcft_telemetry::{Event, EventKind, HcftError, Registry, Snapshot};
pub use replay::{
    Heat3dWorkload, ReplayConfig, ReplayEngine, ReplayOutcome, ReplayWorkload, TsunamiWorkload,
};
pub use scenario::{FaultScenario, FaultScenarioBuilder, FaultTarget, Injection};
