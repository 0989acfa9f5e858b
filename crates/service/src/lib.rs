//! The always-on evaluation service.
//!
//! Everything before this crate answered "which clustering should this
//! machine + application use?" as a batch run: trace the job, score the
//! schemes, print Table II, exit. This crate turns that question into a
//! long-running HTTP service so a scheduler (or a person with `curl`)
//! can ask it continuously:
//!
//! ```text
//! GET /evaluate?nodes=64&ppn=16&families=table2
//! ```
//!
//! returns the ranked scheme comparison for that machine shape as
//! deterministic JSON. Four layers make it fast and repeatable:
//!
//! * the **trace cache** ([`hcft_core::trace_cache::TraceCache`]):
//!   tracing the communication matrix is most of a cold request (≈ 8–9
//!   ms in process against a ≈ 2 ms sweep on cold stages at 64 × 16, 2
//!   vCPU);
//!   results are cached behind `Arc` keyed by the stable
//!   [`TracedJobConfig::content_hash`](hcft_core::TracedJobConfig::content_hash),
//!   with single-flight coalescing and deterministic LRU eviction. Each
//!   entry carries its trace's scoring stage (node matrix, node graph,
//!   L1 partitions, hierarchical rows);
//! * the **layout stage** ([`hcft_core::LayoutStage`]): the rows of the
//!   schemes that depend on the placement alone, in a small LRU;
//! * the **family sweep**
//!   ([`SchemeFamilySpec::score_staged`](hcft_core::SchemeFamilySpec::score_staged)):
//!   each request walks the trace once per scheme for its logged bytes,
//!   at the grain the scheme's L1 is defined on (the node matrix when
//!   it keeps every node whole, the rank matrix otherwise), on its own
//!   thread and in spec order, so the response bytes are identical at
//!   any thread count;
//! * the **response memo** ([`EvalService`]): a fully-warm request
//!   (same shape, same family selection) returns the memoized rendered
//!   response without recomputing the sweep.
//!
//! The HTTP layer ([`http`]) is a hand-rolled `std::net` HTTP/1.1
//! server — the workspace is hermetic (no network crates), and the
//! protocol surface needed (GET + query string, `Connection: close`) is
//! tiny. See DESIGN.md §19 for the architecture.

#![warn(unreachable_pub)]

pub mod http;
pub mod request;
pub mod service;

pub use http::{serve, Server};
pub use request::{EvalRequest, FamilySelect};
pub use service::EvalService;
