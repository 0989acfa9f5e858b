//! Failure and reliability models.
//!
//! Implements the "catastrophic failure model" the paper takes from FTI
//! \[3\] and uses for Fig. 4a and Table II's probability column: a failure
//! event is *catastrophic* when some erasure-coding cluster loses more
//! members than its parity can rebuild, so the checkpoint data is gone and
//! the application must fall back to an old PFS checkpoint (or die).
//!
//! * [`events`] — the distribution of failure event classes (transient /
//!   1-node / correlated j-node), calibrated to the FTI observation that
//!   "most failures … affect only … one single node or a small set of
//!   nodes";
//! * `combinatorics` — exact hypergeometric machinery;
//! * [`model`] — P(catastrophic) per clustering, exact: the failure sets
//!   of each size that kill no cluster are counted in integers, one
//!   polynomial per node-disjoint failure component, multiplied; and
//!   [`EventJudge`], the one judge of whether a single event kills one;
//! * [`sampler`] — the one node sampler, which the campaign kernel draws
//!   its failed nodes with;
//! * [`arrivals`] — failure arrival processes (exponential and Weibull)
//!   for end-to-end failure injection.

#![warn(unreachable_pub)]

pub mod arrivals;
mod combinatorics;
pub mod efficiency;
pub mod events;
pub mod model;
pub mod sampler;

pub use arrivals::FailureArrivals;
pub use efficiency::EfficiencyModel;
pub use events::{ClassSampler, EventDistribution};
pub use model::{ClusteringDigest, EventJudge, JudgeScratch, ReliabilityModel};
pub use sampler::NodeSampler;
