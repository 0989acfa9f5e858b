//! Machine topology model for `hcft`.
//!
//! The paper evaluates on TSUBAME2 (Table I). Every metric it reports is a
//! function of the *logical* topology — which MPI rank lives on which
//! physical node, which nodes share failure domains (power supplies), and
//! the bandwidths of the storage devices used by the multi-level
//! checkpointer. This crate models exactly that: [`MachineSpec`] describes
//! the hardware, [`Placement`] maps ranks to nodes, and [`JobLayout`]
//! describes an FTI-style job in which every node dedicates one rank to
//! checkpoint encoding.

#![warn(unreachable_pub)]

pub mod ids;
pub mod layout;
pub mod machine;
pub mod network;
pub mod placement;
pub mod synthetic;

pub use ids::{NodeId, Rank};
pub use layout::{JobLayout, Role};
pub use machine::{MachineSpec, NetworkSpec, StorageSpec};
pub use network::NetworkTopology;
pub use placement::{Placement, PlacementStrategy};
pub use synthetic::SyntheticGraph;
