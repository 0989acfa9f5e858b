//! Graph partitioning for failure-containment clustering.
//!
//! The paper's L1 clustering applies "the partitioning algorithm and cost
//! function presented in \[24\]" (Ropars et al., Euro-Par'11) to the
//! node-based communication graph: minimise logged (cut) bytes subject to
//! cluster-size constraints, balancing against the cost of restarting a
//! cluster. This crate provides two engines and the cost function:
//!
//! * [`multilevel`] — a METIS-style multilevel k-way partitioner
//!   (heavy-edge-matching coarsening → greedy region growing →
//!   Fiduccia–Mattheyses boundary refinement at every uncoarsening step);
//! * [`modularity`] — Clauset–Newman–Moore greedy agglomeration with
//!   size caps, which discovers the number of clusters by itself (closer
//!   in spirit to the community-detection view of §IV-A);
//! * [`cost`] — the logging-vs-restart objective used to pick between
//!   candidate partitions.

#![warn(unreachable_pub)]

/// This call site's telemetry counters, looked up by name once per
/// process (a lookup takes the registry's lock); evaluates to
/// `&'static [Arc<Counter>; N]` in the order named.
macro_rules! counters {
    ($($name:literal),+ $(,)?) => {{
        const N: usize = [$($name),+].len();
        static HANDLES: std::sync::OnceLock<[std::sync::Arc<hcft_telemetry::Counter>; N]> =
            std::sync::OnceLock::new();
        HANDLES.get_or_init(|| {
            let reg = hcft_telemetry::Registry::global();
            [$(reg.counter($name)),+]
        })
    }};
}

mod coarsen;
pub mod cost;
mod gain;
pub mod mapping;
pub mod modularity;
pub mod multilevel;
pub mod reference;
pub mod refine;

pub use cost::{partition_cost, CostWeights};
pub use mapping::{mapping_cost, topology_aware_map};
pub use modularity::{modularity_clusters, modularity_clusters_reference};
pub use multilevel::{MultilevelConfig, MultilevelPartitioner};

use hcft_graph::WeightedGraph;

/// Size constraints on partitions, in units of vertex weight (for the
/// node graph: nodes, matching the paper's "minimum of 4 nodes per L1
/// cluster").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeBounds {
    /// Minimum total vertex weight per part.
    pub min_weight: u64,
    /// Maximum total vertex weight per part.
    pub max_weight: u64,
}

impl SizeBounds {
    /// Bounds `[min, max]`.
    ///
    /// # Panics
    /// Panics if `min > max` or `min == 0`.
    pub fn new(min_weight: u64, max_weight: u64) -> Self {
        assert!(min_weight > 0 && min_weight <= max_weight, "bad bounds");
        SizeBounds {
            min_weight,
            max_weight,
        }
    }
}

/// Validate that `part_of` is a complete assignment into non-empty parts
/// respecting `bounds` over `g`'s vertex weights. Returns part weights.
pub fn check_partition(
    g: &WeightedGraph,
    part_of: &[usize],
    bounds: Option<SizeBounds>,
) -> Result<Vec<u64>, String> {
    if part_of.len() != g.n() {
        return Err(format!(
            "assignment covers {} of {} vertices",
            part_of.len(),
            g.n()
        ));
    }
    let k = part_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut weights = vec![0u64; k];
    for (u, &p) in part_of.iter().enumerate() {
        weights[p] += g.vertex_weight(u);
    }
    if weights.contains(&0) {
        return Err("empty part".to_string());
    }
    if let Some(b) = bounds {
        for (p, &w) in weights.iter().enumerate() {
            if w < b.min_weight || w > b.max_weight {
                return Err(format!(
                    "part {p} weight {w} outside [{}, {}]",
                    b.min_weight, b.max_weight
                ));
            }
        }
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_partition_accepts_valid() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let w = check_partition(&g, &[0, 0, 1, 1], Some(SizeBounds::new(2, 2))).unwrap();
        assert_eq!(w, vec![2, 2]);
    }

    #[test]
    fn check_partition_rejects_undersized() {
        let g = WeightedGraph::new(3);
        let r = check_partition(&g, &[0, 0, 1], Some(SizeBounds::new(2, 3)));
        assert!(r.is_err());
    }

    #[test]
    fn check_partition_rejects_wrong_length() {
        let g = WeightedGraph::new(3);
        assert!(check_partition(&g, &[0, 0], None).is_err());
    }

    #[test]
    #[should_panic(expected = "bad bounds")]
    fn bounds_validate() {
        SizeBounds::new(5, 3);
    }
}
