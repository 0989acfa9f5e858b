//! Interconnect topology models: hop distances between nodes.
//!
//! §II-C2 of the paper: "processes communicating frequently together
//! should be located as physical neighbors in the machine" (Bhatelé et
//! al. \[4\], Solomonik et al. \[26\]). These models provide the distance
//! function that a topology-aware mapper optimises against — a three-level
//! fat tree (TSUBAME2's class of network) and a 3-D torus (the other
//! dominant HPC topology of the era, e.g. Blue Gene / Cray).

use crate::ids::NodeId;

/// A network topology with a node-to-node hop metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkTopology {
    /// Three-level fat tree: nodes under leaf switches, leaves under
    /// pods, pods under the core.
    FatTree {
        /// Nodes attached to one leaf switch.
        nodes_per_switch: usize,
        /// Leaf switches in one pod.
        switches_per_pod: usize,
    },
    /// 3-D torus with wrap-around links; node ids map to coordinates
    /// row-major (x fastest).
    Torus3D {
        /// Extent in each dimension.
        dims: (usize, usize, usize),
    },
}

impl NetworkTopology {
    /// A fat tree shaped like TSUBAME2's QDR InfiniBand fabric
    /// (edge switches of ~16 nodes, pods of ~12 switches).
    pub fn tsubame2_like() -> Self {
        NetworkTopology::FatTree {
            nodes_per_switch: 16,
            switches_per_pod: 12,
        }
    }

    /// Switch hops between two nodes (0 for the same node).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match *self {
            NetworkTopology::FatTree {
                nodes_per_switch,
                switches_per_pod,
            } => {
                let (sa, sb) = (a.idx() / nodes_per_switch, b.idx() / nodes_per_switch);
                if sa == sb {
                    return 2; // up to the leaf, down again
                }
                let (pa, pb) = (sa / switches_per_pod, sb / switches_per_pod);
                if pa == pb {
                    4
                } else {
                    6
                }
            }
            NetworkTopology::Torus3D { dims } => {
                let coord = |n: usize| (n % dims.0, (n / dims.0) % dims.1, n / (dims.0 * dims.1));
                let ring = |x: usize, y: usize, extent: usize| {
                    let d = x.abs_diff(y);
                    d.min(extent - d) as u32
                };
                let (ax, ay, az) = coord(a.idx());
                let (bx, by, bz) = coord(b.idx());
                debug_assert!(az < dims.2 && bz < dims.2, "node beyond torus");
                ring(ax, bx, dims.0) + ring(ay, by, dims.1) + ring(az, bz, dims.2)
            }
        }
    }

    /// The largest possible hop count in this topology (diameter). For
    /// the fat tree this is the constant core traversal.
    pub fn diameter(&self) -> u32 {
        match *self {
            NetworkTopology::FatTree { .. } => 6,
            NetworkTopology::Torus3D { dims } => (dims.0 / 2 + dims.1 / 2 + dims.2 / 2) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_hop_classes() {
        let t = NetworkTopology::FatTree {
            nodes_per_switch: 4,
            switches_per_pod: 2,
        };
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 2); // same leaf
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 4); // same pod
        assert_eq!(t.hops(NodeId(0), NodeId(8)), 6); // across pods
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn torus_wraps_around() {
        let t = NetworkTopology::Torus3D { dims: (4, 4, 2) };
        // (0,0,0) to (3,0,0): wrap distance 1, not 3.
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 1);
        // (0,0,0) to (2,0,0): distance 2 either way.
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 2);
        // (0,0,0) to (1,1,1): 1+1+1.
        let n = 1 + 4 + 16;
        assert_eq!(t.hops(NodeId(0), NodeId(n as u32)), 3);
        assert_eq!(t.diameter(), 2 + 2 + 1);
    }

    #[test]
    fn hops_are_symmetric() {
        let topos = [
            NetworkTopology::tsubame2_like(),
            NetworkTopology::Torus3D { dims: (3, 3, 3) },
        ];
        for t in &topos {
            for a in 0..27 {
                for b in 0..27 {
                    assert_eq!(
                        t.hops(NodeId::from(a), NodeId::from(b)),
                        t.hops(NodeId::from(b), NodeId::from(a))
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_on_torus() {
        let t = NetworkTopology::Torus3D { dims: (4, 2, 2) };
        for a in 0..16 {
            for b in 0..16 {
                for c in 0..16 {
                    let (a, b, c) = (NodeId::from(a), NodeId::from(b), NodeId::from(c));
                    assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
                }
            }
        }
    }
}
