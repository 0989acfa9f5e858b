//! Hardware description of the target machine.
//!
//! [`MachineSpec::tsubame2`] encodes Table I of the paper. The spec carries
//! exactly the quantities the fault-tolerance models consume: node count,
//! cores, memory, local-storage write bandwidth (SSD RAID0), network rails
//! and the shared parallel-file-system bandwidth. Failure domains (nodes
//! sharing a power supply) are modelled as fixed-size groups of consecutive
//! nodes, which is how blade chassis are wired in practice.

use crate::ids::NodeId;

/// A storage device or tier available to the checkpointing system.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageSpec {
    /// Human-readable device name (e.g. "SSD RAID0", "Lustre").
    pub name: String,
    /// Capacity per node in GiB (`None` for shared/global storage).
    pub capacity_gib: Option<f64>,
    /// Sustained write bandwidth in MiB/s. For shared storage this is the
    /// *aggregate* bandwidth divided among all writers.
    pub write_mib_s: f64,
    /// Whether the device is node-local (lost when the node fails).
    pub node_local: bool,
}

/// Interconnect description.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkSpec {
    /// Name, e.g. "QDR InfiniBand".
    pub name: String,
    /// Number of independent rails.
    pub rails: u32,
    /// Per-rail bandwidth in GiB/s.
    pub rail_gib_s: f64,
}

impl NetworkSpec {
    /// Total injection bandwidth per node in GiB/s.
    pub fn total_gib_s(&self) -> f64 {
        self.rails as f64 * self.rail_gib_s
    }
}

/// Full machine description.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Machine name.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Hardware threads per core (TSUBAME2 uses hyperthreading: 2).
    pub threads_per_core: u32,
    /// Memory per node in GiB.
    pub mem_gib_per_node: f64,
    /// GPUs per node (unused by the FT models, kept for Table I fidelity).
    pub gpus_per_node: u32,
    /// Node-local storage (checkpoint level 1).
    pub local_storage: StorageSpec,
    /// Shared parallel file system (checkpoint level 3).
    pub pfs: StorageSpec,
    /// Interconnect.
    pub network: NetworkSpec,
    /// Number of consecutive nodes sharing one power supply (a correlated
    /// failure domain). TSUBAME2 blades pair nodes per PSU.
    pub nodes_per_psu: u32,
}

impl MachineSpec {
    /// TSUBAME2 as described in Table I of the paper.
    pub fn tsubame2() -> Self {
        MachineSpec {
            name: "TSUBAME2".to_string(),
            nodes: 1408,
            cores_per_node: 12,
            threads_per_core: 2,
            mem_gib_per_node: 55.8,
            gpus_per_node: 3,
            local_storage: StorageSpec {
                name: "SSD 60GB x 2 (RAID0)".to_string(),
                capacity_gib: Some(120.0),
                write_mib_s: 360.0,
                node_local: true,
            },
            pfs: StorageSpec {
                name: "Lustre (5x DDN DFA10000)".to_string(),
                capacity_gib: None,
                write_mib_s: 10.0 * 1024.0,
                node_local: false,
            },
            network: NetworkSpec {
                name: "Dual rail QDR InfiniBand".to_string(),
                rails: 2,
                rail_gib_s: 4.0,
            },
            nodes_per_psu: 2,
        }
    }

    /// A small synthetic machine, handy for tests: `nodes` nodes with
    /// `cores` cores each, SSD-class local storage and a modest PFS.
    pub fn synthetic(nodes: u32, cores: u32) -> Self {
        MachineSpec {
            name: format!("synthetic-{nodes}x{cores}"),
            nodes,
            cores_per_node: cores,
            threads_per_core: 1,
            mem_gib_per_node: 32.0,
            gpus_per_node: 0,
            local_storage: StorageSpec {
                name: "local SSD".to_string(),
                capacity_gib: Some(100.0),
                write_mib_s: 400.0,
                node_local: true,
            },
            pfs: StorageSpec {
                name: "PFS".to_string(),
                capacity_gib: None,
                write_mib_s: 4096.0,
                node_local: false,
            },
            network: NetworkSpec {
                name: "generic".to_string(),
                rails: 1,
                rail_gib_s: 4.0,
            },
            nodes_per_psu: 2,
        }
    }

    /// Maximum processes launchable per node (cores × hw threads).
    pub(crate) fn max_procs_per_node(&self) -> u32 {
        self.cores_per_node * self.threads_per_core
    }

    /// The power-supply (correlated failure) group of a node. Nodes in the
    /// same group are assumed to fail together when the PSU fails.
    pub(crate) fn psu_group_of(&self, node: NodeId) -> u32 {
        node.0 / self.nodes_per_psu.max(1)
    }

    /// All nodes in the same PSU group as `node`, including itself.
    pub fn psu_peers(&self, node: NodeId) -> Vec<NodeId> {
        let g = self.psu_group_of(node);
        let lo = g * self.nodes_per_psu;
        let hi = ((g + 1) * self.nodes_per_psu).min(self.nodes);
        (lo..hi).map(NodeId).collect()
    }

    /// Render the spec as the paper's Table I (architecture summary).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let push = |s: &mut String, k: &str, v: String| {
            s.push_str(&format!("{k:<12} {v}\n"));
        };
        push(&mut s, "Machine", self.name.clone());
        push(&mut s, "Nodes", format!("{} compute nodes", self.nodes));
        push(
            &mut s,
            "CPU",
            format!(
                "{} cores/node ({} hw threads)",
                self.cores_per_node,
                self.max_procs_per_node()
            ),
        );
        push(
            &mut s,
            "Mem",
            format!(
                "{:.1} GiB/node (total {:.2} TiB)",
                self.mem_gib_per_node,
                self.mem_gib_per_node * self.nodes as f64 / 1024.0
            ),
        );
        push(&mut s, "GPU", format!("{} GPUs/node", self.gpus_per_node));
        push(
            &mut s,
            "Local",
            format!(
                "{} — {:.0} MiB/s write{}",
                self.local_storage.name,
                self.local_storage.write_mib_s,
                self.local_storage
                    .capacity_gib
                    .map(|c| format!(", {c:.0} GiB"))
                    .unwrap_or_default()
            ),
        );
        push(
            &mut s,
            "Network",
            format!(
                "{} ({} x {:.0} GiB/s)",
                self.network.name, self.network.rails, self.network.rail_gib_s
            ),
        );
        push(
            &mut s,
            "PFS",
            format!(
                "{} — {:.1} GiB/s aggregate write",
                self.pfs.name,
                self.pfs.write_mib_s / 1024.0
            ),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsubame2_matches_table1() {
        let m = MachineSpec::tsubame2();
        assert_eq!(m.nodes, 1408);
        assert_eq!(m.cores_per_node, 12);
        assert_eq!(m.max_procs_per_node(), 24);
        assert_eq!(m.gpus_per_node, 3);
        assert_eq!(m.local_storage.write_mib_s, 360.0);
        assert!((m.pfs.write_mib_s - 10240.0).abs() < 1e-9);
        assert_eq!(m.network.total_gib_s(), 8.0);
    }

    #[test]
    fn psu_groups_pair_consecutive_nodes() {
        let m = MachineSpec::synthetic(6, 8);
        assert_eq!(m.psu_group_of(NodeId(0)), m.psu_group_of(NodeId(1)));
        assert_ne!(m.psu_group_of(NodeId(1)), m.psu_group_of(NodeId(2)));
        assert_eq!(m.psu_peers(NodeId(3)), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn psu_group_clamps_at_machine_end() {
        let mut m = MachineSpec::synthetic(5, 4);
        m.nodes_per_psu = 2;
        // Last group only has one node.
        assert_eq!(m.psu_peers(NodeId(4)), vec![NodeId(4)]);
    }

    #[test]
    fn render_table_mentions_key_fields() {
        let t = MachineSpec::tsubame2().render_table();
        assert!(t.contains("TSUBAME2"));
        assert!(t.contains("1408"));
        assert!(t.contains("360"));
    }
}
