//! `FaultScenario` — one description of "what fails, when, and how it is
//! correlated", consumed by every fault-injection entry point.
//!
//! Build one with [`FaultScenario::at`], aim it at a node, a whole L1
//! cluster, or a PSU group ([`FaultTarget`]), attach mid-recovery
//! injections ([`Injection`]), and hand the value to the
//! [`crate::replay::ReplayEngine`] — alone
//! ([`run`](crate::replay::ReplayEngine::run)) or as one of several
//! strikes on the same run
//! ([`run_sequence`](crate::replay::ReplayEngine::run_sequence)) — or to
//! campaign-style analysis ([`FaultScenario::is_catastrophic`], which asks
//! the campaign kernel's judge, [`SchemeIndex`]).
//!
//! Targets are *symbolic* until [`FaultScenario::failed_nodes`] resolves
//! them against a concrete placement + clustering (+ machine, for PSU
//! correlation), so one scenario is reusable across schemes and scales.

use hcft_cluster::{ClusteringScheme, SchemeIndex};
use hcft_telemetry::HcftError;
use hcft_topology::{MachineSpec, NodeId, Placement, Rank};

/// What fails. Symbolic — resolved against a placement/scheme at use time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A single compute node.
    Node(NodeId),
    /// Every node hosting a member of L1 cluster `index` — the paper's
    /// "kill a whole cluster" experiment.
    L1Cluster(usize),
    /// Every node hosting a member of the L1 cluster containing `rank`.
    L1ClusterOf(Rank),
    /// All nodes sharing a power supply with `node` — the correlated
    /// failure mode of §II (requires a [`MachineSpec`] at resolve time).
    PsuGroupOf(NodeId),
}

/// A secondary fault injected on top of the primary loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Injection {
    /// `node` also fails after the recovery has replayed `after_steps`
    /// iterations — a cascading failure mid-recovery. Recovery must
    /// enlarge the failed set and start over.
    CascadeAfter {
        /// The additional node that fails.
        node: NodeId,
        /// Replayed iterations before the cascade strikes.
        after_steps: u64,
    },
    /// `node`'s local checkpoint shards are silently corrupted (valid
    /// frame, wrong payload length) before recovery reads them. Detected
    /// only when `restore_state` rejects the payload with
    /// [`HcftError::Recovery`]; recovery quarantines the shard and
    /// rebuilds it from group redundancy.
    CorruptCheckpoint {
        /// The surviving node whose shards are corrupted.
        node: NodeId,
    },
    /// The primary failure strikes *during* L2 encoding of the checkpoint
    /// taken at the failure phase: locals are written, but the failed
    /// node's groups never finish their parity, so that epoch is
    /// incomplete and recovery must fall back to the previous one (with
    /// correspondingly longer log replay).
    FailDuringEncoding,
}

/// A complete fault scenario: primary targets, timing, and injections.
///
/// Build with [`FaultScenario::at`]:
///
/// ```
/// use hcft_core::scenario::FaultScenario;
/// use hcft_topology::{NodeId, Rank};
///
/// let scenario = FaultScenario::at(9)
///     .l1_cluster_of(Rank(12))
///     .cascade(NodeId(0), 2)
///     .build();
/// assert_eq!(scenario.at_phase(), 9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultScenario {
    at_phase: u64,
    targets: Vec<FaultTarget>,
    injections: Vec<Injection>,
}

impl FaultScenario {
    /// Start building a scenario whose primary failure strikes when the
    /// application reaches iteration `phase`.
    pub fn at(phase: u64) -> FaultScenarioBuilder {
        FaultScenarioBuilder {
            s: FaultScenario {
                at_phase: phase,
                targets: Vec::new(),
                injections: Vec::new(),
            },
        }
    }

    /// Shorthand: a single node lost at `phase`, no injections.
    pub fn node_loss(node: NodeId, phase: u64) -> Self {
        Self::at(phase).node(node).build()
    }

    /// Shorthand: several nodes lost simultaneously at `phase`.
    pub fn nodes_loss(nodes: &[NodeId], phase: u64) -> Self {
        let mut b = Self::at(phase);
        for &n in nodes {
            b = b.node(n);
        }
        b.build()
    }

    /// Iteration at which the primary failure strikes.
    pub fn at_phase(&self) -> u64 {
        self.at_phase
    }

    /// The attached injections.
    pub(crate) fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Is a [`Injection::FailDuringEncoding`] attached?
    pub(crate) fn fails_during_encoding(&self) -> bool {
        self.injections
            .iter()
            .any(|i| matches!(i, Injection::FailDuringEncoding))
    }

    /// Resolve the primary targets to concrete failed nodes, in target
    /// order without duplicates; an L1 cluster's nodes come ascending
    /// ([`Placement::nodes_of`]).
    ///
    /// `machine` is only consulted for [`FaultTarget::PsuGroupOf`];
    /// resolving a PSU target without one is a configuration error, and
    /// so is a scheme whose L1 or L2 clustering covers another number of
    /// ranks than `placement` holds.
    pub fn failed_nodes(
        &self,
        placement: &Placement,
        scheme: &ClusteringScheme,
        machine: Option<&MachineSpec>,
    ) -> Result<Vec<NodeId>, HcftError> {
        let n = placement.nprocs();
        if scheme.l1.nprocs() != n || scheme.l2.nprocs() != n {
            return Err(HcftError::Config(format!(
                "clustering scheme covers {} (L1) / {} (L2) ranks, the placement has {n}",
                scheme.l1.nprocs(),
                scheme.l2.nprocs()
            )));
        }
        if self.targets.is_empty() {
            return Err(HcftError::Config(
                "fault scenario has no targets".to_string(),
            ));
        }
        let mut nodes: Vec<NodeId> = Vec::new();
        let push = |n: NodeId, nodes: &mut Vec<NodeId>| -> Result<(), HcftError> {
            if n.idx() >= placement.nodes() {
                return Err(HcftError::Config(format!(
                    "fault target node {} outside placement ({} nodes)",
                    n.idx(),
                    placement.nodes()
                )));
            }
            if !nodes.contains(&n) {
                nodes.push(n);
            }
            Ok(())
        };
        for t in &self.targets {
            match t {
                FaultTarget::Node(n) => push(*n, &mut nodes)?,
                FaultTarget::L1Cluster(c) => {
                    if *c >= scheme.l1.len() {
                        return Err(HcftError::Config(format!(
                            "fault target L1 cluster {c} out of range ({} clusters)",
                            scheme.l1.len()
                        )));
                    }
                    for n in placement.nodes_of(scheme.l1.members(*c)) {
                        push(n, &mut nodes)?;
                    }
                }
                FaultTarget::L1ClusterOf(r) => {
                    if r.idx() >= placement.nprocs() {
                        return Err(HcftError::Config(format!(
                            "fault target rank {} outside world ({} ranks)",
                            r.idx(),
                            placement.nprocs()
                        )));
                    }
                    let c = scheme.l1.cluster_of(*r);
                    for n in placement.nodes_of(scheme.l1.members(c)) {
                        push(n, &mut nodes)?;
                    }
                }
                FaultTarget::PsuGroupOf(n) => {
                    let machine = machine.ok_or_else(|| {
                        HcftError::Config(
                            "PSU-correlated fault target needs a MachineSpec".to_string(),
                        )
                    })?;
                    for peer in machine.psu_peers(*n) {
                        // A PSU group can extend past the placed nodes
                        // (the machine is bigger than the job).
                        if peer.idx() < placement.nodes() {
                            push(peer, &mut nodes)?;
                        }
                    }
                }
            }
        }
        Ok(nodes)
    }

    /// Would the primary loss defeat the scheme's L2 redundancy? Judged
    /// by `index`, the [`SchemeIndex`] of `scheme` on `placement`: build
    /// it once and judge every event of that scheme through it. An index
    /// of another machine size is a `Config` error. Cascades are not
    /// included: they strike later, possibly after partial recovery.
    pub fn is_catastrophic(
        &self,
        placement: &Placement,
        scheme: &ClusteringScheme,
        machine: Option<&MachineSpec>,
        index: &SchemeIndex,
    ) -> Result<bool, HcftError> {
        let nodes = self.failed_nodes(placement, scheme, machine)?;
        if index.nodes() != placement.nodes() {
            return Err(HcftError::Config(format!(
                "scheme index covers {} nodes, placement has {}",
                index.nodes(),
                placement.nodes()
            )));
        }
        let failed: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        Ok(index.defeated_by(&failed, &mut index.scratch()))
    }
}

/// Builder for [`FaultScenario`]; see [`FaultScenario::at`].
#[derive(Clone, Debug)]
pub struct FaultScenarioBuilder {
    s: FaultScenario,
}

impl FaultScenarioBuilder {
    /// Fail a single node.
    pub fn node(mut self, n: NodeId) -> Self {
        self.s.targets.push(FaultTarget::Node(n));
        self
    }

    /// Fail every node hosting L1 cluster `index`.
    pub fn l1_cluster(mut self, index: usize) -> Self {
        self.s.targets.push(FaultTarget::L1Cluster(index));
        self
    }

    /// Fail every node hosting the L1 cluster containing `rank`.
    pub fn l1_cluster_of(mut self, rank: Rank) -> Self {
        self.s.targets.push(FaultTarget::L1ClusterOf(rank));
        self
    }

    /// Fail the whole PSU group of `node` (correlated loss).
    pub fn psu_group_of(mut self, node: NodeId) -> Self {
        self.s.targets.push(FaultTarget::PsuGroupOf(node));
        self
    }

    /// Add a cascading failure: `node` dies after recovery has replayed
    /// `after_steps` iterations.
    pub fn cascade(mut self, node: NodeId, after_steps: u64) -> Self {
        self.s
            .injections
            .push(Injection::CascadeAfter { node, after_steps });
        self
    }

    /// Silently corrupt `node`'s local checkpoint shards before recovery.
    pub fn corrupt_checkpoint(mut self, node: NodeId) -> Self {
        self.s
            .injections
            .push(Injection::CorruptCheckpoint { node });
        self
    }

    /// Make the primary failure strike during L2 encoding of the
    /// checkpoint at the failure phase.
    pub fn fail_during_encoding(mut self) -> Self {
        self.s.injections.push(Injection::FailDuringEncoding);
        self
    }

    /// Finish the scenario.
    pub fn build(self) -> FaultScenario {
        self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_cluster::naive;

    fn setup() -> (Placement, ClusteringScheme) {
        // 8 nodes × 4 ranks; naive clusters of 8 ranks = 2 nodes each.
        (Placement::block(8, 4), naive(32, 8))
    }

    #[test]
    fn node_target_resolves_to_the_node() {
        let (p, s) = setup();
        let sc = FaultScenario::node_loss(NodeId(3), 5);
        assert_eq!(sc.failed_nodes(&p, &s, None).unwrap(), vec![NodeId(3)]);
    }

    #[test]
    fn l1_cluster_target_covers_all_hosting_nodes() {
        let (p, s) = setup();
        let sc = FaultScenario::at(5).l1_cluster(1).build();
        assert_eq!(
            sc.failed_nodes(&p, &s, None).unwrap(),
            vec![NodeId(2), NodeId(3)]
        );
        // Same thing via a member rank.
        let sc2 = FaultScenario::at(5).l1_cluster_of(Rank(10)).build();
        assert_eq!(
            sc.failed_nodes(&p, &s, None).unwrap(),
            sc2.failed_nodes(&p, &s, None).unwrap()
        );
    }

    #[test]
    fn psu_target_needs_machine_and_expands_peers() {
        let (p, s) = setup();
        let sc = FaultScenario::at(5).psu_group_of(NodeId(4)).build();
        assert!(sc.failed_nodes(&p, &s, None).is_err());
        let mut machine = MachineSpec::tsubame2();
        machine.nodes_per_psu = 2;
        let nodes = sc.failed_nodes(&p, &s, Some(&machine)).unwrap();
        assert_eq!(nodes, vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn duplicate_targets_collapse() {
        let (p, s) = setup();
        let sc = FaultScenario::at(5).node(NodeId(2)).l1_cluster(1).build();
        assert_eq!(
            sc.failed_nodes(&p, &s, None).unwrap(),
            vec![NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn out_of_range_targets_are_config_errors() {
        let (p, s) = setup();
        for sc in [
            FaultScenario::node_loss(NodeId(8), 0),
            FaultScenario::at(0).l1_cluster(99).build(),
            FaultScenario::at(0).l1_cluster_of(Rank(32)).build(),
            FaultScenario::at(0).build(),
        ] {
            assert!(matches!(
                sc.failed_nodes(&p, &s, None),
                Err(HcftError::Config(_))
            ));
        }
    }

    #[test]
    fn schemes_that_do_not_cover_the_placement_are_config_errors() {
        // 4 nodes × 8 ranks = 32 ranks; one scheme over more ranks, one
        // over fewer.
        let p = Placement::block(4, 8);
        let sc = FaultScenario::node_loss(NodeId(3), 0);
        // A scheme that does not cover `p` has no index on it; judge
        // through the index of one that does.
        let index = SchemeIndex::new(&naive(32, 8), &p);
        for s in [naive(64, 16), naive(16, 8)] {
            assert!(matches!(
                sc.failed_nodes(&p, &s, None),
                Err(HcftError::Config(_))
            ));
            assert!(matches!(
                sc.is_catastrophic(&p, &s, None, &index),
                Err(HcftError::Config(_))
            ));
        }
        // An index of another machine is refused too.
        let small = Placement::block(2, 8);
        let other = SchemeIndex::new(&naive(16, 8), &small);
        assert!(matches!(
            sc.is_catastrophic(&p, &naive(32, 8), None, &other),
            Err(HcftError::Config(_))
        ));
    }

    #[test]
    fn catastrophe_judgement_matches_l2_tolerance() {
        let (p, s) = setup();
        // L2 clusters of 8 members tolerate 4 lost members = 1 node here;
        // 2 nodes of one cluster (8 members) is catastrophic.
        let index = SchemeIndex::new(&s, &p);
        let one = FaultScenario::node_loss(NodeId(0), 0);
        assert!(!one.is_catastrophic(&p, &s, None, &index).unwrap());
        let two = FaultScenario::at(0).l1_cluster(0).build();
        assert!(two.is_catastrophic(&p, &s, None, &index).unwrap());
    }
}
