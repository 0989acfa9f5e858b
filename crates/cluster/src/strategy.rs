//! The unified strategy API.
//!
//! Every §III–§IV strategy (and the striped extension) is one variant of
//! [`ClusteringStrategy`]: a family name, the family's one feasibility
//! rule ([`ClusteringStrategy::validate`]), and a `build` that checks that
//! rule before constructing, so misconfiguration surfaces as
//! [`HcftError`] instead of a panic.
//!
//! A [`SchemeFamilySpec`] is the one way to name a set of sized
//! strategies: the Table II comparison, the `/evaluate` family grid, the
//! paper's four schemes at chosen sizes and the autotuner's sweep are all
//! presets of it, and [`SchemeFamilySpec::score_staged`] is the one path
//! that builds and scores such a set (`crate::stages`).

use hcft_graph::{CommMatrix, WeightedGraph};
use hcft_telemetry::HcftError;
use hcft_topology::{NodeId, Placement};

use crate::evaluator::{Evaluator, FourDScore};
use crate::stages::{LayoutStage, TraceStage};
use crate::strategies::{self, ClusteringScheme, HierarchicalConfig};

/// Everything a strategy may consult when building a scheme: the
/// rank→node placement and the node-level communication graph (vertex
/// per node, edges weighted by traced traffic).
pub struct StrategyContext<'a> {
    /// Rank→node placement of the application.
    pub placement: &'a Placement,
    /// Node communication graph (hierarchical clustering partitions it;
    /// the flat strategies ignore it).
    pub node_graph: &'a WeightedGraph,
}

/// One clustering family at one size: a named, validated producer of
/// [`ClusteringScheme`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusteringStrategy {
    /// §III-A naïve clustering: consecutive ranks in clusters of `size`
    /// ranks (paper: 32).
    Naive { size: usize },
    /// §III-B size-guided clustering: consecutive ranks in clusters of
    /// `size` ranks, chosen to balance encoding time (paper: 8).
    SizeGuided { size: usize },
    /// §III-C distributed clustering: diagonal stripes of one rank per
    /// node over groups of `size` nodes (paper: 16).
    Distributed { size: usize },
    /// Striped clustering, this crate's extension: L1 = consecutive
    /// blocks of `l1_nodes` nodes (dividing the node count), L2 groups of
    /// `l2_size` ranks (dividing the rank count) striding across L1
    /// clusters so a whole-L1 loss stays survivable.
    Striped { l1_nodes: usize, l2_size: usize },
    /// §IV-B hierarchical clustering: node-graph L1 partition with nested
    /// distributed L2 encoding groups.
    Hierarchical(HierarchicalConfig),
}

fn check_flat_size(size: usize, nprocs: usize) -> Result<(), HcftError> {
    if size == 0 {
        return Err(HcftError::Config("cluster size must be >= 1".into()));
    }
    if size > nprocs {
        return Err(HcftError::Partition(format!(
            "cluster size {size} exceeds {nprocs} ranks"
        )));
    }
    Ok(())
}

/// The layout rule of the families that stripe one rank slot across
/// nodes: every node hosts the same number of ranks.
fn check_uniform(placement: &Placement, family: &str) -> Result<(), HcftError> {
    let ppn = placement.ranks_on(NodeId(0)).len();
    if (0..placement.nodes()).all(|n| placement.ranks_on(NodeId::from(n)).len() == ppn) {
        Ok(())
    } else {
        Err(HcftError::Partition(format!(
            "{family} clustering needs a uniform ranks-per-node layout"
        )))
    }
}

/// A hierarchical build partitions a node graph with a vertex per
/// placed node.
fn check_node_graph(node_graph: &WeightedGraph, placement: &Placement) -> Result<(), HcftError> {
    let nodes = placement.nodes();
    if node_graph.n() != nodes {
        return Err(HcftError::Config(format!(
            "node graph has {} vertices for {nodes} nodes",
            node_graph.n()
        )));
    }
    Ok(())
}

impl ClusteringStrategy {
    /// Stable strategy family name (Table II row family, without the
    /// size).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Naive { .. } => "naive",
            Self::SizeGuided { .. } => "size-guided",
            Self::Distributed { .. } => "distributed",
            Self::Striped { .. } => "striped",
            Self::Hierarchical(_) => "hierarchical",
        }
    }

    /// The family's feasibility rule: can this strategy, at its sizes,
    /// cluster `placement`? `Config` for sizes that are wrong on any
    /// machine, `Partition` for sizes this machine cannot host.
    pub fn validate(&self, placement: &Placement) -> Result<(), HcftError> {
        let (nodes, nprocs) = (placement.nodes(), placement.nprocs());
        match self {
            Self::Naive { size } | Self::SizeGuided { size } => check_flat_size(*size, nprocs),
            Self::Distributed { size } => {
                if *size < 2 || *size > nodes {
                    return Err(HcftError::Partition(format!(
                        "distributed stripe size {size} needs 2..={nodes} nodes"
                    )));
                }
                check_uniform(placement, "distributed")
            }
            Self::Striped { l1_nodes, l2_size } => {
                if *l1_nodes == 0 || *l1_nodes > nodes || !nodes.is_multiple_of(*l1_nodes) {
                    return Err(HcftError::Partition(format!(
                        "striped L1 block of {l1_nodes} nodes must divide {nodes} nodes"
                    )));
                }
                if *l2_size < 2 || !nprocs.is_multiple_of(*l2_size) {
                    return Err(HcftError::Partition(format!(
                        "striped L2 group of {l2_size} ranks needs at least 2 ranks \
                         and must divide {nprocs} ranks"
                    )));
                }
                check_uniform(placement, "striped")
            }
            Self::Hierarchical(cfg) => {
                if cfg.l2_group_nodes == 0 || cfg.min_nodes_per_l1 < cfg.l2_group_nodes {
                    return Err(HcftError::Config(format!(
                        "min_nodes_per_l1 ({}) must be >= l2_group_nodes ({}) >= 1",
                        cfg.min_nodes_per_l1, cfg.l2_group_nodes
                    )));
                }
                if cfg.max_nodes_per_l1 < cfg.min_nodes_per_l1 {
                    return Err(HcftError::Config(format!(
                        "max_nodes_per_l1 ({}) < min_nodes_per_l1 ({})",
                        cfg.max_nodes_per_l1, cfg.min_nodes_per_l1
                    )));
                }
                if cfg.l1_parts(nodes).is_none() {
                    return Err(HcftError::Partition(format!(
                        "{nodes} nodes do not split into L1 clusters of {}..={} nodes",
                        cfg.min_nodes_per_l1, cfg.max_nodes_per_l1
                    )));
                }
                Ok(())
            }
        }
    }

    /// Build the scheme for `ctx`, validating applicability first (and,
    /// for a hierarchical strategy, that the node graph covers the
    /// placement).
    pub fn build(&self, ctx: &StrategyContext<'_>) -> Result<ClusteringScheme, HcftError> {
        if let Self::Hierarchical(_) = self {
            check_node_graph(ctx.node_graph, ctx.placement)?;
        }
        self.validate(ctx.placement)?;
        Ok(self.scheme(ctx.placement, Some(ctx.node_graph)))
    }

    /// The scheme on a placement `validate` accepted: the one build arm
    /// of each family. Only a hierarchical strategy reads `node_graph`,
    /// which must cover the placement.
    pub(crate) fn scheme(
        &self,
        placement: &Placement,
        node_graph: Option<&WeightedGraph>,
    ) -> ClusteringScheme {
        match self {
            Self::Naive { size } => strategies::naive(placement.nprocs(), *size),
            Self::SizeGuided { size } => strategies::size_guided(placement.nprocs(), *size),
            Self::Distributed { size } => strategies::distributed(placement, *size),
            Self::Striped { l1_nodes, l2_size } => {
                strategies::striped(placement, *l1_nodes, *l2_size)
            }
            Self::Hierarchical(cfg) => {
                let node_graph = node_graph.expect("a hierarchical build has a node graph");
                let l1 = strategies::l1_node_partition(node_graph, cfg);
                strategies::hierarchical_from_l1(placement, &l1, cfg)
            }
        }
    }
}

/// An ordered list of sized strategies: every entry builds one
/// [`ClusteringScheme`] and scores one row. Construction order is the
/// evaluation (and response) order, so a spec is deterministic by value,
/// independent of thread count.
///
/// The generated presets ([`table2`](Self::table2),
/// [`for_layout`](Self::for_layout), `autotune`) keep
/// only the entries whose [`ClusteringStrategy::validate`] accepts the
/// machine; [`paper`](Self::paper) keeps the sizes it is given, so an
/// infeasible one fails the build with the strategy's error.
#[derive(Default)]
pub struct SchemeFamilySpec {
    entries: Vec<ClusteringStrategy>,
}

impl SchemeFamilySpec {
    /// The paper's four schemes in Table II order (naïve, size-guided,
    /// distributed, hierarchical) at the given sizes.
    pub fn paper(
        naive: usize,
        size_guided: usize,
        distributed: usize,
        hierarchical: HierarchicalConfig,
    ) -> Self {
        SchemeFamilySpec {
            entries: vec![
                ClusteringStrategy::Naive { size: naive },
                ClusteringStrategy::SizeGuided { size: size_guided },
                ClusteringStrategy::Distributed { size: distributed },
                ClusteringStrategy::Hierarchical(hierarchical),
            ],
        }
    }

    /// The Table II comparison: the four paper schemes at their classic
    /// sizes (clamped to the machine) plus one striped entrant where the
    /// layout divides evenly.
    pub fn table2(nodes: usize, ppn: usize) -> Self {
        let nprocs = nodes * ppn;
        // The paper's §IV-B sizing, clamped so the partitioner stays
        // valid on machines smaller than one default L1 cluster.
        let min_l1 = 4.min(nodes).max(1);
        let hier = HierarchicalConfig {
            min_nodes_per_l1: min_l1,
            max_nodes_per_l1: 8.min(nodes).max(min_l1),
            l2_group_nodes: 4.min(min_l1),
            ..HierarchicalConfig::default()
        };
        let entries = vec![
            ClusteringStrategy::Naive {
                size: 32.min(nprocs),
            },
            ClusteringStrategy::SizeGuided {
                size: 8.min(nprocs),
            },
            ClusteringStrategy::Distributed {
                size: 16.min(nodes),
            },
            ClusteringStrategy::Striped {
                l1_nodes: 4,
                l2_size: ppn,
            },
            ClusteringStrategy::Hierarchical(hier),
        ];
        Self::feasible(entries, block(nodes, ppn).as_ref())
    }

    /// The full family grid for a `nodes × ppn` machine: cluster-size
    /// sweeps per flat family, striped L1×L2 combinations and
    /// hierarchical L1-bound / L2-group grids — every combination valid
    /// for the layout, in a fixed deterministic order.
    pub fn for_layout(nodes: usize, ppn: usize) -> Self {
        let mut entries = Vec::new();
        for size in [ppn, 2 * ppn, 4 * ppn] {
            entries.push(ClusteringStrategy::Naive { size });
        }
        let mut size_guided = vec![ppn.div_ceil(2), ppn, 2 * ppn];
        size_guided.dedup();
        for size in size_guided {
            entries.push(ClusteringStrategy::SizeGuided { size });
        }
        for size in [4, 8, 16] {
            entries.push(ClusteringStrategy::Distributed { size });
        }
        for l1_nodes in [2, 4] {
            for l2_size in [ppn, 2 * ppn] {
                entries.push(ClusteringStrategy::Striped { l1_nodes, l2_size });
            }
        }
        for (min, max, l2g) in [(4, 8, 4), (4, 8, 2), (4, 4, 4), (8, 16, 4)] {
            entries.push(ClusteringStrategy::Hierarchical(HierarchicalConfig {
                min_nodes_per_l1: min,
                max_nodes_per_l1: max,
                l2_group_nodes: l2g,
                ..HierarchicalConfig::default()
            }));
        }
        Self::feasible(entries, block(nodes, ppn).as_ref())
    }

    /// The autotuner's sweep over `placement`: naïve cluster sizes
    /// (powers of two up to half the ranks), distributed stripe sizes
    /// (powers of two up to the node count) and hierarchical L1 widths of
    /// exactly 4 and 8 nodes where at least two such clusters fit — of
    /// these, the entries `placement` can host.
    pub(crate) fn autotune(placement: &Placement) -> Self {
        let nodes = placement.nodes();
        let powers_of_two = |max: usize| {
            std::iter::successors(Some(2usize), |s| s.checked_mul(2)).take_while(move |&s| s <= max)
        };
        let mut entries = Vec::new();
        for size in powers_of_two(placement.nprocs() / 2) {
            entries.push(ClusteringStrategy::Naive { size });
        }
        for size in powers_of_two(nodes) {
            entries.push(ClusteringStrategy::Distributed { size });
        }
        for l1 in [4, 8] {
            if nodes >= 2 * l1 {
                entries.push(ClusteringStrategy::Hierarchical(HierarchicalConfig {
                    min_nodes_per_l1: l1,
                    max_nodes_per_l1: l1,
                    l2_group_nodes: 4,
                    ..HierarchicalConfig::default()
                }));
            }
        }
        Self::feasible(entries, Some(placement))
    }

    /// The generated presets' one filter: the entries `placement` can
    /// host, or none on an empty machine (`None`).
    fn feasible(mut entries: Vec<ClusteringStrategy>, placement: Option<&Placement>) -> Self {
        match placement {
            Some(placement) => entries.retain(|s| s.validate(placement).is_ok()),
            None => entries.clear(),
        }
        SchemeFamilySpec { entries }
    }

    /// The `(family, strategy)` pairs in spec order.
    pub fn strategies(&self) -> impl Iterator<Item = (&'static str, &ClusteringStrategy)> {
        self.entries.iter().map(|s| (s.name(), s))
    }

    /// Is the spec empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Score the spec on a trace whose trace stage is `trace`, keeping
    /// layout rows in `layouts`, in spec order: the layout rows from
    /// `layouts`, the hierarchical rows from `trace`, each built there
    /// on first use, then the request stage, one logged-bytes walk per
    /// row: of `trace`'s node matrix where the row's L1 keeps every node
    /// whole, of `app` (the trace's application matrix) otherwise
    /// (`crate::stages`).
    ///
    /// An empty spec is a `Config` error. An entry the placement cannot
    /// host fails the whole call with its strategy's validation error,
    /// checked in spec order before anything is built or walked.
    pub fn score_staged(
        &self,
        app: &CommMatrix,
        layouts: &LayoutStage,
        trace: &TraceStage,
    ) -> Result<Vec<FamilyScore>, HcftError> {
        let placement = trace.placement();
        if self.is_empty() {
            return Err(HcftError::Config(format!(
                "no strategy family fits a {}x{} layout",
                placement.nodes(),
                placement.nprocs() / placement.nodes().max(1)
            )));
        }
        let (mut flat, mut hierarchical) = (Vec::new(), Vec::new());
        for entry in &self.entries {
            entry.validate(placement)?;
            match entry {
                ClusteringStrategy::Hierarchical(cfg) => hierarchical.push(cfg),
                _ => flat.push(entry),
            }
        }
        let mut flat = layouts.rows(trace.model(), &flat).into_iter();
        let mut hierarchical = trace.hierarchical_rows(app, &hierarchical).into_iter();
        Ok(self
            .entries
            .iter()
            .map(|entry| {
                let row = match entry {
                    ClusteringStrategy::Hierarchical(_) => hierarchical.next(),
                    _ => flat.next(),
                }
                .expect("one row per entry");
                FamilyScore {
                    family: entry.name(),
                    scheme: row.scheme.clone(),
                    score: row.score(app, trace),
                }
            })
            .collect())
    }

    /// Build every strategy on the evaluator's placement and score it
    /// on the evaluator's matrix, in spec order:
    /// [`score_staged`](Self::score_staged) on the evaluator's own trace
    /// stage and a fresh layout stage. The node graph the hierarchical
    /// entries partition is derived from the trace on first use, and a
    /// later score on the same evaluator reuses it, its L1 partitions and
    /// its hierarchical rows; entries with the same L1 bounds and engine
    /// share one L1 partition (the `full` preset's `(4, 8)` entries with
    /// L2 groups of 4 and 2 nodes). Scoring runs on the calling thread
    /// and computes P(catastrophic) once per distinct L2 digest of a
    /// stage's batch, so the rows are byte-identical at any thread count.
    ///
    /// An empty spec is a `Config` error. An entry the machine cannot
    /// host fails the whole call with its strategy's validation error;
    /// the generated presets drop those, so only [`paper`](Self::paper)
    /// sizes can fail.
    pub fn score(&self, evaluator: &Evaluator) -> Result<Vec<FamilyScore>, HcftError> {
        self.score_staged(evaluator.matrix(), &LayoutStage::new(), evaluator.stage())
    }
}

/// The block placement of a `nodes × ppn` machine; an empty machine has
/// none.
fn block(nodes: usize, ppn: usize) -> Option<Placement> {
    (nodes > 0 && ppn > 0).then(|| Placement::block(nodes, ppn))
}

/// One scored row of a [`SchemeFamilySpec`].
#[derive(Clone, Debug)]
pub struct FamilyScore {
    /// Strategy family the row came from (`naive`, `striped`, …).
    pub family: &'static str,
    /// The scheme the strategy built.
    pub scheme: ClusteringScheme,
    /// The four-dimension score (carries the sized scheme name).
    pub score: FourDScore,
}

#[cfg(test)]
mod tests {
    use super::ClusteringStrategy::{Distributed, Hierarchical, Naive, SizeGuided, Striped};
    use super::*;
    use hcft_graph::CommMatrix;
    use std::sync::Arc;

    fn chain_graph(nodes: usize) -> WeightedGraph {
        let mut m = CommMatrix::new(nodes);
        for n in 0..nodes - 1 {
            m.add(n, n + 1, 100);
            m.add(n + 1, n, 100);
        }
        WeightedGraph::from_comm_matrix(&m)
    }

    #[test]
    fn paper_preset_builds_all_four_on_the_paper_layout() {
        let placement = Placement::block(64, 16);
        let graph = chain_graph(64);
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        let spec = SchemeFamilySpec::paper(32, 8, 16, HierarchicalConfig::default());
        let names: Vec<&str> = spec.strategies().map(|(family, _)| family).collect();
        assert_eq!(
            names,
            vec!["naive", "size-guided", "distributed", "hierarchical"]
        );
        let schemes: Vec<ClusteringScheme> = spec
            .strategies()
            .map(|(_, s)| s.build(&ctx).expect("paper layout is valid"))
            .collect();
        // `build` matches the free functions of its families.
        assert_eq!(
            schemes[0].l1,
            strategies::naive(1024, 32).l1,
            "naive parity"
        );
        assert_eq!(
            schemes[2].l2,
            strategies::distributed(&placement, 16).l2,
            "distributed parity"
        );
    }

    #[test]
    fn generated_presets_build_on_every_small_machine() {
        for nodes in 1..=17 {
            let mut chain = CommMatrix::new(nodes);
            for n in 1..nodes {
                chain.add(n - 1, n, 1);
                chain.add(n, n - 1, 1);
            }
            let node_graph = WeightedGraph::from_comm_matrix(&chain);
            for ppn in 1..=3 {
                let placement = Placement::block(nodes, ppn);
                let ctx = StrategyContext {
                    placement: &placement,
                    node_graph: &node_graph,
                };
                for spec in [
                    SchemeFamilySpec::table2(nodes, ppn),
                    SchemeFamilySpec::for_layout(nodes, ppn),
                    SchemeFamilySpec::autotune(&placement),
                ] {
                    for (family, s) in spec.strategies() {
                        if let Err(e) = s.build(&ctx) {
                            panic!("{nodes}x{ppn} {family}: {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_machines_get_empty_generated_presets() {
        assert!(SchemeFamilySpec::table2(0, 4).is_empty());
        assert!(SchemeFamilySpec::for_layout(4, 0).is_empty());
    }

    #[test]
    fn an_infeasible_paper_size_fails_the_score_with_the_strategys_error() {
        let placement = Placement::block(4, 2);
        let evaluator = Evaluator::new(CommMatrix::new(8), placement);
        let spec = SchemeFamilySpec::paper(4, 2, 16, HierarchicalConfig::default());
        let err = spec.score(&evaluator).unwrap_err();
        assert!(matches!(err, HcftError::Partition(_)), "{err}");
        let err = SchemeFamilySpec::default().score(&evaluator).unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err}");
        assert!(err.to_string().contains("fits a 4x2 layout"), "{err}");
    }

    /// `score` derives the node graph it partitions from the
    /// evaluator's trace. On every block machine of 1..=17 nodes ×
    /// 1..=3 ranks with a stencil trace, each preset's rows equal the
    /// one-scheme path (`build` on a node graph built by hand from the
    /// node-aggregated matrix, then `evaluate`), or `score` fails with
    /// the one-scheme path's error; and a second `score` on the same
    /// evaluator hands back the first's hierarchical L1s.
    #[test]
    fn score_equals_the_one_scheme_path_on_the_derived_node_graph() {
        let mut reused = 0;
        for nodes in 1..=17 {
            for ppn in 1..=3 {
                let placement = Placement::block(nodes, ppn);
                let m = hcft_graph::patterns::stencil_2d(nodes * ppn, 1, 2048, 16);
                let node_graph = WeightedGraph::from_comm_matrix(&m.aggregate_by_node(&placement));
                let ctx = StrategyContext {
                    placement: &placement,
                    node_graph: &node_graph,
                };
                let oracle = Evaluator::new(m.clone(), placement.clone());
                let evaluator = Evaluator::new(m, placement.clone());
                for spec in [
                    SchemeFamilySpec::table2(nodes, ppn),
                    SchemeFamilySpec::for_layout(nodes, ppn),
                    SchemeFamilySpec::autotune(&placement),
                    SchemeFamilySpec::paper(32, 8, 16, HierarchicalConfig::default()),
                ] {
                    let shape = format!("{nodes}x{ppn}");
                    let one_by_one: Result<Vec<_>, HcftError> = spec
                        .strategies()
                        .map(|(family, s)| {
                            let scheme = s.build(&ctx)?;
                            Ok((family, oracle.evaluate(&scheme), scheme))
                        })
                        .collect();
                    let rows = match (spec.score(&evaluator), one_by_one) {
                        (Ok(rows), Ok(want)) => {
                            assert_eq!(rows.len(), want.len(), "{shape}");
                            for (row, (family, score, scheme)) in rows.iter().zip(want) {
                                assert_eq!(row.family, family, "{shape}");
                                assert_eq!(row.score, score, "{shape}");
                                assert_eq!(row.scheme.name, scheme.name, "{shape}");
                                assert_eq!(row.scheme.l1, scheme.l1, "{shape}: {}", scheme.name);
                                assert_eq!(row.scheme.l2, scheme.l2, "{shape}: {}", scheme.name);
                            }
                            rows
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(
                                std::mem::discriminant(&got),
                                std::mem::discriminant(&want),
                                "{shape}: {got} / {want}"
                            );
                            assert_eq!(got.to_string(), want.to_string(), "{shape}");
                            continue;
                        }
                        // An empty spec has no row to build.
                        (Err(got), Ok(want)) if want.is_empty() => {
                            assert!(matches!(got, HcftError::Config(_)), "{shape}: {got}");
                            continue;
                        }
                        (got, want) => panic!(
                            "{shape}: score {:?}, one scheme at a time {:?}",
                            got.map(|rows| rows.len()),
                            want.map(|rows| rows.len())
                        ),
                    };
                    let again = spec.score(&evaluator).expect("it scored once");
                    for (first, second) in rows.iter().zip(&again) {
                        if first.family == "hierarchical" {
                            assert!(
                                Arc::ptr_eq(&first.scheme.l1, &second.scheme.l1),
                                "{shape}: {}",
                                first.scheme.name
                            );
                            reused += 1;
                        }
                    }
                }
            }
        }
        assert!(reused > 0, "no hierarchical row was scored twice");
    }

    /// Build `s` on `placement` with a chain node graph.
    fn build_on(
        s: &ClusteringStrategy,
        placement: &Placement,
    ) -> Result<ClusteringScheme, HcftError> {
        let node_graph = chain_graph(placement.nodes());
        s.build(&StrategyContext {
            placement,
            node_graph: &node_graph,
        })
    }

    #[test]
    fn oversized_flat_cluster_is_a_partition_error() {
        let err = build_on(&Naive { size: 100 }, &Placement::block(2, 2)).unwrap_err();
        assert!(matches!(err, HcftError::Partition(_)), "{err}");
    }

    #[test]
    fn zero_size_is_a_config_error() {
        let built = build_on(&SizeGuided { size: 0 }, &Placement::block(2, 2));
        assert!(matches!(built, Err(HcftError::Config(_))));
    }

    #[test]
    fn ragged_layout_is_a_partition_error_not_a_panic() {
        let assign: Vec<NodeId> = [0, 0, 0, 1].iter().map(|&n| NodeId(n)).collect();
        let placement = Placement::from_assignment(assign, 2);
        for s in [
            Distributed { size: 2 },
            Striped {
                l1_nodes: 1,
                l2_size: 2,
            },
        ] {
            assert!(matches!(
                build_on(&s, &placement),
                Err(HcftError::Partition(_))
            ));
        }
    }

    #[test]
    fn mismatched_node_graph_is_a_config_error() {
        let placement = Placement::block(8, 2);
        let graph = chain_graph(4); // wrong vertex count
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &graph,
        };
        assert!(matches!(
            Hierarchical(HierarchicalConfig::default()).build(&ctx),
            Err(HcftError::Config(_))
        ));
    }

    #[test]
    fn too_few_nodes_for_hierarchical_is_a_partition_error() {
        let built = build_on(
            &Hierarchical(HierarchicalConfig::default()),
            &Placement::block(2, 4),
        );
        assert!(matches!(built, Err(HcftError::Partition(_))));
    }

    #[test]
    fn bounds_no_part_count_fits_are_a_partition_error() {
        // 5 nodes: one cluster of 4 leaves one over, two need 8.
        let placement = Placement::block(5, 2);
        let exactly_four = Hierarchical(HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            ..HierarchicalConfig::default()
        });
        let built = build_on(&exactly_four, &placement);
        assert!(matches!(built, Err(HcftError::Partition(_))));
        // The default 4..=8 bounds take all five nodes as one cluster.
        assert!(build_on(&Hierarchical(HierarchicalConfig::default()), &placement).is_ok());
    }

    /// A family has one feasibility rule: over every family, at sizes
    /// from 0 to one past the machine, `build` fails exactly where
    /// `validate` refuses, with the same error, and otherwise builds
    /// the free constructor's scheme.
    #[test]
    fn build_succeeds_exactly_where_validate_accepts() {
        use strategies::PartitionEngine::{Modularity, Multilevel};
        let ragged = |nodes: &[u32], count| {
            Placement::from_assignment(nodes.iter().map(|&n| NodeId(n)).collect(), count)
        };
        let mut placements: Vec<Placement> = (1..=17)
            .flat_map(|nodes| (1..=3).map(move |ppn| Placement::block(nodes, ppn)))
            .collect();
        placements.push(ragged(&[0, 0, 0, 1], 2));
        placements.push(ragged(&[0, 0, 1, 1, 1, 2, 3, 3, 4, 5, 5, 5], 6));
        for placement in &placements {
            let (nodes, nprocs) = (placement.nodes(), placement.nprocs());
            let graph = chain_graph(nodes);
            let check = |s: &ClusteringStrategy, free: &dyn Fn() -> ClusteringScheme| {
                let shape = format!("{nodes} nodes, {nprocs} ranks");
                match (s.validate(placement), build_on(s, placement)) {
                    (Ok(()), Ok(built)) => {
                        let want = free();
                        assert_eq!(built.name, want.name, "{shape}");
                        assert_eq!(built.l1, want.l1, "{shape}: {}", want.name);
                        assert_eq!(built.l2, want.l2, "{shape}: {}", want.name);
                    }
                    (Err(rule), Err(built)) => {
                        assert_eq!(
                            std::mem::discriminant(&rule),
                            std::mem::discriminant(&built),
                            "{shape}: {rule} / {built}"
                        );
                        assert_eq!(rule.to_string(), built.to_string(), "{shape}");
                    }
                    (rule, built) => panic!(
                        "{shape} {}: validate {:?}, build {:?}",
                        s.name(),
                        rule.err(),
                        built.map(|b| b.name)
                    ),
                }
            };
            for size in 0..=nprocs + 1 {
                check(&Naive { size }, &|| strategies::naive(nprocs, size));
                check(&SizeGuided { size }, &|| {
                    strategies::size_guided(nprocs, size)
                });
            }
            for size in 0..=nodes + 1 {
                check(&Distributed { size }, &|| {
                    strategies::distributed(placement, size)
                });
                for l2_size in 0..=nprocs + 1 {
                    check(
                        &Striped {
                            l1_nodes: size,
                            l2_size,
                        },
                        &|| strategies::striped(placement, size, l2_size),
                    );
                }
            }
            for engine in [Multilevel, Modularity] {
                for min in 0..=6 {
                    for max in 0..=9 {
                        for l2g in 0..=min {
                            let cfg = HierarchicalConfig {
                                min_nodes_per_l1: min,
                                max_nodes_per_l1: max,
                                l2_group_nodes: l2g,
                                engine,
                            };
                            check(&Hierarchical(cfg.clone()), &|| {
                                strategies::hierarchical(placement, &graph, &cfg)
                            });
                        }
                    }
                }
            }
        }
    }
}
