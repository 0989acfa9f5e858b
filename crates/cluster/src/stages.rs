//! The scoring stages: what a scored row depends on, kept where it can
//! be reused.
//!
//! Of the four dimensions only the logging share reads the traced
//! matrix's cells. The rest of a row depends on less:
//!
//! * the **layout stage** ([`LayoutStage`]): the naïve, size-guided,
//!   distributed and striped schemes depend on the placement alone, and
//!   so do their restart share, encode time and P(catastrophic). Their
//!   rows are kept per `(placement, spec entry)`, so the `table2` and
//!   `full` presets of one machine share four of them;
//! * the **trace stage** ([`TraceStage`]): the hierarchical schemes
//!   depend on the trace only through the node graph's L1 partition. A
//!   trace stage keeps, for one trace, the node-aggregated matrix, the
//!   node graph derived from it, one L1 partition per `(min, max,
//!   engine)` and one row per [`HierarchicalConfig`];
//! * the **request stage**
//!   ([`SchemeFamilySpec::score_staged`](crate::SchemeFamilySpec::score_staged)): the
//!   logged-bytes walk of every row, in spec order, at the grain its L1
//!   is defined on. A row whose L1 keeps every node's ranks in one
//!   cluster walks the trace stage's node matrix; it gives the rank
//!   walk's byte totals exactly, in a fraction of the cells (894 against
//!   12 606 on the served 64 × 16 trace). Every other row walks the
//!   rank matrix.
//!
//! Every scoring entry point runs the request stage. The service keeps
//! one layout stage and, in each cached trace, that trace's stage; an
//! [`Evaluator`](crate::Evaluator) keeps the trace stage of its matrix,
//! so every score on it derives the node graph it partitions from the
//! trace, once, and only the layout stage is fresh per call;
//! `evaluate_family_sweep` builds both fresh. A stage never holds a
//! lock while it builds: two callers racing to build one row both build
//! it, and the first to finish is kept. Builds are deterministic, so
//! both built the same row.
//!
//! Seven process-global counters, resolved once per process, count the
//! work the stages do and save: `cluster.stage.node_matrices` and
//! `cluster.stage.node_graphs` (built per trace),
//! `cluster.stage.l1_partitions` (L1 partitioner runs, counted in the
//! one function every hierarchical build calls),
//! `cluster.stage.layout_rows` and `cluster.stage.hierarchical_rows`
//! (rows built by each stage), and `cluster.stage.node_walks` and
//! `cluster.stage.rank_walks` (request-stage walks at each grain).

use std::sync::{Arc, OnceLock};

use hcft_graph::{CommMatrix, WeightedGraph};
use hcft_telemetry::{Counter, Registry};
use hcft_topology::{NodeId, Placement, Rank};
use parking_lot::Mutex;

use crate::evaluator::{LayoutModel, StagedRow};
use crate::strategies::{self, HierarchicalConfig, PartitionEngine};
use crate::strategy::ClusteringStrategy;

/// The `cluster.stage.*` counters, resolved once per process.
pub(crate) struct StageCounters {
    pub(crate) node_matrices: Arc<Counter>,
    pub(crate) node_graphs: Arc<Counter>,
    pub(crate) l1_partitions: Arc<Counter>,
    pub(crate) layout_rows: Arc<Counter>,
    pub(crate) hierarchical_rows: Arc<Counter>,
    pub(crate) node_walks: Arc<Counter>,
    pub(crate) rank_walks: Arc<Counter>,
}

/// The stage counters in the process-global registry.
pub(crate) fn counters() -> &'static StageCounters {
    static COUNTERS: OnceLock<StageCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        let counter = |name: &str| reg.counter(&format!("cluster.stage.{name}"));
        StageCounters {
            node_matrices: counter("node_matrices"),
            node_graphs: counter("node_graphs"),
            l1_partitions: counter("l1_partitions"),
            layout_rows: counter("layout_rows"),
            hierarchical_rows: counter("hierarchical_rows"),
            node_walks: counter("node_walks"),
            rank_walks: counter("rank_walks"),
        }
    })
}

/// Layout rows a [`LayoutStage`] keeps: two `families=full` grids of
/// thirteen layout rows each, and change.
pub const LAYOUT_STAGE_ROWS: usize = 32;

/// Approximate heap bytes of a placement: a node id per rank and the
/// per-node rank lists.
fn placement_bytes(p: &Placement) -> u64 {
    (p.nprocs() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<Rank>())
        + p.nodes() * std::mem::size_of::<Vec<Rank>>()) as u64
}

/// Values kept by key: the store of every stage.
type Kept<K, V> = Mutex<Vec<(K, Arc<V>)>>;

/// The values of `keys` from `kept`, in order. The missing ones are
/// built in one `build` call outside the lock and kept; where a racing
/// caller kept a key first, its value wins.
fn take_or_build<K: PartialEq + Clone, V>(
    kept: &Kept<K, V>,
    keys: &[&K],
    build: impl FnOnce(&[&K]) -> Vec<V>,
) -> Vec<Arc<V>> {
    let find = |kept: &[(K, Arc<V>)], key: &K| {
        kept.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    };
    let mut values: Vec<Option<Arc<V>>> = {
        let kept = kept.lock();
        keys.iter().map(|&key| find(&kept, key)).collect()
    };
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| values[i].is_none()).collect();
    if !missing.is_empty() {
        let built = build(&missing.iter().map(|&i| keys[i]).collect::<Vec<_>>());
        let mut kept = kept.lock();
        for (i, value) in missing.into_iter().zip(built) {
            values[i] = Some(find(&kept, keys[i]).unwrap_or_else(|| {
                let value = Arc::new(value);
                kept.push((keys[i].clone(), Arc::clone(&value)));
                value
            }));
        }
    }
    values.into_iter().flatten().collect()
}

/// The layout rows of one placement.
struct LayoutGroup {
    placement: Placement,
    rows: Kept<ClusteringStrategy, StagedRow>,
}

#[derive(Default)]
struct LayoutInner {
    /// Each group with its last access stamp.
    groups: Vec<(Arc<LayoutGroup>, u64)>,
    tick: u64,
}

/// The layout stage: the rows of trace-independent spec entries, keyed
/// by `(placement, entry)`. It holds at most [`LAYOUT_STAGE_ROWS`]
/// rows, evicting the least recently used placement's rows first; the
/// placement in use is never evicted, so one spec with more layout rows
/// than the bound keeps them until another placement is scored.
/// Eviction order is a function of the access sequence alone.
#[derive(Default)]
pub struct LayoutStage {
    inner: Mutex<LayoutInner>,
}

impl LayoutStage {
    /// An empty stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows resident.
    pub fn len(&self) -> usize {
        Self::rows_in(&self.inner.lock())
    }

    fn rows_in(inner: &LayoutInner) -> usize {
        inner.groups.iter().map(|(g, _)| g.rows.lock().len()).sum()
    }

    /// Does the stage hold no row?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes of the resident rows and their placements.
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .lock()
            .groups
            .iter()
            .map(|(g, _)| {
                let rows: u64 = g.rows.lock().iter().map(|(_, r)| r.heap_bytes()).sum();
                placement_bytes(&g.placement) + rows
            })
            .sum()
    }

    /// The rows of `entries` (validated, none hierarchical) on the
    /// model's placement, in order, each built on first use.
    pub(crate) fn rows(
        &self,
        model: &LayoutModel,
        entries: &[&ClusteringStrategy],
    ) -> Vec<Arc<StagedRow>> {
        let placement = model.placement();
        let group = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner
                .groups
                .iter_mut()
                .find(|(g, _)| g.placement == *placement)
            {
                Some((group, used)) => {
                    *used = tick;
                    Arc::clone(group)
                }
                None => {
                    let group = Arc::new(LayoutGroup {
                        placement: placement.clone(),
                        rows: Mutex::default(),
                    });
                    inner.groups.push((Arc::clone(&group), tick));
                    group
                }
            }
        };
        let rows = take_or_build(&group.rows, entries, |missing| {
            counters().layout_rows.add(missing.len() as u64);
            model.stage(missing.iter().map(|e| e.scheme(placement, None)).collect())
        });
        let mut inner = self.inner.lock();
        while Self::rows_in(&inner) > LAYOUT_STAGE_ROWS {
            let Some(victim) = inner
                .groups
                .iter()
                .enumerate()
                .filter(|(_, (g, _))| !Arc::ptr_eq(g, &group))
                .min_by_key(|(_, (_, used))| *used)
                .map(|(i, _)| i)
            else {
                break;
            };
            inner.groups.remove(victim);
        }
        rows
    }
}

/// The `(min, max)` nodes per L1 cluster and the engine: what an L1
/// partition depends on besides the node graph.
type L1Key = (usize, usize, PartitionEngine);

/// The trace stage of one trace: its application placement, the
/// node-aggregated matrix and the node graph (each built on first use),
/// one L1 partition per `(min, max, engine)` and one hierarchical row
/// per [`HierarchicalConfig`]. It grows by the distinct configurations
/// asked of it; a served request's presets name at most five, so a
/// trace cache bounds it by its entry bound.
///
/// Every call that passes the trace's application matrix (`app`) must
/// pass the same one: the stage derives what it keeps from the first.
pub struct TraceStage {
    model: LayoutModel,
    node_matrix: OnceLock<CommMatrix>,
    node_graph: OnceLock<WeightedGraph>,
    l1: Kept<L1Key, Vec<usize>>,
    hierarchical: Kept<HierarchicalConfig, StagedRow>,
}

impl TraceStage {
    /// An empty stage for a trace of application ranks placed by
    /// `placement`. The node matrix and the node graph are built from
    /// the trace on first use.
    pub fn new(placement: Placement) -> Self {
        TraceStage {
            model: LayoutModel::new(placement),
            node_matrix: OnceLock::new(),
            node_graph: OnceLock::new(),
            l1: Mutex::default(),
            hierarchical: Mutex::default(),
        }
    }

    /// The application placement the stage scores on.
    pub fn placement(&self) -> &Placement {
        self.model.placement()
    }

    pub(crate) fn model(&self) -> &LayoutModel {
        &self.model
    }

    /// The node-aggregated matrix of `app` (the trace's application
    /// matrix), built on first use.
    pub(crate) fn node_matrix(&self, app: &CommMatrix) -> &CommMatrix {
        self.node_matrix.get_or_init(|| {
            counters().node_matrices.inc();
            app.aggregate_by_node(self.placement())
        })
    }

    /// Approximate heap bytes held: the placement, the node matrix, the
    /// node graph, the L1 partitions and the hierarchical rows.
    pub fn resident_bytes(&self) -> u64 {
        let matrix = self.node_matrix.get().map_or(0, CommMatrix::heap_bytes);
        let graph = self.node_graph.get().map_or(0, WeightedGraph::heap_bytes);
        let l1: usize = self.l1.lock().iter().map(|(_, p)| p.capacity()).sum();
        let rows: u64 = self
            .hierarchical
            .lock()
            .iter()
            .map(|(_, row)| row.heap_bytes())
            .sum();
        placement_bytes(self.placement())
            + matrix
            + graph
            + (l1 * std::mem::size_of::<usize>()) as u64
            + rows
    }

    /// The rows of `cfgs` (validated), in order, each built on first
    /// use from the node graph of `app` (the trace's application
    /// matrix, through its node matrix) and the L1 partition of its
    /// bounds and engine, all also built on first use.
    pub(crate) fn hierarchical_rows(
        &self,
        app: &CommMatrix,
        cfgs: &[&HierarchicalConfig],
    ) -> Vec<Arc<StagedRow>> {
        take_or_build(&self.hierarchical, cfgs, |missing| {
            let node_graph = self.node_graph.get_or_init(|| {
                counters().node_graphs.inc();
                WeightedGraph::from_comm_matrix(self.node_matrix(app))
            });
            counters().hierarchical_rows.add(missing.len() as u64);
            let schemes = missing.iter().map(|&cfg| {
                let key = (cfg.min_nodes_per_l1, cfg.max_nodes_per_l1, cfg.engine);
                let part = take_or_build(&self.l1, &[&key], |_| {
                    vec![strategies::l1_node_partition(node_graph, cfg)]
                });
                strategies::hierarchical_from_l1(self.placement(), &part[0], cfg)
            });
            self.model.stage(schemes.collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FourDScore, SchemeFamilySpec};
    use hcft_graph::{patterns, Clustering};
    use hcft_msglog::{logged_fraction, Containment, HybridProtocol};
    use hcft_topology::PlacementStrategy;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn score_on(layouts: &LayoutStage, nodes: usize, ppn: usize) {
        let matrix = patterns::stencil_2d(nodes * ppn, 1, 2048, 16);
        let trace = TraceStage::new(Placement::block(nodes, ppn));
        SchemeFamilySpec::for_layout(nodes, ppn)
            .score_staged(&matrix, layouts, &trace)
            .expect("the preset fits");
    }

    #[test]
    fn the_layout_stage_is_bounded_and_eviction_drops_its_bytes() {
        // 12 ranks a node: no row named like the one
        // `evaluate_publishes_table2_metrics_globally` reads back from
        // the global registry while this test may run beside it.
        let layouts = LayoutStage::new();
        score_on(&layouts, 64, 12);
        let (rows, big) = (layouts.len(), layouts.resident_bytes());
        assert_eq!(rows, 13, "a full grid has thirteen layout rows");
        // Rows of small machines push the large machine's rows out.
        for nodes in 8..16 {
            score_on(&layouts, nodes, 2);
            assert!(layouts.len() <= LAYOUT_STAGE_ROWS);
        }
        let small = layouts.resident_bytes();
        assert!(
            small < big / 4,
            "evicted rows keep no bytes: {small} B after, {big} B before"
        );
    }

    #[test]
    fn the_node_matrix_counts_in_the_stage_bytes() {
        let app = patterns::stencil_2d(32, 1, 2048, 16);
        let stage = TraceStage::new(Placement::block(8, 4));
        let bare = stage.resident_bytes();
        let node_matrix = stage.node_matrix(&app).heap_bytes();
        assert!(node_matrix > 0);
        assert_eq!(stage.resident_bytes(), bare + node_matrix);
    }

    /// `ranks` ranks on `nodes` nodes: block, round-robin, or ragged
    /// from `draw`, where some nodes may stay empty unless `cover`.
    fn placement(layout: u8, nodes: usize, ranks: usize, draw: &[usize], cover: bool) -> Placement {
        let per_node = ranks.div_ceil(nodes);
        match layout {
            0 => Placement::new(PlacementStrategy::Block, ranks, nodes, per_node),
            1 => Placement::new(PlacementStrategy::RoundRobin, ranks, nodes, per_node),
            _ => Placement::from_assignment(
                (0..ranks)
                    .map(|r| match cover && r < nodes {
                        true => NodeId::from((r + draw[0]) % nodes),
                        false => NodeId::from(draw[r] % nodes),
                    })
                    .collect(),
                nodes,
            ),
        }
    }

    /// A sparse matrix of `cells` on `p`: every even destination draw
    /// stays on the sender's node (intra-node cells), and the senders
    /// `s` with `s % silent == silent - 1` keep an empty row (all of
    /// them when `silent` is 1).
    fn matrix(p: &Placement, cells: &[(usize, usize, u64)], silent: usize) -> CommMatrix {
        let n = p.nprocs();
        let mut m = CommMatrix::new(n);
        for &(s, d, bytes) in cells {
            let s = s % n;
            if s % silent == silent - 1 {
                continue;
            }
            let d = if d % 2 == 0 {
                let local = p.ranks_on(p.node_of(Rank::from(s)));
                local[d / 2 % local.len()].idx()
            } else {
                d % n
            };
            m.add(s, d, bytes);
        }
        m
    }

    /// A rank clustering of `p` by `family`: a node-level assignment
    /// expanded to ranks, the same with one rank moved to a cluster of
    /// its own, consecutive blocks of `size`, or an arbitrary draw.
    fn clustering(p: &Placement, family: u8, size: usize, draw: &[usize]) -> Clustering {
        let n = p.nprocs();
        let by_node = |r: usize| draw[p.node_of(Rank::from(r)).idx()] % size;
        let assignment: Vec<usize> = match family {
            0 => (0..n).map(by_node).collect(),
            1 => (0..n)
                .map(|r| by_node(r) + if r == draw[0] % n { size } else { 0 })
                .collect(),
            2 => (0..n).map(|r| r / size).collect(),
            _ => (0..n).map(|r| draw[r] % size).collect(),
        };
        Clustering::from_assignment(&assignment)
    }

    proptest! {
        /// The grain rule's two halves on block, round-robin and ragged
        /// placements (some nodes empty) and sparse matrices with
        /// intra-node cells and empty rows: the alignment check accepts
        /// exactly the clusterings that keep every node's ranks in one
        /// cluster, and under each it accepts, the node walk gives the
        /// rank walk's `(total, logged)`.
        #[test]
        fn grain_node_walk_equals_rank_walk_where_aligned(
            nodes in 1usize..12,
            ranks in 1usize..60,
            layout in 0u8..3,
            node_draw in vec(0usize..12, 60),
            cells in vec((0usize..60, 0usize..120, 1u64..1000), 0..200),
            silent in 1usize..8,
            family in 0u8..4,
            size in 1usize..12,
            cluster_draw in vec(0usize..60, 60),
        ) {
            let p = placement(layout, nodes, ranks, &node_draw, false);
            let m = matrix(&p, &cells, silent);
            let c = Arc::new(clustering(&p, family, size, &cluster_draw));
            let aligned = (0..nodes).all(|n| {
                let local = p.ranks_on(NodeId::from(n));
                local.iter().all(|&r| c.cluster_of(r) == c.cluster_of(local[0]))
            });
            let node_level = Containment::new(&c, &p).node_clustering();
            prop_assert_eq!(node_level.is_some(), aligned);
            if let Some(node_level) = node_level {
                prop_assert_eq!(
                    HybridProtocol::new(node_level).logged_bytes(&m.aggregate_by_node(&p)),
                    HybridProtocol::new(c).logged_bytes(&m)
                );
            }
        }

        /// Every row `score_staged` returns equals a rank-walk oracle,
        /// score by score: the autotune sweep on block, round-robin and
        /// ragged placements (every node hosting a rank) and the `full`
        /// grid on the uniform ones, so node-aligned and split rows of
        /// every family meet one trace stage.
        #[test]
        fn grain_staged_rows_equal_the_rank_walk_oracle(
            nodes in 1usize..13,
            ppn in 1usize..5,
            layout in 0u8..3,
            node_draw in vec(0usize..13, 60),
            cells in vec((0usize..60, 0usize..120, 1u64..1000), 0..200),
            silent in 1usize..8,
        ) {
            let p = placement(layout, nodes, nodes * ppn, &node_draw, true);
            let m = matrix(&p, &cells, silent);
            let mut specs = vec![SchemeFamilySpec::autotune(&p)];
            if layout < 2 {
                specs.push(SchemeFamilySpec::for_layout(nodes, ppn));
            }
            let trace = TraceStage::new(p.clone());
            for spec in specs.iter().filter(|spec| !spec.is_empty()) {
                let rows = spec
                    .score_staged(&m, &LayoutStage::new(), &trace)
                    .expect("the preset fits");
                for row in rows {
                    let l1 = &row.scheme.l1;
                    let want = FourDScore {
                        name: row.scheme.name.clone(),
                        logging_fraction: logged_fraction(
                            HybridProtocol::new(Arc::clone(l1)).logged_bytes(&m),
                        ),
                        restart_fraction: Containment::new(l1, &p).expected_restart_fraction(),
                        ..row.score.clone()
                    };
                    prop_assert_eq!(row.score, want);
                }
            }
        }
    }
}
