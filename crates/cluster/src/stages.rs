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
//!   trace stage keeps, for one trace, the node graph, one L1 partition
//!   per `(min, max, engine)` and one row per [`HierarchicalConfig`];
//! * the **request stage**
//!   ([`SchemeFamilySpec::score_staged`](crate::SchemeFamilySpec::score_staged)): the
//!   logged-bytes walk of every row over the trace, in spec order.
//!
//! Every scoring entry point runs the request stage; the one-shot ones
//! build fresh stages for the call. A stage never holds a lock while it
//! builds: two callers racing to build one row both build it, and the
//! first to finish is kept. Builds are deterministic, so both built the
//! same row.
//!
//! Four process-global counters count the work the stages save:
//! `cluster.stage.node_graphs` (node graphs built),
//! `cluster.stage.l1_partitions` (L1 partitioner runs, counted in the
//! one function every hierarchical build calls),
//! `cluster.stage.layout_rows` and `cluster.stage.hierarchical_rows`
//! (rows built by each stage).

use std::sync::{Arc, OnceLock};

use hcft_graph::{CommMatrix, WeightedGraph};
use hcft_telemetry::Registry;
use hcft_topology::{NodeId, Placement, Rank};
use parking_lot::Mutex;

use crate::evaluator::{LayoutModel, StagedRow};
use crate::strategies::{self, HierarchicalConfig, PartitionEngine};
use crate::strategy::ClusteringStrategy;

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
            Registry::global()
                .counter("cluster.stage.layout_rows")
                .add(missing.len() as u64);
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

/// The trace stage of one trace: its application placement, the node
/// graph (built on first use), one L1 partition per `(min, max,
/// engine)` and one hierarchical row per [`HierarchicalConfig`]. It
/// grows by the distinct configurations asked of it; a served request's
/// presets name at most five, so a trace cache bounds it by its entry
/// bound.
pub struct TraceStage {
    model: LayoutModel,
    node_graph: OnceLock<WeightedGraph>,
    l1: Kept<L1Key, Vec<usize>>,
    hierarchical: Kept<HierarchicalConfig, StagedRow>,
}

impl TraceStage {
    /// An empty stage for a trace of application ranks placed by
    /// `placement`. The node graph is built from the trace on first use.
    pub fn new(placement: Placement) -> Self {
        TraceStage {
            model: LayoutModel::new(placement),
            node_graph: OnceLock::new(),
            l1: Mutex::default(),
            hierarchical: Mutex::default(),
        }
    }

    /// An empty stage whose node graph is given, not built.
    pub(crate) fn with_node_graph(placement: Placement, node_graph: WeightedGraph) -> Self {
        let stage = TraceStage::new(placement);
        stage.node_graph.get_or_init(|| node_graph);
        stage
    }

    /// The application placement the stage scores on.
    pub fn placement(&self) -> &Placement {
        self.model.placement()
    }

    pub(crate) fn model(&self) -> &LayoutModel {
        &self.model
    }

    /// The node graph, if it is built or was given.
    pub(crate) fn built_node_graph(&self) -> Option<&WeightedGraph> {
        self.node_graph.get()
    }

    /// Approximate heap bytes held: the placement, the node graph, the
    /// L1 partitions and the hierarchical rows.
    pub fn resident_bytes(&self) -> u64 {
        let graph = self.node_graph.get().map_or(0, WeightedGraph::heap_bytes);
        let l1: usize = self.l1.lock().iter().map(|(_, p)| p.capacity()).sum();
        let rows: u64 = self
            .hierarchical
            .lock()
            .iter()
            .map(|(_, row)| row.heap_bytes())
            .sum();
        placement_bytes(self.placement())
            + graph
            + (l1 * std::mem::size_of::<usize>()) as u64
            + rows
    }

    /// The rows of `cfgs` (validated), in order, each built on first
    /// use from the node graph of `app` (the trace's application
    /// matrix) and the L1 partition of its bounds and engine, both also
    /// built on first use.
    pub(crate) fn hierarchical_rows(
        &self,
        app: &CommMatrix,
        cfgs: &[&HierarchicalConfig],
    ) -> Vec<Arc<StagedRow>> {
        take_or_build(&self.hierarchical, cfgs, |missing| {
            let node_graph = self.node_graph.get_or_init(|| {
                Registry::global()
                    .counter("cluster.stage.node_graphs")
                    .inc();
                WeightedGraph::from_comm_matrix(&app.aggregate_by_node(self.placement()))
            });
            Registry::global()
                .counter("cluster.stage.hierarchical_rows")
                .add(missing.len() as u64);
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
    use crate::SchemeFamilySpec;
    use hcft_graph::patterns;

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
}
