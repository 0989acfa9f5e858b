//! The process-wide Monte-Carlo failure-set tables behind
//! [`ReliabilityModel`](crate::ReliabilityModel) (see the `model` module's
//! "Shared Monte-Carlo draws").
//!
//! A [`SampleTable`] holds the 16 000 `j`-node failure sets of one
//! `(nodes, j)`, with node indices in the narrowest unsigned type that
//! holds `nodes − 1`. [`shared_table`] hands each `(nodes, j)` out as one
//! `Arc<SharedTable>` (an `OnceLock` of the sets), so the sets are drawn at
//! most once per process, and its registry keeps at most
//! [`MC_TABLE_BUDGET_BYTES`] of them, evicting least-recently-used node
//! counts.

use std::sync::{Arc, Mutex, OnceLock};

use hcft_telemetry::{Counter, Gauge};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sampler::NodeSampler;

/// Failure sets per Monte-Carlo estimate inside `ReliabilityModel`.
pub(crate) const MC_SAMPLES: usize = 16_000;
/// Seed of those sets; stream `c` is seeded `MC_SEED + c`.
pub(crate) const MC_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// RNG streams a sample table is drawn in.
const MC_CHUNKS: usize = 8;

/// Bytes of failure-set tables the process-wide registry keeps. Under the
/// FTI distribution (`j = 3..=12`) a machine of up to 256 nodes needs at
/// most ≈ 1.2 MB (one byte per index), so the budget holds one such
/// machine's tables, and most of a larger one's. It is small because a
/// long-lived server keeps it resident on top of everything else.
pub const MC_TABLE_BUDGET_BYTES: usize = 2 << 20;

/// Bytes per stored node index on a machine of `nodes` nodes: the
/// narrowest unsigned type that holds `nodes − 1`.
fn index_width(nodes: usize) -> usize {
    if nodes <= 1 << 8 {
        1
    } else if nodes <= 1 << 16 {
        2
    } else {
        4
    }
}

/// A node index as a table stores it: `u8`, `u16` or `u32`.
pub(crate) trait NodeIndex: Copy {
    /// Narrow a drawn node index; it must fit.
    fn narrow(node: u32) -> Self;
    /// The node index as a slice position.
    fn index(self) -> usize;
}

macro_rules! node_index {
    ($($t:ty),*) => {$(
        impl NodeIndex for $t {
            #[inline]
            fn narrow(node: u32) -> Self {
                <$t>::try_from(node).expect("node index fits the table's width")
            }
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
node_index!(u8, u16, u32);

/// A table's node indices at one of the three widths.
enum Failed {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// The failure sets of one Monte-Carlo estimate: set `s` is the `j`
/// distinct nodes at `s * j..(s + 1) * j`.
pub(crate) struct SampleTable {
    j: usize,
    failed: Failed,
}

impl SampleTable {
    /// Draw `samples` `j`-node failure sets (`j ≥ 1`) over `nodes` nodes,
    /// stored at the narrowest width that holds `nodes − 1`.
    pub(crate) fn draw(nodes: usize, j: usize, samples: usize, seed: u64) -> Self {
        let failed = match index_width(nodes) {
            1 => Failed::U8(draw_sets(nodes, j, samples, seed)),
            2 => Failed::U16(draw_sets(nodes, j, samples, seed)),
            _ => Failed::U32(draw_sets(nodes, j, samples, seed)),
        };
        SampleTable { j, failed }
    }

    /// The same sets as [`draw`](Self::draw), stored as `u32` whatever
    /// the node count.
    pub(crate) fn draw_u32(nodes: usize, j: usize, samples: usize, seed: u64) -> Self {
        SampleTable {
            j,
            failed: Failed::U32(draw_sets(nodes, j, samples, seed)),
        }
    }

    /// Heap bytes of the stored indices.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        match &self.failed {
            Failed::U8(f) => f.len(),
            Failed::U16(f) => f.len() * 2,
            Failed::U32(f) => f.len() * 4,
        }
    }

    /// Failure sets in which some cluster loses more than its tolerance;
    /// `on(node)` lists the (cluster, members) a node's failure costs.
    pub(crate) fn count_catastrophic<'a>(
        &self,
        tolerance: &[u32],
        on: impl Fn(usize) -> &'a [(u32, u32)],
    ) -> usize {
        match &self.failed {
            Failed::U8(f) => count_catastrophic(f, self.j, tolerance, on),
            Failed::U16(f) => count_catastrophic(f, self.j, tolerance, on),
            Failed::U32(f) => count_catastrophic(f, self.j, tolerance, on),
        }
    }

    /// Number of failure sets.
    pub(crate) fn samples(&self) -> usize {
        let len = match &self.failed {
            Failed::U8(f) => f.len(),
            Failed::U16(f) => f.len(),
            Failed::U32(f) => f.len(),
        };
        len / self.j
    }
}

/// `samples` `j`-node failure sets over `nodes` nodes, in [`MC_CHUNKS`]
/// streams seeded `seed + c`. Stream `c` draws `samples / MC_CHUNKS`
/// sets, plus one for the first `samples % MC_CHUNKS` streams.
fn draw_sets<T: NodeIndex>(nodes: usize, j: usize, samples: usize, seed: u64) -> Vec<T> {
    let mut sampler = NodeSampler::new(nodes);
    let mut set = Vec::with_capacity(j);
    let mut failed = Vec::with_capacity(samples * j);
    for c in 0..MC_CHUNKS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
        let draws = samples / MC_CHUNKS + usize::from(c < samples % MC_CHUNKS);
        for _ in 0..draws {
            set.clear();
            sampler.sample_into(&mut rng, j, &mut set);
            failed.extend(set.iter().map(|&node| T::narrow(node)));
        }
    }
    failed
}

/// The one counting kernel, at every index width.
#[inline]
fn count_catastrophic<'a, T: NodeIndex>(
    failed: &[T],
    j: usize,
    tolerance: &[u32],
    on: impl Fn(usize) -> &'a [(u32, u32)],
) -> usize {
    let mut lost = vec![0u32; tolerance.len()];
    let mut hits = 0;
    for set in failed.chunks_exact(j) {
        let mut dead = false;
        for &node in set {
            for &(c, members) in on(node.index()) {
                lost[c as usize] += members;
                dead |= lost[c as usize] > tolerance[c as usize];
            }
        }
        for &node in set {
            for &(c, _) in on(node.index()) {
                lost[c as usize] = 0;
            }
        }
        hits += usize::from(dead);
    }
    hits
}

/// One `(nodes, j)` table, drawn by whichever caller first reads it.
pub(crate) struct SharedTable {
    nodes: usize,
    j: usize,
    sets: OnceLock<SampleTable>,
}

impl SharedTable {
    /// The failure sets, drawn on the first call.
    pub(crate) fn sets(&self) -> &SampleTable {
        self.sets.get_or_init(|| {
            metrics().built.inc();
            SampleTable::draw(self.nodes, self.j, MC_SAMPLES, MC_SEED)
        })
    }

    /// Bytes the drawn sets take.
    fn bytes(&self) -> usize {
        MC_SAMPLES * self.j * index_width(self.nodes)
    }
}

/// The registered tables of one node count.
struct NodeCount {
    nodes: usize,
    /// Registry clock at this node count's last lookup.
    last_use: u64,
    /// One per event size looked up.
    tables: Vec<Arc<SharedTable>>,
}

/// The process-wide registry: node counts in no particular order.
struct Registry {
    node_counts: Vec<NodeCount>,
    /// What the registered tables take once drawn.
    bytes: usize,
    clock: u64,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    node_counts: Vec::new(),
    bytes: 0,
    clock: 0,
});

/// Telemetry of the registry.
struct Metrics {
    built: Arc<Counter>,
    evicted: Arc<Counter>,
    bytes: Arc<Gauge>,
    node_counts: Arc<Gauge>,
}

/// Register the registry's counters and gauges in the global telemetry.
pub(crate) fn register_metrics() {
    metrics();
}

fn metrics() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = hcft_telemetry::Registry::global();
        Metrics {
            built: reg.counter("reliability.mc_tables_built"),
            evicted: reg.counter("reliability.mc_tables_evicted"),
            bytes: reg.gauge("reliability.mc_tables.bytes"),
            node_counts: reg.gauge("reliability.mc_tables.node_counts"),
        }
    })
}

/// The process-wide table of `j`-node failure sets over `nodes` nodes
/// (`1 ≤ j ≤ nodes`). The registry lock covers this lookup only; the sets
/// are drawn later, outside it, by the first [`SharedTable::sets`].
///
/// Registering a new table first evicts least-recently-used *other* node
/// counts until the budget holds it. A table that still does not fit (its
/// node count alone fills the budget) is handed out unregistered, and
/// drawn for its caller alone.
pub(crate) fn shared_table(nodes: usize, j: usize) -> Arc<SharedTable> {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.clock += 1;
    let now = reg.clock;
    if let Some(count) = reg.node_counts.iter_mut().find(|c| c.nodes == nodes) {
        count.last_use = now;
        if let Some(table) = count.tables.iter().find(|t| t.j == j) {
            return table.clone();
        }
    }
    let table = Arc::new(SharedTable {
        nodes,
        j,
        sets: OnceLock::new(),
    });
    let metrics = metrics();
    while reg.bytes + table.bytes() > MC_TABLE_BUDGET_BYTES {
        let Some(lru) = (reg.node_counts.iter().enumerate())
            .filter(|(_, c)| c.nodes != nodes)
            .min_by_key(|(_, c)| c.last_use)
            .map(|(i, _)| i)
        else {
            break;
        };
        let evicted = reg.node_counts.swap_remove(lru);
        reg.bytes -= evicted.tables.iter().map(|t| t.bytes()).sum::<usize>();
        metrics.evicted.add(evicted.tables.len() as u64);
    }
    if reg.bytes + table.bytes() <= MC_TABLE_BUDGET_BYTES {
        reg.bytes += table.bytes();
        match reg.node_counts.iter_mut().find(|c| c.nodes == nodes) {
            Some(count) => count.tables.push(table.clone()),
            None => reg.node_counts.push(NodeCount {
                nodes,
                last_use: now,
                tables: vec![table.clone()],
            }),
        }
    }
    metrics.bytes.set(reg.bytes as f64);
    metrics.node_counts.set(reg.node_counts.len() as f64);
    table
}
