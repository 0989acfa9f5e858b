//! The process-wide Monte-Carlo failure-set tables behind
//! [`ReliabilityModel`](crate::ReliabilityModel) (see the `model` module's
//! "Shared Monte-Carlo draws").
//!
//! A [`SampleTable`] holds the 16 000 `j`-node failure sets of one
//! `(nodes, j)`, bit-sliced: one bitset over the sets per node.
//! [`shared_table`] hands each `(nodes, j)` out as one `Arc<SharedTable>`
//! (an `OnceLock` of the sets), so the sets are drawn at most once per
//! process, and its registry keeps at most [`MC_TABLE_BUDGET_BYTES`] of
//! them, evicting least-recently-used node counts.

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

/// Bytes of failure-set tables the process-wide registry keeps. A table
/// takes 2 000 B a node whatever `j`, so under the FTI distribution
/// (`j = 3..=12`) the budget holds a 16- and a 32-node machine's tables
/// side by side (≈ 0.9 MB together), a 64-node machine's (≈ 1.3 MB at
/// most), and most of a larger one's. It is small because a long-lived
/// server keeps it resident on top of everything else.
pub const MC_TABLE_BUDGET_BYTES: usize = 2 << 20;

/// The failure sets of one Monte-Carlo estimate, bit-sliced: bit `s % 64`
/// of `bits[n * words + s / 64]` is set iff node `n` is in set `s`.
pub(crate) struct SampleTable {
    samples: usize,
    /// `⌈samples / 64⌉`: the words of one node's bitset.
    words: usize,
    bits: Vec<u64>,
}

impl SampleTable {
    /// Draw `samples` `j`-node failure sets (`j ≥ 1`) over `nodes` nodes
    /// in [`MC_CHUNKS`] streams seeded `seed + c`. Stream `c` draws
    /// `samples / MC_CHUNKS` sets, plus one for the first
    /// `samples % MC_CHUNKS` streams; sets are numbered in draw order.
    pub(crate) fn draw(nodes: usize, j: usize, samples: usize, seed: u64) -> Self {
        let words = samples.div_ceil(64);
        let mut bits = vec![0u64; nodes * words];
        let mut sampler = NodeSampler::new(nodes);
        let mut set = Vec::with_capacity(j);
        let mut s = 0;
        for c in 0..MC_CHUNKS {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
            let draws = samples / MC_CHUNKS + usize::from(c < samples % MC_CHUNKS);
            for _ in 0..draws {
                set.clear();
                sampler.sample_into(&mut rng, j, &mut set);
                for &node in &set {
                    bits[node as usize * words + s / 64] |= 1 << (s % 64);
                }
                s += 1;
            }
        }
        SampleTable {
            samples,
            words,
            bits,
        }
    }

    /// Heap bytes of the stored bitsets.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Failure sets in which some cluster, given as its (node, members ≥
    /// 1) and its tolerance `t`, loses more than `t` members.
    ///
    /// Bit-sliced, 64 sets a word. Each member count is clipped at
    /// `t + 1` (a node that alone passes `t` needs no more), and the
    /// clipped weights and `t` are divided by the weights' gcd `g`, which
    /// keeps `Σ members > t` exact as `Σ w > ⌊t / g⌋`. Each node's
    /// weight, masked by its bitset, is ripple-added into
    /// `bit_length(⌊t / g⌋)` counter planes; since no weight exceeds
    /// `⌊t / g⌋ + 1`, a carry out of the top plane is a counter past the
    /// threshold and marks its sets dead, as does a final `counter >
    /// ⌊t / g⌋`.
    pub(crate) fn count_catastrophic<'a>(
        &self,
        clusters: impl IntoIterator<Item = (&'a [(usize, u32)], u32)>,
    ) -> usize {
        let words = self.words;
        let mut dead = vec![0u64; words];
        let mut carry = vec![0u64; words];
        let mut planes = Vec::new();
        let mut weights = Vec::new();
        for (counts, tolerance) in clusters {
            let t = u64::from(tolerance);
            weights.clear();
            weights.extend(counts.iter().map(|&(n, m)| (n, u64::from(m).min(t + 1))));
            if weights.iter().map(|&(_, w)| w).sum::<u64>() <= t {
                continue; // dies in no set
            }
            let g = weights.iter().fold(0, |g, &(_, w)| gcd(g, w));
            let over = t / g;
            let k = bit_length(over);
            planes.clear();
            planes.resize(k * words, 0u64);
            // Counters stay at or below `reach`: planes from
            // `bit_length(reach)` up see no carry, and none leaves the
            // top plane while `reach < 2^k`.
            let mut reach = 0;
            for &(node, w) in &weights {
                let w = w / g;
                reach += w;
                let mask = &self.bits[node * words..][..words];
                if w == 1 << k {
                    for (d, &m) in dead.iter_mut().zip(mask) {
                        *d |= m;
                    }
                    continue;
                }
                let low = w.trailing_zeros() as usize;
                let high = bit_length(reach).min(k);
                for (b, plane) in planes.chunks_exact_mut(words).enumerate() {
                    if b < low || b >= high {
                        continue;
                    }
                    if b == low {
                        for ((p, c), &m) in plane.iter_mut().zip(&mut carry).zip(mask) {
                            (*p, *c) = (*p ^ m, *p & m);
                        }
                    } else if w >> b & 1 == 1 {
                        for ((p, c), &m) in plane.iter_mut().zip(&mut carry).zip(mask) {
                            let half = *p ^ m;
                            (*p, *c) = (half ^ *c, (*p & m) | (*c & half));
                        }
                    } else {
                        for (p, c) in plane.iter_mut().zip(&mut carry) {
                            (*p, *c) = (*p ^ *c, *p & *c);
                        }
                    }
                }
                if reach >> k != 0 {
                    for (d, &c) in dead.iter_mut().zip(&carry) {
                        *d |= c;
                    }
                }
            }
            // `counter > over`, most significant plane first; `carry`
            // holds the sets whose counter equals `over` so far.
            carry.fill(!0);
            for (b, plane) in planes.chunks_exact(words).enumerate().rev() {
                if over >> b & 1 == 0 {
                    for ((d, e), &p) in dead.iter_mut().zip(&mut carry).zip(plane) {
                        *d |= *e & p;
                        *e &= !p;
                    }
                } else {
                    for (e, &p) in carry.iter_mut().zip(plane) {
                        *e &= p;
                    }
                }
            }
        }
        dead.iter().map(|d| d.count_ones() as usize).sum()
    }

    /// Number of failure sets.
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }
}

/// Bits needed to write `x`.
fn bit_length(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
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

    /// Bytes the drawn sets take: one `u64` per node and 64 sets.
    fn bytes(&self) -> usize {
        self.nodes * MC_SAMPLES.div_ceil(64) * 8
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
