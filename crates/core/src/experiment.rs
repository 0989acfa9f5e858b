//! The §V experiment driver.
//!
//! Reproduces the paper's instrumented execution: `nodes ×
//! (app_per_node + 1)` MPI ranks, where each node's rank 0 is an FTI
//! encoder process. The traced run contains, exactly as in Fig. 5b:
//!
//! * the init-time `MPI_Allgather` over *all* ranks (power-of-two /
//!   Bruck diagonals),
//! * the tsunami stencil's double diagonal between application
//!   neighbours, sent shape-only: each rank sends every halo at its
//!   decomposed length through the solver's own exchange loop
//!   ([`hcft_tsunami::CartDecomp::exchange`]) but builds and steps no
//!   field, since no traced byte depends on a cell value,
//! * light horizontal rows where application ranks push checkpoint data
//!   to their node's encoder,
//! * isolated encoder↔encoder points from the ring-structured parity
//!   accumulation inside each encoding group of nodes, sent shape-only
//!   too: one block-sized zero view per group member, forwarded around
//!   the ring, with no GF(256) arithmetic.
//!
//! No traced send carries payload bytes anyone writes: halos and parity
//! blocks are views of one shared zero block
//! ([`hcft_simmpi::Comm::send_zeros`]); only the 16-byte checkpoint
//! notes are pooled buffers.
//!
//! [`run_traced_job`] traces a two-step prefix of that job and scales it
//! whenever the prefix proves periodic (DESIGN.md §19, "Composed
//! traces"); [`run_traced_world`] always runs the whole job.

mod compose;

use std::sync::Arc;

use hcft_cluster::{FamilyScore, LayoutStage, SchemeFamilySpec, TraceStage};
use hcft_graph::CommMatrix;
use hcft_simmpi::{Engine, MessageEvent, TraceRecorder, World, WorldConfig};
use hcft_telemetry::{HcftError, Registry};
use hcft_topology::{JobLayout, Role};
use hcft_tsunami::TsunamiParams;

/// Tag for application→encoder checkpoint pushes (world communicator).
const TAG_CKPT_PUSH: u32 = 0x000C_0001;
/// Tag for encoder↔encoder parity ring steps (encoder communicator).
const TAG_PARITY: u32 = 0x000C_0002;

/// Configuration of a traced job.
#[derive(Clone, Debug)]
pub struct TracedJobConfig {
    /// Compute nodes.
    pub nodes: usize,
    /// Application ranks per node.
    pub app_per_node: usize,
    /// Dedicate one encoder rank per node (FTI layout)?
    pub with_encoders: bool,
    /// Solver iterations.
    pub iterations: u64,
    /// Checkpoint every this many iterations (0: never).
    pub checkpoint_every: u64,
    /// Global solver grid.
    pub grid: (usize, usize),
    /// Explicit process grid for the solver (px, py). `None` picks a
    /// near-square grid. The paper's measured logging-vs-size curve
    /// (25 % at 4, 12.9 % at 8, 3.5 % at 32 — ≈ 1/size) implies a
    /// quasi-1-D decomposition in rank space with east–west halos far
    /// heavier than north–south; `(512, 2)` reproduces it.
    pub process_grid: Option<(usize, usize)>,
    /// Encoding group width in nodes (paper: 4).
    pub encoder_group_nodes: usize,
    /// Also keep the ordered per-sender event log (needed for the
    /// log-memory timeline and determinism analyses; costs memory per
    /// message).
    pub record_events: bool,
    /// Worker threads for the simmpi task engine (0 = the core count).
    /// The determinism suite pins this to exercise multi-worker
    /// interleavings.
    pub workers: usize,
    /// Execution engine for the rank bodies. [`Engine::Tasks`] (the
    /// default) is the task scheduler, thread-per-rank where that is not
    /// supported; the determinism suite pins [`Engine::Threads`] to
    /// prove both engines trace identical bytes.
    pub engine: Engine,
}

impl TracedJobConfig {
    /// Start building a configuration for `nodes × app_per_node`
    /// application ranks. Unset knobs default to the scaled-down test
    /// shape (anisotropic quasi-1-D process grid, checkpoint every 25
    /// iterations); [`TracedJobConfigBuilder::build`] validates the
    /// combination instead of letting a bad grid panic mid-run.
    pub fn builder(nodes: usize, app_per_node: usize) -> TracedJobConfigBuilder {
        TracedJobConfigBuilder::new(nodes, app_per_node)
    }

    /// The paper's §V configuration: 64 nodes × 16 app ranks + encoders,
    /// 100 iterations, checkpoints every 25 iterations.
    pub fn paper_1024() -> Self {
        Self::builder(64, 16)
            .iterations(100)
            .grid(1024, 4096)
            .process_grid(512, 2)
            .encoder_group_nodes(4)
            .build()
            .expect("paper preset is valid")
    }

    /// A scaled-down configuration for tests: `nodes × app_per_node`
    /// ranks with the same anisotropic (quasi-1-D) decomposition shape as
    /// the paper run.
    pub fn small(nodes: usize, app_per_node: usize) -> Self {
        Self::builder(nodes, app_per_node)
            .build()
            .expect("small preset is valid")
    }

    /// The process grid the solver will use.
    pub fn process_grid(&self) -> (usize, usize) {
        self.process_grid
            .unwrap_or_else(|| hcft_tsunami::decomp::choose_grid(self.nodes * self.app_per_node))
    }

    /// Solver parameters implied by this configuration.
    pub(crate) fn tsunami_params(&self) -> TsunamiParams {
        let mut p = TsunamiParams::stable(self.grid.0, self.grid.1);
        p.process_grid = self.process_grid;
        p
    }

    /// The job layout implied by this configuration.
    pub fn layout(&self) -> JobLayout {
        if self.with_encoders {
            JobLayout::with_encoders(self.nodes, self.app_per_node)
        } else {
            JobLayout::app_only(self.nodes, self.app_per_node)
        }
    }

    /// The canonical wire form of the *trace-affecting* configuration —
    /// the serialization the cache key is derived from.
    ///
    /// Exactly the fields that change a single traced byte are included:
    /// machine shape, iteration/checkpoint cadence, solver and process
    /// grids, encoder grouping, event recording. Runtime knobs (workers,
    /// engine) are deliberately **excluded**: the scheduler-determinism
    /// suite proves traces are byte-identical across both, so two configs
    /// differing only in runtime knobs share one cache entry. The `process_grid` is
    /// emitted in resolved form, so `None` and an explicit grid that
    /// happens to match resolve to the same key.
    ///
    /// The format is versioned (`hcft-trace-v1`); any change to the
    /// traced protocol that alters bytes for an unchanged config must
    /// bump it, invalidating every persisted key.
    pub fn to_canonical(&self) -> String {
        let (px, py) = self.process_grid();
        format!(
            "hcft-trace-v1;nodes={};ppn={};enc={};it={};ck={};gx={};gy={};\
             px={px};py={py};eg={};ev={}",
            self.nodes,
            self.app_per_node,
            u8::from(self.with_encoders),
            self.iterations,
            self.checkpoint_every,
            self.grid.0,
            self.grid.1,
            self.encoder_group_nodes,
            u8::from(self.record_events),
        )
    }

    /// Stable 128-bit content hash of the trace-affecting configuration:
    /// FNV-1a over [`Self::to_canonical`] with two independent bases.
    /// This is the trace-cache key; it is pinned by a test, so it must
    /// never change for an unchanged config (bump the canonical version
    /// instead when the traced protocol changes).
    pub fn content_hash(&self) -> TraceKey {
        let canonical = self.to_canonical();
        let hi = fnv1a(0xcbf2_9ce4_8422_2325, canonical.as_bytes());
        let lo = fnv1a(0x6c62_272e_07bb_0142, canonical.as_bytes());
        TraceKey(((hi as u128) << 64) | lo as u128)
    }
}

/// FNV-1a over `bytes` from an explicit basis (the second basis makes
/// the 128-bit [`TraceKey`] out of two independent 64-bit streams).
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(basis, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Trace-cache key: the stable content hash of a [`TracedJobConfig`]'s
/// trace-affecting fields (see [`TracedJobConfig::content_hash`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey(pub u128);

impl std::fmt::Display for TraceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Validating builder for [`TracedJobConfig`].
#[derive(Clone, Debug)]
pub struct TracedJobConfigBuilder {
    cfg: TracedJobConfig,
    explicit_grid: bool,
}

impl TracedJobConfigBuilder {
    fn new(nodes: usize, app_per_node: usize) -> Self {
        let nprocs = nodes * app_per_node;
        // Two rows only when they tile the ranks; an odd count is one row.
        let (px, py) = if nprocs >= 4 && nprocs.is_multiple_of(2) {
            (nprocs / 2, 2)
        } else {
            (nprocs.max(1), 1)
        };
        TracedJobConfigBuilder {
            cfg: TracedJobConfig {
                nodes,
                app_per_node,
                with_encoders: true,
                iterations: 50,
                checkpoint_every: 25,
                grid: ((2 * px).max(16), (256 * py).max(256)),
                process_grid: Some((px, py)),
                encoder_group_nodes: 4.min(nodes.max(1)),
                record_events: false,
                workers: 0,
                engine: Engine::Tasks,
            },
            explicit_grid: false,
        }
    }

    /// Dedicate one encoder rank per node (FTI layout)?
    pub fn with_encoders(mut self, yes: bool) -> Self {
        self.cfg.with_encoders = yes;
        self
    }

    /// Solver iterations.
    pub fn iterations(mut self, n: u64) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Checkpoint cadence in iterations (0: never).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.cfg.checkpoint_every = n;
        self
    }

    /// Global solver grid.
    pub fn grid(mut self, nx: usize, ny: usize) -> Self {
        self.cfg.grid = (nx, ny);
        self.explicit_grid = true;
        self
    }

    /// Explicit (px, py) process grid; must tile exactly
    /// `nodes × app_per_node` ranks.
    pub fn process_grid(mut self, px: usize, py: usize) -> Self {
        self.cfg.process_grid = Some((px, py));
        if !self.explicit_grid {
            self.cfg.grid = ((2 * px).max(16), (256 * py).max(256));
        }
        self
    }

    /// Let the runner pick a near-square process grid.
    pub fn auto_process_grid(mut self) -> Self {
        self.cfg.process_grid = None;
        self
    }

    /// Encoding group width in nodes (paper: 4).
    pub fn encoder_group_nodes(mut self, n: usize) -> Self {
        self.cfg.encoder_group_nodes = n;
        self
    }

    /// Keep the ordered per-sender event log.
    pub fn record_events(mut self, yes: bool) -> Self {
        self.cfg.record_events = yes;
        self
    }

    /// Pin the task-engine worker count (0 = runtime default).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Pin the execution engine (default [`Engine::Tasks`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<TracedJobConfig, HcftError> {
        let c = &self.cfg;
        if c.nodes == 0 || c.app_per_node == 0 {
            return Err(HcftError::Config(format!(
                "job needs at least one node and one rank per node \
                 (got {} nodes x {})",
                c.nodes, c.app_per_node
            )));
        }
        let nprocs = c.nodes * c.app_per_node;
        let (px, py) = c.process_grid();
        if px * py != nprocs {
            return Err(HcftError::Config(format!(
                "process grid {px}x{py} does not tile {nprocs} ranks"
            )));
        }
        if c.grid.0 < px || c.grid.1 < py {
            return Err(HcftError::Config(format!(
                "solver grid {}x{} smaller than process grid {px}x{py}",
                c.grid.0, c.grid.1
            )));
        }
        if c.encoder_group_nodes == 0 || c.encoder_group_nodes > c.nodes {
            return Err(HcftError::Config(format!(
                "encoder group of {} nodes needs 1..={} \
                 (one encoder slot per node)",
                c.encoder_group_nodes, c.nodes
            )));
        }
        Ok(self.cfg)
    }
}

/// Result of a traced run.
pub struct TraceResult {
    /// The job layout (global rank numbering).
    pub layout: JobLayout,
    /// The solver's process grid (px, py) in application-rank space.
    pub process_grid: (usize, usize),
    /// Full byte matrix over all global ranks (Fig. 5a).
    pub full: CommMatrix,
    /// Application-only byte matrix, densely renumbered — the input to
    /// every clustering strategy.
    pub app: CommMatrix,
    /// Ordered per-sender event streams in *application* rank space
    /// (empty unless `record_events` was set; app↔encoder traffic is
    /// dropped since the protocol analyses operate on the application
    /// communicator).
    pub app_events: Vec<Vec<hcft_msglog::MsgEvent>>,
}

impl TraceResult {
    /// Approximate resident size of this trace — the matrices' stored
    /// rows plus the event streams. Drives the trace cache's
    /// `service.cache.bytes` accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let events: u64 = self
            .app_events
            .iter()
            .map(|s| (s.len() * std::mem::size_of::<hcft_msglog::MsgEvent>()) as u64)
            .sum();
        self.full.heap_bytes() + self.app.heap_bytes() + events
    }
}

/// The raw outcome of a traced world run: the layout plus the live
/// trace recorder, before any [`CommMatrix`] is built from it. The
/// recorder keeps one sparse row per sender, so its memory follows the
/// cells sent at any world size; the scale tests read its totals
/// directly, and the figure pipeline goes through [`run_traced_job`],
/// which snapshots and projects the matrices it needs.
pub struct TracedWorld {
    /// The job layout (global rank numbering).
    pub layout: JobLayout,
    /// The solver's process grid (px, py) in application-rank space.
    pub process_grid: (usize, usize),
    /// The shared trace recorder with every traced send.
    pub trace: Arc<TraceRecorder>,
}

/// Run the instrumented job and return the raw trace recorder.
///
/// Application ranks are shape-only: no [`hcft_tsunami::RankState`] is
/// built. Each step is the decomposition's halo exchange with every edge
/// sent as a shared zero view
/// ([`hcft_tsunami::CartDecomp::exchange_shape`]) and each checkpoint
/// note carries [`hcft_tsunami::CartDecomp::state_len`], so every traced
/// send (peer, length, tag, phase) is the full solver's.
pub fn run_traced_world(cfg: &TracedJobConfig) -> TracedWorld {
    let layout = cfg.layout();
    let total = layout.total_ranks();
    let cfg = Arc::new(cfg.clone());
    let layout_for_ranks = layout.clone();
    let world_cfg = WorldConfig {
        recv_timeout: std::time::Duration::from_secs(300),
        trace_events: cfg.record_events,
        workers: cfg.workers,
        engine: cfg.engine,
        ..WorldConfig::default()
    };
    let cfg2 = Arc::clone(&cfg);
    let result = World::run_with(total, world_cfg, move |world| {
        let cfg = &*cfg2;
        let layout = &layout_for_ranks;
        let me = hcft_topology::Rank::from(world.rank());
        // FTI initialisation: allgather of one `u64` from every rank in
        // the job. Nothing reads the result, so it is traced shape-only.
        world.allgather_zeros(std::mem::size_of::<u64>());
        let role = layout.role(me);
        // FTI replaces the world communicator: split off the application.
        let color = match role {
            Role::Application => 0,
            Role::Encoder => 1,
        };
        let sub = world
            .split(Some(color), world.rank() as i64)
            .expect("every rank participates");
        match role {
            Role::Application => run_app_rank(world, &sub, layout, cfg),
            Role::Encoder => run_encoder_rank(world, &sub, layout, cfg),
        }
    });
    TracedWorld {
        layout,
        process_grid: cfg.process_grid(),
        trace: result.trace,
    }
}

/// Run the instrumented job and return its communication matrices.
///
/// Without an event log and past two iterations, this traces one short
/// prefix world (two steps, two checkpoint rounds) and composes the
/// full matrix from it — byte-identical to the whole run, about a third
/// of its cost. A prefix that is not periodic, an event-logged job or a
/// job of at most two steps runs the whole world. The global
/// `core.trace.composed` and `core.trace.full_runs` counters record
/// which path built each trace.
pub fn run_traced_job(cfg: &TracedJobConfig) -> TraceResult {
    let reg = Registry::global();
    let composed = reg.counter("core.trace.composed");
    let full_runs = reg.counter("core.trace.full_runs");
    let layout = cfg.layout();
    let prefix = (!cfg.record_events && cfg.iterations > 2)
        .then(|| compose_from_prefix(cfg))
        .flatten();
    let (full, app_events) = match prefix {
        Some(full) => {
            composed.inc();
            (full, Vec::new())
        }
        None => {
            full_runs.inc();
            // Without `record_events` the recorder keeps no log and its
            // events are empty.
            let trace = run_traced_world(cfg).trace;
            let full = trace.byte_matrix();
            (full, app_events(&layout, trace.into_events()))
        }
    };
    let app = full.project(&layout.application_ranks());
    TraceResult {
        layout,
        process_grid: cfg.process_grid(),
        full,
        app,
        app_events,
    }
}

/// The byte matrix of `cfg`'s job composed from a prefix world of two
/// steps and — when the job checkpoints at all — two rounds, or `None`
/// when the prefix is not periodic.
fn compose_from_prefix(cfg: &TracedJobConfig) -> Option<CommMatrix> {
    let rounds = if cfg.with_encoders && cfg.checkpoint_every > 0 {
        cfg.iterations / cfg.checkpoint_every
    } else {
        0
    };
    let prefix = TracedJobConfig {
        iterations: 2,
        checkpoint_every: u64::from(rounds > 0),
        record_events: true,
        ..cfg.clone()
    };
    let events = run_traced_world(&prefix).trace.into_events();
    let ring_steps = cfg.encoder_group_nodes.saturating_sub(1);
    compose::compose(&events, cfg.iterations, rounds, ring_steps).ok()
}

/// Translate raw event streams (global ranks) into application rank
/// space, dropping traffic that touches encoder ranks.
fn app_events(
    layout: &JobLayout,
    events: Vec<Vec<MessageEvent>>,
) -> Vec<Vec<hcft_msglog::MsgEvent>> {
    events
        .into_iter()
        .enumerate()
        .filter_map(|(src, stream)| {
            layout
                .global_to_app(hcft_topology::Rank::from(src))
                .map(|app_src| {
                    stream
                        .into_iter()
                        .filter_map(|e| {
                            let dst = layout.global_to_app(hcft_topology::Rank(e.dst))?;
                            Some(hcft_msglog::MsgEvent {
                                src: app_src as u32,
                                dst: dst as u32,
                                bytes: e.bytes,
                                phase: e.phase,
                            })
                        })
                        .collect()
                })
        })
        .collect()
}

fn run_app_rank(
    world: &hcft_simmpi::Comm,
    app_comm: &hcft_simmpi::Comm,
    layout: &JobLayout,
    cfg: &TracedJobConfig,
) {
    // The traffic depends on the decomposition alone, so no solver
    // field is built or stepped: each step is the halo exchange's
    // sends and receives at their decomposed lengths.
    let d = cfg
        .tsunami_params()
        .decomp(app_comm.size(), app_comm.rank());
    let my_node = layout.node_of(hcft_topology::Rank::from(world.rank()));
    let encoder_world = my_node.idx() * layout.ranks_per_node();
    for it in 1..=cfg.iterations {
        d.exchange_shape(it - 1, app_comm);
        if cfg.with_encoders && cfg.checkpoint_every > 0 && it % cfg.checkpoint_every == 0 {
            // FTI writes the checkpoint itself to node-local storage; the
            // MPI traffic to the node's encoder process is only the
            // notification carrying the checkpoint geometry (the light
            // horizontal rows of Fig. 5b). `state_len` knows the payload
            // size from the decomposition alone.
            let mut note = [0u8; 16];
            note[..8].copy_from_slice(&(d.state_len() as u64).to_le_bytes());
            note[8..].copy_from_slice(&it.to_le_bytes());
            world.send_bytes(encoder_world, TAG_CKPT_PUSH, &note);
        }
    }
}

fn run_encoder_rank(
    world: &hcft_simmpi::Comm,
    enc_comm: &hcft_simmpi::Comm,
    layout: &JobLayout,
    cfg: &TracedJobConfig,
) {
    if cfg.checkpoint_every == 0 {
        return;
    }
    let rounds = cfg.iterations / cfg.checkpoint_every;
    let my_node = enc_comm.rank(); // encoder i ↔ node i by split key order
    let group = cfg.encoder_group_nodes.max(1);
    let group_start = (my_node / group) * group;
    let group_end = (group_start + group).min(cfg.nodes);
    // World ranks of this node's application processes.
    let app_world: Vec<usize> = (0..cfg.app_per_node)
        .map(|l| my_node * layout.ranks_per_node() + 1 + l)
        .collect();
    for _ in 0..rounds {
        // Collect the checkpoint notifications from this node's ranks;
        // the checkpoint payloads themselves went to local storage.
        let mut node_bytes = 0u64;
        for &a in &app_world {
            let note = world.recv_bytes(a, TAG_CKPT_PUSH);
            node_bytes += u64::from_le_bytes(note[..8].try_into().expect("note"));
            world.recycle(note);
        }
        // Distributed Reed–Solomon parity accumulation over one encoding
        // block per round: a ring pass around the group. FTI encodes the
        // (large) checkpoint in bounded blocks, so the on-wire traffic is
        // the block size, not the checkpoint size — the isolated light
        // points of Fig. 5b. Only that traffic is traced, so the pass
        // computes no parity: the first step sends a zero view of this
        // node's block length and every later step forwards the buffer
        // received on the previous one (a refcount move, no copy), so
        // each block travels at its origin's length even when an uneven
        // decomposition gives the group's nodes different blocks.
        let peers: Vec<usize> = (group_start..group_end).collect();
        if peers.len() < 2 {
            continue;
        }
        let pos = my_node - group_start;
        let next = peers[(pos + 1) % peers.len()];
        let prev = peers[(pos + peers.len() - 1) % peers.len()];
        let block = (node_bytes as usize / 64).clamp(1024, 1 << 20);
        let mut travelling = None;
        for step in 0..peers.len() - 1 {
            let tag = TAG_PARITY + step as u32;
            match travelling.take() {
                None => enc_comm.send_zeros(next, tag, block),
                Some(b) => enc_comm.send_shared(next, tag, b),
            }
            travelling = Some(enc_comm.recv_bytes(prev, tag));
        }
    }
}

/// Score every strategy of `spec` on one trace: the trace-shaped entry
/// point of [`SchemeFamilySpec::score_staged`] on fresh stages, which
/// builds on the trace's application placement and node graph, walks
/// `trace.app` in place and keeps the spec's order at any thread count.
/// An entry the layout cannot host fails the whole sweep with the
/// strategy's validation error — the generated presets
/// ([`SchemeFamilySpec::table2`], [`SchemeFamilySpec::for_layout`]) hold
/// only entries that fit.
pub fn evaluate_family_sweep(
    trace: &TraceResult,
    spec: &SchemeFamilySpec,
) -> Result<Vec<FamilyScore>, HcftError> {
    let stage = TraceStage::new(trace.layout.app_placement());
    spec.score_staged(&trace.app, &LayoutStage::new(), &stage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> TraceResult {
        run_traced_job(&TracedJobConfig::small(8, 4))
    }

    #[test]
    fn traced_job_produces_expected_patterns() {
        let t = small_trace();
        assert_eq!(t.full.n(), 8 * 5);
        assert_eq!(t.app.n(), 32);
        // The app matrix is dominated by stencil neighbour traffic.
        assert!(t.app.total_bytes() > 0);
        // Encoder ranks received checkpoint pushes: global rank 0 is an
        // encoder; its node's app ranks are 1..=4.
        assert!(t.full.get(1, 0) > 0, "app 1 -> encoder 0 checkpoint push");
        // Encoders talked to each other (parity ring within group of 4:
        // encoder of node 0 and node 1 are ranks 0 and 5).
        assert!(t.full.get(0, 5) > 0, "encoder ring traffic");
    }

    #[test]
    fn app_matrix_has_stencil_diagonals() {
        let t = small_trace();
        let px = t.process_grid.0;
        let mut diag = 0u64;
        let mut other = 0u64;
        for (s, d, b) in t.app.entries() {
            let dist = s.abs_diff(d);
            if dist == 1 || dist == px {
                diag += b;
            } else {
                other += b;
            }
        }
        assert!(
            diag > other,
            "stencil diagonals must dominate: {diag} vs {other}"
        );
    }

    #[test]
    fn evaluation_reproduces_paper_shape() {
        let t = run_traced_job(&TracedJobConfig {
            nodes: 16,
            app_per_node: 4,
            with_encoders: true,
            iterations: 20,
            checkpoint_every: 10,
            grid: (32, 32),
            process_grid: None,
            encoder_group_nodes: 4,
            record_events: false,
            workers: 0,
            engine: Engine::Tasks,
        });
        let hier_cfg = hcft_cluster::HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        };
        let rows = evaluate_family_sweep(&t, &SchemeFamilySpec::paper(8, 4, 16, hier_cfg))
            .expect("the paper schemes fit 16 nodes");
        let [nv, sg, ds, hi] = [0, 1, 2, 3].map(|i| &rows[i].score);
        // Paper shape (Table II orderings; absolutes differ at this toy
        // scale where the init allgather is a visible byte fraction):
        // hierarchical logs the least of all schemes.
        assert!(hi.logging_fraction < nv.logging_fraction);
        assert!(hi.logging_fraction < sg.logging_fraction);
        assert!(hi.logging_fraction < ds.logging_fraction);
        // Hierarchical reliability beats the consecutive schemes by
        // orders of magnitude; fully distributed is better still.
        assert!(hi.p_catastrophic < nv.p_catastrophic / 10.0);
        assert!(hi.p_catastrophic < sg.p_catastrophic / 1000.0);
        assert!(ds.p_catastrophic < hi.p_catastrophic);
        // Encoding time follows L2 size: hierarchical L2 = 4 ≪ naive 8.
        assert!(hi.encode_s_per_gb < nv.encode_s_per_gb);
        // Distributed restart cost explodes: diagonal clusters of 16 make
        // a single node failure roll back the whole machine.
        assert!(ds.restart_fraction > 0.9);
        assert!(ds.restart_fraction > 3.0 * hi.restart_fraction);
    }

    #[test]
    fn paper_trace_is_resident_in_under_a_megabyte() {
        // 1 088² + 1 024² cells of 8 B would be 17 858 560 B; the
        // stored rows of a 14 782-cell trace fit well under 1 MiB.
        let t = run_traced_job(&TracedJobConfig::paper_1024());
        assert!(t.app_events.is_empty());
        let cells = (t.full.edge_count() + t.app.edge_count()) as u64;
        assert!(t.approx_bytes() >= cells * 16, "every stored cell counts");
        assert!(t.approx_bytes() < 1 << 20, "{} B", t.approx_bytes());
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn presets_round_trip_through_the_builder() {
        let p = TracedJobConfig::paper_1024();
        assert_eq!(p.nodes, 64);
        assert_eq!(p.process_grid, Some((512, 2)));
        assert_eq!(p.grid, (1024, 4096));
        let s = TracedJobConfig::small(8, 4);
        assert_eq!(s.process_grid, Some((16, 2)));
        assert_eq!(s.encoder_group_nodes, 4);
    }

    #[test]
    fn mismatched_process_grid_is_rejected() {
        let err = TracedJobConfig::builder(8, 4)
            .process_grid(7, 3)
            .build()
            .unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err}");
    }

    #[test]
    fn solver_grid_must_cover_the_process_grid() {
        let err = TracedJobConfig::builder(8, 4)
            .grid(8, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err}");
    }

    #[test]
    fn encoder_group_must_fit_the_node_count() {
        let err = TracedJobConfig::builder(4, 2)
            .encoder_group_nodes(9)
            .build()
            .unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err}");
        assert!(TracedJobConfig::builder(4, 2)
            .encoder_group_nodes(4)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_sized_jobs_are_rejected() {
        assert!(TracedJobConfig::builder(0, 4).build().is_err());
        assert!(TracedJobConfig::builder(4, 0).build().is_err());
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;

    #[test]
    fn recorded_events_match_the_app_matrix() {
        let mut cfg = TracedJobConfig::small(8, 4);
        cfg.record_events = true;
        let t = run_traced_job(&cfg);
        assert_eq!(t.app_events.len(), t.app.n());
        // Rebuild the byte matrix from the event streams; it must equal
        // the app matrix exactly (events and matrix see the same sends).
        let mut rebuilt = hcft_graph::CommMatrix::new(t.app.n());
        for stream in &t.app_events {
            for ev in stream {
                rebuilt.add(ev.src as usize, ev.dst as usize, ev.bytes);
            }
        }
        assert_eq!(rebuilt, t.app);
        // Phases are monotone per sender (send order).
        for stream in &t.app_events {
            for w in stream.windows(2) {
                assert!(w[0].phase <= w[1].phase);
            }
        }
    }

    #[test]
    fn events_are_empty_unless_requested() {
        let t = run_traced_job(&TracedJobConfig::small(4, 2));
        assert!(t.app_events.is_empty());
    }

    /// `compose` and `project` build every row once at its final length:
    /// on the served paper shape each row's capacity is its length, so
    /// the resident size the trace cache charges is exactly the stored
    /// cells plus the row headers. (Every capacity is at least its
    /// length, so equal sums mean equal rows.)
    #[test]
    fn composed_served_trace_rows_are_built_at_their_final_length() {
        let cfg = TracedJobConfig::builder(64, 16)
            .iterations(100)
            .checkpoint_every(21)
            .build()
            .expect("served shape");
        let t = run_traced_job(&cfg);
        let header = std::mem::size_of::<Vec<(u32, u64)>>();
        let cell = std::mem::size_of::<(u32, u64)>();
        for (name, m) in [("full", &t.full), ("app", &t.app)] {
            assert!(m.edge_count() > m.n(), "{name}: a traced matrix");
            assert_eq!(
                m.heap_bytes(),
                (m.n() * header + m.edge_count() * cell) as u64,
                "{name}: a row holds spare capacity"
            );
        }
    }
}
