//! The live cluster-loss replay engine — the repo's one recovery executor.
//!
//! The workload runs as a live `simmpi` world (every rank a scheduled
//! task, real blocking receives), a [`FaultScenario`] kills a node, an
//! entire L1 cluster or a PSU group mid-run, and recovery happens
//! against the same machinery a production run would use —
//!
//! 1. the failed nodes' on-disk checkpoints are destroyed and their
//!    ranks' in-memory state is lost;
//! 2. the restart set (the failed L1 cluster(s), per the hybrid
//!    protocol) is restored from the last *complete* multi-level
//!    checkpoint epoch, Reed–Solomon-rebuilding the lost shards;
//! 3. the restored ranks re-execute inside a *replay world*
//!    ([`hcft_simmpi::World::run_replay`]): survivors stay parked at the
//!    failure frontier while their logged cross-cluster sends are
//!    re-fed in deterministic per-channel FIFO order, and the restored
//!    ranks' own cross-boundary sends are suppressed as duplicates
//!    (and re-logged, rebuilding the crashed senders' logs);
//! 4. once the restart set catches up, the full world resumes.
//!
//! Send determinism makes the catch-up **bit-for-bit** identical to an
//! uninterrupted run — the engine's tests assert exactly that, for both
//! the 2-D tsunami and the 3-D heat workload, against
//! [`ReplayEngine::reference`] and (tsunami) against the independent
//! single-domain solver `hcft_tsunami::sequential::SequentialSim`.
//!
//! A run survives more than one failure: [`ReplayEngine::run_sequence`]
//! strikes a list of scenarios at strictly increasing phases of one
//! run, so a later loss can be served from the logs an earlier
//! catch-up re-recorded; [`ReplayEngine::run`] is its one-element case.
//!
//! The fault model is richer than a clean kill: scenarios can inject
//! *cascading failures* mid-recovery (the recovery enlarges the failed
//! set and starts over), *silent checkpoint corruption* (detected only
//! when [`ReplayWorkload::restore`] rejects the payload via
//! [`HcftError::Recovery`]; the shard is quarantined and rebuilt from
//! group parity), and *failure during encoding* (locals written, parity
//! never completes, recovery falls back to the previous epoch with
//! correspondingly longer log replay).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hcft_checkpoint::store::Artefact;
use hcft_checkpoint::{CheckpointStore, Level, MultilevelCheckpointer};
use hcft_cluster::ClusteringScheme;
use hcft_msglog::{check_replay, Containment, HybridProtocol, MsgEvent, ReplayReport, SenderLog};
use hcft_simmpi::{Comm, Engine, ReplayFeed, ReplayPlan, World, WorldConfig};
use hcft_telemetry::{EventKind, HcftError, Registry};
use hcft_topology::{MachineSpec, NodeId, Placement, Rank};
use hcft_tsunami::heat3d::{is_face_tag, Heat3dParams, Heat3dState};
use hcft_tsunami::solver::is_halo_tag;
use hcft_tsunami::{HaloLink, RankState, TsunamiParams};

use crate::scenario::{FaultScenario, Injection};

/// A solver the replay engine can run, checkpoint, kill and replay.
///
/// Requirements: deterministic (same state + same received halos →
/// same next state, bit-for-bit), send-deterministic (re-execution
/// re-issues identical sends), and checkpointable via a byte-exact
/// save/restore pair. Both bundled stencils qualify.
pub trait ReplayWorkload: Send + Sync + 'static {
    /// One rank's solver state.
    type State: Send + 'static;

    /// Short name for telemetry and reports.
    fn name(&self) -> &'static str;
    /// Initialise rank `rank` of `nprocs`.
    fn init(&self, nprocs: usize, rank: usize) -> Self::State;
    /// Completed iterations of a state.
    fn iteration(&self, st: &Self::State) -> u64;
    /// Advance one iteration: exchange halos over `link`, update. The
    /// engine hands in a link that keeps the sender logs, so a workload
    /// stays protocol-oblivious.
    fn step(&self, st: &mut Self::State, link: &dyn HaloLink);
    /// Serialise the full state (the checkpoint payload) into `out`.
    fn save_into(&self, st: &Self::State, out: &mut Vec<u8>);
    /// Restore a payload written by [`ReplayWorkload::save_into`].
    /// Corrupt bytes must be reported as [`HcftError::Recovery`].
    fn restore(&self, st: &mut Self::State, bytes: &[u8]) -> Result<(), HcftError>;
    /// Is `tag` one of this workload's halo-exchange wire tags?
    fn is_halo_tag(&self, tag: u32) -> bool;
}

/// The 2-D shallow-water solver as a replayable workload.
pub struct TsunamiWorkload {
    params: TsunamiParams,
}

impl TsunamiWorkload {
    /// Wrap a parameter set (see [`TsunamiParams::stable`]).
    pub fn new(params: TsunamiParams) -> Self {
        TsunamiWorkload { params }
    }

    /// Reassemble the global η field from per-rank payloads (an
    /// outcome's `final_state`, or [`ReplayEngine::reference`]) by the
    /// domain decomposition — the form the sequential oracle
    /// (`hcft_tsunami::sequential::SequentialSim`) produces.
    pub fn global_eta(&self, payloads: &[Vec<u8>]) -> Result<Vec<f64>, HcftError> {
        let nx = self.params.nx;
        let mut global = vec![0.0f64; nx * self.params.ny];
        for (rank, bytes) in payloads.iter().enumerate() {
            let mut st = RankState::new(&self.params, payloads.len(), rank);
            st.restore_state(bytes)?;
            let d = st.decomp();
            let local = st.local_eta();
            for j in 0..d.lny {
                let row = (d.y0 + j) * nx + d.x0;
                global[row..row + d.lnx].copy_from_slice(&local[j * d.lnx..(j + 1) * d.lnx]);
            }
        }
        Ok(global)
    }
}

impl ReplayWorkload for TsunamiWorkload {
    type State = RankState;

    fn name(&self) -> &'static str {
        "tsunami"
    }

    fn init(&self, nprocs: usize, rank: usize) -> RankState {
        RankState::new(&self.params, nprocs, rank)
    }

    fn iteration(&self, st: &RankState) -> u64 {
        st.iteration()
    }

    fn step(&self, st: &mut RankState, link: &dyn HaloLink) {
        st.step(&self.params, link);
    }

    fn save_into(&self, st: &RankState, out: &mut Vec<u8>) {
        st.save_state_into(out);
    }

    fn restore(&self, st: &mut RankState, bytes: &[u8]) -> Result<(), HcftError> {
        st.restore_state(bytes)
    }

    fn is_halo_tag(&self, tag: u32) -> bool {
        is_halo_tag(tag)
    }
}

/// The 3-D heat-diffusion solver as a replayable workload.
pub struct Heat3dWorkload {
    params: Heat3dParams,
}

impl Heat3dWorkload {
    /// Wrap a parameter set (see [`Heat3dParams::stable`]).
    pub fn new(params: Heat3dParams) -> Self {
        Heat3dWorkload { params }
    }
}

impl ReplayWorkload for Heat3dWorkload {
    type State = Heat3dState;

    fn name(&self) -> &'static str {
        "heat3d"
    }

    fn init(&self, nprocs: usize, rank: usize) -> Heat3dState {
        Heat3dState::new(&self.params, nprocs, rank)
    }

    fn iteration(&self, st: &Heat3dState) -> u64 {
        st.iteration()
    }

    fn step(&self, st: &mut Heat3dState, link: &dyn HaloLink) {
        st.step(link);
    }

    fn save_into(&self, st: &Heat3dState, out: &mut Vec<u8>) {
        st.save_state_into(out);
    }

    fn restore(&self, st: &mut Heat3dState, bytes: &[u8]) -> Result<(), HcftError> {
        st.restore_state(bytes)
    }

    fn is_halo_tag(&self, tag: u32) -> bool {
        is_face_tag(tag)
    }
}

/// The engine's [`HaloLink`]: a communicator plus the hybrid-protocol
/// sender logs. A logged payload is recorded *before* the send, so
/// during replay a restored rank's suppressed cross-boundary sends are
/// still re-logged — rebuilding the log its crashed node lost.
struct LoggedLink<'a> {
    comm: &'a Comm,
    protocol: &'a HybridProtocol,
    logs: &'a [Mutex<SenderLog>],
}

impl HaloLink for LoggedLink<'_> {
    fn set_phase(&self, phase: u64) {
        self.comm.set_phase(phase);
    }

    fn send_with(&self, dst: usize, tag: u32, len: usize, fill: &mut dyn FnMut(&mut Vec<u8>)) {
        let me = self.comm.rank();
        let logged = self.protocol.must_log(Rank::from(me), Rank::from(dst));
        self.comm.send_with(dst, tag, len, |buf| {
            fill(buf);
            if logged {
                // The log keeps its own exact-size copy: the wire buffer
                // is pooled, and a pooled buffer can be far larger than
                // the halo it carries this time.
                self.logs[me].lock().expect("sender log").record(
                    dst as u32,
                    tag,
                    self.comm.phase(),
                    Bytes::copy_from_slice(buf),
                );
            }
        });
    }

    fn recv_with(&self, src: usize, tag: u32, install: &mut dyn FnMut(&[u8])) {
        HaloLink::recv_with(self.comm, src, tag, install);
    }
}

/// Which checkpoint epochs completed, and at which phase. Only epochs
/// recorded here are recoverable; a failed encode leaves a gap.
struct CkptBook {
    next_epoch: u64,
    /// `(epoch, phase)` of complete checkpoints, oldest first. The last
    /// two are retained so an encoding failure always leaves a fallback.
    complete: Vec<(u64, u64)>,
}

/// Everything the ranks of a fault-tolerant world share: protocol,
/// sender logs, checkpoint machinery and its bookkeeping, and the
/// slots their states park in between worlds.
struct Fabric<W: ReplayWorkload> {
    workload: Arc<W>,
    protocol: HybridProtocol,
    every: u64,
    /// `None` before the first world and while a rank is dead.
    states: Vec<Mutex<Option<W::State>>>,
    logs: Vec<Mutex<SenderLog>>,
    /// Per-rank checkpoint payload staging, written by each rank before
    /// the checkpoint barrier, consumed by rank 0.
    slots: Mutex<Vec<Vec<u8>>>,
    ckpt: MultilevelCheckpointer,
    book: Mutex<CkptBook>,
    /// `Some((phase, victims))` — at that checkpoint, kill the victims
    /// after locals are written but before parity encoding finishes
    /// ([`Injection::FailDuringEncoding`]).
    sabotage: Mutex<Option<(u64, Vec<NodeId>)>>,
    telemetry: Arc<Registry>,
}

impl<W: ReplayWorkload> Fabric<W> {
    /// Advance `st` until `target` iterations. When `ckpt_from` is set,
    /// take a coordinated checkpoint at every cadence phase `>= it`;
    /// the check runs before the break so a cadence-aligned `target`
    /// still checkpoints. Cross-cluster sends are logged throughout.
    fn drive(&self, comm: &Comm, st: &mut W::State, target: u64, ckpt_from: Option<u64>) {
        let link = LoggedLink {
            comm,
            protocol: &self.protocol,
            logs: &self.logs,
        };
        loop {
            let it = self.workload.iteration(st);
            if let Some(from) = ckpt_from {
                if self.every > 0 && it.is_multiple_of(self.every) && it >= from {
                    self.coordinated_checkpoint(comm, st, it);
                }
            }
            if it >= target {
                break;
            }
            self.workload.step(st, &link);
        }
    }

    /// FTI-style coordinated checkpoint: every rank serialises into its
    /// slot, a barrier closes the epoch, rank 0 writes and protects it,
    /// a second barrier releases everyone, and — only if the epoch
    /// completed — each rank garbage-collects its pre-checkpoint log.
    fn coordinated_checkpoint(&self, comm: &Comm, st: &W::State, phase: u64) {
        {
            let mut slots = self.slots.lock().expect("checkpoint slots");
            self.workload.save_into(st, &mut slots[comm.rank()]);
        }
        comm.barrier();
        if comm.rank() == 0 {
            self.rank0_checkpoint(phase);
        }
        comm.barrier();
        let completed = {
            let book = self.book.lock().expect("checkpoint book");
            book.complete.last().is_some_and(|&(_, p)| p == phase)
        };
        if completed {
            // All clusters checkpointed together: pre-checkpoint log
            // entries can never be replayed again.
            self.logs[comm.rank()]
                .lock()
                .expect("sender log")
                .truncate_before(phase);
        }
    }

    /// Rank 0's half of the coordinated checkpoint. An encoding failure
    /// (including the injected one) is not fatal: the epoch is simply
    /// never marked complete, so recovery falls back to the previous
    /// one and the logs are not truncated. The time the world stands
    /// still for it, prune included, lands in `replay.checkpoint_ns`.
    fn rank0_checkpoint(&self, phase: u64) {
        let started = Instant::now();
        let epoch = {
            let mut book = self.book.lock().expect("checkpoint book");
            if book.complete.last().is_some_and(|&(_, p)| p == phase) {
                return; // already protected at this phase
            }
            let e = book.next_epoch;
            book.next_epoch += 1;
            e
        };
        let sabotage = {
            let s = self.sabotage.lock().expect("sabotage");
            match s.as_ref() {
                Some((ph, victims)) if *ph == phase => Some(victims.clone()),
                _ => None,
            }
        };
        let result = {
            let slots = self.slots.lock().expect("checkpoint slots");
            match sabotage {
                Some(victims) => self.checkpoint_failing_mid_encode(epoch, phase, &slots, &victims),
                None => self.ckpt.checkpoint(epoch, Level::Encoded, &slots),
            }
        };
        let mut book = self.book.lock().expect("checkpoint book");
        match result {
            Ok(()) => {
                book.complete.push((epoch, phase));
                if book.complete.len() > 2 {
                    book.complete.remove(0);
                }
                let _ = self.ckpt.store().prune_before(book.complete[0].0);
                self.telemetry.event(
                    EventKind::CheckpointComplete,
                    phase,
                    format!("epoch={epoch}"),
                );
            }
            Err(e) => {
                self.telemetry.event(
                    EventKind::CheckpointComplete,
                    phase,
                    format!("epoch={epoch} INCOMPLETE: {e}"),
                );
            }
        }
        self.telemetry
            .histogram("replay.checkpoint_ns")
            .observe_duration(started.elapsed());
    }

    /// The injected failure-during-encoding: locals land, then the
    /// victims die (taking *all* their on-disk epochs with them, like a
    /// real node loss), then parity encoding runs — and fails for every
    /// group containing a victim, leaving the epoch incomplete.
    fn checkpoint_failing_mid_encode(
        &self,
        epoch: u64,
        phase: u64,
        slots: &[Vec<u8>],
        victims: &[NodeId],
    ) -> Result<(), HcftError> {
        self.ckpt.checkpoint(epoch, Level::Local, slots)?;
        for &v in victims {
            self.ckpt.store().fail_node(v).map_err(HcftError::Io)?;
            self.telemetry.event(
                EventKind::NodeFailure,
                phase,
                format!("node={v} (during encoding of epoch {epoch})"),
            );
        }
        self.ckpt.encode_epoch(epoch, slots)
    }
}

/// Configuration of a [`ReplayEngine`]. Coordinated checkpoints are
/// always taken at [`Level::Encoded`]: a local write plus Reed–Solomon
/// parity over the L2 clusters.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Checkpoint cadence in iterations (must be positive).
    pub checkpoint_every: u64,
    /// Checkpoint store root. Use a fresh directory per engine run: the
    /// store is stateful across epochs.
    pub store_root: PathBuf,
    /// Worker threads for task-engine worlds (0 = the core count).
    pub workers: usize,
    /// `simmpi` execution engine.
    pub engine: Engine,
    /// Receive-watchdog timeout.
    pub recv_timeout: Duration,
}

impl ReplayConfig {
    /// Defaults: a checkpoint every 5 iterations, task engine.
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        let wc = WorldConfig::default();
        ReplayConfig {
            checkpoint_every: 5,
            store_root: store_root.into(),
            workers: 0,
            engine: wc.engine,
            recv_timeout: wc.recv_timeout,
        }
    }
}

/// What one scenario of a run did, in numbers.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Iteration at which the primary failure struck.
    pub scenario_phase: u64,
    /// All failed nodes, primary plus cascades, in failure order.
    pub failed_nodes: Vec<NodeId>,
    /// All ranks lost with those nodes (sorted).
    pub failed_ranks: Vec<Rank>,
    /// The final restart set (the failed L1 clusters' ranks).
    pub restart_set: Vec<Rank>,
    /// Recovery attempts (1 + number of cascades that struck).
    pub recovery_attempts: u64,
    /// Cascading failures that interrupted a recovery.
    pub cascades: u64,
    /// Corrupted-shard quarantines (each followed by a parity rebuild).
    pub corruption_retries: u64,
    /// Epoch recovered from.
    pub recovered_epoch: u64,
    /// Phase of that epoch's checkpoint (the rollback point).
    pub recovered_phase: u64,
    /// Did recovery fall back past the newest cadence point (because
    /// that epoch never completed)?
    pub used_fallback_epoch: bool,
    /// Payload bytes all sender logs held when the failure struck — the
    /// logging overhead made concrete (0 right after a checkpoint).
    pub log_memory_bytes: u64,
    /// Logged messages re-fed to the restart set, all attempts.
    pub messages_replayed: u64,
    /// Payload bytes re-fed.
    pub bytes_replayed: u64,
    /// Restart-set sends suppressed as already-delivered duplicates.
    pub suppressed_duplicates: u64,
    /// Checkpoint payload bytes restored into restart ranks.
    pub bytes_restored: u64,
    /// Rank-iterations re-executed by the successful catch-up.
    pub catchup_steps: u64,
    /// Rank-iterations of catch-up discarded by cascades.
    pub wasted_catchup_steps: u64,
    /// The protocol feasibility analysis of the pre-failure traffic.
    pub report: ReplayReport,
    /// Per-rank serialised state when this scenario's share of the run
    /// ended: the completed run for the last (or only) scenario, the
    /// recovered failure frontier for earlier ones of a sequence.
    pub final_state: Vec<Vec<u8>>,
}

impl ReplayOutcome {
    /// Is the final state bit-for-bit identical to `reference` (the
    /// per-rank payloads of an uninterrupted run, e.g. from
    /// [`ReplayEngine::reference`])?
    pub fn matches(&self, reference: &[Vec<u8>]) -> bool {
        self.final_state == reference
    }
}

/// The engine: one workload, one placement + clustering scheme, one
/// checkpoint configuration; each [`ReplayEngine::run`] /
/// [`ReplayEngine::run_sequence`] executes one run end to end.
pub struct ReplayEngine<W: ReplayWorkload> {
    workload: Arc<W>,
    placement: Placement,
    scheme: ClusteringScheme,
    /// The L1 restart rule; `None` if the scheme does not cover the
    /// placement, which `validate` reports before anything asks it.
    containment: Option<Containment>,
    machine: Option<MachineSpec>,
    cfg: ReplayConfig,
    telemetry: Arc<Registry>,
}

/// One scenario of a sequence, resolved against the engine's placement.
struct Strike<'s> {
    scenario: &'s FaultScenario,
    nodes: Vec<NodeId>,
    ranks: Vec<Rank>,
}

impl<W: ReplayWorkload> ReplayEngine<W> {
    /// Build an engine reporting to the process-global registry (so
    /// `repro --telemetry` includes the `replay.*` counters).
    pub fn new(
        workload: W,
        placement: Placement,
        scheme: ClusteringScheme,
        cfg: ReplayConfig,
    ) -> Self {
        Self::with_telemetry(workload, placement, scheme, cfg, Registry::global().clone())
    }

    /// Build an engine with a dedicated registry (scoped measurement).
    /// A scheme that does not cover the placement is reported by
    /// [`ReplayEngine::run`] as [`HcftError::Config`].
    pub fn with_telemetry(
        workload: W,
        placement: Placement,
        scheme: ClusteringScheme,
        cfg: ReplayConfig,
        telemetry: Arc<Registry>,
    ) -> Self {
        let containment = (scheme.l1.nprocs() == placement.nprocs())
            .then(|| Containment::new(&scheme.l1, &placement));
        ReplayEngine {
            workload: Arc::new(workload),
            placement,
            scheme,
            containment,
            machine: None,
            cfg,
            telemetry,
        }
    }

    /// Attach a machine model (needed to resolve PSU-correlated
    /// targets).
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = Some(machine);
        self
    }

    /// The registry this engine reports into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The ranks that roll back when `nodes` (resolved by `validate`)
    /// die: the L1 clusters they host.
    fn restart_set(&self, nodes: &[NodeId]) -> Vec<Rank> {
        let failed: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        self.containment
            .as_ref()
            .expect("resolved scenarios imply a covering scheme")
            .restart_set(&failed)
    }

    fn world_config(&self, trace_events: bool) -> WorldConfig {
        WorldConfig {
            trace_events,
            workers: self.cfg.workers,
            engine: self.cfg.engine,
            recv_timeout: self.cfg.recv_timeout,
            ..WorldConfig::default()
        }
    }

    /// Run the workload uninterrupted (no checkpoints, no logging, no
    /// failure) and return the per-rank final-state payloads — the
    /// ground truth a scenario outcome must [`ReplayOutcome::matches`].
    pub fn reference(&self, total_steps: u64) -> Vec<Vec<u8>> {
        let n = self.placement.nprocs();
        let w = Arc::clone(&self.workload);
        World::run_with(n, self.world_config(false), move |c| {
            let c: &Comm = c;
            let mut st = w.init(n, c.rank());
            while w.iteration(&st) < total_steps {
                w.step(&mut st, c);
            }
            let mut out = Vec::new();
            w.save_into(&st, &mut out);
            out
        })
        .outputs
    }

    /// Execute `scenario` against a `total_steps` run: run to the
    /// failure phase with live FT machinery, kill the targets, recover
    /// through checkpoint restore + log replay (riding out every
    /// injected complication), and finish the run. The one-element
    /// case of [`ReplayEngine::run_sequence`].
    ///
    /// Errors: [`HcftError::Config`] for invalid scenarios,
    /// [`HcftError::Erasure`] when the (possibly cascaded) loss defeats
    /// the L2 redundancy — the paper's catastrophic failure — and
    /// [`HcftError::Recovery`] for unrecoverable protocol state (no
    /// complete epoch, corruption beyond the retry budget).
    pub fn run(
        &self,
        scenario: &FaultScenario,
        total_steps: u64,
    ) -> Result<ReplayOutcome, HcftError> {
        let mut outcomes = self.run_sequence(std::slice::from_ref(scenario), total_steps)?;
        Ok(outcomes.pop().expect("one scenario, one outcome"))
    }

    /// Execute `scenarios` one after another against a single
    /// `total_steps` run: advance to each failure phase, kill, recover,
    /// carry on — checkpoint epochs, sender logs and rank states live
    /// across the strikes, so a later recovery is fed from whatever an
    /// earlier catch-up re-logged. Phases must be strictly increasing
    /// inside `(0, total_steps)`; one outcome per scenario, in order.
    ///
    /// Errors as [`ReplayEngine::run`]; the first failing scenario
    /// ends the run.
    pub fn run_sequence(
        &self,
        scenarios: &[FaultScenario],
        total_steps: u64,
    ) -> Result<Vec<ReplayOutcome>, HcftError> {
        let strikes = self.validate(scenarios, total_steps)?;
        let mut run = LiveRun::start(self)?;
        let mut outcomes = Vec::with_capacity(strikes.len());
        let mut ckpt_from = 0;
        for (i, strike) in strikes.iter().enumerate() {
            let frontier = strike.scenario.at_phase();
            *run.fab.sabotage.lock().expect("sabotage") = strike
                .scenario
                .fails_during_encoding()
                .then(|| (frontier, strike.nodes.clone()));
            // Only pre-failure segments are traced: the feasibility
            // report never looks past the last failure.
            run.advance(frontier, ckpt_from, true);
            let mut outcome = run.strike(strike)?;
            // The frontier's cadence point (if any) was handled before
            // the kill; checkpointing resumes strictly after it.
            ckpt_from = frontier + 1;
            if i + 1 == strikes.len() {
                run.advance(total_steps, ckpt_from, false);
            }
            outcome.final_state = run.snapshot();
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Everything that can be rejected before a world is launched: the
    /// engine's own configuration, each scenario's targets (their
    /// resolution also refuses a scheme that does not cover the
    /// placement), timing and injection preconditions (including the
    /// corruption/erasure interaction that would otherwise poison a
    /// Reed–Solomon rebuild), and the order of the sequence. Returns the
    /// resolved strikes.
    fn validate<'s>(
        &self,
        scenarios: &'s [FaultScenario],
        total_steps: u64,
    ) -> Result<Vec<Strike<'s>>, HcftError> {
        let cfg_err = |msg: String| Err(HcftError::Config(msg));
        if self.cfg.checkpoint_every == 0 {
            return cfg_err("checkpoint cadence must be positive".to_string());
        }
        if scenarios.is_empty() {
            return cfg_err("a run needs at least one fault scenario".to_string());
        }
        let mut strikes = Vec::with_capacity(scenarios.len());
        let mut after = 0;
        for scenario in scenarios {
            let machine = self.machine.as_ref();
            let nodes = scenario.failed_nodes(&self.placement, &self.scheme, machine)?;
            let mut ranks: Vec<Rank> = nodes
                .iter()
                .flat_map(|&n| self.placement.ranks_on(n))
                .copied()
                .collect();
            ranks.sort_unstable();
            let fp = scenario.at_phase();
            if fp <= after || fp >= total_steps {
                return cfg_err(format!(
                    "failure phase {fp} must fall strictly inside ({after}, {total_steps}): \
                     inside the run and after the previous scenario"
                ));
            }
            after = fp;
            let restart = self.restart_set(&nodes);
            for inj in scenario.injections() {
                match inj {
                    Injection::FailDuringEncoding => {
                        if !fp.is_multiple_of(self.cfg.checkpoint_every) {
                            return cfg_err(format!(
                                "failure-during-encoding needs the failure phase ({fp}) on the \
                                 checkpoint cadence ({})",
                                self.cfg.checkpoint_every
                            ));
                        }
                    }
                    Injection::CascadeAfter { node, .. } => {
                        if node.idx() >= self.placement.nodes() {
                            return cfg_err(format!("cascade node {node} outside the placement"));
                        }
                        if nodes.contains(node) {
                            return cfg_err(format!("cascade node {node} already fails primarily"));
                        }
                    }
                    Injection::CorruptCheckpoint { node } => {
                        if node.idx() >= self.placement.nodes() {
                            return cfg_err(format!("corrupt node {node} outside the placement"));
                        }
                        if nodes.contains(node) {
                            return cfg_err(format!(
                                "corrupt node {node} dies with the primary failure — corrupt a \
                                 surviving node of the restart set instead"
                            ));
                        }
                        let node_ranks = self.placement.ranks_on(*node);
                        if !node_ranks.iter().any(|r| restart.contains(r)) {
                            return cfg_err(format!(
                                "corrupt node {node} hosts no restart-set rank: recovery would \
                                 never read the corrupted shards"
                            ));
                        }
                        for &r in node_ranks {
                            let g = self.scheme.l2.cluster_of(r);
                            if self
                                .scheme
                                .l2
                                .members(g)
                                .iter()
                                .any(|&m| nodes.contains(&self.placement.node_of(m)))
                            {
                                return cfg_err(format!(
                                    "corrupt node {node} shares an L2 erasure group with a \
                                     failed node: its corrupted-but-readable shards would \
                                     poison the Reed–Solomon rebuild of the lost ones"
                                ));
                            }
                        }
                    }
                }
            }
            strikes.push(Strike {
                scenario,
                nodes,
                ranks,
            });
        }
        Ok(strikes)
    }
}

/// A fault-tolerant run in flight: the fabric its worlds share and the
/// failure-free halo traffic traced so far (the feasibility report's
/// input).
struct LiveRun<'e, W: ReplayWorkload> {
    eng: &'e ReplayEngine<W>,
    fab: Arc<Fabric<W>>,
    events: Vec<Vec<MsgEvent>>,
}

impl<'e, W: ReplayWorkload> LiveRun<'e, W> {
    /// Open the checkpoint store and the per-rank logs; no rank has
    /// state yet — the first [`LiveRun::advance`] initialises them.
    fn start(eng: &'e ReplayEngine<W>) -> Result<Self, HcftError> {
        let n = eng.placement.nprocs();
        let fab = Arc::new(Fabric {
            workload: Arc::clone(&eng.workload),
            protocol: HybridProtocol::new(eng.scheme.l1.clone()),
            every: eng.cfg.checkpoint_every,
            states: (0..n).map(|_| Mutex::new(None)).collect(),
            logs: (0..n)
                .map(|_| Mutex::new(SenderLog::with_telemetry(&eng.telemetry)))
                .collect(),
            slots: Mutex::new(vec![Vec::new(); n]),
            ckpt: MultilevelCheckpointer::with_telemetry(
                CheckpointStore::create(&eng.cfg.store_root, eng.placement.nodes())?,
                eng.scheme.l2.clone(),
                eng.placement.clone(),
                Arc::clone(&eng.telemetry),
            ),
            book: Mutex::new(CkptBook {
                next_epoch: 1,
                complete: Vec::new(),
            }),
            sabotage: Mutex::new(None),
            telemetry: Arc::clone(&eng.telemetry),
        });
        Ok(LiveRun {
            eng,
            fab,
            events: vec![Vec::new(); n],
        })
    }

    /// Run a full-world segment: every rank takes (or initialises) its
    /// state, drives to `target` with checkpoints from `ckpt_from` and
    /// logging on, and parks the state again. A traced segment adds
    /// its halo sends to the run's event history.
    fn advance(&mut self, target: u64, ckpt_from: u64, trace_events: bool) {
        let fab = Arc::clone(&self.fab);
        let n = fab.states.len();
        let wr = World::run_with(n, self.eng.world_config(trace_events), move |c| {
            let c: &Comm = c;
            let r = c.rank();
            let parked = fab.states[r].lock().expect("state").take();
            let mut st = parked.unwrap_or_else(|| fab.workload.init(n, r));
            fab.drive(c, &mut st, target, Some(ckpt_from));
            *fab.states[r].lock().expect("state") = Some(st);
        });
        if trace_events {
            for (history, evs) in self.events.iter_mut().zip(wr.trace.into_events()) {
                history.extend(
                    evs.into_iter()
                        .filter(|e| self.eng.workload.is_halo_tag(e.tag))
                        .map(|e| MsgEvent {
                            src: e.src,
                            dst: e.dst,
                            bytes: e.bytes,
                            phase: e.phase,
                        }),
                );
            }
        }
    }

    /// Per-rank serialised state of the (fully alive) world.
    fn snapshot(&self) -> Vec<Vec<u8>> {
        self.fab
            .states
            .iter()
            .map(|slot| {
                let guard = slot.lock().expect("state");
                let mut out = Vec::new();
                let st = guard.as_ref().expect("alive between strikes");
                self.eng.workload.save_into(st, &mut out);
                out
            })
            .collect()
    }

    /// Kill `node` at `phase`: its on-disk checkpoints, its ranks'
    /// in-memory state and their in-memory sender logs are gone.
    /// `journal` is the `NodeFailure` detail (`None` when the failure
    /// was already journaled, as by the encoding sabotage).
    fn kill_node(
        &self,
        node: NodeId,
        phase: u64,
        journal: Option<String>,
    ) -> Result<(), HcftError> {
        let (eng, fab) = (self.eng, &self.fab);
        fab.ckpt.store().fail_node(node).map_err(HcftError::Io)?;
        if let Some(detail) = journal {
            eng.telemetry.event(EventKind::NodeFailure, phase, detail);
        }
        for &r in eng.placement.ranks_on(node) {
            *fab.states[r.idx()].lock().expect("state") = None;
            *fab.logs[r.idx()].lock().expect("sender log") =
                SenderLog::with_telemetry(&eng.telemetry);
        }
        Ok(())
    }

    /// Restore the restart set's payloads from `epoch`, quarantining
    /// any shard whose payload the workload rejects (silent corruption)
    /// and rebuilding it from group parity. Journals one
    /// `RebuildComplete` for the restore that validates.
    fn restore(
        &self,
        out: &mut ReplayOutcome,
        restart: &[Rank],
    ) -> Result<Vec<Vec<u8>>, HcftError> {
        let (epoch, ckpt_phase, frontier) =
            (out.recovered_epoch, out.recovered_phase, out.scenario_phase);
        let (eng, ckpt) = (self.eng, &self.fab.ckpt);
        let n = self.fab.states.len();
        let mut quarantine_budget = eng.placement.nodes() as u64 + 1;
        loop {
            let payloads = ckpt.recover(epoch)?;
            let bad = restart.iter().copied().find(|r| {
                let mut st = eng.workload.init(n, r.idx());
                eng.workload.restore(&mut st, &payloads[r.idx()]).is_err()
                    || eng.workload.iteration(&st) != ckpt_phase
            });
            let Some(r) = bad else {
                eng.telemetry.event(
                    EventKind::RebuildComplete,
                    frontier,
                    format!("epoch={epoch} restored={}", restart.len()),
                );
                return Ok(payloads);
            };
            if quarantine_budget == 0 {
                return Err(HcftError::Recovery(format!(
                    "checkpoint corruption persisted past the quarantine budget \
                     (epoch {epoch}, rank {})",
                    r.idx()
                )));
            }
            quarantine_budget -= 1;
            out.corruption_retries += 1;
            // The whole node's storage is suspect: quarantine all
            // its shards so the parity rebuild never consumes a
            // corrupted-but-readable sibling.
            let node = eng.placement.node_of(r);
            for &nr in eng.placement.ranks_on(node) {
                let _ = ckpt.store().quarantine_local(node, nr.idx(), epoch);
            }
            eng.telemetry.event(
                EventKind::RebuildComplete,
                frontier,
                format!("quarantined node={node} epoch={epoch} (corrupt shard, rank {r:?})"),
            );
        }
    }

    /// The failure and its recovery, with every rank standing at the
    /// scenario's phase before and after: kill the targets, then —
    /// possibly over several cascaded attempts — restore the restart
    /// set and let it catch up on re-fed logs.
    fn strike(&mut self, strike: &Strike<'_>) -> Result<ReplayOutcome, HcftError> {
        let eng = self.eng;
        let fab = &self.fab;
        let n = fab.states.len();
        let scenario = strike.scenario;
        let frontier = scenario.at_phase();
        let log_memory_bytes = fab
            .logs
            .iter()
            .map(|l| l.lock().expect("sender log").memory_bytes())
            .sum();

        // ---- The kill. ----
        for &node in &strike.nodes {
            let journal = (!scenario.fails_during_encoding()).then(|| format!("node={node}"));
            self.kill_node(node, frontier, journal)?;
        }
        eng.telemetry.event(
            EventKind::DeadRanks,
            frontier,
            format!("count={} ranks={:?}", strike.ranks.len(), strike.ranks),
        );

        // ---- Recovery, possibly over several cascaded attempts. ----
        let (epoch, ckpt_phase) = fab
            .book
            .lock()
            .expect("checkpoint book")
            .complete
            .last()
            .copied()
            .ok_or_else(|| {
                HcftError::Recovery("no complete checkpoint epoch to recover from".to_string())
            })?;
        let mut pending_cascades = VecDeque::new();
        for inj in scenario.injections() {
            match inj {
                Injection::CorruptCheckpoint { node } => {
                    self.corrupt_node_shards(*node, epoch)?;
                }
                Injection::CascadeAfter { node, after_steps } => {
                    pending_cascades.push_back((*node, *after_steps));
                }
                Injection::FailDuringEncoding => {}
            }
        }
        let aligned = (frontier / eng.cfg.checkpoint_every) * eng.cfg.checkpoint_every;
        let mut out = ReplayOutcome {
            scenario_phase: frontier,
            failed_nodes: strike.nodes.clone(),
            failed_ranks: strike.ranks.clone(),
            recovered_epoch: epoch,
            recovered_phase: ckpt_phase,
            used_fallback_epoch: ckpt_phase < aligned,
            log_memory_bytes,
            ..ReplayOutcome::default()
        };
        out.restart_set = loop {
            out.recovery_attempts += 1;
            let restart = eng.restart_set(&out.failed_nodes);
            let mut live = vec![false; n];
            for &r in &restart {
                live[r.idx()] = true;
            }
            let payloads = self.restore(&mut out, &restart)?;
            out.bytes_restored += restart
                .iter()
                .map(|r| payloads[r.idx()].len() as u64)
                .sum::<u64>();

            // Restart ranks re-execute from the checkpoint and re-log
            // their own cross-boundary sends; any entries they logged
            // after the rollback point (pre-failure or in a discarded
            // attempt) would otherwise duplicate.
            for &r in &restart {
                fab.logs[r.idx()]
                    .lock()
                    .expect("sender log")
                    .truncate_from(ckpt_phase);
            }

            // A pending cascade interrupts the catch-up early.
            let catchup_target = match pending_cascades.front() {
                Some(&(_, after)) if ckpt_phase + after < frontier => ckpt_phase + after,
                _ => frontier,
            };

            // Feed: the survivors' logged sends into the restart set,
            // per channel in send (= phase) order.
            let mut feed = ReplayFeed::new(n);
            for &dst in &restart {
                for (src, log) in fab.logs.iter().enumerate() {
                    if live[src] {
                        continue;
                    }
                    let log = log.lock().expect("sender log");
                    for e in log.replay_for(dst.idx() as u32, ckpt_phase) {
                        if e.phase < catchup_target {
                            feed.push(src as u32, dst.idx() as u32, e.tag, e.payload.clone());
                        }
                    }
                }
            }

            let fab2 = Arc::clone(fab);
            let wr = World::run_replay(
                n,
                eng.world_config(false),
                ReplayPlan { live, feed },
                move |c| {
                    let c: &Comm = c;
                    let r = c.rank();
                    let mut st = fab2.workload.init(n, r);
                    fab2.workload
                        .restore(&mut st, &payloads[r])
                        .expect("payload validated before replay");
                    fab2.drive(c, &mut st, catchup_target, None);
                    *fab2.states[r].lock().expect("state") = Some(st);
                },
            );
            if wr.leftover_messages > 0 {
                return Err(HcftError::Recovery(format!(
                    "{} logged messages were never consumed by the replay — feed and \
                     re-execution disagree",
                    wr.leftover_messages
                )));
            }
            out.messages_replayed += wr.fed_messages;
            out.bytes_replayed += wr.fed_bytes;
            out.suppressed_duplicates += wr.suppressed_sends;

            if catchup_target == frontier {
                eng.telemetry.event(
                    EventKind::ReplayComplete,
                    frontier,
                    format!(
                        "from={ckpt_phase} to={frontier} restarted={}",
                        restart.len()
                    ),
                );
                break restart;
            }
            // The cascade strikes: the partial catch-up is wasted, the
            // failed set grows, recovery starts over.
            let (cnode, _) = pending_cascades.pop_front().expect("cascade pending");
            out.cascades += 1;
            out.wasted_catchup_steps += (catchup_target - ckpt_phase) * restart.len() as u64;
            self.kill_node(
                cnode,
                catchup_target,
                Some(format!("node={cnode} (cascade during recovery)")),
            )?;
            // A node's ranks are its own: a newly failed node adds new
            // ranks, a repeated one none.
            if !out.failed_nodes.contains(&cnode) {
                out.failed_nodes.push(cnode);
                out.failed_ranks
                    .extend_from_slice(eng.placement.ranks_on(cnode));
                out.failed_ranks.sort_unstable();
            }
            eng.telemetry.event(
                EventKind::DeadRanks,
                catchup_target,
                format!(
                    "count={} ranks={:?}",
                    out.failed_ranks.len(),
                    out.failed_ranks
                ),
            );
        };

        // Every rank must now stand at the frontier.
        for (r, slot) in fab.states.iter().enumerate() {
            let guard = slot.lock().expect("state");
            let at = guard.as_ref().map(|st| eng.workload.iteration(st));
            if at != Some(frontier) {
                return Err(HcftError::Recovery(format!(
                    "rank {r} is at {at:?} after recovery, expected iteration {frontier}"
                )));
            }
        }

        // Protocol feasibility analysis over the pre-failure traffic.
        out.report = check_replay(
            &eng.scheme.l1,
            &self.events,
            &vec![ckpt_phase; eng.scheme.l1.len()],
            &out.restart_set,
        );
        out.catchup_steps = (frontier - ckpt_phase) * out.restart_set.len() as u64;

        let t = &eng.telemetry;
        t.counter("replay.messages_replayed")
            .add(out.messages_replayed);
        t.counter("replay.bytes_replayed").add(out.bytes_replayed);
        t.counter("replay.bytes_restored").add(out.bytes_restored);
        t.counter("replay.catchup_steps").add(out.catchup_steps);
        t.counter("replay.wasted_catchup_steps")
            .add(out.wasted_catchup_steps);
        t.counter("replay.corruption_retries")
            .add(out.corruption_retries);
        t.counter("replay.cascades").add(out.cascades);
        t.counter("replay.recovery_attempts")
            .add(out.recovery_attempts);
        t.counter("replay.suppressed_duplicates")
            .add(out.suppressed_duplicates);
        t.event(
            EventKind::RecoveryComplete,
            frontier,
            format!(
                "workload={} restarted={} attempts={}",
                eng.workload.name(),
                out.restart_set.len(),
                out.recovery_attempts
            ),
        );
        Ok(out)
    }

    /// Silently corrupt every local shard on `node` at `epoch`: shrink
    /// each frame's declared payload length in the node's `.local`
    /// bundle so the shard still reads and unframes cleanly but restores
    /// to a truncated payload — only the workload's own validation can
    /// notice.
    fn corrupt_node_shards(&self, node: NodeId, epoch: u64) -> Result<(), HcftError> {
        let store = self.fab.ckpt.store();
        let at = Artefact::Local(node);
        let mut bundle = store.read_bundle(at, epoch)?;
        for &r in self.eng.placement.ranks_on(node) {
            let Some(head) = bundle
                .get_mut(r.idx() as u64)
                .and_then(|frame| frame.get_mut(..8))
            else {
                continue;
            };
            let len = u64::from_le_bytes((&*head).try_into().expect("8 bytes"));
            head.copy_from_slice(&(len / 2).to_le_bytes());
        }
        store.write_bundle(at, epoch, bundle.as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_cluster::naive;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "hcft-replay-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&p).expect("temp dir");
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// 8 nodes × 4 ranks, naive clusters of 8 ranks (= 2 nodes) at both
    /// levels: one lost node per L1 cluster is within RS tolerance.
    fn engine(dir: &TempDir) -> ReplayEngine<TsunamiWorkload> {
        let placement = Placement::block(8, 4);
        let scheme = naive(32, 8);
        ReplayEngine::with_telemetry(
            TsunamiWorkload::new(TsunamiParams::stable(32, 32)),
            placement,
            scheme,
            ReplayConfig::new(dir.0.clone()),
            Registry::new(),
        )
    }

    #[test]
    fn node_loss_replay_is_bit_identical() {
        let dir = TempDir::new();
        let eng = engine(&dir);
        let reference = eng.reference(13);
        let scenario = FaultScenario::node_loss(NodeId(2), 9);
        let out = eng.run(&scenario, 13).expect("recover");
        assert_eq!(out.recovered_phase, 5);
        assert_eq!(out.restart_set.len(), 8, "one L1 cluster restarts");
        assert_eq!(out.recovery_attempts, 1);
        assert!(out.messages_replayed > 0, "cross-cluster halos re-fed");
        assert!(out.report.feasible());
        assert!(
            out.matches(&reference),
            "replayed trajectory must be bit-identical"
        );
    }

    #[test]
    fn failure_on_checkpoint_phase_replays_nothing() {
        let dir = TempDir::new();
        let eng = engine(&dir);
        let reference = eng.reference(12);
        let out = eng
            .run(&FaultScenario::node_loss(NodeId(0), 10), 12)
            .expect("recover");
        assert_eq!(out.recovered_phase, 10);
        assert_eq!(out.messages_replayed, 0);
        assert_eq!(out.catchup_steps, 0);
        assert!(out.matches(&reference));
    }

    #[test]
    fn replay_telemetry_counters_are_emitted() {
        let dir = TempDir::new();
        let eng = engine(&dir);
        eng.run(&FaultScenario::node_loss(NodeId(2), 7), 9)
            .expect("recover");
        let snap = eng.telemetry().snapshot();
        for key in [
            "replay.messages_replayed",
            "replay.recovery_attempts",
            "replay.catchup_steps",
            "replay.bytes_restored",
        ] {
            assert!(
                snap.counters.iter().any(|(k, v)| k == key && *v > 0),
                "missing or zero counter {key}"
            );
        }
        // Checkpoints at phases 0 and 5, each one world stop.
        assert_eq!(
            eng.telemetry()
                .histogram("replay.checkpoint_ns")
                .snapshot()
                .count,
            2
        );
    }

    #[test]
    fn invalid_scenarios_are_config_errors() {
        let dir = TempDir::new();
        let eng = engine(&dir);
        for (scenario, total) in [
            (FaultScenario::node_loss(NodeId(0), 0), 10),  // phase 0
            (FaultScenario::node_loss(NodeId(0), 10), 10), // at the end
            // fail-during-encoding off the checkpoint cadence
            (
                FaultScenario::at(7)
                    .node(NodeId(0))
                    .fail_during_encoding()
                    .build(),
                12,
            ),
            // cascade node is already a primary target
            (
                FaultScenario::at(6)
                    .node(NodeId(0))
                    .cascade(NodeId(0), 1)
                    .build(),
                12,
            ),
            // corrupt node dies with the primary failure
            (
                FaultScenario::at(6)
                    .node(NodeId(0))
                    .corrupt_checkpoint(NodeId(0))
                    .build(),
                12,
            ),
            // corrupt node outside the restart set is never read
            (
                FaultScenario::at(6)
                    .node(NodeId(0))
                    .corrupt_checkpoint(NodeId(4))
                    .build(),
                12,
            ),
            // corrupt node shares the L2 group with the failed node
            (
                FaultScenario::at(6)
                    .node(NodeId(0))
                    .corrupt_checkpoint(NodeId(1))
                    .build(),
                12,
            ),
        ] {
            assert!(
                matches!(eng.run(&scenario, total), Err(HcftError::Config(_))),
                "expected Config error for {scenario:?}"
            );
        }
        // A sequence must be non-empty and strictly increasing in phase.
        let at = |phase| FaultScenario::node_loss(NodeId(0), phase);
        for sequence in [vec![], vec![at(6), at(6)], vec![at(7), at(4)]] {
            assert!(
                matches!(eng.run_sequence(&sequence, 12), Err(HcftError::Config(_))),
                "expected Config error for {sequence:?}"
            );
        }
        // A scheme that does not cover the placement is an error from
        // `run`, not a panic in the constructor.
        let mismatched = ReplayEngine::with_telemetry(
            TsunamiWorkload::new(TsunamiParams::stable(32, 32)),
            Placement::block(8, 4),
            naive(16, 8),
            ReplayConfig::new(dir.0.clone()),
            Registry::new(),
        );
        assert!(matches!(
            mismatched.run(&at(6), 12),
            Err(HcftError::Config(_))
        ));
    }

    #[test]
    fn logged_payloads_are_exact_size_copies_of_the_wire_bytes() {
        let r = World::run(2, |c| {
            if c.rank() == 1 {
                // Leave a 16 KiB buffer in rank 0's pool, then take the
                // logged halo.
                c.send_bytes(0, 1, &[0u8; 16 << 10]);
                return c.recv_bytes(0, 2).to_vec();
            }
            let big = c.recv_bytes(1, 1);
            c.recycle(big);
            // One rank per L1 cluster: every send is logged.
            let protocol = HybridProtocol::new(naive(2, 1).l1);
            let logs = [Mutex::new(SenderLog::new()), Mutex::new(SenderLog::new())];
            let link = LoggedLink {
                comm: c,
                protocol: &protocol,
                logs: &logs,
            };
            link.send_with(1, 2, 16, &mut |buf| buf.extend_from_slice(&[7u8; 16]));
            let log = logs[0].lock().unwrap();
            let entry = log.replay_for(1, 0).next().expect("the send is logged");
            let backing = entry.payload.clone().into_shared().expect("whole view");
            assert_eq!(backing.capacity(), 16, "the log pins a pooled wire buffer");
            backing.to_vec()
        });
        assert_eq!(r.outputs[0], [7u8; 16], "logged bytes");
        assert_eq!(r.outputs[1], [7u8; 16], "delivered bytes");
    }

    #[test]
    fn catastrophic_loss_reports_erasure() {
        let dir = TempDir::new();
        let eng = engine(&dir);
        // Both nodes of L1 cluster 0 = all 8 members of its L2 group:
        // beyond the 4 members it tolerates.
        let scenario = FaultScenario::at(7).l1_cluster(0).build();
        assert!(matches!(
            eng.run(&scenario, 10),
            Err(HcftError::Erasure { .. })
        ));
    }
}
