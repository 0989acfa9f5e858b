//! The two in-process workloads: the Monte-Carlo reliability campaign
//! (failure-free side of the paper's trade-off, no runtime involved)
//! and the kill-and-recover replay (the recovery side).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hcft_cluster::striped;
use hcft_core::campaign::{CampaignConfig, CampaignGrid, GridCell, GridStrategy, StopRule};
use hcft_core::replay::{ReplayConfig, ReplayEngine, ReplayOutcome, TsunamiWorkload};
use hcft_core::scenario::FaultScenario;
use hcft_telemetry::Registry;
use hcft_topology::Placement;
use hcft_tsunami::TsunamiParams;

use crate::harness::{ProgramCounters, Workload};
use crate::stats::SplitMix64;

fn local_counters() -> ProgramCounters {
    ProgramCounters {
        simmpi_messages: Registry::global().counter("simmpi.mailbox.messages").get(),
        // No trace cache in this process.
        cache: Default::default(),
    }
}

/// The campaign grid of the `campaign` workload: three strategies × two
/// MTBFs on the full TSUBAME2 machine, `trials` per cell.
pub fn campaign_grid(seed: u64, trials: u64) -> CampaignGrid {
    CampaignGrid {
        strategies: vec![
            GridStrategy::Naive,
            GridStrategy::Distributed,
            GridStrategy::Striped,
        ],
        mtbfs_h: vec![2.0, 24.0],
        cluster_sizes: vec![8],
        machine_nodes: vec![1408],
        ppn: 16,
        base: CampaignConfig {
            seed,
            ..CampaignConfig::default()
        },
        stop: StopRule::fixed(trials),
    }
}

/// Trials per cell of one `campaign` operation: 0.13 s of work, so a
/// ten-second phase reads the fast end of ~75 operations.
pub const CAMPAIGN_TRIALS: u64 = 4_096;

pub struct CampaignLoad {
    grid: CampaignGrid,
    /// The warm-up run's cells: same seeds, so every run must equal it.
    first: Vec<GridCell>,
}

impl CampaignLoad {
    pub fn setup(seed: u64) -> Result<CampaignLoad, String> {
        let grid = campaign_grid(seed, CAMPAIGN_TRIALS);
        let first = grid.run().map_err(|e| e.to_string())?;
        Ok(CampaignLoad { grid, first })
    }
}

impl Workload for CampaignLoad {
    fn op(&self, _client: usize, _index: u64) -> Result<f64, String> {
        let t = Instant::now();
        let cells = self.grid.run().map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        let same = cells.len() == self.first.len()
            && cells.iter().zip(&self.first).all(|(a, b)| {
                a.stats == b.stats && a.strategy == b.strategy && a.mtbf_h == b.mtbf_h
            });
        if !same {
            return Err("per-cell statistics differ from the first run of the same seeds".into());
        }
        Ok(secs)
    }

    fn program_counters(&self) -> Result<ProgramCounters, String> {
        Ok(local_counters())
    }
}

/// Shape of the `replay_kill` world: the paper machine running the
/// tsunami stencil under live fault tolerance.
pub const REPLAY_NODES: usize = 64;
pub const REPLAY_PPN: usize = 16;
const REPLAY_L1_NODES: usize = 4;
const REPLAY_L2_SIZE: usize = 16;
/// Keep this state size: at (2048, 1024) the operation is disk-bound.
pub const REPLAY_GRID: (usize, usize) = (1024, 512);
/// Four checkpoints and a tail. Half the steps the benchmark was first
/// specified with, so that a ten-second phase holds about ten
/// operations: their times spread widely (0.5–1.7 s for one scenario:
/// each writes and removes thousands of small checkpoint files), and
/// the fast end of five is not a number.
pub const REPLAY_STEPS: u64 = 22;
const REPLAY_SCENARIOS: usize = 64;

/// The step every scenario kills at: three steps past the checkpoint
/// at 10, so a complete epoch exists and the restart set has steps to
/// catch up on from logged messages (a kill exactly on the cadence
/// replays none). Fixed, because the phase decides what an operation
/// costs — of 42 steps, 1.0 s killed at step 38 and 1.4 s at step 8 —
/// and every seed must ask for the same work.
pub const REPLAY_KILL_STEP: u64 = 13;

/// The seeded list of L1 clusters to kill, one per operation.
pub fn replay_scenarios(seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let clusters = (REPLAY_NODES / REPLAY_L1_NODES) as u64;
    (0..REPLAY_SCENARIOS)
        .map(|_| rng.below(clusters) as usize)
        .collect()
}

/// Ask the filesystem to place every directory created directly under
/// `dir` in a block group of its own (`chattr +T`, ext4's top-of-
/// hierarchy hint), so that one operation's checkpoint store does not
/// share inode tables with the store an earlier operation deleted.
///
/// Needed on this VM: its ext4 has no journal, and without one ext4
/// will not reuse an inode deleted in the last minute (six minutes
/// while the deletion is not yet written back) — every file creation
/// scans past all of them. A store created where an earlier one was
/// deleted paid up to 3 s of kernel time for 0.35 s of its own work,
/// depending on when which operation ran before it. Best effort:
/// elsewhere the hint is refused or means nothing, and nothing is lost.
pub fn spread_subdirectories(dir: &Path) {
    let _ = quiet("chattr").arg("+T").arg(dir).status();
}

/// Remove a checkpoint store and have the filesystem write the removal
/// back (`sync -f`), which shortens the time its inodes stay unusable
/// from six minutes to one (see [`spread_subdirectories`]).
pub fn remove_store(store: &Path) {
    let _ = std::fs::remove_dir_all(store);
    if let Some(parent) = store.parent() {
        let _ = quiet("sync").arg("-f").arg(parent).status();
    }
}

fn quiet(program: &str) -> std::process::Command {
    let mut command = std::process::Command::new(program);
    command
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    command
}

/// A store path under `parent` that no set-up, operation or earlier
/// run has used: ext4 picks the block group of a spread directory from
/// its name.
fn fresh_store(parent: &Path) -> PathBuf {
    static STORES: AtomicU64 = AtomicU64::new(0);
    let n = STORES.fetch_add(1, Ordering::Relaxed);
    parent.join(format!("store-{n}-{}", std::process::id()))
}

pub fn replay_engine(store: &Path) -> ReplayEngine<TsunamiWorkload> {
    let placement = Placement::block(REPLAY_NODES, REPLAY_PPN);
    let scheme = striped(&placement, REPLAY_L1_NODES, REPLAY_L2_SIZE);
    ReplayEngine::new(
        TsunamiWorkload::new(TsunamiParams::stable(REPLAY_GRID.0, REPLAY_GRID.1)),
        placement,
        scheme,
        // Defaults: `Level::Encoded` checkpoints every 5 iterations.
        ReplayConfig::new(store),
    )
}

pub struct ReplayLoad {
    /// Parent of the per-operation checkpoint stores.
    scratch: PathBuf,
    scenarios: Vec<usize>,
    /// Final state of the uninterrupted run.
    reference: Vec<Vec<u8>>,
}

impl ReplayLoad {
    /// Run the uninterrupted reference and one warm-up kill (of the
    /// list's first scenario, which the first measured op repeats).
    pub fn setup(scratch: &Path, seed: u64) -> Result<ReplayLoad, String> {
        let scratch = scratch.join(format!("replay-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        spread_subdirectories(&scratch);
        let reference = replay_engine(&fresh_store(&scratch)).reference(REPLAY_STEPS);
        let load = ReplayLoad {
            scratch,
            scenarios: replay_scenarios(seed),
            reference,
        };
        load.kill(0)?;
        Ok(load)
    }

    /// One kill-and-recover in a fresh store; the store is removed
    /// outside the timed span. Returns the seconds and the outcome.
    pub fn kill(&self, index: u64) -> Result<(f64, ReplayOutcome), String> {
        let cluster = self.scenarios[index as usize % self.scenarios.len()];
        let phase = REPLAY_KILL_STEP;
        let store = fresh_store(&self.scratch);
        let engine = replay_engine(&store);
        let scenario = FaultScenario::at(phase).l1_cluster(cluster).build();
        let t = Instant::now();
        let outcome = engine.run(&scenario, REPLAY_STEPS);
        let secs = t.elapsed().as_secs_f64();
        remove_store(&store);
        let outcome =
            outcome.map_err(|e| format!("kill of cluster {cluster} at phase {phase}: {e}"))?;
        if !outcome.matches(&self.reference) {
            return Err(format!(
                "kill of cluster {cluster} at phase {phase} did not recover the reference state"
            ));
        }
        if outcome.messages_replayed == 0 {
            return Err(format!(
                "kill of cluster {cluster} at phase {phase} replayed no logged message"
            ));
        }
        Ok((secs, outcome))
    }
}

impl Drop for ReplayLoad {
    fn drop(&mut self) {
        remove_store(&self.scratch);
    }
}

impl Workload for ReplayLoad {
    fn op(&self, _client: usize, index: u64) -> Result<f64, String> {
        self.kill(index).map(|(secs, _)| secs)
    }

    fn program_counters(&self) -> Result<ProgramCounters, String> {
        Ok(local_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lists_are_seeded_and_valid() {
        let a = replay_scenarios(11);
        assert_eq!(a, replay_scenarios(11));
        assert_ne!(a, replay_scenarios(12));
        assert!(a.iter().all(|&c| c < REPLAY_NODES / REPLAY_L1_NODES));
        let clusters: std::collections::BTreeSet<usize> = a.iter().copied().collect();
        assert!(clusters.len() > 8, "the list must spread over the machine");
        assert!((6..REPLAY_STEPS).contains(&REPLAY_KILL_STEP));
        assert_ne!(
            REPLAY_KILL_STEP % 5,
            0,
            "a kill on the cadence replays nothing"
        );
    }

    #[test]
    fn campaign_grid_has_the_documented_shape() {
        let grid = campaign_grid(3, CAMPAIGN_TRIALS);
        assert_eq!(grid.cells(), 6);
        assert_eq!(grid.cells() as u64 * CAMPAIGN_TRIALS, 24_576);
        assert_eq!(grid.base.seed, 3);
        assert_ne!(campaign_grid(4, 1).base.seed, grid.base.seed);
    }
}
