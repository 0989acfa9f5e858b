//! Live cluster-loss replay, end to end: a whole L1 cluster (or PSU
//! group) dies mid-run, the restart set comes back from L2-encoded
//! checkpoints, sender logs re-feed the cross-cluster halos, and the
//! finished run must be byte-identical to one that never failed — under
//! cascades, silent checkpoint corruption, failures during encoding,
//! both scheduler engines, and every worker count.

use hcft::prelude::*;
use hcft::simmpi::Engine;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "hcft-replay-e2e-{}-{}",
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

/// 16 nodes × 4 ranks under the striped scheme: L1 clusters are 4-node
/// blocks (16 ranks), L2 groups of 8 stride across them, so a whole L1
/// cluster costs every erasure group 2 of 8 members — inside the
/// Reed–Solomon tolerance of 4.
fn topology() -> (Placement, ClusteringScheme) {
    let placement = Placement::block(16, 4);
    let scheme = striped(&placement, 4, 8);
    (placement, scheme)
}

fn tsunami_engine(dir: &TempDir) -> ReplayEngine<TsunamiWorkload> {
    let (placement, scheme) = topology();
    ReplayEngine::with_telemetry(
        TsunamiWorkload::new(TsunamiParams::stable(32, 32)),
        placement,
        scheme,
        ReplayConfig::new(dir.0.clone()),
        Registry::new(),
    )
}

#[test]
fn tsunami_cluster_kill_replays_bit_identical() {
    let dir = TempDir::new();
    let eng = tsunami_engine(&dir);
    let reference = eng.reference(18);
    let scenario = FaultScenario::at(13).l1_cluster(1).build();
    let out = eng.run(&scenario, 18).expect("recover from cluster loss");
    assert_eq!(out.failed_nodes.len(), 4, "the whole 4-node cluster died");
    assert_eq!(out.failed_ranks.len(), 16);
    assert_eq!(out.restart_set.len(), 16, "the cluster is the restart set");
    assert_eq!(out.recovered_phase, 10, "newest complete cadence point");
    assert_eq!(out.recovery_attempts, 1);
    assert!(out.messages_replayed > 0, "cross-cluster halos re-fed");
    assert!(out.bytes_restored > 0, "checkpoints actually restored");
    assert!(out.report.feasible());
    assert!(
        out.matches(&reference),
        "replayed trajectory must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn heat3d_cluster_kill_replays_bit_identical() {
    let dir = TempDir::new();
    let (placement, scheme) = topology();
    let eng = ReplayEngine::with_telemetry(
        Heat3dWorkload::new(Heat3dParams::stable((16, 16, 16), (4, 4, 4))),
        placement,
        scheme,
        ReplayConfig::new(dir.0.clone()),
        Registry::new(),
    );
    let reference = eng.reference(18);
    let out = eng
        .run(&FaultScenario::at(13).l1_cluster(2).build(), 18)
        .expect("recover from cluster loss");
    assert_eq!(out.restart_set.len(), 16);
    assert!(out.messages_replayed > 0);
    assert!(
        out.matches(&reference),
        "heat3d replay must be bit-identical"
    );
}

#[test]
fn cascade_mid_recovery_restarts_and_stays_bit_identical() {
    let dir = TempDir::new();
    let eng = tsunami_engine(&dir);
    let reference = eng.reference(18);
    // Node 0 (a different L1 cluster) dies one step into the first
    // recovery attempt, discarding that attempt's catch-up work.
    let scenario = FaultScenario::at(13)
        .l1_cluster(1)
        .cascade(NodeId(0), 1)
        .build();
    let out = eng.run(&scenario, 18).expect("ride out the cascade");
    assert_eq!(out.recovery_attempts, 2, "cascade forces a second attempt");
    assert_eq!(out.cascades, 1);
    assert_eq!(out.failed_nodes.len(), 5, "primary cluster + cascade node");
    assert_eq!(
        out.restart_set.len(),
        32,
        "both touched L1 clusters restart"
    );
    assert!(
        out.wasted_catchup_steps > 0,
        "attempt 1's work was discarded"
    );
    assert!(out.messages_replayed > 0 && out.report.feasible());
    assert!(out.matches(&reference));
}

#[test]
fn corrupted_checkpoint_is_quarantined_and_rebuilt() {
    let dir = TempDir::new();
    let eng = tsunami_engine(&dir);
    let reference = eng.reference(18);
    // Node 4 dies; surviving node 5 hosts restart ranks whose striped
    // L2 groups are disjoint from the failed node's, so its silently
    // truncated shards are detected, quarantined, and rebuilt from
    // parity rather than poisoning the Reed–Solomon reconstruction.
    let scenario = FaultScenario::at(13)
        .node(NodeId(4))
        .corrupt_checkpoint(NodeId(5))
        .build();
    let out = eng.run(&scenario, 18).expect("rebuild past the corruption");
    assert!(
        out.corruption_retries >= 1,
        "the corrupted node must be quarantined at least once"
    );
    assert!(out.messages_replayed > 0 && out.report.feasible());
    assert!(out.matches(&reference));
}

#[test]
fn failure_during_encoding_falls_back_one_epoch() {
    let dir = TempDir::new();
    let eng = tsunami_engine(&dir);
    let reference = eng.reference(18);
    // The cluster dies at phase 10 while epoch 2 is still encoding, so
    // that epoch never completes and recovery falls back to phase 5 —
    // a longer catch-up than a clean phase-10 checkpoint would need.
    let scenario = FaultScenario::at(10)
        .l1_cluster(1)
        .fail_during_encoding()
        .build();
    let out = eng.run(&scenario, 18).expect("fall back a full epoch");
    assert!(out.used_fallback_epoch, "the in-flight epoch is unusable");
    assert_eq!(out.recovered_phase, 5);
    assert!(
        out.catchup_steps >= 16 * 5,
        "the restart set replays the lost cadence interval"
    );
    assert!(out.matches(&reference));
}

#[test]
fn psu_group_loss_resolves_through_the_machine_model() {
    let dir = TempDir::new();
    let (placement, scheme) = topology();
    let eng = ReplayEngine::with_telemetry(
        TsunamiWorkload::new(TsunamiParams::stable(32, 32)),
        placement,
        scheme,
        ReplayConfig::new(dir.0.clone()),
        Registry::new(),
    )
    .with_machine(MachineSpec::synthetic(16, 4));
    let reference = eng.reference(18);
    // synthetic() pairs nodes per PSU, so losing node 4's supply takes
    // nodes {4, 5} — a correlated failure the striped groups absorb at
    // one lost member each.
    let scenario = FaultScenario::at(13).psu_group_of(NodeId(4)).build();
    let out = eng.run(&scenario, 18).expect("recover the PSU pair");
    assert_eq!(out.failed_nodes, vec![NodeId(4), NodeId(5)]);
    assert_eq!(out.failed_ranks.len(), 8);
    assert!(out.matches(&reference));
}

#[test]
fn losing_most_clusters_defeats_the_erasure_code() {
    let dir = TempDir::new();
    let eng = tsunami_engine(&dir);
    // Three of four L1 clusters take 6 of 8 members from every striped
    // L2 group — past fti_tolerance(8) = 4: the paper's catastrophic
    // failure, surfaced as a typed erasure error.
    let scenario = FaultScenario::at(13)
        .l1_cluster(0)
        .l1_cluster(1)
        .l1_cluster(2)
        .build();
    let (placement, scheme) = topology();
    let index = SchemeIndex::new(&scheme, &placement);
    assert!(scenario
        .is_catastrophic(&placement, &scheme, None, &index)
        .expect("in range"));
    assert!(matches!(
        eng.run(&scenario, 18),
        Err(HcftError::Erasure { .. })
    ));
}

/// The ledger's `replay_kill` shape: 64 nodes × 16 ranks, L1 clusters
/// of 4 nodes, L2 groups of 16, a 1024 × 512 grid, one L1 cluster killed
/// at step 13 of 22 — twice, on two clusters. Beyond bit-identity, the
/// store's file budget: every encoded epoch (phases 0, 5, 10, 15, 20)
/// writes two files per node, recovery reads about one per node and
/// rewrites the failed nodes' two, and the store never holds more than
/// two epochs. Release-only scale: `cargo test --release --test
/// replay_e2e -- --ignored ledger_replay_shape`.
#[test]
#[ignore = "release-mode scale run; CI's ledger-smoke job runs it"]
fn ledger_replay_shape() {
    let (nodes, steps, epochs) = (64u64, 22, 5);
    let placement = Placement::block(nodes as usize, 16);
    let scheme = striped(&placement, 4, 16);
    for cluster in [3, 10] {
        let dir = TempDir::new();
        let eng = ReplayEngine::with_telemetry(
            TsunamiWorkload::new(TsunamiParams::stable(1024, 512)),
            placement.clone(),
            scheme.clone(),
            ReplayConfig::new(dir.0.clone()),
            Registry::new(),
        );
        let reference = eng.reference(steps);
        let out = eng
            .run(&FaultScenario::at(13).l1_cluster(cluster).build(), steps)
            .expect("recover the cluster");
        assert!(out.matches(&reference), "cluster {cluster}");
        assert!(out.messages_replayed > 0, "cluster {cluster}");
        let files = |op: &str| {
            eng.telemetry()
                .counter(&format!("checkpoint.files.{op}"))
                .get()
        };
        let failed = out.failed_nodes.len() as u64;
        assert_eq!(failed, 4);
        assert_eq!(files("written"), 2 * nodes * epochs + 2 * failed);
        assert!(files("read") <= 2 * nodes, "{} reads", files("read"));
        let held = files("written") - files("removed");
        assert_eq!(held, 2 * nodes * 2, "two epochs of two files per node");
        let on_disk: usize = (0..nodes)
            .map(|n| {
                std::fs::read_dir(dir.0.join(format!("nodes/node_{n}")))
                    .expect("node dir")
                    .count()
            })
            .sum();
        assert_eq!(on_disk as u64, held);
        let stops = eng.telemetry().histogram("replay.checkpoint_ns").snapshot();
        assert_eq!(stops.count, epochs, "one stop per coordinated checkpoint");
    }
}

mod determinism {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Smaller world for the property sweep: 8 nodes × 4 ranks, L1 =
    /// 2-node blocks, L2 groups of 4 striding across all clusters.
    fn sweep_engine(
        dir: &TempDir,
        workers: usize,
        engine: Engine,
    ) -> ReplayEngine<TsunamiWorkload> {
        let placement = Placement::block(8, 4);
        let scheme = striped(&placement, 2, 4);
        let mut cfg = ReplayConfig::new(dir.0.clone());
        cfg.workers = workers;
        cfg.engine = engine;
        ReplayEngine::with_telemetry(
            TsunamiWorkload::new(TsunamiParams::stable(24, 24)),
            placement,
            scheme,
            cfg,
            Registry::new(),
        )
    }

    /// One ground truth for every case: the uninterrupted trajectory
    /// does not depend on scheduling, workers, or the failure drawn.
    fn reference() -> &'static Vec<Vec<u8>> {
        static REF: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        REF.get_or_init(|| {
            let dir = TempDir::new();
            sweep_engine(&dir, 1, Engine::Threads).reference(14)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Replay after a random whole-L1-cluster loss reproduces the
        /// trajectory bit-for-bit on every worker count and both
        /// scheduler engines.
        #[test]
        fn cluster_loss_replay_is_deterministic(
            cluster in 0usize..4,
            phase in 6u64..12,
            workers in prop::sample::select(vec![1usize, 2, 0]),
            engine in prop::sample::select(vec![Engine::Threads, Engine::Tasks]),
        ) {
            let dir = TempDir::new();
            let eng = sweep_engine(&dir, workers, engine);
            let scenario = FaultScenario::at(phase).l1_cluster(cluster).build();
            let out = eng.run(&scenario, 14).expect("recover");
            prop_assert_eq!(out.restart_set.len(), 8);
            prop_assert!(
                out.matches(reference()),
                "divergence: cluster {} phase {} workers {} engine {:?}",
                cluster, phase, workers, engine
            );
        }
    }
}
