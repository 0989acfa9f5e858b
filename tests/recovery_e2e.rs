//! End-to-end recovery scenarios across the whole stack: checkpointing,
//! erasure coding, message logging, rollback and replay, under different
//! clustering schemes and failure patterns — one failure or several in
//! one run, always through the live [`ReplayEngine`] and always judged
//! by an oracle that shares nothing with it: the single-domain
//! [`SequentialSim`].

use hcft::prelude::*;
use hcft::tsunami::sequential::SequentialSim;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "hcft-e2e-{}-{}",
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

fn chain_graph(nodes: usize) -> WeightedGraph {
    let mut m = CommMatrix::new(nodes);
    for a in 0..nodes - 1 {
        m.add(a, a + 1, 100);
        m.add(a + 1, a, 100);
    }
    WeightedGraph::from_comm_matrix(&m)
}

/// L1 clusters of four consecutive nodes, L2 groups inside them.
fn hier_scheme(placement: &Placement) -> ClusteringScheme {
    hierarchical(
        placement,
        &chain_graph(placement.nodes()),
        &HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        },
    )
}

/// Every world here solves the same 32 × 32 basin.
fn params() -> TsunamiParams {
    TsunamiParams::stable(32, 32)
}

/// A tsunami engine on a scoped registry, encoded checkpoints every
/// `cadence` iterations. One `run`/`run_sequence` per engine: the
/// checkpoint store under `dir` is stateful.
fn engine(
    dir: &TempDir,
    placement: Placement,
    scheme: ClusteringScheme,
    cadence: u64,
) -> ReplayEngine<TsunamiWorkload> {
    let mut cfg = ReplayConfig::new(dir.0.clone());
    cfg.checkpoint_every = cadence;
    ReplayEngine::with_telemetry(
        TsunamiWorkload::new(params()),
        placement,
        scheme,
        cfg,
        Registry::new(),
    )
}

/// 16 nodes × 4 ranks under [`hier_scheme`].
fn hier_engine(dir: &TempDir, cadence: u64) -> ReplayEngine<TsunamiWorkload> {
    let placement = Placement::block(16, 4);
    let scheme = hier_scheme(&placement);
    engine(dir, placement, scheme, cadence)
}

/// The oracle: the global η field of the sequential solver.
fn oracle(iters: u64) -> Vec<f64> {
    let mut seq = SequentialSim::new(params());
    seq.run(iters);
    seq.eta
}

/// Per-rank payloads reassembled into the global η field.
fn eta(payloads: &[Vec<u8>]) -> Vec<f64> {
    TsunamiWorkload::new(params())
        .global_eta(payloads)
        .expect("well-formed payloads")
}

#[test]
fn replay_engine_and_sequential_oracle_agree_bit_for_bit() {
    // The engine's own `reference()` shares runtime and workload code
    // with the recovered run; the sequential solver shares neither.
    let dir = TempDir::new();
    let eng = hier_engine(&dir, 5);
    for k in [1, 12, 20] {
        assert_eq!(
            eta(&eng.reference(k)),
            oracle(k),
            "uninterrupted run diverges from the sequential solver after {k} steps"
        );
    }
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(5), 13), 20)
        .expect("recover");
    assert_eq!(out.restart_set.len(), 16, "one L1 cluster of 4 nodes");
    assert_eq!(eta(&out.final_state), oracle(20));
}

#[test]
fn repeated_failures_across_epochs() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, 6);
    // Failure in epoch 1, recover, run on; failure in epoch 3; etc.
    let plan = [(3u32, 8u64), (9, 20), (14, 29)];
    let scenarios: Vec<FaultScenario> = plan
        .iter()
        .map(|&(node, at)| FaultScenario::node_loss(NodeId(node), at))
        .collect();
    let outs = eng.run_sequence(&scenarios, 40).expect("recover thrice");
    assert_eq!(outs.len(), 3);
    for (i, (out, &(node, at))) in outs.iter().zip(&plan).enumerate() {
        assert_eq!(out.scenario_phase, at);
        assert_eq!(out.failed_nodes, vec![NodeId(node)]);
        assert_eq!(out.restart_set.len(), 16);
        assert_eq!(out.recovered_phase, at / 6 * 6);
        // Earlier outcomes hold the world at their recovered frontier.
        let shown = if i + 1 == plan.len() { 40 } else { at };
        assert_eq!(
            eta(&out.final_state),
            oracle(shown),
            "divergence after failure of node {node} at iteration {at}"
        );
    }
}

#[test]
fn second_failure_in_one_interval_is_fed_from_rerecorded_logs() {
    // Nodes 2 and 5 sit in adjacent L1 clusters (ranks 0..16 and
    // 16..32 share a halo boundary) and both die between the
    // checkpoints at 6 and 12. Cluster 0's catch-up from 6 to 8 cleared
    // and re-recorded its cross-boundary sends of phases 6 and 7; when
    // cluster 1 rolls back to 6 two steps later, those re-recorded
    // entries are what it is fed.
    let dir = TempDir::new();
    let eng = hier_engine(&dir, 6);
    let reference = eng.reference(16);
    let outs = eng
        .run_sequence(
            &[
                FaultScenario::node_loss(NodeId(2), 8),
                FaultScenario::node_loss(NodeId(5), 10),
            ],
            16,
        )
        .expect("recover twice");
    let [first, second] = &outs[..] else {
        panic!("two scenarios, two outcomes");
    };
    assert_eq!((first.recovered_phase, second.recovered_phase), (6, 6));
    assert_eq!(first.restart_set, (0..16).map(Rank).collect::<Vec<_>>());
    assert_eq!(second.restart_set, (16..32).map(Rank).collect::<Vec<_>>());
    assert!(second.messages_replayed > 0, "second strike fed from logs");
    assert!(second.report.feasible());
    assert_eq!(eta(&first.final_state), oracle(8));
    assert!(second.matches(&reference));
    assert_eq!(eta(&second.final_state), oracle(16));
}

#[test]
fn failure_before_the_first_cadence_point_recovers_from_phase_0() {
    // Once a proptest regression seed (cadence 6, node 0 killed at 5):
    // the only complete epoch is the one protecting the initial state.
    let dir = TempDir::new();
    let placement = Placement::block(16, 2);
    let scheme = hier_scheme(&placement);
    let eng = engine(&dir, placement, scheme, 6);
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(0), 5), 35)
        .expect("recover");
    assert_eq!(out.recovered_phase, 0, "the phase-0 epoch");
    assert_eq!(out.catchup_steps, 5 * 8);
    assert_eq!(eta(&out.final_state), oracle(35));
}

#[test]
fn simultaneous_failures_in_different_l1_clusters() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, 5);
    // Nodes 1 and 13 live in different L1 clusters (chain partition into
    // consecutive quads): both clusters roll back, everything else stays.
    let out = eng
        .run(&FaultScenario::nodes_loss(&[NodeId(1), NodeId(13)], 9), 12)
        .expect("recover");
    assert_eq!(
        out.restart_set.len(),
        32,
        "two L1 clusters of 16 ranks each"
    );
    assert_eq!(eta(&out.final_state), oracle(12));
}

#[test]
fn restart_set_sizes_follow_the_l1_clustering() {
    // Nodes 4 and 5 share an L1 cluster and its L2 groups — RS(4,4)
    // tolerates two lost nodes, and only that cluster restarts.
    let dir = TempDir::new();
    let out = hier_engine(&dir, 5)
        .run(&FaultScenario::nodes_loss(&[NodeId(4), NodeId(5)], 8), 10)
        .expect("recover");
    assert_eq!(out.restart_set.len(), 16, "one L1 cluster restarts");
    assert_eq!(eta(&out.final_state), oracle(10));

    // Node 3's 2 ranks belong to 2 different distributed clusters of 4,
    // which together span 8 ranks of 16 — the paper's restart
    // amplification, live.
    let dir = TempDir::new();
    let placement = Placement::block(8, 2);
    let scheme = distributed(&placement, 4);
    let out = engine(&dir, placement, scheme, 4)
        .run(&FaultScenario::node_loss(NodeId(3), 6), 8)
        .expect("recover");
    assert_eq!(out.restart_set.len(), 8);
    assert_eq!(eta(&out.final_state), oracle(8));
}

#[test]
fn sender_logs_grow_until_a_checkpoint_truncates_them() {
    let log_memory_at = |phase| {
        let dir = TempDir::new();
        hier_engine(&dir, 5)
            .run(&FaultScenario::node_loss(NodeId(0), phase), 7)
            .expect("recover")
            .log_memory_bytes
    };
    assert!(log_memory_at(4) > 0, "cross-cluster halos must be logged");
    assert_eq!(log_memory_at(5), 0, "log GC after the checkpoint at 5");
}

#[test]
fn same_node_encoding_clusters_hit_the_catastrophic_path() {
    // The size-guided pathology, end to end: encoding clusters equal to
    // nodes mean a node failure destroys data + parity together.
    let dir = TempDir::new();
    let placement = Placement::block(8, 4);
    let scheme = size_guided(32, 4); // 4 consecutive ranks = exactly one node
    let scenario = FaultScenario::node_loss(NodeId(2), 6);
    assert!(
        scenario
            .is_catastrophic(
                &placement,
                &scheme,
                None,
                &SchemeIndex::new(&scheme, &placement)
            )
            .expect("in range"),
        "same-node encoding clusters are defeated by one node loss"
    );
    match engine(&dir, placement, scheme, 4).run(&scenario, 8) {
        Err(HcftError::Erasure { needed, available }) => {
            assert!(
                available < needed,
                "catastrophic means fewer surviving shards ({available}) \
                 than the decoder needs ({needed})"
            );
        }
        other => panic!("expected catastrophic failure, got {other:?}"),
    }
}

#[test]
fn telemetry_journal_narrates_a_kill_rebuild_drill() {
    // The observability cross-checks: one injected failure must produce
    // exactly one failure → dead ranks → rebuild → replay → recovery
    // narrative, the rebuilt checkpoint bytes must equal the bytes the
    // dead node lost, and the decode-matrix cache must not miss more
    // often than there are distinct erasure patterns.
    let dir = TempDir::new();
    let eng = hier_engine(&dir, 5);
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(5), 13), 15)
        .expect("recover");
    assert_eq!(eta(&out.final_state), oracle(15));

    let reg = eng.telemetry();
    let journal = reg.journal();
    let narrative: Vec<_> = [
        EventKind::NodeFailure,
        EventKind::DeadRanks,
        EventKind::RebuildComplete,
        EventKind::ReplayComplete,
        EventKind::RecoveryComplete,
    ]
    .into_iter()
    .map(|kind| {
        let events = journal.events_of(kind);
        assert_eq!(events.len(), 1, "exactly one {kind:?} event");
        events[0].clone()
    })
    .collect();
    assert!(
        narrative.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns),
        "journal out of causal order: {narrative:?}"
    );
    assert_eq!(narrative[0].virt, 13, "failure injected at phase 13");

    // The rebuilt checkpoint payloads equal what the dead node lost.
    let lost: u64 = out
        .failed_ranks
        .iter()
        .map(|r| out.final_state[r.idx()].len() as u64)
        .sum();
    let rebuilt = reg.counter("checkpoint.rebuilt_payload_bytes").get();
    assert!(lost > 0, "the dead node held checkpointed state");
    assert_eq!(rebuilt, lost, "rebuilt bytes == lost checkpoint bytes");

    // Decode matrices are cached per erasure pattern: one node failure
    // is one pattern per L2 group, and every group in the failed L1
    // cluster shares the same member-index pattern.
    let misses = reg.counter("checkpoint.decode_cache.misses").get();
    assert_eq!(
        misses, 1,
        "one erasure pattern builds exactly one decode matrix"
    );
}

#[test]
fn pfs_level_checkpoint_rescues_the_catastrophic_case() {
    // Same pathology, but with a manual PFS-level checkpoint taken — the
    // multi-level hierarchy's last line of defence.
    let dir = TempDir::new();
    let placement = Placement::block(8, 4);
    let store = CheckpointStore::create(&dir.0, 8).expect("store");
    let groups = size_guided(32, 4).l2;
    let ml = MultilevelCheckpointer::new(store, groups, placement.clone());
    let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 64]).collect();
    ml.checkpoint(1, Level::Pfs, &payloads).expect("ckpt");
    ml.store().fail_node(NodeId(2)).expect("kill");
    let recovered = ml.recover(1).expect("PFS fallback");
    assert_eq!(recovered, payloads);
}

mod drill_fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random failure sequences: arbitrary checkpoint cadence, kill
        /// times and victim nodes — the world at every recovered frontier
        /// and at the end must equal the sequential solver, bit for bit.
        #[test]
        fn random_failure_scenarios_recover_exactly(
            cadence in 3u64..8,
            kills in proptest::collection::vec((5u64..30, 0u32..16), 1..4),
        ) {
            let dir = TempDir::new();
                    let placement = Placement::block(16, 2);
            let scheme = hier_scheme(&placement);
            let eng = engine(&dir, placement, scheme, cadence);
            let mut kills = kills;
            kills.sort();
            kills.dedup_by_key(|&mut (at, _)| at);
            let scenarios: Vec<FaultScenario> = kills
                .iter()
                .map(|&(at, node)| FaultScenario::node_loss(NodeId(node), at))
                .collect();
            let outs = eng.run_sequence(&scenarios, 35).expect("recover");
            for (i, (out, &(at, node))) in outs.iter().zip(&kills).enumerate() {
                let shown = if i + 1 == outs.len() { 35 } else { at };
                prop_assert_eq!(
                    eta(&out.final_state),
                    oracle(shown),
                    "divergence after killing node {} at {}",
                    node,
                    at
                );
            }
        }
    }
}
