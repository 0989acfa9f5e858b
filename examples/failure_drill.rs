//! Failure drill: run the tsunami workload as a live `simmpi` world with
//! the full FT stack, kill a node mid-run, and watch the hierarchical
//! clustering recover — Reed–Solomon rebuild, single-L1-cluster
//! rollback, log-fed catch-up — ending with a field bit-identical to
//! the sequential solver's.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use hcft::prelude::*;
use hcft::tsunami::sequential::SequentialSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 16;
    let ppn = 4;
    let placement = Placement::block(nodes, ppn);
    let params = TsunamiParams::stable(64, 64);
    let (kill_at, total) = (25, 40);

    // Hierarchical clustering over a synthetic chain node-graph (in a
    // real deployment this comes from a traced run — see `quickstart`).
    let mut m = CommMatrix::new(nodes);
    for a in 0..nodes - 1 {
        m.add(a, a + 1, 1_000);
        m.add(a + 1, a, 1_000);
    }
    let node_graph = WeightedGraph::from_comm_matrix(&m);
    let scheme = hierarchical(
        &placement,
        &node_graph,
        &HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        },
    );
    println!(
        "clustering: {} L1 clusters (containment), {} L2 clusters (encoding)",
        scheme.l1.len(),
        scheme.l2.len()
    );

    let store = std::env::temp_dir().join(format!("hcft-drill-example-{}", std::process::id()));
    let mut cfg = ReplayConfig::new(&store);
    cfg.checkpoint_every = 10;
    let engine = ReplayEngine::new(TsunamiWorkload::new(params.clone()), placement, scheme, cfg);

    println!(
        "running {total} iterations with encoded checkpoints every 10, \
         killing node 7 (in-memory state + on-disk checkpoints) at {kill_at}…"
    );
    let outcome = engine.run(&FaultScenario::node_loss(NodeId(7), kill_at), total);
    let _ = std::fs::remove_dir_all(&store);
    let outcome = outcome?;
    println!(
        "  sender logs held {} bytes of inter-cluster halos at the kill",
        outcome.log_memory_bytes
    );
    println!("  dead ranks: {:?}", outcome.failed_ranks);
    println!(
        "recovered: {} of {} ranks rolled back to iteration {} (one L1 cluster of 4 nodes), \
         {} checkpoint bytes restored",
        outcome.restart_set.len(),
        nodes * ppn,
        outcome.recovered_phase,
        outcome.bytes_restored
    );
    println!(
        "  catch-up: {} rank-iterations re-executed, {} logged messages ({} bytes) re-fed, \
         {} duplicate sends suppressed",
        outcome.catchup_steps,
        outcome.messages_replayed,
        outcome.bytes_replayed,
        outcome.suppressed_duplicates
    );

    // Verify against an uninterrupted sequential reference — bit for bit.
    let recovered = TsunamiWorkload::new(params.clone()).global_eta(&outcome.final_state)?;
    let mut reference = SequentialSim::new(params);
    reference.run(total);
    assert_eq!(recovered, reference.eta);
    println!(
        "verification: the field after {total} iterations is BIT-IDENTICAL to an \
         uninterrupted sequential run. Drill complete."
    );
    Ok(())
}
