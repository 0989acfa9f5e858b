//! Task graphs for checkpointing.
//!
//! Each node owns three FCFS resources — SSD, NIC, one encoder core —
//! and the PFS is one shared resource. A checkpoint at a given level
//! becomes a dependency graph over those resources; the engine's
//! makespan is the checkpoint's wall time. The Reed–Solomon ring is
//! modelled per member: read the local shard, pass blocks (g−1) times
//! around the ring, multiply-accumulate `g × shard` bytes of operands on
//! the member's core, write the parity shard.

use hcft_checkpoint::Level;
use hcft_graph::Clustering;
use hcft_topology::{Placement, Rank};

use crate::engine::{ResourceId, Sim, TaskId};
use crate::rates::Rates;

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hardware rates.
    pub rates: Rates,
    /// Checkpoint bytes per rank.
    pub bytes_per_rank: u64,
}

struct NodeResources {
    ssd: ResourceId,
    nic: ResourceId,
    core: ResourceId,
}

fn build_nodes(sim: &mut Sim, nodes: usize, r: &Rates) -> Vec<NodeResources> {
    (0..nodes)
        .map(|_| NodeResources {
            ssd: sim.resource(r.ssd_write),
            nic: sim.resource(r.nic),
            core: sim.resource(r.gf_mul_acc),
        })
        .collect()
}

/// Simulate one coordinated checkpoint; returns the wall-time makespan
/// in seconds.
pub fn simulate_checkpoint(
    cfg: &SimConfig,
    level: Level,
    groups: &Clustering,
    placement: &Placement,
) -> f64 {
    let mut sim = Sim::new();
    let r = &cfg.rates;
    let nodes = build_nodes(&mut sim, placement.nodes(), r);
    let pfs = sim.resource(r.pfs);
    let bytes = cfg.bytes_per_rank as f64;
    // Local writes: every rank onto its node's SSD.
    let writes: Vec<TaskId> = (0..placement.nprocs())
        .map(|rank| {
            let n = placement.node_of(Rank::from(rank)).idx();
            sim.task(nodes[n].ssd, bytes, &[])
        })
        .collect();
    match level {
        Level::Local => {}
        Level::Encoded => {
            for (_, members) in groups.iter() {
                let g = members.len();
                if g < 2 {
                    continue;
                }
                // Read the local shard back for encoding.
                let reads: Vec<TaskId> = members
                    .iter()
                    .map(|&m| {
                        let n = placement.node_of(m).idx();
                        sim.task(nodes[n].ssd, bytes, &[writes[m.idx()]])
                    })
                    .collect();
                // Ring transfers: step s of member m ships a block to the
                // next member, gated on the previous step upstream.
                let mut prev_step: Vec<TaskId> = reads.clone();
                for _s in 0..g - 1 {
                    let mut this_step = Vec::with_capacity(g);
                    for (i, &m) in members.iter().enumerate() {
                        let n = placement.node_of(m).idx();
                        let upstream = prev_step[(i + g - 1) % g];
                        this_step.push(sim.task(nodes[n].nic, bytes, &[prev_step[i], upstream]));
                    }
                    prev_step = this_step;
                }
                // Per-member parity computation: g × shard bytes of
                // multiply-accumulate operands, then the parity write.
                for (i, &m) in members.iter().enumerate() {
                    let n = placement.node_of(m).idx();
                    let compute =
                        sim.task(nodes[n].core, g as f64 * bytes, &[prev_step[i], reads[i]]);
                    sim.task(nodes[n].ssd, bytes, &[compute]);
                }
            }
        }
        Level::Pfs => {
            for &w in &writes {
                sim.task(pfs, bytes, &[w]);
            }
        }
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_graph::Clustering;
    use hcft_topology::Placement;

    const GB: u64 = 1_000_000_000;

    fn cfg(bytes: u64) -> SimConfig {
        SimConfig {
            rates: Rates::tsubame2(),
            bytes_per_rank: bytes,
        }
    }

    /// Distributed groups of `size` over `nodes` × `ppn`.
    fn distributed(nodes: usize, ppn: usize, size: usize) -> Clustering {
        Clustering::from_assignment(
            &(0..nodes * ppn)
                .map(|r| (r / ppn / size) * ppn + r % ppn)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn local_level_is_bounded_by_the_busiest_ssd() {
        // 4 nodes × 16 ranks × 1 GB at 360 MiB/s: 16 GB per SSD ≈ 42.4 s
        // (nodes in parallel) — the cost model's local term.
        let placement = Placement::block(4, 16);
        let groups = Clustering::singletons(64);
        let t = simulate_checkpoint(&cfg(GB), Level::Local, &groups, &placement);
        let expect = 16.0 * 1e9 / (360.0 * 1024.0 * 1024.0);
        assert!((t - expect).abs() < 1e-6, "{t} vs {expect}");
    }

    #[test]
    fn pfs_level_serializes_on_the_shared_filesystem() {
        let placement = Placement::block(4, 16);
        let groups = Clustering::singletons(64);
        let t = simulate_checkpoint(&cfg(GB), Level::Pfs, &groups, &placement);
        // 64 GB over 10 GiB/s ≈ 6 s of PFS time after ~42 s of local
        // writes; PFS drain overlaps the tail, so total < local + pfs and
        // ≥ max(local, pfs-with-first-write-latency).
        let local = 16.0 * 1e9 / (360.0 * 1024.0 * 1024.0);
        let pfs = 64.0 * 1e9 / (10.0 * 1024f64.powi(3));
        assert!(t >= local && t <= local + pfs + 1.0, "t = {t}");
    }

    #[test]
    fn encoded_level_reproduces_the_papers_linear_law() {
        // Distributed groups on 32 nodes × 1 rank: encoding time per GB
        // must grow linearly in group size with slope ≈ 6.375 s (the
        // calibrated law), plus a small constant for reads and ring
        // traffic.
        let placement = Placement::block(32, 1);
        let mut times = Vec::new();
        for g in [4usize, 8, 16, 32] {
            let groups = distributed(32, 1, g);
            let t = simulate_checkpoint(&cfg(GB), Level::Encoded, &groups, &placement);
            times.push((g, t));
        }
        for &(g, t) in &times {
            let model = 6.375 * g as f64;
            // Additive overhead the model's encode term excludes: the
            // local write, shard read-back and parity write (~8.4 s at
            // 1 GB) plus the (g−1)-step ring at ~0.12 s per block.
            let overhead = 9.0 + 0.15 * g as f64;
            assert!(
                t > model && t < model + overhead,
                "g={g}: simulated {t:.1} vs model {model:.1}"
            );
        }
        // Slope between consecutive sizes ≈ 6.375 within 10 %.
        let slope = (times[3].1 - times[0].1) / (32.0 - 4.0);
        assert!((slope - 6.375).abs() < 0.65, "slope {slope}");
    }

    #[test]
    fn level_costs_are_ordered() {
        let placement = Placement::block(8, 4);
        let groups = distributed(8, 4, 4);
        let c = cfg(256 * 1024 * 1024);
        let local = simulate_checkpoint(&c, Level::Local, &groups, &placement);
        let encoded = simulate_checkpoint(&c, Level::Encoded, &groups, &placement);
        assert!(local < encoded, "{local} vs {encoded}");
    }
}
