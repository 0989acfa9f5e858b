//! Reliability what-if: explore how machine size, failure correlation
//! and erasure-cluster layout move the probability of catastrophic
//! failure — the model behind Fig. 4a and Table II's last column, with
//! the exact share of catastrophic 2-node events beside it.
//!
//! ```text
//! cargo run --release --example reliability_whatif
//! ```

use hcft::cluster::distributed;
use hcft::prelude::*;
use hcft::reliability::model::fti_tolerance;

fn main() {
    // The paper's Fig. 4a machine: 128 nodes × 8 ranks.
    let nodes = 128;
    let ppn = 8;
    let placement = Placement::block(nodes, ppn);
    let n = nodes * ppn;

    println!("catastrophic-failure probability, {nodes} nodes x {ppn} ranks\n");
    println!("layout                      analytic      exact(j=2)");
    let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
    for (name, clustering) in [
        ("consecutive, size 4", naive(n, 4).l2),
        ("consecutive, size 8", naive(n, 8).l2),
        ("consecutive, size 16", naive(n, 16).l2),
        ("distributed, size 4", distributed(&placement, 4).l2),
        ("distributed, size 8", distributed(&placement, 8).l2),
        ("distributed, size 16", distributed(&placement, 16).l2),
    ] {
        let p = model.p_catastrophic(&clustering, &placement, &fti_tolerance);
        let q2 = model.q_given_j(2, &clustering, &placement, &fti_tolerance);
        println!("{name:<26} {p:>12.3e}   q(2)={q2:.4}");
    }

    // What if failures were never correlated across nodes?
    println!("\nwith single-node-only failures (no correlated events):");
    let iso = ReliabilityModel::new(nodes, EventDistribution::single_node_only());
    for (name, clustering) in [
        ("consecutive, size 8", naive(n, 8).l2),
        ("distributed, size 8", distributed(&placement, 8).l2),
    ] {
        let p = iso.p_catastrophic(&clustering, &placement, &fti_tolerance);
        println!("{name:<26} {p:>12.3e}");
    }

    // Failure arrivals: how often do we even get to use this model?
    println!("\nfailure arrivals over a 24 h run:");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    for (label, process) in [
        ("exponential, MTBF 6 h", FailureArrivals::exponential(6.0)),
        (
            "Weibull k=0.7 (infant-heavy)",
            FailureArrivals::weibull(6.0, 0.7),
        ),
    ] {
        let times = process.sample_times(24.0, &mut rng);
        println!(
            "  {label:<30} {} failures at {:?} h",
            times.len(),
            times
                .iter()
                .map(|t| (t * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
    }
}
