//! One function per paper artefact (tables I & II, figures 3–5).

use hcft_cluster::{
    distributed, hierarchical, naive, BaselineRequirements, Evaluator, FamilyScore,
    HierarchicalConfig, PartitionEngine, SchemeFamilySpec,
};
use hcft_core::campaign::{CiTarget, StopRule};
use hcft_core::HcftError;
use hcft_erasure::{EncodingModel, ReedSolomon};
use hcft_graph::WeightedGraph;
use hcft_msglog::{logged_fraction, HybridProtocol};
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, ReliabilityModel};
use hcft_topology::{MachineSpec, Placement};
use rayon::prelude::*;

use crate::harness::{fmt_prob, traced, Artifact, CsvFile, Scale};

fn power_of_two_sizes(max: usize, from: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = from;
    while s <= max {
        v.push(s);
        s *= 2;
    }
    v
}

/// Table I: the TSUBAME2 architecture summary.
pub fn table1() -> Artifact {
    let m = MachineSpec::tsubame2();
    Artifact {
        id: "table1",
        report: format!("TABLE I — TSUBAME2 ARCHITECTURE\n\n{}", m.render_table()),
        csv: Vec::new(),
    }
}

/// Fig. 3a: message-logging overhead vs restart cost as a function of
/// the (naïve, consecutive-rank) cluster size.
pub fn fig3a(scale: Scale) -> Artifact {
    let t = traced(scale);
    let placement = t.layout.app_placement();
    let n = placement.nprocs();
    let mut rows = Vec::new();
    let mut report = String::from(
        "FIG 3a — cluster size vs (message logging %, restart %) [naive clustering]\n\n\
         size     logged%   restart%\n",
    );
    // Each cluster size is an independent model evaluation: fan the
    // sweep out and reassemble rows in size order (ordered collect), so
    // the report and CSV match the serial sweep byte for byte.
    let sweep: Vec<(usize, f64, f64)> = power_of_two_sizes(n / 2, 1)
        .into_par_iter()
        .map(|size| {
            let scheme = naive(n, size);
            let protocol = HybridProtocol::new(scheme.l1.clone());
            let logged = logged_fraction(protocol.logged_bytes(&t.app)) * 100.0;
            let restart = protocol.expected_restart_fraction(&placement) * 100.0;
            (size, logged, restart)
        })
        .collect();
    for (size, logged, restart) in sweep {
        report.push_str(&format!("{size:<8} {logged:>7.2}   {restart:>7.2}\n"));
        rows.push(vec![
            size.to_string(),
            format!("{logged:.3}"),
            format!("{restart:.3}"),
        ]);
    }
    report.push_str(
        "\nPaper shape: logging falls with size, restart grows; sweet spot where both\n\
         are small (paper: 32 processes → <4% logged, ~3% restart).\n",
    );
    Artifact {
        id: "fig3a",
        report,
        csv: vec![CsvFile::new(
            "fig3a_size_vs_logging_restart.csv",
            "cluster_size,logged_pct,restart_pct",
            &rows,
        )],
    }
}

/// Fig. 3b: message-logging overhead vs encoding time (log-scale axis in
/// the paper) as a function of cluster size. Model values are the
/// TSUBAME2 calibration; the `measured` column extrapolates from an
/// actual Reed–Solomon encode performed here.
pub fn fig3b(scale: Scale) -> Artifact {
    let t = traced(scale);
    let placement = t.layout.app_placement();
    let n = placement.nprocs();
    let model = EncodingModel::tsubame2();
    let mut rows = Vec::new();
    let mut report = String::from(
        "FIG 3b — cluster size vs (message logging %, encoding time per GB)\n\n\
         size     logged%   model s/GB   measured s/GB(per-member wall)\n",
    );
    for size in power_of_two_sizes(n / 2, 4) {
        let scheme = naive(n, size);
        let protocol = HybridProtocol::new(scheme.l1.clone());
        let logged = logged_fraction(protocol.logged_bytes(&t.app)) * 100.0;
        let model_s = model.seconds_per_gb(size);
        // RS over GF(256) caps at 256 shards (k = m = size), so the live
        // measurement stops at 128; the model extrapolates beyond.
        let measured_s = (size <= 128).then(|| measure_encode_seconds_per_gb(size));
        match measured_s {
            Some(m) => report.push_str(&format!(
                "{size:<8} {logged:>7.2}   {model_s:>9.1}    {m:>9.1}\n"
            )),
            None => report.push_str(&format!(
                "{size:<8} {logged:>7.2}   {model_s:>9.1}            -\n"
            )),
        }
        rows.push(vec![
            size.to_string(),
            format!("{logged:.3}"),
            format!("{model_s:.2}"),
            measured_s.map(|m| format!("{m:.2}")).unwrap_or_default(),
        ]);
    }
    report.push_str(
        "\nPaper shape: encoding time grows linearly with cluster size (one order of\n\
         magnitude from 4 to 32); logging falls. Sizes around 8 satisfy both axes.\n",
    );
    Artifact {
        id: "fig3b",
        report,
        csv: vec![CsvFile::new(
            "fig3b_size_vs_logging_encoding.csv",
            "cluster_size,logged_pct,encode_s_per_gb_model,encode_s_per_gb_measured",
            &rows,
        )],
    }
}

/// Measure a real RS(s, s) encode and scale it to the paper's metric:
/// wall seconds per GB of per-member checkpoint data, assuming FTI's
/// distribution of parity work across the s members.
///
/// Only the encode is timed: the parity buffers are allocated and
/// written before the clock starts, and the encode is repeated until
/// 50 ms of it has been timed (about 25 runs at 4 members, one at 64),
/// keeping the fastest run. Page faults, thread-pool start-up and a busy
/// neighbour (which otherwise dominate a 4-member encode in release
/// builds) stay out of the figure.
fn measure_encode_seconds_per_gb(group: usize) -> f64 {
    const SHARD: usize = 1 << 20; // 1 MiB per member
    const BUDGET_S: f64 = 0.05;
    let rs = ReedSolomon::new(group, group);
    let data: Vec<Vec<u8>> = (0..group)
        .map(|i| (0..SHARD).map(|b| ((i * 31 + b * 7) % 251) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    // Non-zero fill, so every page is resident before the first encode.
    let mut parity = vec![vec![0xA5u8; SHARD]; group];
    let (mut fastest, mut timed) = (f64::INFINITY, 0.0);
    while timed < BUDGET_S {
        let outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| &mut p[..]).collect();
        let start = std::time::Instant::now();
        rs.encode_into(&refs, outs);
        let run = start.elapsed().as_secs_f64();
        fastest = fastest.min(run);
        timed += run;
    }
    std::hint::black_box(&parity);
    // The encode computed `group` parity rows; FTI spreads those rows
    // over the group's members, so per-member wall time is fastest/group.
    // Scale the 1 MiB test shard up to the paper's 1 GB unit. The result
    // grows linearly with the group size (each parity row combines
    // `group` data shards), which is exactly Fig. 3b's law.
    (fastest / group as f64) * (1.0e9 / SHARD as f64)
}

/// Fig. 4a: probability of catastrophic failure, distributed vs
/// non-distributed, for cluster sizes 4/8/16 on 128 nodes × 8 ranks.
pub fn fig4a() -> Artifact {
    let nodes = 128;
    let ppn = 8;
    let placement = Placement::block(nodes, ppn);
    let model = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
    let mut rows = Vec::new();
    let mut report = String::from(
        "FIG 4a — reliability (P(catastrophic failure)), 128 nodes x 8 ranks\n\n\
         size   non-distributed   distributed\n",
    );
    for size in [4usize, 8, 16] {
        let nd = naive(nodes * ppn, size);
        let d = distributed(&placement, size);
        let p_nd = model.p_catastrophic(&nd.l2, &placement, &fti_tolerance);
        let p_d = model.p_catastrophic(&d.l2, &placement, &fti_tolerance);
        report.push_str(&format!(
            "{size:<6} {:>15}   {:>11}\n",
            fmt_prob(p_nd),
            fmt_prob(p_d)
        ));
        rows.push(vec![
            size.to_string(),
            format!("{p_nd:e}"),
            format!("{p_d:e}"),
        ]);
    }
    report.push_str(
        "\nPaper shape: non-distributed clusters of 4/8 die on a single node failure\n\
         (P ≈ 1-transient); distribution buys many orders of magnitude.\n",
    );
    Artifact {
        id: "fig4a",
        report,
        csv: vec![CsvFile::new(
            "fig4a_reliability.csv",
            "cluster_size,p_cat_nondistributed,p_cat_distributed",
            &rows,
        )],
    }
}

/// Fig. 4b: message-logging overhead, distributed vs non-distributed.
pub fn fig4b(scale: Scale) -> Artifact {
    let t = traced(scale);
    let placement = t.layout.app_placement();
    let n = placement.nprocs();
    let mut rows = Vec::new();
    let mut report = String::from(
        "FIG 4b — message logging %, distributed vs non-distributed\n\n\
         size     non-distributed%   distributed%\n",
    );
    let sweep: Vec<(usize, f64, f64)> = power_of_two_sizes(placement.nodes(), 4)
        .into_par_iter()
        .map(|size| {
            let nd = HybridProtocol::new(naive(n, size).l1);
            let d = HybridProtocol::new(distributed(&placement, size).l1);
            let l_nd = logged_fraction(nd.logged_bytes(&t.app)) * 100.0;
            let l_d = logged_fraction(d.logged_bytes(&t.app)) * 100.0;
            (size, l_nd, l_d)
        })
        .collect();
    for (size, l_nd, l_d) in sweep {
        report.push_str(&format!("{size:<8} {l_nd:>15.2}   {l_d:>11.2}\n"));
        rows.push(vec![
            size.to_string(),
            format!("{l_nd:.3}"),
            format!("{l_d:.3}"),
        ]);
    }
    report.push_str(
        "\nPaper shape: with topology-aware placement, distribution forces nearly all\n\
         bytes across cluster boundaries regardless of cluster size.\n",
    );
    Artifact {
        id: "fig4b",
        report,
        csv: vec![CsvFile::new(
            "fig4b_logging_distribution.csv",
            "cluster_size,logged_pct_nondistributed,logged_pct_distributed",
            &rows,
        )],
    }
}

/// Fig. 4c: restart cost, distributed vs non-distributed, 64 nodes × 16
/// ranks (model-only, like the paper's analysis).
pub fn fig4c() -> Artifact {
    let nodes = 64;
    let ppn = 16;
    let placement = Placement::block(nodes, ppn);
    let n = nodes * ppn;
    let mut rows = Vec::new();
    let mut report = String::from(
        "FIG 4c — restart cost %, 64 nodes x 16 ranks\n\n\
         size     non-distributed%   distributed%\n",
    );
    let sweep: Vec<(usize, f64, f64)> = power_of_two_sizes(nodes, 2)
        .into_par_iter()
        .map(|size| {
            let nd = HybridProtocol::new(naive(n, size).l1);
            let d = HybridProtocol::new(distributed(&placement, size).l1);
            let r_nd = nd.expected_restart_fraction(&placement) * 100.0;
            let r_d = d.expected_restart_fraction(&placement) * 100.0;
            (size, r_nd, r_d)
        })
        .collect();
    for (size, r_nd, r_d) in sweep {
        report.push_str(&format!("{size:<8} {r_nd:>15.2}   {r_d:>11.2}\n"));
        rows.push(vec![
            size.to_string(),
            format!("{r_nd:.3}"),
            format!("{r_d:.3}"),
        ]);
    }
    report.push_str(
        "\nPaper shape: non-distributed restart grows like size/P (3% at 32);\n\
         distributed amplifies by ranks-per-node (50% at 32).\n",
    );
    Artifact {
        id: "fig4c",
        report,
        csv: vec![CsvFile::new(
            "fig4c_restart_distribution.csv",
            "cluster_size,restart_pct_nondistributed,restart_pct_distributed",
            &rows,
        )],
    }
}

/// Fig. 5a: the full communication heat map of the traced execution.
pub fn fig5a(scale: Scale) -> Artifact {
    let t = traced(scale);
    let ascii = t.full.render_ascii(64);
    let report = format!(
        "FIG 5a — communication matrix, {} global ranks, {} bytes total\n\
         (log-scale ASCII density; full data in the CSV)\n\n{ascii}",
        t.full.n(),
        t.full.total_bytes()
    );
    Artifact {
        id: "fig5a",
        report,
        csv: vec![CsvFile::new(
            "fig5a_comm_matrix.csv",
            "src,dst,bytes",
            &t.full
                .entries()
                .map(|(s, d, b)| vec![s.to_string(), d.to_string(), b.to_string()])
                .collect::<Vec<_>>(),
        )],
    }
}

/// Fig. 5b: zoom on the first 4 nodes (68 ranks at paper scale) with the
/// paper's pattern inventory verified quantitatively.
pub fn fig5b(scale: Scale) -> Artifact {
    let t = traced(scale);
    let rpn = t.layout.ranks_per_node();
    let k = 4 * rpn;
    let zoom = t.full.zoom(k);
    let px = t.process_grid.0;
    // Pattern inventory over the zoomed corner, in *global* rank space.
    let enc = |r: usize| r.is_multiple_of(rpn);
    let mut stencil = 0u64;
    let mut to_encoder = 0u64;
    let mut encoder_pairs = 0u64;
    let mut other = 0u64;
    for (s, d, b) in zoom.entries() {
        if enc(s) && enc(d) {
            encoder_pairs += b;
        } else if enc(d) || enc(s) {
            to_encoder += b;
        } else {
            // Application pair: distance in app-rank space.
            let (sa, da) = (s - s / rpn - 1, d - d / rpn - 1);
            let dist = sa.abs_diff(da);
            if dist == 1 || dist == px {
                stencil += b;
            } else {
                other += b;
            }
        }
    }
    let ascii = zoom.render_ascii(k.min(96));
    let report = format!(
        "FIG 5b — zoom on the first 4 nodes ({k} ranks; encoders at 0, {rpn}, {}, {})\n\n\
         pattern inventory (bytes):\n\
           stencil double diagonal (app ±1, ±{px})  {stencil}\n\
           app -> encoder checkpoint pushes          {to_encoder}\n\
           encoder <-> encoder parity ring           {encoder_pairs}\n\
           other (MPI_Allgather init diagonals)      {other}\n\n{ascii}",
        2 * rpn,
        3 * rpn
    );
    Artifact {
        id: "fig5b",
        report,
        csv: vec![CsvFile::new(
            "fig5b_zoom_matrix.csv",
            "src,dst,bytes",
            &zoom
                .entries()
                .map(|(s, d, b)| vec![s.to_string(), d.to_string(), b.to_string()])
                .collect::<Vec<_>>(),
        )],
    }
}

/// The four paper schemes at `scale`'s Table II sizes, hierarchical with
/// exactly 4-node L1 clusters and 4-node L2 groups.
fn paper_spec(scale: Scale, engine: PartitionEngine) -> SchemeFamilySpec {
    let (nv, sg, ds) = scale.table2_sizes();
    let hier_cfg = HierarchicalConfig {
        min_nodes_per_l1: 4,
        max_nodes_per_l1: 4,
        l2_group_nodes: 4,
        engine,
    };
    SchemeFamilySpec::paper(nv, sg, ds, hier_cfg)
}

/// The four paper schemes built and scored on the traced run at
/// `scale`, with the default (multilevel) L1 partition engine.
fn schemes_and_scores(scale: Scale) -> Vec<FamilyScore> {
    schemes_and_scores_with(scale, PartitionEngine::Multilevel)
}

/// [`schemes_and_scores`] with an explicit L1 partition engine (the
/// `repro --partition-engine` plumbing, so engine sweeps reuse the same
/// scoring path as the paper artifacts).
fn schemes_and_scores_with(scale: Scale, engine: PartitionEngine) -> Vec<FamilyScore> {
    // Scoring publishes the `table2.*` metrics into the global telemetry
    // registry as a side effect (picked up by `repro --telemetry`).
    hcft_core::evaluate_family_sweep(&traced(scale), &paper_spec(scale, engine))
        .expect("the paper schemes fit the traced machine")
}

/// Table II: the four-dimension comparison of all clustering strategies.
pub fn table2(scale: Scale, engine: hcft_cluster::PartitionEngine) -> Artifact {
    let scored = schemes_and_scores_with(scale, engine);
    let mut report = String::from(
        "TABLE II — clustering comparison\n\n\
         method                   log.ovh  recovery  enc.(1GB)  P(cat.failure)\n",
    );
    let mut rows = Vec::new();
    for s in scored.iter().map(|row| &row.score) {
        report.push_str(&format!(
            "{:<24} {:>6.1}%  {:>7.2}%  {:>7.0} s  {:>12}\n",
            s.name,
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            fmt_prob(s.p_catastrophic)
        ));
        rows.push(vec![
            s.name.clone(),
            format!("{:.4}", s.logging_fraction),
            format!("{:.4}", s.restart_fraction),
            format!("{:.1}", s.encode_s_per_gb),
            format!("{:e}", s.p_catastrophic),
        ]);
    }
    report.push_str(
        "\nPaper (1024 ranks): naive(32) 3.5%/3.1%/204s/1e-4 · size-guided(8)\n\
         12.9%/0.7%/51s/0.95 · distributed(16) 100%/25%/102s/1e-15 ·\n\
         hierarchical(64-4) 1.9%/6.25%/25s/1e-6.\n",
    );
    Artifact {
        id: "table2",
        report,
        csv: vec![CsvFile::new(
            "table2_clustering_comparison.csv",
            "method,logging_fraction,restart_fraction,encode_s_per_gb,p_catastrophic",
            &rows,
        )],
    }
}

/// Fig. 5c: all strategies normalised against the §III baseline.
pub fn fig5c(scale: Scale, engine: hcft_cluster::PartitionEngine) -> Artifact {
    let scored = schemes_and_scores_with(scale, engine);
    let baseline = BaselineRequirements::default();
    let labels = BaselineRequirements::axis_labels();
    let mut report = format!(
        "FIG 5c — overall comparison against the baseline (value / threshold;\n\
         inside the unit polygon = admissible)\n\n\
         method                   {:<16} {:<14} {:<14} {:<16} meets-all\n",
        labels[0], labels[1], labels[2], labels[3]
    );
    let mut rows = Vec::new();
    for s in scored.iter().map(|row| &row.score) {
        let norm = baseline.normalize(s);
        let all = baseline.meets_all(s);
        report.push_str(&format!(
            "{:<24} {:>14.3}  {:>12.3}  {:>12.3}  {:>14.3e}  {}\n",
            s.name,
            norm[0],
            norm[1],
            norm[2],
            norm[3],
            if all { "YES" } else { "no" }
        ));
        rows.push(vec![
            s.name.clone(),
            format!("{:.4}", norm[0]),
            format!("{:.4}", norm[1]),
            format!("{:.4}", norm[2]),
            format!("{:e}", norm[3]),
            all.to_string(),
        ]);
    }
    report.push_str(
        "\nPaper shape: only the hierarchical clustering stays inside the baseline on\n\
         all four axes.\n",
    );
    Artifact {
        id: "fig5c",
        report,
        csv: vec![CsvFile::new(
            "fig5c_baseline_radar.csv",
            "method,norm_logging,norm_restart,norm_encoding,norm_reliability,meets_all",
            &rows,
        )],
    }
}

/// §V scaling: the hierarchical clustering evaluated from 64 to the
/// scale's full rank count.
pub fn scaling(scale: Scale, engine: hcft_cluster::PartitionEngine) -> Artifact {
    let full_nodes = scale.job().nodes;
    let ppn = scale.job().app_per_node;
    let mut rows = Vec::new();
    let mut report = String::from(
        "SCALING — hierarchical clustering from small to full size\n\n\
         ranks    logged%   restart%  enc.(1GB)  P(cat)\n",
    );
    let mut sizes = Vec::new();
    let mut nodes = 4;
    while nodes <= full_nodes {
        sizes.push(nodes);
        nodes *= 2;
    }
    // Every point re-runs the traced job at its own size — by far the
    // most expensive sweep in the pipeline. The simmpi worlds are fully
    // independent, so the sizes run concurrently; the ordered collect
    // keeps the report rows in ascending-size order.
    let sweep: Vec<(usize, _)> = sizes
        .into_par_iter()
        .map(|nodes| {
            let mut job = scale.job();
            job.nodes = nodes;
            // Keep the quasi-1-D decomposition shape at every size.
            let nprocs = nodes * ppn;
            let (px, py) = (nprocs / 2, 2);
            job.process_grid = Some((px, py));
            // Keep the per-rank tile shape of the full-scale run (2×2048)
            // so the logging fractions are comparable across sizes.
            job.grid = ((2 * px).max(16), 2048 * py);
            let t = hcft_core::experiment::run_traced_job(&job);
            let placement = t.layout.app_placement();
            let node_graph = WeightedGraph::from_comm_matrix(&t.app.aggregate_by_node(&placement));
            let cfg = HierarchicalConfig {
                min_nodes_per_l1: 4,
                max_nodes_per_l1: 4,
                l2_group_nodes: 4,
                engine,
            };
            let scheme = hierarchical(&placement, &node_graph, &cfg);
            let s = Evaluator::new(t.app.clone(), placement).evaluate(&scheme);
            (nodes, s)
        })
        .collect();
    for (nodes, s) in sweep {
        report.push_str(&format!(
            "{:<8} {:>7.2}   {:>7.2}  {:>7.0} s  {}\n",
            nodes * ppn,
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            fmt_prob(s.p_catastrophic)
        ));
        rows.push(vec![
            (nodes * ppn).to_string(),
            format!("{:.4}", s.logging_fraction),
            format!("{:.4}", s.restart_fraction),
            format!("{:.1}", s.encode_s_per_gb),
            format!("{:e}", s.p_catastrophic),
        ]);
    }
    report.push_str("\nRestart fraction shrinks with scale (fixed 4-node L1 clusters).\n");
    Artifact {
        id: "scaling",
        report,
        csv: vec![CsvFile::new(
            "scaling_hierarchical.csv",
            "app_ranks,logging_fraction,restart_fraction,encode_s_per_gb,p_catastrophic",
            &rows,
        )],
    }
}

// ---------------------------------------------------------------------
// Extensions beyond the paper's artefacts (DESIGN.md §8).
// ---------------------------------------------------------------------

/// Extension: application efficiency under the four clusterings — the
/// Young/Daly analysis with failure containment, fed by each scheme's
/// measured restart fraction and encoding-derived checkpoint cost.
pub fn efficiency(scale: Scale) -> Artifact {
    use hcft_reliability::EfficiencyModel;
    let scored = schemes_and_scores(scale);
    // 1 GB checkpoints; recovery latency = decode ≈ encode time; MTBF
    // sweep around the exascale-projection regime.
    let mut rows = Vec::new();
    let mut report = String::from(
        "EFFICIENCY (extension) — Young/Daly with containment, 1 GB checkpoints\n\n\
         method                    MTBF 1h   MTBF 4h   MTBF 24h   tau*(4h)\n",
    );
    for s in scored.iter().map(|row| &row.score) {
        let mut cells = vec![s.name.clone()];
        let mut line = format!("{:<24}", s.name);
        // A catastrophic failure falls back to an (hourly) PFS
        // checkpoint: bill the full machine for the lost interval.
        let model_at = |mtbf_h: f64| {
            EfficiencyModel::new(
                mtbf_h * 3600.0,
                s.encode_s_per_gb,
                s.encode_s_per_gb,
                s.restart_fraction.max(1e-6),
            )
            .with_catastrophe(s.p_catastrophic, 2.0 * 3600.0)
        };
        for mtbf_h in [1.0f64, 4.0, 24.0] {
            let e = model_at(mtbf_h).peak_efficiency();
            line.push_str(&format!("  {:>7.3}", e));
            cells.push(format!("{e:.4}"));
        }
        let tau = model_at(4.0).optimal_interval();
        line.push_str(&format!("   {:>6.0} s\n", tau));
        cells.push(format!("{tau:.0}"));
        report.push_str(&line);
        rows.push(cells);
    }
    report.push_str(
        "\nContainment (small restart fraction) + fast encoding (small L2) compound:\n\
         the hierarchical clustering sustains the highest machine efficiency.\n",
    );
    Artifact {
        id: "efficiency",
        report,
        csv: vec![CsvFile::new(
            "ext_efficiency.csv",
            "method,eff_mtbf_1h,eff_mtbf_4h,eff_mtbf_24h,tau_opt_4h_s",
            &rows,
        )],
    }
}

/// Extension: the §V caveat quantified — the same strategies evaluated on
/// a uniform all-to-all pattern, where no partition can contain traffic.
pub fn alltoall(scale: Scale) -> Artifact {
    let job = scale.job();
    let nodes = job.nodes;
    let ppn = job.app_per_node;
    let n = nodes * ppn;
    let placement = Placement::block(nodes, ppn);
    let matrix = hcft_graph::patterns::all_to_all(n, 1_000);
    let alltoall_scores = paper_spec(scale, PartitionEngine::Multilevel)
        .score(&Evaluator::new(matrix, placement))
        .expect("the paper schemes fit the machine");
    let mut rows = Vec::new();
    let mut report = String::from(
        "ALL-TO-ALL CAVEAT (extension) — §V last paragraph, quantified\n\n\
         method                    logged%   (stencil traced run for contrast)\n",
    );
    let traced_scores = schemes_and_scores(scale);
    for (row, stencil) in alltoall_scores.iter().zip(&traced_scores) {
        let (s, stencil) = (&row.score, &stencil.score);
        report.push_str(&format!(
            "{:<24} {:>8.1}   (stencil: {:.1}%)\n",
            s.name,
            s.logging_fraction * 100.0,
            stencil.logging_fraction * 100.0
        ));
        rows.push(vec![
            s.name.clone(),
            format!("{:.4}", s.logging_fraction),
            format!("{:.4}", stencil.logging_fraction),
        ]);
    }
    report.push_str(
        "\nUniform all-to-all: every clustering logs ≈ (n−k)/(n−1) of the traffic —\n\
         no partition helps, exactly the caveat the paper closes §V with.\n",
    );
    Artifact {
        id: "alltoall",
        report,
        csv: vec![CsvFile::new(
            "ext_alltoall_logging.csv",
            "method,logged_fraction_alltoall,logged_fraction_stencil",
            &rows,
        )],
    }
}

/// Extension ablation: hierarchical design choices — L1 cluster width,
/// partitioning engine, and L2 group width.
pub fn ablation(scale: Scale) -> Artifact {
    let t = traced(scale);
    let placement = t.layout.app_placement();
    let node_graph = WeightedGraph::from_comm_matrix(&t.app.aggregate_by_node(&placement));
    let evaluator = Evaluator::new(t.app.clone(), placement.clone());
    let mut rows = Vec::new();
    let mut report = String::from(
        "ABLATION (extension) — hierarchical design choices\n\n\
         variant                        logged%  restart%  enc(1GB)   P(cat)\n",
    );
    let mut variants: Vec<(String, HierarchicalConfig)> = Vec::new();
    for l1 in [4usize, 8, 16] {
        if l1 > placement.nodes() / 2 {
            continue;
        }
        variants.push((
            format!("L1 = {l1} nodes (multilevel)"),
            HierarchicalConfig {
                min_nodes_per_l1: l1,
                max_nodes_per_l1: l1,
                l2_group_nodes: 4,
                engine: PartitionEngine::Multilevel,
            },
        ));
    }
    variants.push((
        "L1 = 4..8 nodes (modularity)".to_string(),
        HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 8,
            l2_group_nodes: 4,
            engine: PartitionEngine::Modularity,
        },
    ));
    variants.push((
        "L2 groups of 8 nodes".to_string(),
        HierarchicalConfig {
            min_nodes_per_l1: 8,
            max_nodes_per_l1: 8,
            l2_group_nodes: 8,
            engine: PartitionEngine::Multilevel,
        },
    ));
    // Each variant partitions and scores independently; the ordered
    // collect keeps the table in declaration order.
    let scored: Vec<(String, _)> = variants
        .into_par_iter()
        .map(|(label, cfg)| {
            let s = evaluator.evaluate(&hierarchical(&placement, &node_graph, &cfg));
            (label, s)
        })
        .collect();
    for (label, s) in scored {
        report.push_str(&format!(
            "{label:<30} {:>7.2}  {:>7.2}  {:>7.0} s  {:>9.2e}\n",
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            s.p_catastrophic
        ));
        rows.push(vec![
            label,
            format!("{:.4}", s.logging_fraction),
            format!("{:.4}", s.restart_fraction),
            format!("{:.1}", s.encode_s_per_gb),
            format!("{:e}", s.p_catastrophic),
        ]);
    }
    report.push_str(
        "\nWider L1 trades restart cost for logging; wider L2 trades encoding time\n\
         for (already ample) reliability — the paper's 4/4 choice is the knee.\n",
    );
    Artifact {
        id: "ablation",
        report,
        csv: vec![CsvFile::new(
            "ext_ablation_hierarchical.csv",
            "variant,logged_fraction,restart_fraction,encode_s_per_gb,p_catastrophic",
            &rows,
        )],
    }
}

/// Extension: a simulated month of operation under each clustering —
/// failures arrive stochastically, the clustering decides who rolls back
/// (or whether the erasure level is defeated), and the ledger yields
/// useful-work availability.
pub fn campaign(scale: Scale) -> Artifact {
    use hcft_core::campaign::{simulate_campaign, CampaignConfig};
    let scored = schemes_and_scores(scale);
    let t = traced(scale);
    let placement = t.layout.app_placement();
    let mut rows = Vec::new();
    let mut report = String::from(
        "CAMPAIGN (extension) — 30 days, MTBF 6 h, checkpoint every 10 min\n\n\
         method                    failures  catastrophic  availability\n",
    );
    for FamilyScore { scheme, score, .. } in &scored {
        let cfg = CampaignConfig {
            checkpoint_cost_s: score.encode_s_per_gb,
            recovery_latency_s: score.encode_s_per_gb,
            trials: 100,
            ..Default::default()
        };
        let out = simulate_campaign(scheme, &placement, &cfg);
        report.push_str(&format!(
            "{:<24} {:>9.1}  {:>12.2}  {:>11.4}\n",
            scheme.name, out.failures, out.catastrophic, out.availability
        ));
        rows.push(vec![
            scheme.name.clone(),
            format!("{:.2}", out.failures),
            format!("{:.3}", out.catastrophic),
            format!("{:.5}", out.availability),
        ]);
    }
    report.push_str(
        "\nThe operational bottom line: the hierarchical clustering combines the\n\
         near-zero catastrophic count of distribution with the small restart sets\n\
         of containment, yielding the best availability.\n",
    );
    Artifact {
        id: "campaign",
        report,
        csv: vec![CsvFile::new(
            "ext_campaign_availability.csv",
            "method,failures,catastrophic,availability",
            &rows,
        )],
    }
}

/// Extension: the million-trial campaign grid — sweep
/// strategy × MTBF × cluster size × machine size through the batched
/// Monte-Carlo engine, reporting every metric with a 95 % confidence
/// interval.
///
/// At `--scale paper` the grid runs 36 cells × 32 768 trials ≈ 1.18 M
/// trials in one command. Early stopping is off by default (fixed trial
/// counts keep the CSV reproducible run-to-run); set
/// `HCFT_CAMPAIGN_TARGET_CI` to an availability CI half-width (and
/// optionally `HCFT_CAMPAIGN_TARGET_CI_CAT` for the catastrophic-count
/// CI) to let converged cells stop at batch boundaries — the stopping
/// decision is deterministic, so the CSV stays byte-identical at any
/// thread count. A value that is not a positive number is
/// [`HcftError::Config`].
pub fn campaign_grid(scale: Scale) -> Result<Artifact, HcftError> {
    use hcft_core::campaign::{CampaignConfig, CampaignGrid, GridStrategy};
    let strategies = vec![
        GridStrategy::Naive,
        GridStrategy::Distributed,
        GridStrategy::Striped,
    ];
    let mtbfs_h = vec![2.0, 6.0, 24.0];
    let (cluster_sizes, machine_nodes, ppn, trials, batch) = match scale {
        Scale::Paper => (vec![8, 32], vec![64, 128], 16, 32_768u64, 4_096u64),
        Scale::Small => (vec![4, 8], vec![16, 32], 4, 2_048u64, 512u64),
    };
    let stop = campaign_stop_rule(trials, batch, |name| {
        std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
    })?;
    let grid = CampaignGrid {
        strategies,
        mtbfs_h,
        cluster_sizes,
        machine_nodes,
        ppn,
        base: CampaignConfig {
            duration_h: match scale {
                Scale::Paper => 30.0 * 24.0,
                Scale::Small => 7.0 * 24.0,
            },
            ..Default::default()
        },
        stop,
    };
    let cells = grid.run().expect("grid axes are valid by construction");
    let total_trials: u64 = cells.iter().map(|c| c.stats.trials).sum();
    let stopped = cells.iter().filter(|c| c.stats.early_stopped).count();
    let mut rows = Vec::with_capacity(cells.len());
    let mut report = format!(
        "CAMPAIGN GRID (extension) — {} cells, {} trials total\
         {}\n\nstrategy     mtbf_h  size  nodes       avail ±95%CI        catastrophic ±95%CI\n",
        cells.len(),
        total_trials,
        if stopped > 0 {
            format!(", {stopped} cells stopped early at the CI target")
        } else {
            String::new()
        },
    );
    for c in &cells {
        report.push_str(&format!(
            "{:<12} {:>6.1} {:>5} {:>6}  {:>9.6} ±{:<9.6}  {:>9.4} ±{:<9.4}\n",
            c.strategy,
            c.mtbf_h,
            c.cluster_size,
            c.nodes,
            c.stats.availability.mean(),
            c.stats.availability.ci95(),
            c.stats.catastrophic.mean(),
            c.stats.catastrophic.ci95(),
        ));
        rows.push(vec![
            c.strategy.to_string(),
            format!("{:.1}", c.mtbf_h),
            c.cluster_size.to_string(),
            c.nodes.to_string(),
            c.ppn.to_string(),
            c.stats.trials.to_string(),
            (c.stats.early_stopped as u8).to_string(),
            format!("{:.4}", c.stats.failures.mean()),
            format!("{:.4}", c.stats.failures.ci95()),
            format!("{:.6}", c.stats.catastrophic.mean()),
            format!("{:.6}", c.stats.catastrophic.ci95()),
            format!("{:.4}", c.stats.transient.mean()),
            format!("{:.4}", c.stats.transient.ci95()),
            format!("{:.6}", c.stats.availability.mean()),
            format!("{:.6}", c.stats.availability.ci95()),
        ]);
    }
    report.push_str(
        "\nEach row is one Monte-Carlo cell; counts are means per campaign with\n\
         95 % normal CIs from streaming Welford moments. The verdict of the\n\
         single-point campaign holds across the grid: striped containment\n\
         tracks distributed reliability at a fraction of the restart waste.\n",
    );
    Ok(Artifact {
        id: "campaign-grid",
        report,
        csv: vec![CsvFile::new(
            "ext_campaign_grid.csv",
            "strategy,mtbf_h,cluster_size,nodes,ppn,trials,early_stopped,\
             failures_mean,failures_ci95,catastrophic_mean,catastrophic_ci95,\
             transient_mean,transient_ci95,availability_mean,availability_ci95",
            &rows,
        )],
    })
}

/// The campaign grid's stopping rule from `HCFT_CAMPAIGN_TARGET_CI` and
/// `HCFT_CAMPAIGN_TARGET_CI_CAT`, read through `lookup` (`None` = unset):
/// `trials` per cell unless the availability target is set. A set value
/// that is not a positive number is [`HcftError::Config`] naming the
/// variable and the value.
fn campaign_stop_rule(
    trials: u64,
    batch: u64,
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<StopRule, HcftError> {
    let read = |name: &str| {
        lookup(name)
            .map(|raw| {
                raw.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|v| *v > 0.0)
                    .ok_or_else(|| {
                        HcftError::Config(format!("{name} must be a positive number, got {raw:?}"))
                    })
            })
            .transpose()
    };
    let catastrophic = read("HCFT_CAMPAIGN_TARGET_CI_CAT")?.unwrap_or(f64::INFINITY);
    Ok(match read("HCFT_CAMPAIGN_TARGET_CI")? {
        Some(availability) => StopRule::until_ci(
            trials,
            batch,
            batch,
            CiTarget {
                availability,
                catastrophic,
            },
        ),
        None => StopRule {
            max_trials: trials,
            batch,
            min_trials: trials,
            target_ci: None,
        },
    })
}

/// Extension: the §V generalisation claim — evaluate the four clusterings
/// on a structurally different workload (3-D heat diffusion, seven-point
/// stencil) and check the same verdicts hold.
pub fn heat3d(scale: Scale) -> Artifact {
    use hcft_simmpi::{World, WorldConfig};
    use hcft_tsunami::heat3d::{Heat3dParams, Heat3dState};
    // Match the scale's node/rank shape.
    let job = scale.job();
    let (nodes, ppn) = (job.nodes, job.app_per_node);
    let nprocs = nodes * ppn;
    // A flat-ish 3-D process grid: x covers most ranks, 2×2 in y/z.
    let px = nprocs / 4;
    let grid = (px, 2, 2);
    let dims = (2 * px, 32, 32);
    let params = Heat3dParams::stable(dims, grid);
    let world_cfg = WorldConfig {
        recv_timeout: std::time::Duration::from_secs(300),
        ..WorldConfig::default()
    };
    eprintln!("[repro] tracing 3-D heat workload ({nprocs} ranks)…");
    let result = World::run_with(nprocs, world_cfg, move |c| {
        let mut st = Heat3dState::new(&params, c.size(), c.rank());
        for _ in 0..50 {
            st.step(c);
        }
    });
    let matrix = result.trace.byte_matrix();
    let placement = Placement::block(nodes, ppn);
    let scored = paper_spec(scale, PartitionEngine::Multilevel)
        .score(&Evaluator::new(matrix, placement))
        .expect("the paper schemes fit the machine");
    let baseline = BaselineRequirements::default();
    let mut rows = Vec::new();
    let mut report = String::from(
        "HEAT-3D (extension) — the four clusterings on a 7-point 3-D stencil\n\n\
         method                    logged%   restart%  enc(1GB)   P(cat)   meets-all\n",
    );
    for s in scored.iter().map(|row| &row.score) {
        report.push_str(&format!(
            "{:<24} {:>8.1}  {:>8.2}  {:>7.0} s  {:>8.1e}  {}\n",
            s.name,
            s.logging_fraction * 100.0,
            s.restart_fraction * 100.0,
            s.encode_s_per_gb,
            s.p_catastrophic,
            if baseline.meets_all(s) { "YES" } else { "no" }
        ));
        rows.push(vec![
            s.name.clone(),
            format!("{:.4}", s.logging_fraction),
            format!("{:.4}", s.restart_fraction),
            format!("{:.1}", s.encode_s_per_gb),
            format!("{:e}", s.p_catastrophic),
            baseline.meets_all(s).to_string(),
        ]);
    }
    report.push_str(
        "\n§V's generalisation claim: stencil-class applications keep the Table-II\n\
         verdicts — only the hierarchical clustering meets the full baseline.\n",
    );
    Artifact {
        id: "heat3d",
        report,
        csv: vec![CsvFile::new(
            "ext_heat3d_comparison.csv",
            "method,logging_fraction,restart_fraction,encode_s_per_gb,p_catastrophic,meets_all",
            &rows,
        )],
    }
}

/// Extension: the discrete-event simulator vs the closed-form cost model
/// — the same cross-validation role the enumeration and sampling
/// oracles play for the reliability model.
pub fn simtime(_scale: Scale) -> Artifact {
    use hcft_checkpoint::{CheckpointCostModel, Level};
    use hcft_graph::Clustering;
    use hcft_simtime::{simulate_checkpoint, SimConfig};
    let rates = hcft_simtime::Rates::tsubame2();
    let cost = CheckpointCostModel::tsubame2();
    let gb: u64 = 1_000_000_000;
    let placement = Placement::block(32, 1);
    let distributed =
        |size: usize| Clustering::from_assignment(&(0..32).map(|r| r / size).collect::<Vec<_>>());
    let mut rows = Vec::new();
    let mut report = String::from(
        "SIMTIME (extension) — discrete-event simulation vs closed-form model\n\
         (1 GB per rank, 32 nodes x 1 rank, distributed encoding groups)\n\n\
         configuration                 simulated   closed-form\n",
    );
    let mut emit = |label: String, sim_s: f64, model_s: f64| {
        report.push_str(&format!("{label:<28} {sim_s:>9.1} s {model_s:>10.1} s\n"));
        rows.push(vec![label, format!("{sim_s:.2}"), format!("{model_s:.2}")]);
    };
    let sim_cfg = SimConfig {
        rates,
        bytes_per_rank: gb,
    };
    for g in [4usize, 8, 16, 32] {
        let t = simulate_checkpoint(&sim_cfg, Level::Encoded, &distributed(g), &placement);
        let m = cost.cost(Level::Encoded, gb, 1, 32, g);
        emit(
            format!("RS encode, group {g}"),
            t,
            m.local_write_s + m.encode_s,
        );
    }
    let singles = Clustering::singletons(32);
    let t = simulate_checkpoint(&sim_cfg, Level::Local, &singles, &placement);
    let m = cost.cost(Level::Local, gb, 1, 32, 4);
    emit("local only".to_string(), t, m.total_s());
    let t = simulate_checkpoint(&sim_cfg, Level::Pfs, &singles, &placement);
    let m = cost.cost(Level::Pfs, gb, 1, 32, 4);
    emit("PFS drain".to_string(), t, m.total_s());
    report.push_str(
        "\nThe simulated times reproduce the closed-form model's linear encoding law\n\
         (same ≈6.4 s/GB/member slope) with a small additive I/O offset the model's\n\
         encode term excludes — two independent routes to the paper's Fig. 3b.\n",
    );
    Artifact {
        id: "simtime",
        report,
        csv: vec![CsvFile::new(
            "ext_simtime_vs_model.csv",
            "configuration,simulated_s,model_s",
            &rows,
        )],
    }
}

/// Extension: sender-log memory over time (§II-B2's footprint concern).
/// Traces a reduced event-logged run and plots the sawtooth of log bytes
/// between coordinated checkpoints for three clusterings.
pub fn logmem(scale: Scale) -> Artifact {
    use hcft_msglog::log_memory_timeline;
    // Event logging at full paper scale is memory-heavy; a quarter-size
    // run with identical structure suffices for the timeline shape.
    let mut job = scale.job();
    job.nodes = (job.nodes / 2).max(8);
    let nprocs = job.nodes * job.app_per_node;
    let px = nprocs / 2;
    job.process_grid = Some((px, 2));
    job.grid = ((2 * px).max(16), 1024);
    job.record_events = true;
    let t = hcft_core::experiment::run_traced_job(&job);
    let placement = t.layout.app_placement();
    let n = placement.nprocs();
    let node_graph = WeightedGraph::from_comm_matrix(&t.app.aggregate_by_node(&placement));
    let hier = hierarchical(
        &placement,
        &node_graph,
        &HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        },
    );
    let schemes = vec![
        naive(n, 32.min(n / 2)),
        distributed(&placement, 8.min(placement.nodes())),
        hier,
    ];
    let ckpt_every = job.checkpoint_every;
    let mut rows = Vec::new();
    let mut report = format!(
        "LOG MEMORY (extension) — sender-log bytes over time, checkpoints every {ckpt_every} iterations\n\n\
         phase"
    );
    let timelines: Vec<_> = schemes
        .iter()
        .map(|s| log_memory_timeline(&s.l1, &t.app_events, ckpt_every))
        .collect();
    for s in &schemes {
        report.push_str(&format!("  {:>22}", s.name));
    }
    report.push('\n');
    let phases = timelines[0].len();
    for ph in (0..phases).step_by((phases / 12).max(1)) {
        report.push_str(&format!("{ph:<5}"));
        let mut row = vec![ph.to_string()];
        for tl in &timelines {
            report.push_str(&format!("  {:>22}", tl[ph].bytes));
            row.push(tl[ph].bytes.to_string());
        }
        report.push('\n');
        rows.push(row);
    }
    report.push_str(
        "\nThe sawtooth: logs grow between coordinated checkpoints and are garbage\n\
         collected at each one. Distributed clustering's log grows an order of\n\
         magnitude faster — the §II-B2 memory-footprint concern, measured.\n",
    );
    Artifact {
        id: "logmem",
        report,
        csv: vec![CsvFile::new(
            "ext_logmem_timeline.csv",
            "phase,naive_bytes,distributed_bytes,hierarchical_bytes",
            &rows,
        )],
    }
}

/// Extension: the live replay engine, measured. Three scenarios of
/// rising severity run against a striped two-level scheme — single node
/// loss, a whole-L1-cluster kill, and a cluster kill with a cascading
/// second failure mid-recovery — each verified bit-identical to an
/// uninterrupted run. The engine reports through the process-global
/// registry, so `repro --telemetry` carries the `replay.*` counters.
pub fn replay(scale: Scale) -> Artifact {
    use hcft_core::replay::{ReplayConfig, ReplayEngine, TsunamiWorkload};
    use hcft_core::scenario::FaultScenario;
    use hcft_topology::NodeId;
    use hcft_tsunami::TsunamiParams;

    let (nodes, ppn, l1_nodes, l2_size, grid) = match scale {
        Scale::Paper => (16, 8, 4, 16, (96, 96)),
        Scale::Small => (8, 4, 2, 8, (32, 32)),
    };
    let placement = Placement::block(nodes, ppn);
    let scheme = hcft_cluster::striped(&placement, l1_nodes, l2_size);
    let total = 18u64;
    let fail_at = 13u64;
    let store = std::env::temp_dir().join(format!("hcft-repro-replay-{}", std::process::id()));
    let cfg = ReplayConfig::new(&store);

    // A cascade victim outside the primary L1 cluster (cluster 1).
    let cascade_node = NodeId(0);
    let scenarios: Vec<(&str, FaultScenario)> = vec![
        (
            "node loss",
            FaultScenario::node_loss(NodeId(l1_nodes as u32), fail_at),
        ),
        (
            "L1 cluster kill",
            FaultScenario::at(fail_at).l1_cluster(1).build(),
        ),
        (
            "cluster kill + cascade",
            FaultScenario::at(fail_at)
                .l1_cluster(1)
                .cascade(cascade_node, 1)
                .build(),
        ),
    ];

    let engine = ReplayEngine::new(
        TsunamiWorkload::new(TsunamiParams::stable(grid.0, grid.1)),
        placement,
        scheme,
        cfg,
    );
    let reference = engine.reference(total);
    let mut rows = Vec::new();
    let mut report = String::from(
        "REPLAY (extension) — live cluster-loss recovery, bit-exact catch-up\n\n\
         scenario                  nodes  restart  attempts  replayed msgs  catchup  identical\n",
    );
    for (name, scenario) in &scenarios {
        // Each run needs a fresh store: the engine owns its epochs.
        let _ = std::fs::remove_dir_all(&store);
        let out = engine.run(scenario, total).expect("scenario recoverable");
        let identical = out.matches(&reference);
        report.push_str(&format!(
            "{:<24} {:>6} {:>8} {:>9} {:>14} {:>8}  {}\n",
            name,
            out.failed_nodes.len(),
            out.restart_set.len(),
            out.recovery_attempts,
            out.messages_replayed,
            out.catchup_steps,
            if identical { "YES" } else { "NO" },
        ));
        rows.push(vec![
            name.to_string(),
            out.failed_nodes.len().to_string(),
            out.restart_set.len().to_string(),
            out.recovery_attempts.to_string(),
            out.messages_replayed.to_string(),
            out.bytes_replayed.to_string(),
            out.catchup_steps.to_string(),
            out.wasted_catchup_steps.to_string(),
            identical.to_string(),
        ]);
        assert!(identical, "{name}: replayed state diverged");
    }
    let _ = std::fs::remove_dir_all(&store);
    report.push_str(
        "\nEvery scenario recovers to a state byte-identical to an uninterrupted\n\
         run: checkpoints restore the restart set, sender logs re-feed the\n\
         cross-cluster halos, send-determinism regenerates the rest.\n",
    );
    Artifact {
        id: "replay",
        report,
        csv: vec![CsvFile::new(
            "ext_replay_scenarios.csv",
            "scenario,failed_nodes,restart_ranks,attempts,messages_replayed,bytes_replayed,catchup_steps,wasted_catchup_steps,bit_identical",
            &rows,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_campaign_ci_targets_are_config_errors() {
        let rule = |vars: &[(&str, &str)]| {
            campaign_stop_rule(64, 8, |name| {
                vars.iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.to_string())
            })
        };
        assert_eq!(rule(&[]).expect("unset").target_ci, None);
        let set = rule(&[
            ("HCFT_CAMPAIGN_TARGET_CI", "2e-4"),
            ("HCFT_CAMPAIGN_TARGET_CI_CAT", "0.5"),
        ])
        .expect("valid");
        assert_eq!(
            set.target_ci,
            Some(CiTarget {
                availability: 2e-4,
                catastrophic: 0.5
            })
        );
        for (name, bad) in [
            ("HCFT_CAMPAIGN_TARGET_CI", "abc"),
            ("HCFT_CAMPAIGN_TARGET_CI", "-1"),
            ("HCFT_CAMPAIGN_TARGET_CI_CAT", "0"),
        ] {
            let mut vars = vec![(name, bad)];
            if name.ends_with("_CAT") {
                vars.push(("HCFT_CAMPAIGN_TARGET_CI", "2e-4"));
            }
            match rule(&vars) {
                Err(HcftError::Config(msg)) => {
                    assert!(
                        msg.starts_with(name) && msg.contains(&format!("{bad:?}")),
                        "{msg}"
                    );
                    assert!(msg.contains("positive number"), "{msg}");
                }
                other => panic!("{name}={bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn model_only_figures_run_without_a_trace() {
        let a = fig4a();
        assert!(a.report.contains("128 nodes"));
        assert_eq!(a.csv.len(), 1);
        let c = fig4c();
        assert!(c.report.contains("distributed"));
        // Paper anchors: non-distributed 32 → 3.125%, distributed 32 → 50%.
        assert!(c.csv[0].content.contains("32,3.125,50.000"));
    }

    #[test]
    fn table1_is_tsubame2() {
        assert!(table1().report.contains("TSUBAME2"));
    }

    #[test]
    fn measured_encode_grows_with_group_size() {
        // Fig. 3b's law: per-member encode time is linear in the group
        // size. Allow generous slack for scheduler noise.
        let t4 = measure_encode_seconds_per_gb(4);
        let t16 = measure_encode_seconds_per_gb(16);
        assert!(t16 > 1.5 * t4, "t4={t4}, t16={t16}");
    }
}
