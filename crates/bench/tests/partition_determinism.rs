//! The scalable partition engines must not change results: `repro
//! table2` at small scale must reproduce the committed snapshot CSVs
//! byte-for-byte, for both `--partition-engine` values and regardless of
//! thread count.
//!
//! The snapshots under `tests/snapshots/` were captured from the
//! pre-heap quadratic engines; the heap CNM and the incremental-seeding
//! multilevel partitioner are required to be drop-in equal, so any drift
//! here means a semantic change to the clustering, not an optimisation.
//! Same spawn-the-real-binary pattern as `parallel_determinism.rs`: the
//! compat rayon pool latches `RAYON_NUM_THREADS` once per process, so
//! each configuration is a separate `repro` process.
//!
//! The node-level L1 partitions behind Table II are pinned separately,
//! at small and paper scale, by `results/partition_fixtures.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

use hcft_bench::harness::{traced, Scale};
use hcft_graph::WeightedGraph;
use hcft_partition::{modularity_clusters, MultilevelConfig, MultilevelPartitioner, SizeBounds};

fn run_repro(out_dir: &Path, threads: &str, engine: &str) {
    let exe = env!("CARGO_BIN_EXE_repro");
    let status = Command::new(exe)
        .args(["--scale", "small", "--partition-engine", engine, "--out"])
        .arg(out_dir)
        .arg("table2")
        .env("RAYON_NUM_THREADS", threads)
        .status()
        .expect("spawn repro");
    assert!(
        status.success(),
        "repro failed ({engine}, {threads} threads)"
    );
}

fn temp_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hcft-partition-det-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn check_engine(engine: &str) {
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("table2_small_{engine}.csv"));
    let snapshot = std::fs::read_to_string(&snapshot_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", snapshot_path.display()));
    for threads in ["1", "4"] {
        let dir = temp_dir(&format!("{engine}-{threads}"));
        run_repro(&dir, threads, engine);
        let fresh = std::fs::read_to_string(dir.join("table2_clustering_comparison.csv"))
            .expect("read fresh table2 CSV");
        assert!(!fresh.is_empty(), "table2 CSV came out empty");
        assert_eq!(
            fresh, snapshot,
            "table2 drifted from the committed snapshot \
             (engine {engine}, RAYON_NUM_THREADS={threads})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn multilevel_engine_reproduces_snapshot() {
    check_engine("multilevel");
}

#[test]
fn modularity_engine_reproduces_snapshot() {
    check_engine("modularity");
}

#[test]
fn table2_node_partitions_match_committed_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/partition_fixtures.txt");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut fresh = String::new();
    for (name, scale) in [("small", Scale::Small), ("paper", Scale::Paper)] {
        let t = traced(scale);
        let placement = t.layout.app_placement();
        let g = WeightedGraph::from_comm_matrix(&t.app.aggregate_by_node(&placement));
        // Table II's L1 configurations: exact 4-node clusters from the
        // multilevel engine, 4..=8-node clusters from CNM.
        let exact4 = MultilevelConfig::new(g.n() / 4, SizeBounds::new(4, 4));
        let multilevel = MultilevelPartitioner::new(exact4).partition(&g);
        let modularity = modularity_clusters(&g, SizeBounds::new(4, 8));
        for (kind, part) in [
            ("multilevel_4_4", multilevel),
            ("modularity_4_8", modularity),
        ] {
            let ids: Vec<String> = part.iter().map(usize::to_string).collect();
            fresh.push_str(&format!("{name} {kind}: {}\n", ids.join(" ")));
        }
    }
    // After an intentional, reviewed change to partition semantics the
    // four lines printed here are the new file.
    assert!(
        fresh == committed,
        "Table II node partitions drifted from {}; fresh partitions:\n{fresh}",
        path.display()
    );
}
