//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale paper|small] [--out DIR] [--telemetry PATH]
//!       [--partition-engine multilevel|modularity] <artifact>...
//! ```
//!
//! `<artifact>` is a name from [`ARTIFACTS`] or `all`; `repro` with no
//! arguments prints the list.
//!
//! `--scale paper` runs the full 1088-rank configuration of §V (64 nodes
//! × 16 application ranks + 64 FTI encoder ranks); `--scale small`
//! (default) runs a structurally identical 144-rank job in seconds.
//! Reports print to stdout; CSV series land under `--out` (default
//! `results/`). `--telemetry PATH` snapshots the process-global
//! telemetry registry to a JSON file after all artifacts complete —
//! the `table2.*` counters in it carry the same logged-bytes and
//! restart numbers as the rendered table, computed through the
//! instrumentation path instead of the report path.
//! `--partition-engine` selects the L1 clustering engine for the
//! hierarchical scheme in `table2`, `fig5c` and `scaling` (default
//! `multilevel`, the paper configuration), so engine sweeps can compare
//! the two from the CLI.
//!
//! ## `repro serve`
//!
//! ```text
//! repro serve [--addr HOST:PORT] [--http-threads N]
//!             [--trace-cap N] [--memo-cap N]
//! ```
//!
//! boots the always-on evaluation service (default `127.0.0.1:7733`)
//! and serves ranked scheme comparisons until killed:
//!
//! ```text
//! curl 'http://127.0.0.1:7733/evaluate?nodes=64&ppn=16&families=table2'
//! ```
//!
//! Routes: `/healthz`, `/evaluate`, `/cache`, `/metrics`. `--trace-cap`
//! bounds the traced-matrix LRU cache (default 8 traces), `--memo-cap`
//! the rendered-response memo (default 64 bodies). See DESIGN.md §19.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use hcft_bench::figures;
use hcft_bench::harness::{Artifact, Scale};
use hcft_cluster::PartitionEngine;
use hcft_core::HcftError;

/// Builds one artifact; figures that ignore an argument or cannot fail
/// are wrapped.
type Build = fn(Scale, PartitionEngine) -> Result<Artifact, HcftError>;

/// Every artifact `repro` can regenerate, in `all` order: the one list
/// behind argument parsing, dispatch and [`usage`].
const ARTIFACTS: &[(&str, Build)] = &[
    ("table1", |_, _| Ok(figures::table1())),
    ("table2", |s, e| Ok(figures::table2(s, e))),
    ("fig3a", |s, _| Ok(figures::fig3a(s))),
    ("fig3b", |s, _| Ok(figures::fig3b(s))),
    ("fig4a", |_, _| Ok(figures::fig4a())),
    ("fig4b", |s, _| Ok(figures::fig4b(s))),
    ("fig4c", |_, _| Ok(figures::fig4c())),
    ("fig5a", |s, _| Ok(figures::fig5a(s))),
    ("fig5b", |s, _| Ok(figures::fig5b(s))),
    ("fig5c", |s, e| Ok(figures::fig5c(s, e))),
    ("scaling", |s, e| Ok(figures::scaling(s, e))),
    ("efficiency", |s, _| Ok(figures::efficiency(s))),
    ("alltoall", |s, _| Ok(figures::alltoall(s))),
    ("ablation", |s, _| Ok(figures::ablation(s))),
    ("campaign", |s, _| Ok(figures::campaign(s))),
    ("campaign-grid", |s, _| figures::campaign_grid(s)),
    ("heat3d", |s, _| Ok(figures::heat3d(s))),
    ("logmem", |s, _| Ok(figures::logmem(s))),
    ("simtime", |s, _| Ok(figures::simtime(s))),
    ("replay", |s, _| Ok(figures::replay(s))),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro [--scale paper|small] [--out DIR] [--telemetry PATH]\n\
         \x20            [--partition-engine multilevel|modularity] <artifact>...\n\
         \x20      repro serve [--addr HOST:PORT] [--http-threads N]\n\
         \x20            [--trace-cap N] [--memo-cap N]\n\
         artifacts: {} all",
        names.join(" ")
    );
    ExitCode::FAILURE
}

/// `repro serve`: run the always-on evaluation service until killed.
fn serve_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = "127.0.0.1:7733".to_string();
    let mut threads = 4usize;
    let mut trace_cap = 8usize;
    let mut memo_cap = 64usize;
    while let Some(arg) = args.next() {
        let Some(v) = args.next() else {
            return usage();
        };
        let parsed = match arg.as_str() {
            "--addr" => {
                addr = v;
                continue;
            }
            "--http-threads" => v.parse().map(|n| threads = n),
            "--trace-cap" => v.parse().map(|n| trace_cap = n),
            "--memo-cap" => v.parse().map(|n| memo_cap = n),
            _ => return usage(),
        };
        if parsed.is_err() {
            return usage();
        }
    }
    let svc = Arc::new(hcft_service::EvalService::new(trace_cap, memo_cap));
    match hcft_service::serve(addr.as_str(), svc, threads) {
        Ok(server) => {
            let local = server.local_addr();
            println!("serving on http://{local} ({threads} http threads, trace cap {trace_cap}, memo cap {memo_cap})");
            println!("try: curl 'http://{local}/evaluate?nodes=64&ppn=16&families=table2'");
            // Always-on: park until the process is killed.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut scale = Scale::Small;
    let mut out = PathBuf::from("results");
    let mut engine = PartitionEngine::Multilevel;
    let mut telemetry_out: Option<PathBuf> = None;
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return serve_main(std::env::args().skip(2));
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = args.next().and_then(|v| Scale::parse(&v)) else {
                    return usage();
                };
                scale = v;
            }
            "--out" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                out = PathBuf::from(v);
            }
            "--telemetry" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                telemetry_out = Some(PathBuf::from(v));
            }
            "--partition-engine" => {
                let Some(v) = args.next().and_then(|v| PartitionEngine::parse(&v)) else {
                    return usage();
                };
                engine = v;
            }
            "all" => wanted.extend(ARTIFACTS.iter().map(|(_, build)| *build)),
            name => match ARTIFACTS.iter().find(|(n, _)| *n == name) {
                Some((_, build)) => wanted.push(*build),
                None => return usage(),
            },
        }
    }
    if wanted.is_empty() {
        return usage();
    }
    for build in wanted {
        let artifact = match build(scale, engine) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("repro: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("\n================= {} =================\n", artifact.id);
        println!("{}", artifact.report);
        match artifact.persist(&out) {
            Ok(paths) => {
                for p in paths {
                    println!("[csv] {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write CSVs for {}: {e}", artifact.id);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = telemetry_out {
        if let Err(e) = hcft_telemetry::Registry::global().write_json(&path) {
            eprintln!("failed to write telemetry JSON: {e}");
            return ExitCode::FAILURE;
        }
        println!("[telemetry] {}", path.display());
    }
    ExitCode::SUCCESS
}
