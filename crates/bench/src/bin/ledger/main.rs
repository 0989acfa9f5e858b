//! `ledger` — the repo's benchmark: six workloads over the whole stack,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! separate traced run. See `README.md` beside this file and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! ledger run    [--seed n] [--seconds s]                            all six workloads, a table
//! ledger trace  [--workload name] [--seed n] [--seconds s]          the per-layer table + trace.json
//! ledger repeat [--sets 2] [--seed n] [--seconds s]                 the benchmark against itself
//! ```
//!
//! Run from the repo root. The first form is what `BENCHMARK.json`'s
//! command invokes; the others spawn it once per workload, so every
//! workload runs in a fresh process.

mod harness;
mod inproc_load;
mod json;
mod layers;
mod procfs;
mod report;
mod service_load;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use harness::{measure, summarise, Workload};
use inproc_load::{CampaignLoad, ReplayLoad};
use json::Json;
use service_load::{Mix, ServiceLoad};

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 6] = [
    "eval_cold",
    "eval_warm",
    "eval_memo",
    "eval_churn",
    "campaign",
    "replay_kill",
];

/// The end-to-end metrics of the untraced run, `(name, unit)`, in
/// `BENCHMARK.json` order. `failed_share` is not among them: it is the
/// result line's `failed` ÷ `attempted`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p10_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per run: at least three, then more while they have taken
/// less than [`SETUP_BUDGET_S`] in all, so a 0.13 s set-up (`campaign`)
/// is timed a dozen times and a 1 s one three times. `setup_s` reads
/// their fast end like every timing here (see `harness`).
const SETUPS: std::ops::RangeInclusive<usize> = 3..=12;
const SETUP_BUDGET_S: f64 = 4.0;

/// Where the benchmark runs: the repo root, the `repro` binary built
/// from it, and the scratch directory under the cargo target dir.
pub struct Site {
    pub root: PathBuf,
    pub repro: PathBuf,
    pub scratch: PathBuf,
}

impl Site {
    /// Locate the checkout (the current directory), build `repro` from
    /// its sources, and create `<target>/ledger/`.
    fn prepare() -> Result<Site, String> {
        let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        if !root.join("crates/bench/src/bin/repro.rs").is_file() {
            return Err(format!(
                "{} is not the hcft repo root (no crates/bench/src/bin/repro.rs); run from there",
                root.display()
            ));
        }
        // Relative CARGO_TARGET_DIRs are relative to where cargo runs,
        // which is this directory for both builds.
        let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "hcft-bench", "--bin", "repro"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cargo build: {e}"))?;
        if !status.success() {
            return Err(format!("building repro failed ({status})"));
        }
        let scratch = target.join("ledger");
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        // The checkpoint stores of the workloads and probes are created
        // directly under it.
        inproc_load::spread_subdirectories(&scratch);
        Ok(Site {
            repro: target.join("release/repro"),
            root,
            scratch,
        })
    }
}

fn unknown_workload(name: &str) -> String {
    format!(
        "unknown workload {name:?} (expected one of {})",
        WORKLOADS.join(", ")
    )
}

/// Set workload `name` up once, ready for measured phases.
pub fn setup(site: &Site, name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let service = |mix| -> Result<Box<dyn Workload>, String> {
        Ok(Box::new(ServiceLoad::setup(&site.repro, mix, seed)?))
    };
    match name {
        "eval_cold" => service(Mix::Cold),
        "eval_warm" => service(Mix::Warm),
        "eval_memo" => service(Mix::Memo),
        "eval_churn" => service(Mix::Churn),
        "campaign" => Ok(Box::new(CampaignLoad::setup(seed)?)),
        "replay_kill" => Ok(Box::new(ReplayLoad::setup(&site.scratch, seed)?)),
        other => Err(unknown_workload(other)),
    }
}

/// What one invocation measured, before it is rendered.
pub struct RunResult {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context a reader needs beside the numbers (how far the phase's
    /// halves disagree, sample counts, machine fingerprint).
    pub info: Json,
}

/// The untraced run: set up [`SETUPS`] times, measure for `seconds` on
/// the last instance, report the end-to-end metrics.
fn run_untraced(site: &Site, name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setup_secs = Vec::with_capacity(*SETUPS.end());
    let mut ready = None;
    while setup_secs.len() < *SETUPS.start()
        || (setup_secs.len() < *SETUPS.end() && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous instance first: its server must be gone
        // before the next one boots.
        drop(ready.take());
        let t = Instant::now();
        let instance = setup(site, name, seed)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        ready = Some(instance);
    }
    let workload = ready.expect("at least three set-ups ran");
    let next = AtomicU64::new(0);
    let phase = measure(workload.as_ref(), seconds, &next)?;
    let peak_rss_mb = procfs::process_peak_rss_mb(workload.pid())?;
    let summary = summarise(&phase)?;
    setup_secs.sort_by(f64::total_cmp);
    let values = [
        stats::quantile(&setup_secs, harness::FAST_QUANTILE),
        summary.op_p10_ms,
        summary.ops_per_s,
        summary.cpu_ms_per_op,
        peak_rss_mb,
    ];
    Ok(RunResult {
        attempted: phase.attempted,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect(),
        info: Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(seed)),
            ("observed_ops_per_s", Json::Num(summary.observed_ops_per_s)),
            ("round_disagreement", Json::Num(summary.round_disagreement)),
            ("noisy", Json::Bool(summary.noisy)),
            ("steal_share", Json::Num(summary.steal_share)),
            ("samples", Json::from(summary.samples as u64)),
            ("setups", Json::from(setup_secs.len() as u64)),
            ("rounds", Json::from(summary.rounds as u64)),
            ("clients", Json::from(phase.clients as u64)),
            ("fingerprint", procfs::fingerprint(&site.root)),
        ]),
        failures: phase.failures,
    })
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sets: 2,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = it.next();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => {
                args.sets = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or_else(|| bad("an integer >= 2"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    match args.command.as_deref() {
        None => {
            let name = args
                .workload
                .as_deref()
                .ok_or("--workload is required (or use: ledger run | trace | repeat)")?;
            if !WORKLOADS.contains(&name) {
                return Err(unknown_workload(name));
            }
            let site = Site::prepare()?;
            let result = if args.trace {
                layers::run_traced(&site, name, args.seed, args.seconds)?
            } else {
                run_untraced(&site, name, args.seed, args.seconds)?
            };
            Ok(report::emit(&result))
        }
        Some("run") => report::run_all(args.seed, args.seconds),
        Some("trace") => report::trace_one(
            args.workload.as_deref().unwrap_or("eval_cold"),
            args.seed,
            args.seconds,
        ),
        Some("repeat") => report::repeat(args.sets, args.seed, args.seconds),
        Some(other) => Err(format!("unknown command {other:?} (run | trace | repeat)")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repo root, above hcft-bench's
    /// manifest.
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
        let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap();
        Json::parse(&text).unwrap()
    }

    fn declared(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| entry.get(f).and_then(Json::as_str).unwrap().to_string())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let doc = benchmark_json();
        let workloads: Vec<String> = declared(&doc, "workloads", &["name"])
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(declared(&doc, "end_to_end", &["name", "unit"]), end_to_end);
        let per_layer: Vec<Vec<String>> = layers::PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
            .collect();
        assert_eq!(
            declared(&doc, "per_layer", &["name", "unit", "better"]),
            per_layer
        );
    }

    #[test]
    fn every_workload_name_sets_up_or_is_rejected_by_name() {
        let site = Site {
            root: PathBuf::new(),
            repro: PathBuf::from("/nonexistent/repro"),
            scratch: PathBuf::new(),
        };
        let err = setup(&site, "eval_hot", 1).err().unwrap();
        assert!(err.contains("unknown workload"), "{err}");
        // A known service workload gets as far as spawning the server.
        let err = setup(&site, "eval_cold", 1).err().unwrap();
        assert!(err.contains("spawn"), "{err}");
    }
}
