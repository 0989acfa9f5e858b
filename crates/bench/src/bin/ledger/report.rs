//! Rendering: the one-line JSON result the driver reads, and the
//! human-facing commands (`run`, `trace`, `repeat`) that spawn one
//! fresh `ledger` process per workload and tabulate those lines.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::{RunResult, WORKLOADS};

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(result: &RunResult) -> Json {
    let attempted = result.attempted.max(1);
    let metrics = Json::obj(result.metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::from(*unit))]),
        )
    }));
    Json::obj([
        ("correct", Json::Bool(result.failures.is_empty())),
        ("attempted", Json::from(attempted)),
        (
            "failed",
            Json::from((result.failures.len() as u64).min(attempted)),
        ),
        ("metrics", metrics),
    ])
}

/// Print the context line, then — as the last line of stdout — the
/// result line. Failures go to stderr. Returns `correct`.
pub fn emit(result: &RunResult) -> bool {
    for failure in &result.failures {
        eprintln!("ledger: FAILED {failure}");
    }
    println!("{}", result.info);
    println!("{}", result_line(result));
    result.failures.is_empty()
}

/// One child run, parsed back.
struct Parsed {
    info: Json,
    result: Json,
}

impl Parsed {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn unit(&self, name: &str) -> String {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    }

    fn failed_share(&self) -> f64 {
        self.result.num_at(&["failed"]) / self.result.num_at(&["attempted"]).max(1.0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn noisy(&self) -> bool {
        self.info.get("noisy").and_then(Json::as_bool) == Some(true)
    }
}

/// Run `ledger --workload …` in a fresh process and parse its last two
/// stdout lines. A child that prints no result is an error; one that
/// prints `correct: false` is returned for the caller to report.
fn spawn_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    eprintln!(
        "ledger: {workload} (seed {seed}, {seconds} s, trace {})",
        trace as u8
    );
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn ledger: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let info = lines.next().and_then(|l| Json::parse(l).ok());
    match (info, result) {
        (Some(info), Some(result)) => Ok(Parsed { info, result }),
        _ => Err(format!("{workload}: no result ({})", out.status)),
    }
}

/// `ledger run`: every workload, every end-to-end metric by name with
/// its unit. Returns whether every run was correct.
pub fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let runs = run_set(seed, seconds)?;
    print_set(&runs);
    Ok(runs.iter().all(|(_, r)| r.correct()))
}

fn run_set(seed: u64, seconds: f64) -> Result<Vec<(&'static str, Parsed)>, String> {
    WORKLOADS
        .iter()
        .map(|&w| spawn_one(w, seed, seconds, false).map(|r| (w, r)))
        .collect()
}

fn metric_names(run: &Parsed) -> Vec<String> {
    run.result
        .get("metrics")
        .map(|m| m.members().iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn print_set(runs: &[(&str, Parsed)]) {
    let Some((_, first)) = runs.first() else {
        return;
    };
    let names = metric_names(first);
    print!("{:<12}", "workload");
    for n in &names {
        print!(" {:>20}", format!("{n} [{}]", first.unit(n)));
    }
    println!(
        " {:>12} {:>18} {:>18} {:>5}",
        "failed_share", "observed_ops_per_s", "round_disagreement", "noisy"
    );
    for (w, run) in runs {
        print!("{w:<12}");
        for n in &names {
            print!(" {:>20.4}", run.metric(n).unwrap_or(f64::NAN));
        }
        println!(
            " {:>12.4} {:>18.4} {:>18.3} {:>5}",
            run.failed_share(),
            run.info.num_at(&["observed_ops_per_s"]),
            run.info.num_at(&["round_disagreement"]),
            run.noisy()
        );
    }
    println!(
        "fingerprint: {}",
        first.info.get("fingerprint").unwrap_or(&Json::Null)
    );
}

/// `ledger trace`: the traced run of one workload, every per-layer
/// metric by name.
pub fn trace_one(workload: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let run = spawn_one(workload, seed, seconds, true)?;
    println!("per-layer metrics, traced run of {workload}:");
    for name in metric_names(&run) {
        println!(
            "  {name:<40} {:>16.6} {}",
            run.metric(&name).unwrap_or(f64::NAN),
            run.unit(&name)
        );
    }
    println!("context: {}", run.info);
    Ok(run.correct())
}

/// The declared end-to-end metrics of `BENCHMARK.json`:
/// `(name, is a time, lower is better, bound)`.
fn declared_bounds() -> Result<Vec<(String, bool, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                matches!(m.get("unit")?.as_str()?, "s" | "ms" | "1/s"),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The verdict on one workload × metric pair of two sets.
pub fn verdict(worse_by: f64, bound: f64, timing: bool, noisy: bool) -> &'static str {
    if timing && noisy {
        "unresolved"
    } else if worse_by.abs() <= bound {
        "agree"
    } else {
        "DISAGREE"
    }
}

/// `ledger repeat`: the whole benchmark `sets` times on one build;
/// per workload × metric the values of the first and last set, their
/// disagreement and the bound. Timing metrics of a run whose own two
/// half-phases disagreed (`noisy`) are `unresolved`, not "unchanged".
/// Fails when a run was incorrect or a resolved pair disagrees.
pub fn repeat(sets: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let mut all = Vec::with_capacity(sets);
    for set in 0..sets {
        eprintln!("ledger: set {} of {sets}", set + 1);
        all.push(run_set(seed, seconds)?);
    }
    for (i, set) in all.iter().enumerate() {
        println!("set {}:", i + 1);
        print_set(set);
    }
    let (first, last) = (&all[0], &all[sets - 1]);
    let mut ok = all.iter().flatten().all(|(_, r)| r.correct());
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "last", "worse_by", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(last) {
        for (name, timing, lower, bound) in &bounds {
            let (Some(x), Some(y)) = (a.metric(name), b.metric(name)) else {
                return Err(format!("{w}: metric {name} missing from a run"));
            };
            let worse_by = worsening(x, y, *lower);
            let v = verdict(worse_by, *bound, *timing, a.noisy() || b.noisy());
            ok &= v != "DISAGREE";
            println!(
                "{w:<12} {name:<14} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%  {v}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (a.failed_share(), b.failed_share());
        println!(
            "{w:<12} {:<14} {fa:>14.4} {fb:>14.4} {:>9} {:>7}  {}",
            "failed_share",
            "",
            "0",
            if fa == 0.0 && fb == 0.0 {
                "agree"
            } else {
                "DISAGREE"
            }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(50.0, 40.0, false) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn noisy_timings_are_unresolved_not_unchanged() {
        assert_eq!(verdict(0.01, 0.10, true, true), "unresolved");
        assert_eq!(verdict(0.50, 0.10, true, true), "unresolved");
        assert_eq!(verdict(0.01, 0.10, true, false), "agree");
        assert_eq!(verdict(0.11, 0.10, true, false), "DISAGREE");
        // Memory is judged even on a noisy machine.
        assert_eq!(verdict(0.04, 0.05, false, true), "agree");
        assert_eq!(verdict(-0.30, 0.05, false, true), "DISAGREE");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 7,
            failures: vec!["x".into()],
            metrics: vec![("setup_s".into(), 0.512_345_678_9, "s")],
            info: Json::Null,
        };
        let line = result_line(&result);
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.num_at(&["attempted"]), 7.0);
        assert_eq!(line.num_at(&["failed"]), 1.0);
        // Values keep all their digits through emit and parse.
        let back = Json::parse(&line.to_string()).unwrap();
        assert_eq!(
            back.num_at(&["metrics", "setup_s", "value"]),
            0.512_345_678_9
        );
        assert_eq!(
            back.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit"),
            Some(&Json::from("s"))
        );
    }
}
