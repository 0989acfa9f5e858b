//! The campaign grid must be a pure function of its configuration:
//! `repro campaign-grid` must emit a byte-identical `ext_campaign_grid.csv`
//! regardless of rayon thread count — **including with CI-targeted early
//! stopping enabled**, because stop decisions are made on fixed batch
//! boundaries against order-independent statistics.
//!
//! The compat rayon pool latches `RAYON_NUM_THREADS` once per process,
//! so each configuration runs the real `repro` binary in its own
//! process (Cargo exports the path as `CARGO_BIN_EXE_repro`).

use std::path::{Path, PathBuf};
use std::process::Command;

const CSV: &str = "ext_campaign_grid.csv";

fn run_grid(out_dir: &Path, threads: &str, target_ci: Option<&str>) {
    let exe = env!("CARGO_BIN_EXE_repro");
    let mut cmd = Command::new(exe);
    cmd.args(["--scale", "small", "--out"])
        .arg(out_dir)
        .arg("campaign-grid")
        .env("RAYON_NUM_THREADS", threads);
    match target_ci {
        Some(ci) => cmd.env("HCFT_CAMPAIGN_TARGET_CI", ci),
        None => cmd.env_remove("HCFT_CAMPAIGN_TARGET_CI"),
    };
    let status = cmd.status().expect("spawn repro");
    assert!(
        status.success(),
        "repro campaign-grid failed ({threads} threads)"
    );
}

fn read(dir: &Path) -> String {
    let p = dir.join(CSV);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn temp_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hcft-campaign-grid-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn grid_csv_is_byte_identical_across_thread_counts() {
    let serial_dir = temp_dir("serial");
    let parallel_dir = temp_dir("parallel");
    run_grid(&serial_dir, "1", None);
    run_grid(&parallel_dir, "4", None);
    let serial = read(&serial_dir);
    let parallel = read(&parallel_dir);
    assert!(!serial.is_empty(), "{CSV} came out empty");
    assert_eq!(
        serial, parallel,
        "{CSV} differs between RAYON_NUM_THREADS=1 and =4"
    );
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn grid_csv_with_early_stopping_is_byte_identical_across_thread_counts() {
    // A CI target loose enough that most cells stop before the full
    // budget — the trials column proves stopping actually engaged, and
    // the byte-compare proves the *decision* is thread-count invariant.
    let serial_dir = temp_dir("ci-serial");
    let parallel_dir = temp_dir("ci-parallel");
    run_grid(&serial_dir, "1", Some("2e-4"));
    run_grid(&parallel_dir, "4", Some("2e-4"));
    let serial = read(&serial_dir);
    let parallel = read(&parallel_dir);
    assert_eq!(
        serial, parallel,
        "{CSV} (early stopping) differs between RAYON_NUM_THREADS=1 and =4"
    );
    let stopped_rows = serial
        .lines()
        .skip(1)
        .filter(|l| l.split(',').nth(6) == Some("1"))
        .count();
    assert!(
        stopped_rows > 0,
        "no cell stopped early at the loose CI target — the test is vacuous:\n{serial}"
    );
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn malformed_target_ci_fails_the_run() {
    let dir = temp_dir("malformed");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "--out"])
        .arg(&dir)
        .arg("campaign-grid")
        .env("HCFT_CAMPAIGN_TARGET_CI", "1e-4x")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a malformed target ran the grid");
    assert!(
        stderr.contains("HCFT_CAMPAIGN_TARGET_CI must be a positive number, got \"1e-4x\""),
        "{stderr}"
    );
    assert!(!dir.join(CSV).exists(), "a malformed target wrote {CSV}");
}
