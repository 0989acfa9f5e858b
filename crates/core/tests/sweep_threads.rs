//! `evaluate_family_sweep` returns the same bytes at one and two rayon
//! threads, and so does the staged path a long-lived service takes: a
//! cached trace's stage and one layout stage, scored `table2`, `full`,
//! then `table2` again so the last pass is wholly stage-warm. Both score
//! every scheme, and P(catastrophic) once per distinct L2 digest, on the
//! calling thread; this keeps a thread pool from ever reaching the
//! scores, should the scoring fan out again.
//!
//! The compat rayon pool latches `RAYON_NUM_THREADS` once per process, so
//! the test runs this test binary twice more, pinned to each count, on
//! the `#[ignore]`d child that prints every score's bits, and compares
//! what the two print.

use std::fmt::Write;
use std::process::Command;

use hcft_core::experiment::TracedJobConfig;
use hcft_core::trace_cache::TraceCache;
use hcft_core::{evaluate_family_sweep, FamilyScore, LayoutStage, SchemeFamilySpec};

fn write_rows(out: &mut String, shape: &str, path: &str, rows: &[FamilyScore]) {
    for row in rows {
        let s = &row.score;
        writeln!(
            out,
            "{shape} {path} {} {:?} {:016x} {:016x} {:016x} {:016x}",
            row.family,
            s.name,
            s.logging_fraction.to_bits(),
            s.restart_fraction.to_bits(),
            s.encode_s_per_gb.to_bits(),
            s.p_catastrophic.to_bits()
        )
        .expect("write to a String");
    }
}

/// Both presets' rows on three machine shapes, fresh and staged, each
/// float as its bits.
fn sweep_bytes() -> String {
    let mut out = String::new();
    let layouts = LayoutStage::new();
    for (nodes, ppn) in [(16, 8), (9, 2), (8, 4)] {
        let shape = format!("{nodes}x{ppn}");
        let cache = TraceCache::new(1);
        let trace = cache.get_or_trace(&TracedJobConfig::small(nodes, ppn));
        let presets = || {
            [
                SchemeFamilySpec::table2(nodes, ppn),
                SchemeFamilySpec::for_layout(nodes, ppn),
            ]
        };
        for spec in presets() {
            let rows = evaluate_family_sweep(&trace, &spec).expect("presets fit");
            write_rows(&mut out, &shape, "fresh", &rows);
        }
        for spec in presets()
            .into_iter()
            .chain([SchemeFamilySpec::table2(nodes, ppn)])
        {
            let rows = spec
                .score_staged(&trace.app, &layouts, trace.stage())
                .expect("presets fit");
            write_rows(&mut out, &shape, "staged", &rows);
        }
    }
    out
}

#[test]
#[ignore = "child of sweep_bytes_match_at_one_and_two_threads"]
fn print_sweep_bytes() {
    print!("<<<\n{}>>>\n", sweep_bytes());
}

#[test]
fn sweep_bytes_match_at_one_and_two_threads() {
    let run = |threads: &str| -> String {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["print_sweep_bytes", "--exact", "--ignored", "--nocapture"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(out.status.success(), "{threads} thread(s): {stdout}");
        let (_, rest) = stdout.split_once("<<<\n").expect("start marker");
        let (rows, _) = rest.split_once(">>>\n").expect("end marker");
        rows.to_string()
    };
    let (one, two) = (run("1"), run("2"));
    assert!(one.lines().count() > 20, "too few rows: {one}");
    assert_eq!(one, two, "RAYON_NUM_THREADS=1 and =2 differ");
}
