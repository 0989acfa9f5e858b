//! Shared harness machinery: run scales, trace caching, CSV output.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use hcft_core::experiment::TracedJobConfig;
use hcft_core::trace_cache::{CachedTrace, TraceCache};

/// Experiment scale: the paper's full §V configuration or a laptop-quick
/// reduction with identical structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 64 nodes × 16 app ranks (+64 encoders) = 1088 ranks, 100
    /// iterations — the paper's run.
    Paper,
    /// 16 nodes × 8 app ranks (+16 encoders) = 144 ranks — same shape,
    /// seconds to run.
    Small,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    /// The traced-job configuration for this scale.
    pub(crate) fn job(self) -> TracedJobConfig {
        match self {
            Scale::Paper => TracedJobConfig::paper_1024(),
            Scale::Small => TracedJobConfig {
                nodes: 16,
                app_per_node: 8,
                with_encoders: true,
                iterations: 100,
                checkpoint_every: 25,
                grid: (256, 64),
                process_grid: Some((64, 2)),
                encoder_group_nodes: 4,
                record_events: false,
                workers: 0,
                engine: hcft_simmpi::Engine::Tasks,
            },
        }
    }

    /// Table-II cluster sizes scaled to the configuration: (naïve,
    /// size-guided, distributed, hierarchical L1 max nodes).
    pub(crate) fn table2_sizes(self) -> (usize, usize, usize) {
        match self {
            Scale::Paper => (32, 8, 16),
            Scale::Small => (16, 4, 8),
        }
    }
}

/// The traced run at `scale`, shared by every figure that needs it
/// within one `repro` invocation (and with anything else in the process
/// that traces the same job, by content key).
pub fn traced(scale: Scale) -> Arc<CachedTrace> {
    static TRACES: OnceLock<TraceCache> = OnceLock::new();
    // One entry per scale.
    TRACES
        .get_or_init(|| TraceCache::new(2))
        .get_or_trace(&scale.job())
}

/// A CSV artefact to be written under the results directory.
pub struct CsvFile {
    /// File name (no directory).
    pub name: String,
    /// Full CSV content including header.
    pub content: String,
}

impl CsvFile {
    /// Build from a header and rows.
    pub(crate) fn new(name: impl Into<String>, header: &str, rows: &[Vec<String>]) -> Self {
        let mut content = String::from(header);
        content.push('\n');
        for row in rows {
            content.push_str(&row.join(","));
            content.push('\n');
        }
        CsvFile {
            name: name.into(),
            content,
        }
    }
}

/// One reproduced artefact: a printable report plus CSV series.
pub struct Artifact {
    /// Identifier, e.g. "fig3a".
    pub id: &'static str,
    /// Human-readable report printed to stdout.
    pub report: String,
    /// CSV files to persist.
    pub csv: Vec<CsvFile>,
}

impl Artifact {
    /// Write all CSVs under `dir` and return the paths.
    pub fn persist(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for f in &self.csv {
            let p = dir.join(&f.name);
            let mut out = std::fs::File::create(&p)?;
            out.write_all(f.content.as_bytes())?;
            paths.push(p);
        }
        Ok(paths)
    }
}

/// Format a probability the way the paper's Table II does (powers of
/// ten).
pub(crate) fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p >= 0.01 {
        format!("{p:.2}")
    } else {
        format!("1e{:.0}", p.log10().round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn csv_formatting() {
        let f = CsvFile::new(
            "x.csv",
            "a,b",
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(f.content, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn prob_formatting_matches_paper_style() {
        assert_eq!(fmt_prob(0.95), "0.95");
        assert_eq!(fmt_prob(1.0e-4), "1e-4");
        assert_eq!(fmt_prob(3.1e-7), "1e-7");
        assert_eq!(fmt_prob(0.0), "0");
    }

    #[test]
    fn artifact_persist_writes_files() {
        let dir = std::env::temp_dir().join(format!("hcft-bench-{}", std::process::id()));
        let a = Artifact {
            id: "t",
            report: String::new(),
            csv: vec![CsvFile::new("t.csv", "h", &[])],
        };
        let paths = a.persist(&dir).expect("persist");
        assert!(paths[0].exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
