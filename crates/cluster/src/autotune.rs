//! Cluster-size auto-tuning — §III's sweet-spot search as an algorithm.
//!
//! The paper finds its cluster sizes by manual inspection of Fig. 3a/3b.
//! This module automates the search: sweep candidate configurations,
//! score each on the four dimensions, drop everything that misses the
//! baseline, and rank the survivors by a scalarised cost (normalised
//! worst-axis by default — minimise the largest baseline ratio, i.e. the
//! Chebyshev objective that matches Fig. 5c's "stay inside the polygon").
//! The sweep itself is the `SchemeFamilySpec::autotune` preset, scored
//! by [`SchemeFamilySpec::score`] on the evaluator's own trace stage, so
//! the node graph its hierarchical candidates partition is derived from
//! the trace.

use hcft_telemetry::HcftError;

use crate::baseline::BaselineRequirements;
use crate::evaluator::{Evaluator, FourDScore};
use crate::strategies::ClusteringScheme;
use crate::strategy::SchemeFamilySpec;

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The scheme.
    pub scheme: ClusteringScheme,
    /// Its 4-D score.
    pub score: FourDScore,
    /// max(normalised axes) — < 1 means inside the baseline polygon.
    pub chebyshev: f64,
}

/// Score the `SchemeFamilySpec::autotune` sweep for a traced workload,
/// in sweep order. Fails with `Config` when no candidate fits the
/// machine.
pub fn candidates(
    evaluator: &Evaluator,
    baseline: &BaselineRequirements,
) -> Result<Vec<Candidate>, HcftError> {
    let rows = SchemeFamilySpec::autotune(evaluator.placement()).score(evaluator)?;
    Ok(rows
        .into_iter()
        .map(|row| Candidate {
            chebyshev: baseline
                .normalize(&row.score)
                .into_iter()
                .fold(0.0f64, f64::max),
            scheme: row.scheme,
            score: row.score,
        })
        .collect())
}

/// Pick the best admissible candidate (smallest Chebyshev ratio, the
/// first in sweep order on a tie), or the least-bad one when nothing is
/// admissible.
pub fn autotune(
    evaluator: &Evaluator,
    baseline: &BaselineRequirements,
) -> Result<Candidate, HcftError> {
    Ok(candidates(evaluator, baseline)?
        .into_iter()
        .min_by(|a, b| a.chebyshev.partial_cmp(&b.chebyshev).expect("finite"))
        .expect("scoring refuses an empty sweep"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_graph::patterns;
    use hcft_topology::Placement;

    /// Anisotropic stencil over 32 nodes × 8 ranks — paper-shaped.
    fn setup() -> Evaluator {
        let placement = Placement::block(32, 8);
        let m = patterns::stencil_2d(128, 2, 2048, 16);
        Evaluator::new(m, placement)
    }

    #[test]
    fn autotune_selects_a_hierarchical_scheme() {
        let evaluator = setup();
        let baseline = BaselineRequirements::default();
        let best = autotune(&evaluator, &baseline).unwrap();
        // Pinned: the sweep's answer on this machine must not drift.
        assert_eq!(best.scheme.name, "hierarchical (32-4 pr.)");
        assert_eq!(best.chebyshev, 0.625);
        assert!(baseline.meets_all(&best.score));
    }

    #[test]
    fn autotune_answers_every_small_machine_without_panicking() {
        let baseline = BaselineRequirements::default();
        for nodes in 1..=17 {
            for ppn in [1, 2, 4] {
                let placement = Placement::block(nodes, ppn);
                let m = patterns::stencil_2d(nodes * ppn, 1, 2048, 16);
                let evaluator = Evaluator::new(m, placement);
                let shape = format!("{nodes}x{ppn}");
                // Nothing fits one node of fewer than four ranks: no
                // naive size reaches half the ranks, no stripe two nodes.
                if nodes == 1 && ppn < 4 {
                    let err = autotune(&evaluator, &baseline).unwrap_err();
                    assert!(matches!(err, HcftError::Config(_)), "{shape}: {err}");
                    let words = format!("no strategy family fits a {shape} layout");
                    assert!(err.to_string().contains(&words), "{shape}: {err}");
                    continue;
                }
                // Scoring builds every candidate of the sweep first, so
                // an answer means each one built.
                autotune(&evaluator, &baseline).unwrap_or_else(|e| panic!("{shape}: {e}"));
            }
        }
    }

    #[test]
    fn candidate_sweep_covers_all_families() {
        let evaluator = setup();
        let cands = candidates(&evaluator, &BaselineRequirements::default()).unwrap();
        let names: Vec<&str> = cands.iter().map(|c| c.score.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("naive")));
        assert!(names.iter().any(|n| n.starts_with("distributed")));
        assert!(names.iter().any(|n| n.starts_with("hierarchical")));
        // Sweep is non-trivial.
        assert!(cands.len() >= 8, "only {} candidates", cands.len());
    }

    #[test]
    fn chebyshev_flags_inadmissible_candidates() {
        let evaluator = setup();
        let cands = candidates(&evaluator, &BaselineRequirements::default()).unwrap();
        for c in &cands {
            let meets = BaselineRequirements::default().meets_all(&c.score);
            assert_eq!(meets, c.chebyshev <= 1.0, "{}", c.score.name);
        }
    }

    #[test]
    fn degenerate_baseline_still_returns_least_bad() {
        let evaluator = setup();
        // Impossible thresholds: nothing admissible, but autotune still
        // ranks.
        let impossible = BaselineRequirements {
            max_logging_fraction: 1e-9,
            max_restart_fraction: 1e-9,
            max_encode_s_per_gb: 1e-9,
            max_p_catastrophic: 1e-30,
        };
        let best = autotune(&evaluator, &impossible).unwrap();
        assert!(best.chebyshev > 1.0);
    }

    #[test]
    fn all_to_all_workload_defeats_the_tuner_gracefully() {
        // The §V caveat: on all-to-all nothing meets the logging budget.
        let placement = Placement::block(16, 4);
        let m = patterns::all_to_all(64, 1000);
        let evaluator = Evaluator::new(m, placement);
        let baseline = BaselineRequirements::default();
        let best = autotune(&evaluator, &baseline).unwrap();
        assert!(!baseline.meets(&best.score)[0], "logging must fail");
    }
}
