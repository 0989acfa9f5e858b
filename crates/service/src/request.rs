//! Evaluation-request parsing: query string → validated job config +
//! family selection.

use hcft_core::{SchemeFamilySpec, TracedJobConfig};
use hcft_telemetry::HcftError;

/// Most ranks a request may trace, encoders included
/// (`nodes × (ppn + 1)`). The matrices are sparse and traced ranks hold
/// no solver field, so what grows with the machine is the prefix world
/// a cold request runs: every rank's touched coroutine stack, in-flight
/// halo buffers and mailbox, ≈ 35–40 kB a rank, which at the full
/// 23 936-rank TSUBAME2 reads ≈ 0.9 GB of peak RSS — still more than
/// one request may take from a shared server.
pub(crate) const MAX_RANKS: usize = 4096;

/// Most solver iterations a request may trace: a bound on how long one
/// cold request can hold a worker and its single-flight cache entry.
pub(crate) const MAX_ITERATIONS: u64 = 1_000_000;

/// Which strategy-family grid a request sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilySelect {
    /// The Table II comparison: the four paper schemes at their classic
    /// sizes plus one striped entrant where the layout divides evenly.
    Table2,
    /// The full family grid for the layout: per-family cluster-size
    /// sweeps, striped L1×L2 combinations, hierarchical bound grids.
    Full,
}

impl FamilySelect {
    /// The query-string spelling (`families=` value).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            FamilySelect::Table2 => "table2",
            FamilySelect::Full => "full",
        }
    }

    /// Parse a `families=` value.
    pub(crate) fn parse(s: &str) -> Result<Self, HcftError> {
        match s {
            "table2" => Ok(FamilySelect::Table2),
            "full" | "all" => Ok(FamilySelect::Full),
            other => Err(HcftError::Config(format!(
                "families must be table2|full, got {other:?}"
            ))),
        }
    }
}

/// One parsed `/evaluate` request: the machine shape and job cadence to
/// trace, and the family grid to rank. Parsing is strict — unknown or
/// repeated keys are errors, so a typoed parameter can never silently
/// fall back to a default and return the wrong comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalRequest {
    /// Compute nodes (required: `nodes=`).
    pub nodes: usize,
    /// Application ranks per node (required: `ppn=`).
    pub ppn: usize,
    /// Solver iterations (`iters=`, default: the builder's preset).
    pub iterations: Option<u64>,
    /// Checkpoint cadence in iterations (`ck=`, default: preset).
    pub checkpoint_every: Option<u64>,
    /// Family grid to sweep (`families=`, default `table2`).
    pub families: FamilySelect,
}

impl EvalRequest {
    /// Parse the query-string part of `GET /evaluate?...`.
    pub fn from_query(query: &str) -> Result<Self, HcftError> {
        let mut nodes: Option<usize> = None;
        let mut ppn: Option<usize> = None;
        let mut iterations: Option<u64> = None;
        let mut checkpoint_every: Option<u64> = None;
        let mut families: Option<FamilySelect> = None;

        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').ok_or_else(|| {
                HcftError::Config(format!("query parameter {pair:?} is not key=value"))
            })?;
            fn int<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, HcftError> {
                v.parse()
                    .map_err(|_| HcftError::Config(format!("{k}={v:?} is not a valid integer")))
            }
            fn once<T>(k: &str, slot: &mut Option<T>, v: T) -> Result<(), HcftError> {
                if slot.is_some() {
                    return Err(HcftError::Config(format!("duplicate query parameter {k}")));
                }
                *slot = Some(v);
                Ok(())
            }
            match k {
                "nodes" => once(k, &mut nodes, int(k, v)?)?,
                "ppn" => once(k, &mut ppn, int(k, v)?)?,
                "iters" => once(k, &mut iterations, int(k, v)?)?,
                "ck" => once(k, &mut checkpoint_every, int(k, v)?)?,
                "families" => once(k, &mut families, FamilySelect::parse(v)?)?,
                other => {
                    return Err(HcftError::Config(format!(
                    "unknown query parameter {other:?} (expected nodes, ppn, iters, ck, families)"
                )))
                }
            }
        }

        let nodes =
            nodes.ok_or_else(|| HcftError::Config("missing required parameter nodes".into()))?;
        let ppn = ppn.ok_or_else(|| HcftError::Config("missing required parameter ppn".into()))?;
        let ranks = ppn
            .checked_add(1)
            .and_then(|per_node| nodes.checked_mul(per_node));
        if ranks.is_none_or(|r| r > MAX_RANKS) {
            return Err(HcftError::Config(format!(
                "nodes={nodes}&ppn={ppn} is more than {MAX_RANKS} ranks with encoders"
            )));
        }
        if let Some(it) = iterations.filter(|&it| it > MAX_ITERATIONS) {
            return Err(HcftError::Config(format!(
                "iters={it} is more than {MAX_ITERATIONS}"
            )));
        }
        Ok(EvalRequest {
            nodes,
            ppn,
            iterations,
            checkpoint_every,
            families: families.unwrap_or(FamilySelect::Table2),
        })
    }

    /// The traced-job configuration this request resolves to (runtime
    /// knobs at their defaults — they never change the traced bytes).
    pub fn job_config(&self) -> Result<TracedJobConfig, HcftError> {
        let mut b = TracedJobConfig::builder(self.nodes, self.ppn);
        if let Some(it) = self.iterations {
            b = b.iterations(it);
        }
        if let Some(ck) = self.checkpoint_every {
            b = b.checkpoint_every(ck);
        }
        b.build()
    }

    /// The family grid this request sweeps.
    pub fn family_spec(&self) -> SchemeFamilySpec {
        match self.families {
            FamilySelect::Table2 => SchemeFamilySpec::table2(self.nodes, self.ppn),
            FamilySelect::Full => SchemeFamilySpec::for_layout(self.nodes, self.ppn),
        }
    }

    /// The response-memo key: the trace-cache canonical form extended
    /// with the family selection (two requests with equal keys are
    /// guaranteed byte-identical responses).
    pub fn memo_key(&self) -> Result<String, HcftError> {
        Ok(format!(
            "{};families={}",
            self.job_config()?.to_canonical(),
            self.families.as_str()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_query() {
        let r = EvalRequest::from_query("nodes=64&ppn=16&iters=100&ck=25&families=full").unwrap();
        assert_eq!(r.nodes, 64);
        assert_eq!(r.ppn, 16);
        assert_eq!(r.iterations, Some(100));
        assert_eq!(r.checkpoint_every, Some(25));
        assert_eq!(r.families, FamilySelect::Full);
    }

    #[test]
    fn defaults_families_to_table2() {
        let r = EvalRequest::from_query("nodes=4&ppn=2").unwrap();
        assert_eq!(r.families, FamilySelect::Table2);
        assert_eq!(r.iterations, None);
    }

    #[test]
    fn rejects_unknown_duplicate_and_missing_parameters() {
        assert!(EvalRequest::from_query("nodes=4&ppn=2&bogus=1").is_err());
        assert!(EvalRequest::from_query("nodes=4&nodes=8&ppn=2").is_err());
        assert!(EvalRequest::from_query("ppn=2").is_err());
        assert!(EvalRequest::from_query("nodes=four&ppn=2").is_err());
        assert!(EvalRequest::from_query("nodes=4&ppn=2&families=best").is_err());
    }

    #[test]
    fn bounds_the_machine_size_and_iteration_count() {
        // 256 × (15 + 1) = 4096 ranks is the largest machine accepted.
        assert!(EvalRequest::from_query("nodes=256&ppn=15").is_ok());
        assert!(EvalRequest::from_query("nodes=257&ppn=15").is_err());
        assert!(EvalRequest::from_query("nodes=100000&ppn=16").is_err());
        // nodes × (ppn + 1) overflowing usize is too large, not a panic.
        let huge = format!("nodes={}&ppn={}", usize::MAX, usize::MAX);
        assert!(EvalRequest::from_query(&huge).is_err());
        assert!(EvalRequest::from_query("nodes=4&ppn=2&iters=1000000").is_ok());
        let err = EvalRequest::from_query("nodes=4&ppn=2&iters=4000000000").unwrap_err();
        assert!(matches!(err, HcftError::Config(_)), "{err}");
    }

    #[test]
    fn odd_rank_counts_get_a_one_row_process_grid() {
        for (nodes, ppn) in [(1, 5), (3, 3), (3, 5), (5, 1)] {
            let r = EvalRequest::from_query(&format!("nodes={nodes}&ppn={ppn}")).unwrap();
            let cfg = r.job_config().expect("an odd rank count builds");
            assert_eq!(cfg.process_grid(), (nodes * ppn, 1), "{nodes}x{ppn}");
        }
        // Even counts keep their two-row grid.
        let even = EvalRequest::from_query("nodes=4&ppn=2").unwrap();
        assert_eq!(even.job_config().unwrap().process_grid(), (4, 2));
    }

    #[test]
    fn memo_key_separates_family_selection() {
        let t2 = EvalRequest::from_query("nodes=4&ppn=2").unwrap();
        let full = EvalRequest::from_query("nodes=4&ppn=2&families=full").unwrap();
        assert_ne!(t2.memo_key().unwrap(), full.memo_key().unwrap());
        // Same shape, same selection, spelled differently → same key.
        let t2b = EvalRequest::from_query("ppn=2&nodes=4&families=table2").unwrap();
        assert_eq!(t2.memo_key().unwrap(), t2b.memo_key().unwrap());
    }
}
