//! Systematic Reed–Solomon coding over byte shards.
//!
//! `ReedSolomon::new(k, m)` protects `k` data shards with `m` parity
//! shards; any `m` erasures are recoverable. In the paper's setting one
//! shard is one process's node-local checkpoint within an encoding (L2)
//! cluster, and FTI's Reed–Solomon configuration tolerates the loss of
//! half the cluster — [`ReedSolomon::fti_for_group`] captures that
//! convention.
//!
//! Both encoding and reconstruction are embarrassingly parallel across
//! the byte dimension, so shards are chunked and processed with Rayon —
//! mirroring how FTI overlaps encoding across dedicated per-node
//! processes. Decode matrices (the inverse of the surviving generator
//! rows) are cached per erasure pattern, so repeated recoveries of the
//! same failure shape — the common case in a replay or campaign loop —
//! skip the Gauss–Jordan inversion entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rayon::prelude::*;

use crate::gf256;
use crate::matrix::GfMatrix;

/// Process-wide mirrors of the per-code decode-cache counters, so the
/// telemetry registry sees aggregate cache behaviour without walking
/// every live `ReedSolomon` instance (`erasure.decode_cache.{hits,misses}`).
fn global_cache_counters() -> &'static (Arc<hcft_telemetry::Counter>, Arc<hcft_telemetry::Counter>)
{
    static HANDLES: OnceLock<(Arc<hcft_telemetry::Counter>, Arc<hcft_telemetry::Counter>)> =
        OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = hcft_telemetry::Registry::global();
        (
            reg.counter("erasure.decode_cache.hits"),
            reg.counter("erasure.decode_cache.misses"),
        )
    })
}

/// Errors from reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// More shards are missing than the parity count can repair.
    TooManyErasures {
        /// Missing shard count.
        missing: usize,
        /// Parity (maximum repairable) count.
        parity: usize,
    },
    /// Present shards disagree in length.
    ShardSizeMismatch,
    /// The shard vector length does not equal k+m.
    WrongShardCount,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyErasures { missing, parity } => write!(
                f,
                "unrecoverable: {missing} shards missing, only {parity} parity"
            ),
            RsError::ShardSizeMismatch => write!(f, "shard sizes differ"),
            RsError::WrongShardCount => write!(f, "shard vector length != k+m"),
        }
    }
}

impl std::error::Error for RsError {}

/// Hit/miss counters for the decode-matrix cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a fresh Gauss–Jordan inversion.
    pub misses: u64,
}

/// Decode matrices keyed by the surviving-row set, shared by all clones
/// of a code.
#[derive(Debug, Default)]
struct DecodeCache {
    map: Mutex<HashMap<Vec<u8>, Arc<GfMatrix>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A systematic Reed–Solomon code with `k` data and `m` parity shards.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// The parity sub-matrix (m × k Cauchy).
    parity_rows: GfMatrix,
    /// The full generator `[I; C]` ((k+m) × k), precomputed so
    /// reconstruction never rebuilds it.
    gen: GfMatrix,
    /// Inverted decode matrices per erasure pattern. Clones share it.
    decode_cache: Arc<DecodeCache>,
}

/// Chunk size for parallel encoding/reconstruction (bytes per task).
const PAR_CHUNK: usize = 64 * 1024;

/// Window of the chunk-wise paths: the stack buffer of allocation-free
/// `verify`, and the slice of a row `encode_row_into` keeps in cache
/// while every data shard passes over it.
const VERIFY_CHUNK: usize = 4096;

/// Split each output shard into `PAR_CHUNK`-sized sub-slices and run
/// `body` once per chunk in parallel; each invocation owns the same byte
/// range of every output. This is the one place that does the
/// `split_at_mut` scaffolding for both encode and reconstruct.
fn par_chunks_of<F>(outputs: Vec<&mut [u8]>, body: F)
where
    F: Fn(usize, &mut [&mut [u8]]) + Send + Sync,
{
    let len = outputs.first().map(|o| o.len()).unwrap_or(0);
    debug_assert!(outputs.iter().all(|o| o.len() == len));
    if len == 0 || outputs.is_empty() {
        return;
    }
    let starts: Vec<usize> = (0..len).step_by(PAR_CHUNK).collect();
    let mut rows: Vec<(usize, Vec<&mut [u8]>)> = Vec::with_capacity(starts.len());
    let mut rests = outputs;
    for &lo in &starts {
        let take = PAR_CHUNK.min(len - lo);
        let mut row = Vec::with_capacity(rests.len());
        let mut next = Vec::with_capacity(rests.len());
        for rest in rests {
            let (head, tail) = rest.split_at_mut(take);
            row.push(head);
            next.push(tail);
        }
        rows.push((lo, row));
        rests = next;
    }
    rows.par_iter_mut()
        .for_each(|(lo, row)| body(*lo, &mut row[..]));
}

/// XOR-accumulate the matrix product `coeff · sources` into `outputs`
/// (which the caller has zeroed), chunked and parallel:
/// `outputs[r] ^= Σ_j coeff(r, j) · sources[j]`.
fn accumulate_products<C>(sources: &[&[u8]], outputs: Vec<&mut [u8]>, coeff: C)
where
    C: Fn(usize, usize) -> u8 + Send + Sync,
{
    par_chunks_of(outputs, |lo, outs| {
        for (r, out) in outs.iter_mut().enumerate() {
            for (j, src) in sources.iter().enumerate() {
                gf256::mul_acc(out, &src[lo..lo + out.len()], coeff(r, j));
            }
        }
    });
}

impl ReedSolomon {
    /// Create a code with `k` data and `m` parity shards.
    ///
    /// # Panics
    /// Panics if `k == 0`, `m == 0` or `k + m > 256`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(
            k > 0 && m > 0,
            "need at least one data and one parity shard"
        );
        assert!(k + m <= 256, "GF(256) supports at most 256 total shards");
        let parity_rows = GfMatrix::cauchy(m, k);
        let gen = GfMatrix::identity(k).vstack(&parity_rows);
        ReedSolomon {
            k,
            m,
            parity_rows,
            gen,
            decode_cache: Arc::new(DecodeCache::default()),
        }
    }

    /// FTI's convention for an encoding cluster of `group_size` processes:
    /// tolerate the loss of half the cluster (⌈s/2⌉ parity on ⌊s/2⌋ data).
    pub fn fti_for_group(group_size: usize) -> Self {
        assert!(group_size >= 2, "encoding clusters need >= 2 members");
        let m = group_size.div_ceil(2);
        Self::new(group_size - m, m)
    }

    /// Data shard count.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Parity shard count (= erasure tolerance).
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Total shard count.
    pub(crate) fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Compute the `m` parity shards for `data` (must be `k` equal-length
    /// shards), allocating the outputs. Loops that encode repeatedly
    /// should hold scratch buffers and call [`ReedSolomon::encode_into`].
    ///
    /// # Panics
    /// Panics on shard-count or shard-length mismatch.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        let mut parity = vec![vec![0u8; len]; self.m];
        {
            let outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| &mut p[..]).collect();
            self.encode_into(data, outs);
        }
        parity
    }

    /// Compute parity into caller-owned buffers (overwritten, so they can
    /// be reused round after round without reallocating).
    ///
    /// # Panics
    /// Panics when `data` is not `k` equal-length shards or `parity` is
    /// not `m` buffers of the same length.
    pub fn encode_into(&self, data: &[&[u8]], parity: Vec<&mut [u8]>) {
        crate::kernel::count_dispatch();
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        let len = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == len),
            "data shards must have equal length"
        );
        assert_eq!(parity.len(), self.m, "expected {} parity buffers", self.m);
        assert!(
            parity.iter().all(|p| p.len() == len),
            "parity buffers must match the data shard length"
        );
        let mut parity = parity;
        for p in &mut parity {
            p.fill(0);
        }
        accumulate_products(data, parity, |p, j| self.parity_rows.get(p, j));
    }

    /// Compute parity shard `p` alone into `out` (overwritten). Data
    /// shard `j` is `data[j]`'s pieces laid end to end and zero-padded to
    /// `out.len()`, so a caller holding each shard as a header plus a
    /// payload never assembles it. Serial, a window of `out` at a time so
    /// the row stays in cache while every source passes over it; callers
    /// parallelise over rows.
    ///
    /// # Panics
    /// Panics when `p` is not a parity row, `data` is not `k` shards, or
    /// a shard's pieces are longer than `out`.
    pub fn encode_row_into(&self, p: usize, data: &[&[&[u8]]], out: &mut [u8]) {
        crate::kernel::count_dispatch();
        assert!(p < self.m, "parity row {p} of {}", self.m);
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        assert!(
            data.iter()
                .all(|pieces| pieces.iter().map(|piece| piece.len()).sum::<usize>() <= out.len()),
            "a data shard overruns the parity row"
        );
        out.fill(0);
        for lo in (0..out.len()).step_by(VERIFY_CHUNK) {
            let hi = (lo + VERIFY_CHUNK).min(out.len());
            for (j, pieces) in data.iter().enumerate() {
                let coeff = self.parity_rows.get(p, j);
                let mut at = 0;
                for piece in pieces.iter() {
                    let (from, to) = (at.max(lo), (at + piece.len()).min(hi));
                    if from < to {
                        gf256::mul_acc(&mut out[from..to], &piece[from - at..to - at], coeff);
                    }
                    at += piece.len();
                }
            }
        }
    }

    /// Verify that `shards` (k data followed by m parity, all present and
    /// equal-length) are consistent.
    ///
    /// Runs chunk-wise over a fixed stack buffer — no heap allocation —
    /// and returns at the first mismatching chunk.
    pub fn verify(&self, shards: &[&[u8]]) -> bool {
        crate::kernel::count_dispatch();
        if shards.len() != self.total_shards() {
            return false;
        }
        let len = shards[0].len();
        if shards.iter().any(|s| s.len() != len) {
            return false;
        }
        let (data, parity) = shards.split_at(self.k);
        let mut buf = [0u8; VERIFY_CHUNK];
        let mut lo = 0;
        while lo < len {
            let n = VERIFY_CHUNK.min(len - lo);
            for (p, given) in parity.iter().enumerate() {
                let out = &mut buf[..n];
                out.fill(0);
                for (j, d) in data.iter().enumerate() {
                    gf256::mul_acc(out, &d[lo..lo + n], self.parity_rows.get(p, j));
                }
                if *out != given[lo..lo + n] {
                    return false;
                }
            }
            lo += n;
        }
        true
    }

    /// The inverse of the generator rows in `use_rows` (the k surviving
    /// shards), from the cache when this erasure pattern has been seen.
    fn decode_matrix(&self, use_rows: &[usize]) -> Arc<GfMatrix> {
        let key: Vec<u8> = use_rows.iter().map(|&i| i as u8).collect();
        {
            let map = self.decode_cache.map.lock().expect("cache lock");
            if let Some(m) = map.get(&key) {
                self.decode_cache.hits.fetch_add(1, Ordering::Relaxed);
                global_cache_counters().0.inc();
                return Arc::clone(m);
            }
        }
        self.decode_cache.misses.fetch_add(1, Ordering::Relaxed);
        global_cache_counters().1.inc();
        let inv = self
            .gen
            .select_rows(use_rows)
            .invert()
            .expect("MDS: any k rows are invertible");
        let inv = Arc::new(inv);
        self.decode_cache
            .map
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&inv));
        inv
    }

    /// Decode-matrix cache counters (shared across clones of this code).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        DecodeCacheStats {
            hits: self.decode_cache.hits.load(Ordering::Relaxed),
            misses: self.decode_cache.misses.load(Ordering::Relaxed),
        }
    }

    /// Rebuild all missing shards in place. `shards[i]` is `Some(bytes)`
    /// if shard `i` survives (`i < k`: data, `i >= k`: parity).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        crate::kernel::count_dispatch();
        self.rebuild_data(shards)?;
        // Recompute just the missing parity rows from the complete data.
        let missing_parity: Vec<usize> = (self.k..shards.len())
            .filter(|&i| shards[i].is_none())
            .collect();
        if !missing_parity.is_empty() {
            let len = shards[0].as_ref().expect("data complete").len();
            let mut rebuilt = vec![vec![0u8; len]; missing_parity.len()];
            {
                let sources: Vec<&[u8]> = shards[..self.k]
                    .iter()
                    .map(|s| s.as_deref().expect("data complete"))
                    .collect();
                let outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(|v| &mut v[..]).collect();
                accumulate_products(&sources, outs, |r, j| {
                    self.parity_rows.get(missing_parity[r] - self.k, j)
                });
            }
            for (&p, buf) in missing_parity.iter().zip(rebuilt) {
                shards[p] = Some(buf);
            }
        }
        Ok(())
    }

    /// Rebuild only the missing *data* shards in place; missing parity
    /// shards stay `None`. For a caller that wants its data back and
    /// would discard recomputed parity — it may leave every parity shard
    /// it does not need for decoding unread.
    pub fn reconstruct_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        crate::kernel::count_dispatch();
        self.rebuild_data(shards)
    }

    /// Check the shard set and decode the missing data shards from the
    /// first `k` survivors — the half [`ReedSolomon::reconstruct`] and
    /// [`ReedSolomon::reconstruct_data`] share.
    fn rebuild_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount);
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        if missing.len() > self.m {
            return Err(RsError::TooManyErasures {
                missing: missing.len(),
                parity: self.m,
            });
        }
        let len = shards[present[0]].as_ref().expect("present shard").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present shard").len() != len)
        {
            return Err(RsError::ShardSizeMismatch);
        }
        let missing_data: Vec<usize> = missing.iter().copied().filter(|&i| i < self.k).collect();
        // data[j] = Σ_i inv[j][i] · shard[use_rows[i]], for the missing j.
        if !missing_data.is_empty() {
            let use_rows = &present[..self.k];
            let inv = self.decode_matrix(use_rows);
            let mut rebuilt = vec![vec![0u8; len]; missing_data.len()];
            {
                let sources: Vec<&[u8]> = use_rows
                    .iter()
                    .map(|&i| shards[i].as_deref().expect("present shard"))
                    .collect();
                let outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(|v| &mut v[..]).collect();
                accumulate_products(&sources, outs, |r, i| inv.get(missing_data[r], i));
            }
            for (&j, buf) in missing_data.iter().zip(rebuilt) {
                shards[j] = Some(buf);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shards(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 131 + b * 7 + 3) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_verify_roundtrip() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 1000);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut all: Vec<&[u8]> = refs.clone();
        all.extend(parity.iter().map(|p| &p[..]));
        assert!(rs.verify(&all));
    }

    #[test]
    fn encode_into_reuses_scratch() {
        let rs = ReedSolomon::new(3, 2);
        let mut scratch = vec![vec![0xEEu8; 500]; 2];
        for round in 0..3 {
            let data = shards(3, 500)
                .into_iter()
                .map(|mut d| {
                    d[0] ^= round as u8;
                    d
                })
                .collect::<Vec<_>>();
            let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
            let outs: Vec<&mut [u8]> = scratch.iter_mut().map(|p| &mut p[..]).collect();
            rs.encode_into(&refs, outs);
            assert_eq!(rs.encode(&refs), scratch, "round {round}");
        }
    }

    #[test]
    fn encode_row_into_matches_encode_on_pieced_padded_shards() {
        // Shards given as a short head plus a body, zero-padded past the
        // end of a chunk window: every row equals the assembled encode.
        let rs = ReedSolomon::new(3, 2);
        let len = VERIFY_CHUNK + 100;
        let bodies = [len - 9, len - 40, VERIFY_CHUNK - 3];
        let data: Vec<Vec<u8>> = bodies
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut shard = shards(3, 8 + b).swap_remove(i);
                shard.resize(len, 0);
                shard
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let pieces: Vec<[&[u8]; 2]> = data
            .iter()
            .zip(bodies)
            .map(|(d, b)| [&d[..8], &d[8..8 + b]])
            .collect();
        let pieced: Vec<&[&[u8]]> = pieces.iter().map(|p| &p[..]).collect();
        for (p, want) in parity.iter().enumerate() {
            let mut row = vec![0xAA; len];
            rs.encode_row_into(p, &pieced, &mut row);
            assert_eq!(&row, want, "row {p}");
        }
    }

    #[test]
    fn reconstruct_data_leaves_unneeded_parity_alone() {
        let rs = ReedSolomon::new(4, 4);
        let data = shards(4, 300);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        // Data shard 1 lost; only the one parity shard decoding needs.
        let mut work: Vec<Option<Vec<u8>>> = vec![None; 8];
        for i in [0, 2, 3] {
            work[i] = Some(data[i].clone());
        }
        work[5] = Some(parity[1].clone());
        rs.reconstruct_data(&mut work)
            .expect("four of eight survive");
        assert_eq!(work[1].as_ref().expect("rebuilt"), &data[1]);
        assert!(
            [4, 6, 7].iter().all(|&i| work[i].is_none()),
            "parity is not recomputed"
        );
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(3, 2);
        let data = shards(3, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let mut parity = rs.encode(&refs);
        parity[0][10] ^= 0xFF;
        let mut all: Vec<&[u8]> = refs.clone();
        all.extend(parity.iter().map(|p| &p[..]));
        assert!(!rs.verify(&all));
    }

    #[test]
    fn verify_detects_corruption_past_first_chunk() {
        let rs = ReedSolomon::new(2, 2);
        let len = VERIFY_CHUNK * 2 + 37;
        let data = shards(2, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let mut parity = rs.encode(&refs);
        // Flip a byte in the last partial chunk of the last parity shard.
        parity[1][len - 1] ^= 0x01;
        let mut all: Vec<&[u8]> = refs.clone();
        all.extend(parity.iter().map(|p| &p[..]));
        assert!(!rs.verify(&all));
    }

    #[test]
    fn reconstructs_every_single_erasure() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 200);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        for lost in 0..6 {
            let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            work[lost] = None;
            rs.reconstruct(&mut work).expect("single erasure");
            for (i, shard) in work.iter().enumerate() {
                assert_eq!(shard.as_ref().expect("rebuilt"), &full[i], "shard {i}");
            }
        }
    }

    #[test]
    fn reconstructs_every_double_erasure() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 50);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                work[a] = None;
                work[b] = None;
                rs.reconstruct(&mut work).expect("double erasure");
                for (i, shard) in work.iter().enumerate() {
                    assert_eq!(shard.as_ref().expect("rebuilt"), &full[i], "lost {a},{b}");
                }
            }
        }
    }

    #[test]
    fn repeated_same_pattern_reconstruction_hits_the_cache() {
        let rs = ReedSolomon::new(6, 2);
        let data = shards(6, 128);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        for round in 0..5 {
            let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            work[2] = None;
            rs.reconstruct(&mut work).expect("single erasure");
            assert_eq!(
                work[2].as_ref().expect("rebuilt"),
                &full[2],
                "round {round}"
            );
        }
        let stats = rs.decode_cache_stats();
        assert_eq!(stats.misses, 1, "one inversion for the repeated pattern");
        assert_eq!(stats.hits, 4, "subsequent rounds reuse the cache");
        // A different pattern misses once more.
        let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        work[3] = None;
        rs.reconstruct(&mut work).expect("single erasure");
        assert_eq!(rs.decode_cache_stats().misses, 2);
    }

    #[test]
    fn clones_share_the_decode_cache() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 64);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        work[1] = None;
        rs.reconstruct(&mut work).expect("erasure");
        let rs2 = rs.clone();
        let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        work[1] = None;
        rs2.reconstruct(&mut work).expect("erasure");
        assert_eq!(rs2.decode_cache_stats().hits, 1, "clone reused the cache");
    }

    #[test]
    fn too_many_erasures_is_an_error() {
        let rs = ReedSolomon::new(4, 2);
        let data = shards(4, 10);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut work: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        work[0] = None;
        work[1] = None;
        work[2] = None;
        assert_eq!(
            rs.reconstruct(&mut work),
            Err(RsError::TooManyErasures {
                missing: 3,
                parity: 2
            })
        );
    }

    #[test]
    fn mismatched_sizes_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let mut work = vec![Some(vec![1, 2, 3]), Some(vec![1, 2]), None];
        assert_eq!(rs.reconstruct(&mut work), Err(RsError::ShardSizeMismatch));
    }

    #[test]
    fn fti_group_tolerates_half() {
        let rs = ReedSolomon::fti_for_group(4);
        assert_eq!(rs.data_shards(), 2);
        assert_eq!(rs.parity_shards(), 2);
        let rs = ReedSolomon::fti_for_group(5);
        assert_eq!(rs.parity_shards(), 3);
        assert_eq!(rs.total_shards(), 5);
    }

    #[test]
    fn large_shards_cross_parallel_chunk_boundary() {
        let rs = ReedSolomon::new(3, 2);
        let data = shards(3, 3 * PAR_CHUNK + 17);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut work: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.iter().cloned())
            .map(Some)
            .collect();
        work[1] = None;
        work[4] = None;
        rs.reconstruct(&mut work).expect("reconstruct large");
        assert_eq!(work[1].as_ref().expect("rebuilt"), &data[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn encode_erase_reconstruct_identity(
            k in 1usize..6,
            m in 1usize..5,
            len in 1usize..300,
            seed: u64,
        ) {
            let rs = ReedSolomon::new(k, m);
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| {
                    let mut s = seed.wrapping_add(i as u64) | 1;
                    (0..len)
                        .map(|_| {
                            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (s >> 56) as u8
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
            let parity = rs.encode(&refs);
            let full: Vec<Vec<u8>> =
                data.iter().cloned().chain(parity.iter().cloned()).collect();
            // Erase up to m shards chosen by the seed.
            let mut work: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            let mut s = seed | 1;
            let erase = (seed as usize % m) + 1;
            let mut killed = 0;
            while killed < erase {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (s >> 33) as usize % (k + m);
                if work[idx].is_some() {
                    work[idx] = None;
                    killed += 1;
                }
            }
            rs.reconstruct(&mut work).expect("within tolerance");
            for (i, shard) in work.iter().enumerate() {
                prop_assert_eq!(shard.as_ref().expect("rebuilt"), &full[i]);
            }
        }
    }
}
