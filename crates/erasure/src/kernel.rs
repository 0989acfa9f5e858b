//! GF(2⁸) multiply-accumulate kernels.
//!
//! The hot loop of Reed–Solomon encoding is `dst ^= c · src` over long
//! byte slices. The classic implementation walks a 256-byte row of the
//! full 64 KiB product table per source byte; it is correct but touches
//! a different table row per coefficient and moves one byte per step.
//!
//! Every kernel here is built instead on the **4-bit split** of the
//! product: `c·x = LO[c][x & 0xF] ⊕ HI[c][x >> 4]`, valid because
//! multiplication by a constant is GF(2)-linear, so the contribution of
//! the low and high nibble of `x` can be precomputed separately. Each
//! coefficient needs only two 16-byte tables (32 hot bytes instead of
//! 256), and 16-byte tables are exactly what `pshufb` consumes.
//!
//! Kernels, in increasing hardware dependence:
//!
//! * [`Kernel::Reference`] — the full-table scalar loop, kept as the
//!   correctness baseline and the comparison point for benchmarks;
//! * [`Kernel::Portable64`] — safe Rust, 8 bytes per step: loads `src`
//!   and `dst` as `u64`, composes the eight nibble products into a word
//!   and stores one XOR per word;
//! * [`Kernel::Ssse3`] / [`Kernel::Avx2`] — `pshufb`-based table lookup
//!   over 16 / 32 source bytes per instruction, gated at runtime by
//!   `is_x86_feature_detected!`.
//!
//! [`active`] resolves the best available kernel once per process
//! (override with the `HCFT_GF_KERNEL` environment variable: one of
//! `reference`, `portable64`, `ssse3`, `avx2`; any other value panics
//! with the [`HcftError::Config`] naming it).

use std::sync::OnceLock;

use hcft_telemetry::HcftError;

use crate::gf256;

/// Per-coefficient nibble tables: `lo[c][n] = c·n`, `hi[c][n] = c·(n<<4)`.
struct NibbleTables {
    lo: [[u8; 16]; 256],
    hi: [[u8; 16]; 256],
}

fn nibble_tables() -> &'static NibbleTables {
    static TABLES: OnceLock<NibbleTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut lo = [[0u8; 16]; 256];
        let mut hi = [[0u8; 16]; 256];
        for c in 0..256 {
            for n in 0..16 {
                lo[c][n] = gf256::mul(c as u8, n as u8);
                hi[c][n] = gf256::mul(c as u8, (n << 4) as u8);
            }
        }
        NibbleTables { lo, hi }
    })
}

/// A GF(2⁸) multiply-accumulate implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Scalar loop over the full 64 KiB product table (seed behaviour).
    Reference,
    /// Safe nibble-table kernel, one `u64` word per step.
    Portable64,
    /// 16 bytes per step via SSSE3 `pshufb`.
    Ssse3,
    /// 32 bytes per step via AVX2 `vpshufb`.
    Avx2,
}

impl Kernel {
    /// Every kernel variant, in dispatch-preference order (best last).
    pub(crate) const ALL: [Kernel; 4] = [
        Kernel::Reference,
        Kernel::Portable64,
        Kernel::Ssse3,
        Kernel::Avx2,
    ];

    /// Stable lower-case name (matches the `HCFT_GF_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Portable64 => "portable64",
            Kernel::Ssse3 => "ssse3",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub(crate) fn is_available(self) -> bool {
        match self {
            Kernel::Reference | Kernel::Portable64 => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The kernels that can run here, reference first.
    pub fn available() -> Vec<Kernel> {
        Self::ALL.into_iter().filter(|k| k.is_available()).collect()
    }

    /// XOR-accumulate `coeff · src` into `dst`.
    ///
    /// # Panics
    /// Panics when `dst` and `src` differ in length.
    pub fn mul_acc(self, dst: &mut [u8], src: &[u8], coeff: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc slice length mismatch");
        if coeff == 0 {
            return;
        }
        if coeff == 1 {
            xor_acc(dst, src);
            return;
        }
        match self {
            Kernel::Reference => mul_acc_reference(dst, src, coeff),
            Kernel::Portable64 => mul_acc_portable64(dst, src, coeff),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: is_available() checked the CPU feature; callers go
            // through active() or guard explicitly (the proptests filter
            // on availability).
            Kernel::Ssse3 => unsafe { x86::mul_acc_ssse3(dst, src, coeff) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX2.
            Kernel::Avx2 => unsafe { x86::mul_acc_avx2(dst, src, coeff) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => mul_acc_portable64(dst, src, coeff),
        }
    }
}

/// Count one erasure operation dispatched through the active kernel in
/// the global telemetry registry (`erasure.dispatch.<kernel>`).
///
/// Called once per public encode/verify/reconstruct operation — not per
/// `mul_acc` — so the relaxed-atomic increment is invisible next to the
/// table work. The counter handle is resolved once and cached.
pub(crate) fn count_dispatch() {
    static HANDLE: OnceLock<std::sync::Arc<hcft_telemetry::Counter>> = OnceLock::new();
    HANDLE
        .get_or_init(|| {
            hcft_telemetry::Registry::global()
                .counter(&format!("erasure.dispatch.{}", active().name()))
        })
        .inc();
}

/// The best kernel for this process: `HCFT_GF_KERNEL` override if set
/// and available, else the most capable detected variant. Resolved once.
///
/// # Panics
/// When `HCFT_GF_KERNEL` names no kernel, with the [`HcftError::Config`]
/// that names the variable, the value and the accepted names.
pub fn active() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let raw = std::env::var_os("HCFT_GF_KERNEL").map(|v| v.to_string_lossy().into_owned());
        match requested(raw.as_deref()) {
            Ok(Some(k)) if k.is_available() => k,
            Ok(_) => Kernel::ALL
                .into_iter()
                .rev()
                .find(|k| k.is_available())
                .expect("portable kernels are always available"),
            Err(e) => panic!("{e}"),
        }
    })
}

/// The kernel an `HCFT_GF_KERNEL` value `raw` names (case-insensitive;
/// `None` when unset). Any other value is [`HcftError::Config`] naming
/// the variable, the value and the accepted names.
pub(crate) fn requested(raw: Option<&str>) -> Result<Option<Kernel>, HcftError> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    Kernel::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(raw.trim()))
        .map(Some)
        .ok_or_else(|| {
            let names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
            HcftError::Config(format!(
                "HCFT_GF_KERNEL must be one of {}, got {raw:?}",
                names.join(", ")
            ))
        })
}

/// Wide `dst ^= src` (the coefficient-1 fast path): one `u64` per step
/// plus a scalar tail.
pub(crate) fn xor_acc(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_acc slice length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dw.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(sw.try_into().expect("8-byte chunk"));
        dw.copy_from_slice(&x.to_le_bytes());
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// Seed kernel: per-byte lookup in the coefficient's 256-byte row.
fn mul_acc_reference(dst: &mut [u8], src: &[u8], coeff: u8) {
    let row = gf256::mul_row(coeff);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// Safe 8-bytes-per-step kernel: split each source word into nibbles,
/// compose the eight products into a word, one wide XOR per step.
///
/// (A branchless carryless-doubling variant — `c·x = ⊕ x·2^i` over the
/// set bits of `c`, doubling all eight packed bytes per `u64` round —
/// was measured at ~0.5× this table composition on Cauchy coefficients,
/// which average four set bits; the tables won.)
fn mul_acc_portable64(dst: &mut [u8], src: &[u8], coeff: u8) {
    let t = nibble_tables();
    let lo = &t.lo[coeff as usize];
    let hi = &t.hi[coeff as usize];
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let sv = u64::from_le_bytes(sw.try_into().expect("8-byte chunk"));
        let mut prod = 0u64;
        // Fully unrolled by the compiler: `b` is a constant 0..8.
        for b in 0..8 {
            let x = (sv >> (8 * b)) as u8;
            let p = lo[(x & 0x0F) as usize] ^ hi[(x >> 4) as usize];
            prod |= (p as u64) << (8 * b);
        }
        let dv = u64::from_le_bytes(dw.try_into().expect("8-byte chunk")) ^ prod;
        dw.copy_from_slice(&dv.to_le_bytes());
    }
    for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= lo[(sb & 0x0F) as usize] ^ hi[(sb >> 4) as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `pshufb`-based kernels. The 16-entry nibble tables load directly
    //! into one vector register each; `pshufb` then performs 16 (or 32)
    //! parallel table lookups per instruction.

    use super::nibble_tables;
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires SSSE3.
    #[target_feature(enable = "ssse3")]
    pub(crate) unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], coeff: u8) {
        let t = nibble_tables();
        let lo = _mm_loadu_si128(t.lo[coeff as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi[coeff as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let words = dst.len() / 16;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        for i in 0..words {
            let s = _mm_loadu_si128(sp.add(16 * i).cast());
            let pl = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let ph = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            let d = _mm_loadu_si128(dp.add(16 * i).cast());
            _mm_storeu_si128(
                dp.add(16 * i).cast(),
                _mm_xor_si128(d, _mm_xor_si128(pl, ph)),
            );
        }
        let done = words * 16;
        super::mul_acc_portable64(&mut dst[done..], &src[done..], coeff);
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], coeff: u8) {
        let t = nibble_tables();
        // Same 16-byte table in both lanes: vpshufb looks up per lane.
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo[coeff as usize].as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi[coeff as usize].as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let words = dst.len() / 32;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        for i in 0..words {
            let s = _mm256_loadu_si256(sp.add(32 * i).cast());
            let pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
            let ph = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            let d = _mm256_loadu_si256(dp.add(32 * i).cast());
            _mm256_storeu_si256(
                dp.add(32 * i).cast(),
                _mm256_xor_si256(d, _mm256_xor_si256(pl, ph)),
            );
        }
        let done = words * 32;
        super::mul_acc_portable64(&mut dst[done..], &src[done..], coeff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn nibble_split_reconstructs_full_product() {
        let t = nibble_tables();
        for c in 0..=255u8 {
            for x in 0..=255u8 {
                let split =
                    t.lo[c as usize][(x & 0x0F) as usize] ^ t.hi[c as usize][(x >> 4) as usize];
                assert_eq!(split, gf256::mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn kernels_agree_with_reference() {
        for kernel in Kernel::available() {
            for len in [
                0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000,
            ] {
                for coeff in [0u8, 1, 2, 0x1d, 0x53, 0xFF] {
                    let src = pattern(len, 3);
                    let mut dst = pattern(len, 101);
                    let mut expect = dst.clone();
                    Kernel::Reference.mul_acc(&mut expect, &src, coeff);
                    kernel.mul_acc(&mut dst, &src, coeff);
                    assert_eq!(
                        dst,
                        expect,
                        "kernel={} len={len} coeff={coeff}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn xor_acc_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 40, 41] {
            let src = pattern(len, 7);
            let mut dst = pattern(len, 99);
            let mut expect = dst.clone();
            for (e, &s) in expect.iter_mut().zip(&src) {
                *e ^= s;
            }
            xor_acc(&mut dst, &src);
            assert_eq!(dst, expect, "len={len}");
        }
    }

    #[test]
    fn active_is_available() {
        assert!(active().is_available());
    }

    #[test]
    fn names_round_trip() {
        for k in Kernel::ALL {
            assert!(Kernel::ALL.iter().any(|o| o.name() == k.name()));
        }
    }

    #[test]
    fn unknown_gf_kernel_names_are_config_errors() {
        assert_eq!(requested(None).ok(), Some(None));
        for k in Kernel::ALL {
            let upper = k.name().to_uppercase();
            assert_eq!(requested(Some(&upper)).ok(), Some(Some(k)));
        }
        for bad in ["avx512", "", "portable"] {
            match requested(Some(bad)) {
                Err(HcftError::Config(msg)) => {
                    assert!(msg.contains("HCFT_GF_KERNEL"), "{msg}");
                    assert!(msg.contains(&format!("{bad:?}")), "{msg}");
                    assert!(msg.contains("reference, portable64, ssse3, avx2"), "{msg}");
                }
                other => panic!("{bad:?}: {other:?}"),
            }
        }
    }
}
