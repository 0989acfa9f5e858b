//! GF(2⁸) arithmetic.
//!
//! Field elements are bytes; addition is XOR; multiplication is modulo
//! the primitive polynomial `x⁸ + x⁴ + x³ + x² + 1` (0x11d), the same
//! choice as classic Reed–Solomon storage systems. A doubled exponent
//! table makes `mul` branch-free, and a full 64 KiB multiplication table
//! serves the hot encode loops.

use std::sync::OnceLock;

/// Primitive polynomial for the field (with the x⁸ term).
pub(crate) const POLY: u16 = 0x11d;

struct Tables {
    /// exp[i] = generator^i, doubled to 512 entries so `exp[a+b]` needs no
    /// modular reduction.
    exp: [u8; 512],
    /// log[x] = discrete log of x (log\[0\] unused).
    log: [u16; 256],
    /// Full product table `mul[a][b]`.
    mul: Vec<[u8; 256]>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().take(255).enumerate() {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Double the table: exp[255 + i] = exp[i] (and two wrap bytes).
        let (head, tail) = exp.split_at_mut(255);
        tail[..255].copy_from_slice(head);
        tail[255..].copy_from_slice(&head[..2]);
        let mut mul = vec![[0u8; 256]; 256];
        for (a, row) in mul.iter_mut().enumerate() {
            if a == 0 {
                continue;
            }
            for (b, cell) in row.iter_mut().enumerate() {
                if b != 0 {
                    *cell = exp[(log[a] + log[b]) as usize];
                }
            }
        }
        Tables { exp, log, mul }
    })
}

/// Field multiplication.
#[inline]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    tables().mul[a as usize][b as usize]
}

/// The 256-entry row of products `a·x` — the hot-loop lookup used by the
/// shard encoder.
#[inline]
pub(crate) fn mul_row(a: u8) -> &'static [u8; 256] {
    &tables().mul[a as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on zero, which has no inverse.
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    let t = tables();
    t.exp[(255 - t.log[a as usize]) as usize]
}

/// XOR-accumulate `coeff · src` into `dst` (the SPMV kernel of encoding).
///
/// Dispatches to the fastest [`crate::kernel::Kernel`] detected for this
/// CPU (SSSE3/AVX2 `pshufb` when present, a `u64`-wide nibble-table path
/// otherwise). Override with `HCFT_GF_KERNEL`.
#[inline]
pub fn mul_acc(dst: &mut [u8], src: &[u8], coeff: u8) {
    crate::kernel::active().mul_acc(dst, src, coeff);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generator_has_full_order() {
        // Powers of the generator must enumerate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut v = 1u8;
        for _ in 0..255 {
            assert!(!seen[v as usize], "generator order < 255");
            seen[v as usize] = true;
            v = mul(v, 2);
        }
        assert!(!seen[0]);
    }

    #[test]
    fn known_products() {
        // 2·128 = 256 ≡ 0x11d ⊕ 0x100 = 0x1d under the 0x11d polynomial.
        assert_eq!(mul(2, 128), 0x1d);
        assert_eq!(mul(1, 0xAB), 0xAB);
        assert_eq!(mul(0, 0xAB), 0);
        assert_eq!(mul(inv(0x53), 0x53), 1);
    }

    #[test]
    fn mul_acc_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0xAAu8; 256];
        let mut expect = dst.clone();
        mul_acc(&mut dst, &src, 0x37);
        for (e, &s) in expect.iter_mut().zip(&src) {
            *e ^= mul(0x37, s);
        }
        assert_eq!(dst, expect);
    }

    #[test]
    fn mul_acc_identity_and_zero() {
        let src = vec![7u8, 9, 11];
        let mut dst = vec![1u8, 2, 3];
        mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, vec![1, 2, 3]);
        mul_acc(&mut dst, &src, 1);
        assert_eq!(dst, vec![6, 11, 8]);
    }

    proptest! {
        #[test]
        fn multiplication_commutes(a: u8, b: u8) {
            prop_assert_eq!(mul(a, b), mul(b, a));
        }

        #[test]
        fn multiplication_associates(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        #[test]
        fn distributive_law(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
        }

        #[test]
        fn inverse_cancels(a in 1u8..=255) {
            prop_assert_eq!(mul(a, inv(a)), 1);
        }
    }
}
