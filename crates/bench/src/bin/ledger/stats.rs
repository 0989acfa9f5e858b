//! Sample statistics and the seeded generators behind the workload
//! inputs.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The percentiles a tail may be reported at, ascending, in hundredths
/// of a percent (integers, so "ten samples beyond" is exact).
const TAIL_BASIS_POINTS: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// The highest percentile that still has at least ten samples beyond
/// it, with its value: `(percentile, value)`. `None` below 20 samples,
/// where not even the median has ten samples above it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_BASIS_POINTS
        .iter()
        .rev()
        .find(|&&bp| n * (10_000 - bp) / 10_000 >= 10)
        .map(|&bp| (bp as f64 / 100.0, quantile(&sorted, bp as f64 / 10_000.0)))
}

/// SplitMix64: the one seeded generator every workload input comes
/// from. Small, stateless to construct, and independent of the `rand`
/// stand-in the program under test uses.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_f64() * n as f64) as u64
    }
}

/// One pass over ranks `0..keys` in which rank `k` appears in
/// proportion to `1/(k+1)` (Zipf with exponent 1, every rank at least
/// once, about `len` entries in all), in an order shuffled by `seed`.
///
/// The multiset is the same for every seed; only the order is drawn.
pub fn zipf_pass(seed: u64, keys: usize, len: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=keys).map(|k| 1.0 / k as f64).sum();
    let mut pass: Vec<usize> = (0..keys)
        .flat_map(|k| {
            let share = len as f64 / (k + 1) as f64 / harmonic;
            std::iter::repeat_n(k, (share.round() as usize).max(1))
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..pass.len()).rev() {
        pass.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: only the median has ten above it.
        assert_eq!(tail(&ramp(20)).unwrap().0, 50.0);
        // 100 samples: p90 leaves exactly ten beyond; p95 only five.
        assert_eq!(tail(&ramp(100)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(199)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(200)).unwrap().0, 95.0);
        assert_eq!(tail(&ramp(1_000)).unwrap().0, 99.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().0, 99.9);
        let (p, v) = tail(&ramp(100_000)).unwrap();
        assert_eq!(p, 99.99);
        assert!((99_988.0..=99_991.0).contains(&v), "{v}");
    }

    #[test]
    fn zipf_passes_share_a_multiset_and_differ_in_order() {
        let a = zipf_pass(7, 12, 24);
        assert_eq!(a, zipf_pass(7, 12, 24), "same seed, same list");
        let b = zipf_pass(8, 12, 24);
        assert_ne!(a, b, "another seed, another order");
        let counts = |list: &[usize]| {
            let mut c = vec![0usize; 12];
            list.iter().for_each(|&k| c[k] += 1);
            c
        };
        assert_eq!(counts(&a), counts(&b), "every seed asks for the same work");
        assert_eq!(counts(&a), [8, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut c = SplitMix64::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            assert!(a.below(16) < 16);
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
