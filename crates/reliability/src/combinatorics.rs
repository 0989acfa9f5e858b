//! Exact small-scale combinatorics used by the reliability model.

/// Binomial coefficient C(n, k) as f64 (exact for the magnitudes the
/// model needs; returns 0.0 when `k > n`).
pub(crate) fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_basics() {
        assert_eq!(choose(5, 0), 1.0);
        assert_eq!(choose(5, 5), 1.0);
        assert_eq!(choose(5, 2), 10.0);
        assert_eq!(choose(64, 1), 64.0);
        assert_eq!(choose(3, 4), 0.0);
        assert!((choose(64, 2) - 2016.0).abs() < 1e-9);
    }

    #[test]
    fn choose_is_symmetric() {
        for n in 0..20 {
            for k in 0..=n {
                assert!((choose(n, k) - choose(n, n - k)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn pascal_recurrence_holds() {
        for n in 1..30 {
            for k in 1..n {
                let lhs = choose(n, k);
                let rhs = choose(n - 1, k - 1) + choose(n - 1, k);
                assert!((lhs - rhs).abs() < 1e-6 * lhs.max(1.0));
            }
        }
    }
}
