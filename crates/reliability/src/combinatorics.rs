//! Exact binomial coefficients for the reliability model's set counts.

/// C(n, k) as an exact integer, or `None` when it passes `u128::MAX`
/// (0 when `k > n`).
pub(crate) fn checked_choose(n: usize, k: usize) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc = 1u128;
    for i in 0..k as u128 {
        // acc = C(n, i), and C(n, i + 1) = acc · (n − i) / (i + 1). Divide
        // the gcd out of `acc` first: what is left of `i + 1` then divides
        // `n − i`, so no intermediate passes the result.
        let g = gcd(acc, i + 1);
        acc = (acc / g).checked_mul((n as u128 - i) / ((i + 1) / g))?;
    }
    Some(acc)
}

/// C(n, k) as an exact integer. Panics when it passes `u128::MAX`;
/// `ReliabilityModel::new` rules that out for every count it makes.
pub(crate) fn choose(n: usize, k: usize) -> u128 {
    checked_choose(n, k).unwrap_or_else(|| panic!("C({n}, {k}) overflows u128"))
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_basics() {
        assert_eq!(choose(5, 0), 1);
        assert_eq!(choose(5, 5), 1);
        assert_eq!(choose(5, 2), 10);
        assert_eq!(choose(64, 1), 64);
        assert_eq!(choose(3, 4), 0);
        assert_eq!(choose(64, 2), 2016);
        assert_eq!(choose(64, 12), 3_284_214_703_056);
    }

    #[test]
    fn pascal_recurrence_holds() {
        for n in 1..70 {
            for k in 1..n {
                assert_eq!(choose(n, k), choose(n - 1, k - 1) + choose(n - 1, k));
                assert_eq!(choose(n, k), choose(n, n - k));
            }
        }
    }

    #[test]
    fn u128_holds_c_n_12_up_to_8602_nodes() {
        let c = choose(8602, 12);
        assert_eq!(c, choose(8601, 11) + choose(8601, 12));
        assert_eq!(checked_choose(8603, 12), None);
    }
}
