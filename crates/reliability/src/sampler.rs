//! The one node sampler: distinct node indices drawn exactly like
//! `rand::seq::index::sample`, without its per-draw allocation.

use rand::RngCore;

/// Draws sets of distinct node indices out of `0..nodes`.
///
/// Each draw consumes the RNG exactly like `rand::seq::index::sample`
/// (partial Fisher–Yates over a dense pool: one `u64` per index, index
/// `i` swapped with `i + next_u64() % (nodes - i)`) and yields the same
/// indices in the same order. The pool is a persistent identity
/// permutation: a draw undoes its own swaps afterwards instead of
/// allocating `0..nodes` again, and a one-node draw needs no swap at all,
/// because the identity pool maps the drawn value to itself.
///
/// It is the workspace's only node sampler: the campaign kernel draws
/// each event's failed nodes with it.
#[derive(Clone, Debug)]
pub struct NodeSampler {
    /// Identity permutation of `0..nodes` between draws.
    pool: Vec<u32>,
    /// Swap targets of the current draw, for the undo pass.
    swaps: Vec<u32>,
}

impl NodeSampler {
    /// A sampler over `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NodeSampler {
            pool: (0..nodes as u32).collect(),
            swaps: Vec::with_capacity(nodes),
        }
    }

    /// Append `amount` distinct node indices to `out`, in draw order.
    /// `amount` must not exceed the sampler's node count.
    #[inline]
    pub fn sample_into<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        amount: usize,
        out: &mut Vec<u32>,
    ) {
        let length = self.pool.len();
        debug_assert!(amount <= length);
        if amount == 1 {
            // The dominant event class: the pool is the identity, so the
            // one sampled index IS the drawn value.
            out.push((rng.next_u64() % length.max(1) as u64) as u32);
            return;
        }
        self.swaps.clear();
        for i in 0..amount {
            let j = i + (rng.next_u64() % (length - i).max(1) as u64) as usize;
            self.pool.swap(i, j);
            self.swaps.push(j as u32);
        }
        out.extend_from_slice(&self.pool[..amount]);
        // Undo in reverse: the pool is the identity permutation again.
        for i in (0..amount).rev() {
            self.pool.swap(i, self.swaps[i] as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::index::sample;
    use rand::SeedableRng;

    #[test]
    fn draws_match_rand_sample_and_restore_the_pool() {
        let mut sampler = NodeSampler::new(12);
        let mut out = Vec::new();
        for seed in 0..50u64 {
            for amount in [0usize, 1, 3, 12] {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                let want: Vec<u32> = sample(&mut a, 12, amount)
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                out.clear();
                sampler.sample_into(&mut b, amount, &mut out);
                assert_eq!(out, want, "seed {seed} amount {amount}");
                assert!(
                    sampler.pool.iter().enumerate().all(|(i, &v)| v == i as u32),
                    "pool not restored to identity"
                );
            }
        }
    }

    #[test]
    fn draws_append_in_rng_order() {
        let mut sampler = NodeSampler::new(9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = vec![99];
        sampler.sample_into(&mut rng, 4, &mut out);
        sampler.sample_into(&mut rng, 2, &mut out);
        let mut want_rng = StdRng::seed_from_u64(3);
        let mut want = vec![99u32];
        for amount in [4, 2] {
            want.extend(sample(&mut want_rng, 9, amount).iter().map(|i| i as u32));
        }
        assert_eq!(out, want);
    }
}
