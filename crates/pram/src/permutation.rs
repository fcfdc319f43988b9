//! Seeded random permutations — the random insertion orders themselves.
//!
//! A *randomized incremental algorithm* inserts its elements in a uniformly
//! random order (§2 of the paper). [`random_permutation`] draws that order
//! by a sequential, seeded Fisher–Yates shuffle, which is exactly uniform;
//! [`shuffle`] applies the same swaps to any slice in place.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sequential Fisher–Yates shuffle of `0..n`, seeded. Exactly uniform over
/// all `n!` orders (given a perfect RNG).
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, seed);
    order
}

/// Seeded Fisher–Yates shuffle of `v` in place. It makes the swaps
/// [`random_permutation`] makes on `0..n`, so `v` ends as its old
/// contents gathered by `random_permutation(v.len(), seed)`, without the
/// index vector or the second copy.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(v: &[usize]) -> bool {
        let mut seen = vec![false; v.len()];
        v.iter().all(|&x| {
            if x < seen.len() && !seen[x] {
                seen[x] = true;
                true
            } else {
                false
            }
        })
    }

    #[test]
    fn fisher_yates_is_permutation_and_seeded() {
        let a = random_permutation(1000, 7);
        let b = random_permutation(1000, 7);
        let c = random_permutation(1000, 8);
        assert!(is_permutation(&a));
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn shuffle_equals_gathering_by_random_permutation() {
        for n in [0, 1, 2, 1000] {
            for seed in [0, 1, 7, 0xbead, u64::MAX] {
                let items: Vec<String> = (0..n).map(|i| format!("item {i}")).collect();
                let gathered: Vec<String> = random_permutation(n, seed)
                    .iter()
                    .map(|&i| items[i].clone())
                    .collect();
                let mut shuffled = items;
                shuffle(&mut shuffled, seed);
                assert_eq!(shuffled, gathered, "n {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn empty_and_tiny() {
        assert!(random_permutation(0, 1).is_empty());
        assert_eq!(random_permutation(1, 1), vec![0]);
    }

    #[test]
    fn fisher_yates_first_position_roughly_uniform() {
        // Statistical smoke test: over many seeds, order[0] spreads across
        // all n positions.
        let n = 10;
        let mut counts = vec![0usize; n];
        for seed in 0..2000 {
            counts[random_permutation(n, seed)[0]] += 1;
        }
        for &c in &counts {
            assert!((100..400).contains(&c), "skew: {counts:?}");
        }
    }
}
