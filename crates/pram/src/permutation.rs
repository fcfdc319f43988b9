//! Seeded random permutations — the random insertion orders themselves.
//!
//! A *randomized incremental algorithm* inserts its elements in a uniformly
//! random order (§2 of the paper). Both constructions here are seeded and
//! reproducible:
//!
//! * [`random_permutation`] — sequential Fisher–Yates: exactly uniform.
//! * [`random_permutation_par`] — parallel: assign each index a distinct
//!   pseudorandom 64-bit key and radix-sort by it. The key map is a fixed
//!   bijection of `seed ⊕ i`, so keys never collide and the permutation is
//!   a deterministic function of the seed (statistically uniform, which is
//!   all the paper's expectations need; the Fisher–Yates version is the
//!   default everywhere correctness-of-distribution matters).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hash::hash_u64;
use crate::radix::radix_sort_by_key;

/// Estimated nanoseconds per iteration of one parallel Knuth-shuffle
/// pass (two priority writes, two reads, or two resets).
const RESERVE_NS: u64 = 8;

/// A permutation of `0..n` with both directions materialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `order[k]` = element processed at iteration `k`.
    pub order: Vec<usize>,
    /// `rank[e]` = iteration at which element `e` is processed.
    pub rank: Vec<usize>,
}

impl Permutation {
    /// Build from an explicit order (validates it is a permutation).
    pub fn from_order(order: Vec<usize>) -> Self {
        let n = order.len();
        let mut rank = vec![usize::MAX; n];
        for (k, &e) in order.iter().enumerate() {
            assert!(e < n, "element {e} out of range {n}");
            assert!(rank[e] == usize::MAX, "duplicate element {e}");
            rank[e] = k;
        }
        Permutation { order, rank }
    }

    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        Permutation {
            order: (0..n).collect(),
            rank: (0..n).collect(),
        }
    }

    /// A uniformly random permutation (Fisher–Yates, seeded).
    pub fn uniform(n: usize, seed: u64) -> Self {
        Self::from_order(random_permutation(n, seed))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Sequential Fisher–Yates shuffle of `0..n`, seeded. Exactly uniform over
/// all `n!` orders (given a perfect RNG).
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Parallel permutation of `0..n`: sort indices by a per-index pseudorandom
/// key. Deterministic given `seed`; distinct keys by construction.
pub fn random_permutation_par(n: usize, seed: u64) -> Vec<usize> {
    let salt = hash_u64(seed ^ 0xABCD_EF01_2345_6789);
    let mut idx: Vec<usize> = (0..n).collect();
    radix_sort_by_key(&mut idx, |&i| hash_u64(salt ^ (i as u64)));
    idx
}

/// The sequential (forward) Knuth shuffle driven by an explicit swap-target
/// array: `for i in 0..n: swap(a[i], a[h[i]])` with `h[i] ∈ [i, n)`.
///
/// With `h` drawn uniformly this is exactly Fisher–Yates; taking `h` as an
/// argument makes the parallel version's *exact-equivalence* testable.
pub fn knuth_shuffle_sequential(h: &[usize]) -> Vec<usize> {
    let n = h.len();
    let mut a: Vec<usize> = (0..n).collect();
    for (i, &hi) in h.iter().enumerate() {
        debug_assert!((i..n).contains(&hi), "h[{i}] out of range");
        a.swap(i, hi);
    }
    a
}

/// The **parallel** Knuth shuffle via reservations — the algorithm of
/// Shun–Gu–Blelloch–Fineman–Gibbons (SODA 2015, reference \[66\] of the
/// paper), whose dependence-depth analysis is the direct ancestor of the
/// paper's framework.
///
/// Each round, every outstanding iteration `i` priority-writes its index
/// into the two array slots it needs (`i` and `h[i]`); an iteration
/// *commits* (performs its swap) when it holds the minimum reservation on
/// both. Committing in that order makes every swap see exactly the values
/// the sequential shuffle would — the output equals
/// [`knuth_shuffle_sequential`] *exactly* — and the number of rounds is the
/// iteration dependence depth, `O(log n)` whp.
///
/// Returns `(permutation, rounds)`.
pub fn knuth_shuffle_parallel(h: &[usize]) -> (Vec<usize>, usize) {
    use crate::priority::MinIndex;
    use rayon::prelude::*;

    let n = h.len();
    let a: Vec<std::sync::atomic::AtomicUsize> =
        (0..n).map(std::sync::atomic::AtomicUsize::new).collect();
    let board = MinIndex::new(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut rounds = 0usize;

    while !remaining.is_empty() {
        rounds += 1;
        // Reserve phase: priority-write the iteration index on both slots.
        remaining.par_iter().with_cost(RESERVE_NS).for_each(|&i| {
            debug_assert!((i..n).contains(&h[i]));
            board.write_min(i, i as u64);
            board.write_min(h[i], i as u64);
        });
        // Commit phase: winners of both slots swap. Committed iterations
        // own both their slots exclusively (anything else reserving them
        // has a larger index and lost), so the swaps are disjoint.
        let committed: Vec<usize> = remaining
            .par_iter()
            .with_cost(RESERVE_NS)
            .copied()
            .filter(|&i| board.get(i) == Some(i as u64) && board.get(h[i]) == Some(i as u64))
            .collect();
        committed.par_iter().with_cost(RESERVE_NS).for_each(|&i| {
            if i != h[i] {
                // Disjointness argument above makes this a plain exchange.
                let x = a[i].load(std::sync::atomic::Ordering::Relaxed);
                let y = a[h[i]].swap(x, std::sync::atomic::Ordering::Relaxed);
                a[i].store(y, std::sync::atomic::Ordering::Relaxed);
            }
        });
        // Clear this round's reservations (slots touched by any survivor
        // or committer), then drop the committed iterations.
        remaining.par_iter().with_cost(RESERVE_NS).for_each(|&i| {
            board.reset(i);
            board.reset(h[i]);
        });
        remaining = remaining
            .into_par_iter()
            .with_cost(RESERVE_NS)
            .filter(|&i| !(a_committed_contains(&committed, i)))
            .collect();
    }
    (a.into_iter().map(|x| x.into_inner()).collect(), rounds)
}

/// Membership in the (sorted, since filtered from sorted `remaining`)
/// committed list.
fn a_committed_contains(committed: &[usize], i: usize) -> bool {
    committed.binary_search(&i).is_ok()
}

/// Uniform swap targets `h[i] ∈ [i, n)` for the Knuth shuffle, seeded.
pub fn knuth_targets(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e57);
    (0..n).map(|i| rng.gen_range(i..n)).collect()
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
    fn parallel_is_permutation_and_seeded() {
        let a = random_permutation_par(50_000, 3);
        assert!(is_permutation(&a));
        assert_eq!(a, random_permutation_par(50_000, 3));
        assert_ne!(a, random_permutation_par(50_000, 4));
    }

    #[test]
    fn permutation_ranks_invert_order() {
        let p = Permutation::uniform(500, 11);
        for k in 0..500 {
            assert_eq!(p.rank[p.order[k]], k);
        }
    }

    #[test]
    fn identity_permutation() {
        let p = Permutation::identity(5);
        assert_eq!(p.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.rank, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "duplicate element")]
    fn from_order_rejects_duplicates() {
        Permutation::from_order(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_order_rejects_out_of_range() {
        Permutation::from_order(vec![0, 3]);
    }

    #[test]
    fn empty_and_tiny() {
        assert!(random_permutation(0, 1).is_empty());
        assert_eq!(random_permutation(1, 1), vec![0]);
        assert!(Permutation::uniform(0, 1).is_empty());
    }

    #[test]
    fn knuth_parallel_equals_sequential_exactly() {
        for seed in 0..6 {
            let h = knuth_targets(5000, seed);
            let seq = knuth_shuffle_sequential(&h);
            let (par, rounds) = knuth_shuffle_parallel(&h);
            assert_eq!(par, seq, "seed {seed}: shuffles diverge");
            assert!(rounds > 1, "nontrivial instances need several rounds");
        }
    }

    #[test]
    fn knuth_rounds_logarithmic() {
        let n = 1 << 15;
        let h = knuth_targets(n, 3);
        let (_, rounds) = knuth_shuffle_parallel(&h);
        // [66]: dependence depth O(log n) whp; generous factor.
        assert!(rounds < 8 * 15, "rounds {rounds} not O(log n)");
    }

    #[test]
    fn knuth_shuffle_is_permutation() {
        let h = knuth_targets(2000, 9);
        let (p, _) = knuth_shuffle_parallel(&h);
        assert!(is_permutation(&p));
    }

    #[test]
    fn knuth_identity_targets() {
        // h[i] == i for all i: nothing moves, one round.
        let h: Vec<usize> = (0..100).collect();
        let (p, rounds) = knuth_shuffle_parallel(&h);
        assert_eq!(p, (0..100).collect::<Vec<_>>());
        assert_eq!(rounds, 1);
    }

    #[test]
    fn knuth_worst_case_chain() {
        // h[i] = i + 1: iteration i needs slot i+1 which iteration i+1
        // also wants — but reservations by min index resolve a whole
        // prefix per round? No: i reserves {i, i+1}, so only i = 0 wins
        // round one... classic O(n)-depth adversarial chain stays correct.
        let n = 64;
        let mut h: Vec<usize> = (0..n).map(|i| (i + 1).min(n - 1)).collect();
        h[n - 1] = n - 1;
        let seq = knuth_shuffle_sequential(&h);
        let (par, _) = knuth_shuffle_parallel(&h);
        assert_eq!(par, seq);
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
