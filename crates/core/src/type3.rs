//! The Type 3 executor — Algorithm 2 of the paper (§2.3).
//!
//! Type 3 algorithms have **separating dependences** (Definition 2): running
//! iteration `b` first "separates" later iterations `a` and `c` whenever `b`
//! lies between them in `c`'s total order. It is *safe* to run iterations
//! concurrently — the result is still correct — but concurrency forgoes some
//! separations and therefore does extra (expected constant-factor) work.
//!
//! The executor (now in [`crate::engine`],
//! [`execute_type3`](crate::engine::execute_type3)) runs iterations in
//! doubling rounds `[2^{i-1}, 2^i)`. Every iteration of a round executes
//! **against the frozen state of the previous round** ("as if at iteration
//! 2^{i-1}"), producing a batch result; a combine step then reconciles the
//! batch, giving earlier iterations priority, so that the state after the
//! round matches the sequential state after iteration `2^i − 1` (or a
//! refinement of it, for the eager SCC variant). Theorem 2.6: `O(log n)`
//! rounds, every iteration receives `O(log n)` incoming dependences whp.
//!
//! This module keeps the [`Type3Algorithm`] contract and the
//! [`prefix_rounds`] schedule helper; runs execute through the engine
//! ([`execute_type3`](crate::engine::execute_type3) or an algorithm
//! crate's `*Problem::solve`).

/// A randomized incremental algorithm with separating dependences.
pub trait Type3Algorithm: Sync {
    /// Per-iteration batch output (e.g. the visit set of a graph search).
    type Output: Send;

    /// Number of iterations.
    fn len(&self) -> usize;

    /// Convenience emptiness test.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run iteration `k` against the frozen state of the previous round.
    /// Called concurrently for all iterations of a round (`&self`).
    fn run_iteration(&self, k: usize) -> Self::Output;

    /// Combine one round's outputs (iterations `lo..lo+outputs.len()`, in
    /// iteration order; earlier iterations have priority). Returns the work
    /// performed this round (for the logs).
    ///
    /// The buffer is borrowed so the executor can reuse its allocation
    /// across rounds: implementations typically `drain(..)` it (reading
    /// in place is equally fine — the executor clears it before refilling).
    fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64;
}

/// The doubling-round schedule of Algorithm 2: `[0,1), [1,2), [2,4), ...`,
/// truncated to `n`.
pub fn prefix_rounds(n: usize) -> Vec<(usize, usize)> {
    let mut rounds = Vec::new();
    let mut lo = 0usize;
    let mut width = 1usize;
    while lo < n {
        let hi = (lo + width).min(n);
        rounds.push((lo, hi));
        // After the seed round [0,1), widths double: 1, 2, 4, ...
        width = if lo == 0 { 1 } else { width * 2 };
        lo = hi;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_type3, RunConfig};

    #[test]
    fn schedule_shape() {
        assert_eq!(prefix_rounds(0), vec![]);
        assert_eq!(prefix_rounds(1), vec![(0, 1)]);
        assert_eq!(prefix_rounds(2), vec![(0, 1), (1, 2)]);
        assert_eq!(
            prefix_rounds(10),
            vec![(0, 1), (1, 2), (2, 4), (4, 8), (8, 10)]
        );
        // Rounds tile 0..n exactly.
        let r = prefix_rounds(1000);
        assert_eq!(r[0].0, 0);
        assert_eq!(r.last().unwrap().1, 1000);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn round_count_logarithmic() {
        assert_eq!(prefix_rounds(1 << 10).len(), 11);
        assert_eq!(prefix_rounds((1 << 10) + 1).len(), 12);
    }

    /// Toy Type 3 problem: computing per-element "closest earlier value"
    /// (a stand-in for the LE-list distance update): each iteration reports
    /// its value; combine keeps a running minimum with earlier-first
    /// priority. Since min is order-insensitive, parallel == sequential — a
    /// pure executor plumbing test.
    struct MinSoFar {
        values: Vec<u64>,
        prefix_min: Vec<u64>, // prefix_min[k] = min(values[..=k])
        current: u64,
    }

    impl MinSoFar {
        fn new(values: Vec<u64>) -> Self {
            let n = values.len();
            MinSoFar {
                values,
                prefix_min: vec![0; n],
                current: u64::MAX,
            }
        }
    }

    impl Type3Algorithm for MinSoFar {
        type Output = u64;
        fn len(&self) -> usize {
            self.values.len()
        }
        fn run_iteration(&self, k: usize) -> u64 {
            self.values[k]
        }
        fn combine(&mut self, lo: usize, outputs: &mut Vec<u64>) -> u64 {
            let work = outputs.len() as u64;
            for (off, v) in outputs.drain(..).enumerate() {
                self.current = self.current.min(v);
                self.prefix_min[lo + off] = self.current;
            }
            work
        }
    }

    #[test]
    fn toy_matches_sequential_prefix_min() {
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1000).collect();
        let mut algo = MinSoFar::new(values.clone());
        let report = execute_type3(&mut algo, &RunConfig::new().parallel());
        let mut cur = u64::MAX;
        for (k, &v) in values.iter().enumerate() {
            cur = cur.min(v);
            assert_eq!(algo.prefix_min[k], cur, "prefix min at {k}");
        }
        assert_eq!(report.rounds.rounds(), prefix_rounds(1000).len());
        assert_eq!(report.depth, prefix_rounds(1000).len());
        let items: usize = report.rounds.entries().iter().map(|&(i, _)| i).sum();
        assert_eq!(items, 1000);
    }

    #[test]
    fn sequential_mode_equals_parallel_output() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 104729) % 500).collect();
        let mut par = MinSoFar::new(values.clone());
        execute_type3(&mut par, &RunConfig::new().parallel());
        let mut seq = MinSoFar::new(values);
        let report = execute_type3(&mut seq, &RunConfig::new().sequential());
        assert_eq!(par.prefix_min, seq.prefix_min);
        assert_eq!(report.depth, 500, "sequential depth is the iteration count");
    }
}
