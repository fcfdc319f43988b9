//! The Type 2 executor — Algorithm 1 of the paper (§2.2).
//!
//! Type 2 algorithms distinguish **special** iterations (which depend on
//! *all* earlier iterations and do `O(i)` work — a violated LP constraint, a
//! grid rebuild, a disk recomputation) from **regular** iterations (which
//! depend only on the closest earlier special iteration and do `O(1)` work).
//! The probability that iteration `j` is special is at most `c/j`, so there
//! are `O(log n)` specials whp (Theorem 2.2).
//!
//! The executor (now in [`crate::engine`],
//! [`execute_type2`](crate::engine::execute_type2)) processes iterations in
//! geometrically growing prefixes. For each prefix it repeatedly: checks all
//! outstanding iterations in parallel, finds the *earliest* special one (a
//! min-reduction), runs the regular iterations before it (their dependences
//! are satisfied), then runs that special iteration. The expected number of
//! sub-rounds per prefix is O(1).
//!
//! One deliberate deviation from the paper's pseudocode: after running
//! special iteration `l` we advance `j ← l + 1` rather than `j ← l`, so
//! every iteration executes exactly once. (With `j ← l` the pseudocode
//! re-examines `l`, which is then no longer special and would be re-run as a
//! regular iteration — harmless for LP where regular iterations are no-ops,
//! but a double-insert for the closest-pair grid.) The paper's upper bound
//! on the prefix loop (`2^{i-1}` with `i ≤ log₂ n`) is also extended to
//! cover all `n` iterations.
//!
//! This module keeps the [`Type2Algorithm`] contract; runs execute
//! through the engine ([`execute_type2`](crate::engine::execute_type2) or
//! an algorithm crate's `*Problem::solve`) and record into the unified
//! [`RunReport`](crate::engine::RunReport).

/// A randomized incremental algorithm with special/regular structure.
///
/// Executor guarantees when calling `is_special(k)`:
/// * all iterations `< j` (the sub-round frontier) have fully executed, and
/// * `begin_prefix(lo, hi)` has been called for the prefix containing `k`
///   (bulk-visibility hook: e.g. the closest-pair grid inserts the whole
///   prefix up front so checks can see in-prefix earlier points).
pub trait Type2Algorithm: Sync {
    /// Number of iterations.
    fn len(&self) -> usize;

    /// Convenience emptiness test.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Would iteration `k` be special at this point of the computation?
    /// Called concurrently; must be read-only.
    fn is_special(&self, k: usize) -> bool;

    /// Estimated nanoseconds per `is_special` check: the executor's
    /// per-item cost for the go-parallel rule ([`crate::engine::grain`]).
    fn item_ns(&self) -> u64 {
        crate::engine::grain::DEFAULT_ITEM_NS
    }

    /// Run a regular (O(1)) iteration.
    fn run_regular(&mut self, k: usize);

    /// Run a special iteration — may inspect all earlier iterations
    /// (`O(k)` work, internally parallel where the algorithm supports it).
    fn run_special(&mut self, k: usize);

    /// Prefix hook (see trait docs). Default: no-op.
    fn begin_prefix(&mut self, lo: usize, hi: usize) {
        let _ = (lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_type2, RunConfig, RunReport};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn run_par<A: Type2Algorithm>(algo: &mut A) -> RunReport {
        execute_type2(algo, &RunConfig::new().parallel())
    }

    fn run_seq<A: Type2Algorithm>(algo: &mut A) -> RunReport {
        execute_type2(algo, &RunConfig::new().sequential())
    }

    /// Toy Type 2 problem: maintain the running maximum of a sequence.
    /// Iteration k is special iff `values[k]` exceeds the current max —
    /// which for a random order happens with probability 1/k (the classic
    /// "record" process), exactly the paper's structure with c = 1.
    struct RunningMax {
        values: Vec<u64>,
        current: AtomicU64,
        executed: Vec<bool>,
    }

    impl RunningMax {
        fn new(values: Vec<u64>) -> Self {
            let n = values.len();
            RunningMax {
                values,
                current: AtomicU64::new(0),
                executed: vec![false; n],
            }
        }
    }

    impl Type2Algorithm for RunningMax {
        fn len(&self) -> usize {
            self.values.len()
        }
        fn is_special(&self, k: usize) -> bool {
            self.values[k] > self.current.load(Ordering::Relaxed)
        }
        fn run_regular(&mut self, k: usize) {
            assert!(!self.executed[k], "iteration {k} ran twice");
            self.executed[k] = true;
        }
        fn run_special(&mut self, k: usize) {
            assert!(!self.executed[k], "iteration {k} ran twice");
            self.executed[k] = true;
            self.current.store(self.values[k], Ordering::Relaxed);
        }
    }

    #[test]
    fn parallel_matches_sequential_specials() {
        let values: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2654435761) % 4096)
            .collect();
        let mut seq = RunningMax::new(values.clone());
        let seq_report = run_seq(&mut seq);
        let mut par = RunningMax::new(values);
        let par_report = run_par(&mut par);
        assert_eq!(seq_report.specials, par_report.specials);
        assert_eq!(
            seq.current.load(Ordering::Relaxed),
            par.current.load(Ordering::Relaxed)
        );
        assert!(par.executed.iter().all(|&b| b), "every iteration runs");
    }

    #[test]
    fn increasing_sequence_all_special() {
        let mut algo = RunningMax::new((1..=64).collect());
        let report = run_par(&mut algo);
        assert_eq!(report.specials.len(), 64);
    }

    #[test]
    fn decreasing_sequence_one_special() {
        let mut algo = RunningMax::new((1..=64).rev().collect());
        let report = run_par(&mut algo);
        assert_eq!(report.specials, vec![0]);
    }

    #[test]
    fn record_count_is_logarithmic_on_random_orders() {
        // E[#records] = H_n ≈ ln n; over seeds the average must be close.
        let n = 4096;
        let mut total = 0usize;
        let seeds = 20;
        for seed in 0..seeds {
            let order = ri_pram::random_permutation(n, seed);
            let values: Vec<u64> = order.iter().map(|&x| x as u64 + 1).collect();
            let mut algo = RunningMax::new(values);
            total += run_par(&mut algo).specials.len();
        }
        let avg = total as f64 / seeds as f64;
        let hn = crate::theory::harmonic(n);
        assert!(
            (avg - hn).abs() < 0.5 * hn,
            "avg specials {avg} far from H_n {hn}"
        );
    }

    #[test]
    fn sub_rounds_bounded() {
        // #sub-rounds per prefix ≤ #specials in prefix + 1.
        let order = ri_pram::random_permutation(1 << 12, 7);
        let values: Vec<u64> = order.iter().map(|&x| x as u64 + 1).collect();
        let mut algo = RunningMax::new(values);
        let report = run_par(&mut algo);
        assert!(report.total_sub_rounds() <= report.specials.len() + report.sub_rounds.len());
        assert_eq!(report.depth, report.total_sub_rounds());
    }

    #[test]
    fn empty_input() {
        let mut algo = RunningMax::new(vec![]);
        let report = run_par(&mut algo);
        assert!(report.specials.is_empty());
        assert!(report.sub_rounds.is_empty());
    }
}
