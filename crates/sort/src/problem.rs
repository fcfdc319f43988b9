//! The problem-level API: [`SortProblem`] (Algorithm 3, Type 1) and
//! [`BatchSortProblem`] (the §2.3 Type 3 batch variant), both solving
//! through the unified engine to `(SortOutput, RunReport)`.

use ri_core::engine::{ExecMode, Problem, RunConfig, RunReport, Runner};
use ri_pram::RoundLog;

use crate::batch::batch_bst_sort_impl;
use crate::parallel::parallel_bst_sort_impl;
use crate::sequential::sequential_bst_sort_impl;
use crate::tree::Bst;

/// The answer of a sort run (any variant): the BST — identical across
/// variants and modes by Theorem 3.2 — plus the sorted order and the
/// comparison count.
#[derive(Debug)]
pub struct SortOutput {
    /// The constructed search tree (node = iteration index).
    pub tree: Bst,
    /// Iteration indices in key-sorted order.
    pub sorted_indices: Vec<usize>,
    /// Total key comparisons.
    pub comparisons: u64,
    /// Lemma 2.5 instrumentation, filled only by the batch (Type 3)
    /// variant's parallel runs: `left_dep_histogram[l]` = number of
    /// (key, earlier-round) pairs with exactly `l` left dependences from
    /// that round. Empty for every other run.
    pub left_dep_histogram: Vec<u64>,
}

impl SortOutput {
    fn new(tree: Bst, sorted_indices: Vec<usize>, comparisons: u64) -> Self {
        SortOutput {
            tree,
            sorted_indices,
            comparisons,
            left_dep_histogram: Vec::new(),
        }
    }

    /// The classic insertion loop, shared by both problems' sequential
    /// mode (no round log: one summary round).
    fn sequential<T: Ord>(keys: &[T]) -> (Self, Option<RoundLog>) {
        let r = sequential_bst_sort_impl(keys);
        (
            SortOutput::new(r.tree, r.sorted_indices, r.comparisons),
            None,
        )
    }

    /// The keys in sorted order (resolving indices against the input).
    pub fn sorted<'a, T>(&self, keys: &'a [T]) -> Vec<&'a T> {
        self.sorted_indices.iter().map(|&i| &keys[i]).collect()
    }
}

/// Sorting by incremental BST insertion (§3 of the paper, Type 1).
///
/// `Parallel` mode runs Algorithm 3 (priority-write rounds, depth = the
/// iteration dependence depth); `Sequential` mode runs the classic
/// insertion loop. Both construct the identical tree.
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_sort::SortProblem;
///
/// let keys = ri_pram::random_permutation(512, 1);
/// let (out, report) = SortProblem::new(&keys).solve(&RunConfig::new());
/// assert_eq!(out.sorted_indices.len(), 512);
/// assert!(report.depth < 100); // O(log n) whp
/// ```
#[derive(Debug)]
pub struct SortProblem<'a, T> {
    keys: &'a [T],
}

impl<'a, T: Ord + Sync> SortProblem<'a, T> {
    /// A sort problem over `keys` (must be pairwise distinct).
    pub fn new(keys: &'a [T]) -> Self {
        SortProblem { keys }
    }
}

impl<T: Ord + Sync> Problem for SortProblem<'_, T> {
    type Output = SortOutput;

    fn solve(&self, cfg: &RunConfig) -> (SortOutput, RunReport) {
        Runner::new(cfg.clone()).solve("bst-sort", |cfg| {
            let mut report = RunReport::new("bst-sort");
            report.items = self.keys.len();
            let (out, log) = report.phase("solve", cfg.instrument, |_| match cfg.mode {
                ExecMode::Sequential => SortOutput::sequential(self.keys),
                ExecMode::Parallel | ExecMode::Relaxed { .. } => {
                    let r = parallel_bst_sort_impl(self.keys);
                    let out = SortOutput::new(r.tree, r.sorted_indices, r.comparisons);
                    (out, Some(r.log))
                }
            });
            report.stamp_rounds(log, out.comparisons);
            (out, report)
        })
    }
}

/// The Type 3 (batch doubling-round) execution of the same BST sort —
/// the paper's §2.3 worked example. `Sequential` mode falls back to the
/// classic insertion loop (the batch schedule with width-1 rounds *is*
/// the sequential algorithm).
#[derive(Debug)]
pub struct BatchSortProblem<'a, T> {
    keys: &'a [T],
}

impl<'a, T: Ord + Sync> BatchSortProblem<'a, T> {
    /// A batch-sort problem over `keys` (must be pairwise distinct).
    pub fn new(keys: &'a [T]) -> Self {
        BatchSortProblem { keys }
    }
}

impl<T: Ord + Sync> Problem for BatchSortProblem<'_, T> {
    type Output = SortOutput;

    fn solve(&self, cfg: &RunConfig) -> (SortOutput, RunReport) {
        Runner::new(cfg.clone()).solve("bst-sort-batch", |cfg| {
            let mut report = RunReport::new("bst-sort-batch");
            report.items = self.keys.len();
            let (out, log) = report.phase("solve", cfg.instrument, |_| match cfg.mode {
                ExecMode::Sequential => SortOutput::sequential(self.keys),
                ExecMode::Parallel | ExecMode::Relaxed { .. } => {
                    let r = batch_bst_sort_impl(self.keys);
                    let out = SortOutput {
                        left_dep_histogram: r.left_dep_histogram,
                        ..SortOutput::new(r.tree, r.sorted_indices, r.comparisons)
                    };
                    (out, Some(r.log))
                }
            });
            report.stamp_rounds(log, out.comparisons);
            (out, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pram::random_permutation;

    #[test]
    fn sequential_and_parallel_modes_build_identical_trees() {
        let keys = random_permutation(3000, 11);
        let problem = SortProblem::new(&keys);
        let (seq, seq_report) = problem.solve(&RunConfig::new().sequential());
        let (par, par_report) = problem.solve(&RunConfig::new().parallel());
        assert_eq!(seq.tree, par.tree, "Theorem 3.2");
        assert_eq!(seq.sorted_indices, par.sorted_indices);
        assert_eq!(seq.comparisons, par.comparisons);
        assert_eq!(seq_report.depth, 3000);
        assert!(par_report.depth < 200, "parallel depth is O(log n)");
    }

    #[test]
    fn batch_variant_agrees_with_direct() {
        let keys = random_permutation(2000, 5);
        let (a, report) = BatchSortProblem::new(&keys).solve(&RunConfig::new());
        let (b, _) = SortProblem::new(&keys).solve(&RunConfig::new());
        assert_eq!(a.tree, b.tree);
        assert_eq!(report.depth, report.rounds.rounds());
    }

    #[test]
    fn report_serializes() {
        let keys = random_permutation(256, 3);
        let (_, report) = SortProblem::new(&keys).solve(&RunConfig::new());
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.depth, report.depth);
        assert_eq!(back.algorithm, "bst-sort");
    }
}
