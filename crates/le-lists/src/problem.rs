//! The problem-level API: [`LeListsProblem`], solving through the unified
//! engine to `(LeListsOutput, RunReport)`.

use ri_core::engine::{ExecMode, Problem, RunConfig, RunReport, Runner};
use ri_graph::CsrGraph;
use ri_pram::random_permutation;

use crate::lists::{le_lists_parallel_impl, le_lists_sequential_impl};

/// The answer of an LE-lists run: `lists[u]` = entries `(source, distance)`
/// in insertion order (increasing source priority, strictly decreasing
/// distance). Identical between modes.
#[derive(Debug)]
pub struct LeListsOutput {
    /// The least-element lists.
    pub lists: Vec<Vec<(u32, f64)>>,
    /// Entries discarded by the parallel combine step (the Type 3 "extra
    /// work"; 0 in sequential mode).
    pub redundant_entries: u64,
    /// Settled vertices across all searches (the visit work of §6.1;
    /// mode-dependent — the parallel/sequential ratio is Theorem 6.2's
    /// constant-factor overhead).
    pub visits: u64,
    /// Scanned edges across all searches (mode-dependent, like `visits`).
    pub relaxations: u64,
}

impl LeListsOutput {
    /// Longest list (Cohen: `O(log n)` whp).
    pub fn max_list_len(&self) -> usize {
        self.lists.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Total entries over all lists (`≈ n·H_n` in expectation).
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

/// Cohen's least-element lists (§6.1 of the paper, Type 3).
///
/// The priority order is drawn from the config's seed unless fixed with
/// [`with_order`](LeListsProblem::with_order).
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_le_lists::LeListsProblem;
///
/// let g = ri_graph::generators::gnm(300, 900, 1, true);
/// let (out, report) = LeListsProblem::new(&g).solve(&RunConfig::new().seed(5));
/// assert_eq!(out.lists.len(), 300);
/// assert!(report.depth <= 10); // ⌈log₂ 300⌉ + 1 doubling rounds
/// ```
#[derive(Debug)]
pub struct LeListsProblem<'a> {
    g: &'a CsrGraph,
    order: Option<Vec<usize>>,
}

impl<'a> LeListsProblem<'a> {
    /// An LE-lists problem over `g`; the priority order is drawn from the
    /// config seed at solve time.
    pub fn new(g: &'a CsrGraph) -> Self {
        LeListsProblem { g, order: None }
    }

    /// Fix the priority order explicitly (must cover every vertex).
    pub fn with_order(mut self, order: Vec<usize>) -> Self {
        self.order = Some(order);
        self
    }
}

impl Problem for LeListsProblem<'_> {
    type Output = LeListsOutput;

    fn solve(&self, cfg: &RunConfig) -> (LeListsOutput, RunReport) {
        Runner::new(cfg.clone()).solve("le-lists", |cfg| {
            let drawn;
            let order: &[usize] = match &self.order {
                Some(order) => order,
                None => {
                    drawn = random_permutation(self.g.num_vertices(), cfg.seed);
                    &drawn
                }
            };
            let mut report = RunReport::new("le-lists");
            report.items = order.len();
            let result = report.phase("solve", cfg.instrument, |_| match cfg.mode {
                ExecMode::Sequential => le_lists_sequential_impl(self.g, order),
                ExecMode::Parallel | ExecMode::Relaxed { .. } => {
                    le_lists_parallel_impl(self.g, order)
                }
            });
            let work = result.stats.visits + result.stats.relaxations;
            report.stamp_rounds(result.stats.rounds, work);
            report.checks = work;
            let out = LeListsOutput {
                lists: result.lists,
                redundant_entries: result.stats.redundant_entries,
                visits: result.stats.visits,
                relaxations: result.stats.relaxations,
            };
            (out, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_seed_controls_order() {
        let g = ri_graph::generators::gnm_weighted(400, 1600, 7, true);
        let problem = LeListsProblem::new(&g);
        let cfg = RunConfig::new().seed(3);
        let (seq, _) = problem.solve(&cfg.clone().sequential());
        let (par, report) = problem.solve(&cfg.parallel());
        assert_eq!(seq.lists, par.lists, "Type 3 combine reproduces sequential");
        assert!(report.depth <= 10);

        let (other, _) = problem.solve(&RunConfig::new().seed(4));
        assert_ne!(par.lists, other.lists, "different seed, different order");
    }

    #[test]
    fn explicit_order_wins_over_seed() {
        let g = ri_graph::generators::gnm_weighted(100, 400, 2, true);
        let order: Vec<usize> = (0..100).collect();
        let a = LeListsProblem::new(&g)
            .with_order(order.clone())
            .solve(&RunConfig::new().seed(1))
            .0;
        let b = LeListsProblem::new(&g)
            .with_order(order)
            .solve(&RunConfig::new().seed(99))
            .0;
        assert_eq!(a.lists, b.lists);
    }
}
