//! The problem-level API: [`SccProblem`], solving through the unified
//! engine to `(SccOutput, RunReport)`.

use ri_core::engine::{ExecMode, Problem, RunConfig, RunReport, Runner};
use ri_graph::CsrGraph;
use ri_pram::random_permutation;

use crate::incremental::{scc_parallel_impl, scc_sequential_impl};

/// The answer of an SCC run: component labels (ids are carving-center
/// vertex ids; [`crate::canonical_labels`] canonicalises them) plus the
/// per-vertex visit counts Theorem 6.4 bounds.
#[derive(Debug)]
pub struct SccOutput {
    /// `comp[v]` = id of `v`'s SCC.
    pub comp: Vec<u32>,
    /// Per-vertex visit counts (`max` is `O(log n)` whp).
    pub visits_per_vertex: Vec<u32>,
    /// Number of (non-skipped) reachability query pairs issued.
    pub queries: u64,
}

impl SccOutput {
    /// Largest per-vertex visit count (the Theorem 6.4 quantity).
    pub fn max_visits_per_vertex(&self) -> u32 {
        self.visits_per_vertex.iter().copied().max().unwrap_or(0)
    }

    /// Number of distinct strongly connected components.
    pub fn num_components(&self) -> usize {
        let mut labels = self.comp.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

/// Incremental strongly connected components (§6.2 of the paper, Type 3;
/// the eager-combine variant).
///
/// The processing order is drawn from the config's seed unless fixed with
/// [`with_order`](SccProblem::with_order).
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_scc::{canonical_labels, tarjan_scc, SccProblem};
///
/// let g = ri_graph::generators::gnm(300, 900, 1, false);
/// let (out, _report) = SccProblem::new(&g).solve(&RunConfig::new().seed(2));
/// assert_eq!(
///     canonical_labels(&out.comp),
///     canonical_labels(&tarjan_scc(&g)),
/// );
/// ```
#[derive(Debug)]
pub struct SccProblem<'a> {
    g: &'a CsrGraph,
    order: Option<Vec<usize>>,
}

impl<'a> SccProblem<'a> {
    /// An SCC problem over `g`; the processing order is drawn from the
    /// config seed at solve time.
    pub fn new(g: &'a CsrGraph) -> Self {
        SccProblem { g, order: None }
    }

    /// Fix the processing order explicitly (must cover every vertex).
    pub fn with_order(mut self, order: Vec<usize>) -> Self {
        self.order = Some(order);
        self
    }
}

impl Problem for SccProblem<'_> {
    type Output = SccOutput;

    fn solve(&self, cfg: &RunConfig) -> (SccOutput, RunReport) {
        Runner::new(cfg.clone()).solve("scc", |cfg| {
            let drawn;
            let order: &[usize] = match &self.order {
                Some(order) => order,
                None => {
                    drawn = random_permutation(self.g.num_vertices(), cfg.seed);
                    &drawn
                }
            };
            let mut report = RunReport::new("scc");
            report.items = order.len();
            let result = report.phase("solve", cfg.instrument, |_| match cfg.mode {
                ExecMode::Sequential => scc_sequential_impl(self.g, order),
                // Parallel and relaxed share the Type 3 executor; the mode
                // in `cfg` picks the round schedule (relaxed is native
                // here — the frozen-state rounds make any within-round
                // order equivalent).
                ExecMode::Parallel | ExecMode::Relaxed { .. } => {
                    scc_parallel_impl(self.g, order, cfg)
                }
            });
            report.rank_inversions = result.stats.rank_inversions;
            let work = result.stats.visits + result.stats.relaxations;
            report.stamp_rounds(result.stats.rounds, work);
            report.checks = work;
            let out = SccOutput {
                comp: result.comp,
                visits_per_vertex: result.stats.visits_per_vertex,
                queries: result.stats.queries,
            };
            (out, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonical_labels, tarjan_scc};

    #[test]
    fn modes_agree_with_tarjan() {
        let g = ri_graph::generators::gnm(500, 2000, 6, false);
        let problem = SccProblem::new(&g);
        let cfg = RunConfig::new().seed(11);
        let (seq, _) = problem.solve(&cfg.clone().sequential());
        let (par, report) = problem.solve(&cfg.parallel());
        let want = canonical_labels(&tarjan_scc(&g));
        assert_eq!(canonical_labels(&seq.comp), want);
        assert_eq!(canonical_labels(&par.comp), want);
        assert!(report.depth <= 10, "O(log n) doubling rounds");
    }
}
