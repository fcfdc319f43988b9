//! The problem-level API: [`LpProblem`] (2-D) and [`LpProblemD`] (d-D),
//! solving through the unified engine to `(LpOutcome, RunReport)`.

use ri_core::engine::{Problem, RunConfig, RunReport, Runner};

use crate::highdim::{run_with_d, LpInstanceD, LpOutcomeD};
use crate::seidel::{run_with, LpInstance, LpOutcome};

/// Seidel's randomized incremental 2-D linear programming (§5.1 of the
/// paper, Type 2). Constraints are processed in the order given
/// (pre-shuffle them for the paper's expectation bounds).
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_lp::{LpOutcome, LpProblem};
///
/// let inst = ri_lp::workloads::tangent_instance(512, 3);
/// let (outcome, report) = LpProblem::new(&inst).solve(&RunConfig::new());
/// assert!(matches!(outcome, LpOutcome::Optimal(_)));
/// assert!(report.specials.len() < 60); // O(log n) tight constraints whp
/// ```
#[derive(Debug)]
pub struct LpProblem<'a> {
    inst: &'a LpInstance,
}

impl<'a> LpProblem<'a> {
    /// An LP problem over `inst`.
    pub fn new(inst: &'a LpInstance) -> Self {
        LpProblem { inst }
    }
}

impl Problem for LpProblem<'_> {
    type Output = LpOutcome;

    fn solve(&self, cfg: &RunConfig) -> (LpOutcome, RunReport) {
        Runner::new(cfg.clone()).solve("lp-seidel", |cfg| run_with(self.inst, cfg))
    }
}

/// The d-dimensional extension (recursive dimension reduction with the
/// same random order for every sub-problem).
#[derive(Debug)]
pub struct LpProblemD<'a> {
    inst: &'a LpInstanceD,
}

impl<'a> LpProblemD<'a> {
    /// A d-dimensional LP problem over `inst`.
    pub fn new(inst: &'a LpInstanceD) -> Self {
        LpProblemD { inst }
    }
}

impl Problem for LpProblemD<'_> {
    type Output = LpOutcomeD;

    fn solve(&self, cfg: &RunConfig) -> (LpOutcomeD, RunReport) {
        Runner::new(cfg.clone()).solve("lp-seidel-d", |cfg| run_with_d(self.inst, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_on_tangent_workload() {
        let inst = crate::workloads::tangent_instance(2000, 9);
        let problem = LpProblem::new(&inst);
        let (seq, seq_report) = problem.solve(&RunConfig::new().sequential());
        let (par, par_report) = problem.solve(&RunConfig::new().parallel());
        match (seq, par) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => assert_eq!(a, b),
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(seq_report.specials, par_report.specials);
        assert!(par_report.total_sub_rounds() >= par_report.specials.len());
    }

    #[test]
    fn high_dim_modes_agree() {
        let inst = crate::highdim::tangent_instance_d(4, 300, 2);
        let problem = LpProblemD::new(&inst);
        let (seq, _) = problem.solve(&RunConfig::new().sequential());
        let (par, report) = problem.solve(&RunConfig::new().parallel());
        match (seq, par) {
            (LpOutcomeD::Optimal(a), LpOutcomeD::Optimal(b)) => {
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-9);
                }
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
        assert_eq!(report.algorithm, "lp-seidel-d");
    }
}
