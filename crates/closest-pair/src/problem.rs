//! The problem-level API: [`ClosestPairProblem`], solving through the
//! unified engine to `(ClosestPairOutput, RunReport)`.

use ri_core::engine::{Problem, RunConfig, RunReport, Runner};
use ri_geometry::Point2;

pub use crate::grid::ClosestPairOutput;

/// The randomized incremental closest pair (§5.2 of the paper, Type 2).
/// Points are inserted in the order given (pre-shuffle them for the
/// paper's expectation bounds); must be pairwise distinct, `len() >= 2`.
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_closest_pair::ClosestPairProblem;
/// use ri_geometry::Point2;
///
/// let pts = vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(10.0, 0.0),
///     Point2::new(10.0, 0.5),
/// ];
/// let (out, report) = ClosestPairProblem::new(&pts).solve(&RunConfig::new());
/// assert_eq!(out.pair, (1, 2));
/// assert!(!report.specials.is_empty()); // grid rebuilds
/// ```
#[derive(Debug)]
pub struct ClosestPairProblem<'a> {
    points: &'a [Point2],
}

impl<'a> ClosestPairProblem<'a> {
    /// A closest-pair problem over `points`.
    pub fn new(points: &'a [Point2]) -> Self {
        ClosestPairProblem { points }
    }
}

impl Problem for ClosestPairProblem<'_> {
    type Output = ClosestPairOutput;

    fn solve(&self, cfg: &RunConfig) -> (ClosestPairOutput, RunReport) {
        Runner::new(cfg.clone()).solve("closest-pair", |cfg| {
            crate::grid::run_with(self.points, cfg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_geometry::PointDistribution;

    #[test]
    fn modes_agree() {
        let pts = PointDistribution::UniformSquare.generate(2000, 4);
        let problem = ClosestPairProblem::new(&pts);
        let (seq, _) = problem.solve(&RunConfig::new().sequential());
        let (par, report) = problem.solve(&RunConfig::new().parallel());
        assert_eq!(seq.pair, par.pair);
        assert_eq!(seq.dist, par.dist);
        assert_eq!(report.algorithm, "closest-pair");
        assert_eq!(report.depth, report.total_sub_rounds());
    }
}
