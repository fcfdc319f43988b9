//! The problem-level API: [`EnclosingProblem`], solving through the
//! unified engine to `(SedOutput, RunReport)`.

use ri_core::engine::{Problem, RunConfig, RunReport, Runner};
use ri_geometry::Point2;

pub use crate::welzl::SedOutput;

/// Welzl's smallest enclosing disk (§5.3 of the paper, Type 2). Points are
/// inserted in the order given (pre-shuffle them for the paper's
/// expectation bounds); `len() >= 2`, general position.
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_enclosing::EnclosingProblem;
/// use ri_geometry::Point2;
///
/// let pts = vec![
///     Point2::new(-1.0, 0.0),
///     Point2::new(1.0, 0.0),
///     Point2::new(0.0, 0.5),
/// ];
/// let (out, report) = EnclosingProblem::new(&pts).solve(&RunConfig::new());
/// assert!((out.disk.radius() - 1.0).abs() < 1e-9);
/// assert!(report.checks > 0);
/// ```
#[derive(Debug)]
pub struct EnclosingProblem<'a> {
    points: &'a [Point2],
}

impl<'a> EnclosingProblem<'a> {
    /// A smallest-enclosing-disk problem over `points`.
    pub fn new(points: &'a [Point2]) -> Self {
        EnclosingProblem { points }
    }
}

impl Problem for EnclosingProblem<'_> {
    type Output = SedOutput;

    fn solve(&self, cfg: &RunConfig) -> (SedOutput, RunReport) {
        Runner::new(cfg.clone()).solve("enclosing-disk", |cfg| {
            crate::welzl::run_with(self.points, cfg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_geometry::PointDistribution;

    #[test]
    fn modes_agree() {
        let pts = PointDistribution::UniformDisk.generate(1500, 8);
        let problem = EnclosingProblem::new(&pts);
        let (seq, _) = problem.solve(&RunConfig::new().sequential());
        let (par, report) = problem.solve(&RunConfig::new().parallel());
        assert_eq!(seq.disk, par.disk);
        assert_eq!(seq.update2_calls, par.update2_calls);
        assert_eq!(report.algorithm, "enclosing-disk");
    }
}
