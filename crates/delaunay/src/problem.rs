//! The problem-level API: [`DelaunayProblem`], solving through the
//! unified engine to `(DtOutput, RunReport)`.

use ri_core::engine::{ExecMode, Problem, RunConfig, RunReport, Runner};
use ri_geometry::Point2;

use crate::mesh::Mesh;
use crate::{DtResult, DtStats};

/// The answer of a Delaunay run: the triangulation plus its work counters
/// (identical between modes — Algorithm 5 performs the same
/// `ReplaceBoundary` calls as Algorithm 4, reordered).
#[derive(Debug)]
pub struct DtOutput {
    /// The triangulation (owns the — possibly reseeded — point array).
    pub mesh: Mesh,
    /// Work counters (InCircle / orientation tests, Fact 4.1 savings).
    pub stats: DtStats,
}

/// Randomized incremental Delaunay triangulation (§4 of the paper, Type 1
/// with nested dependences). Points are inserted in the order given
/// (pre-shuffle them for the paper's expectation bounds); needs ≥ 3
/// points, not all collinear, pairwise distinct.
///
/// ```
/// use ri_core::engine::{Problem, RunConfig};
/// use ri_delaunay::DelaunayProblem;
/// use ri_geometry::PointDistribution;
///
/// let pts = PointDistribution::UniformSquare.generate(200, 7);
/// let (out, report) = DelaunayProblem::new(&pts).solve(&RunConfig::new());
/// out.mesh.validate().unwrap();
/// assert!(report.depth > 0);
/// ```
#[derive(Debug)]
pub struct DelaunayProblem<'a> {
    points: &'a [Point2],
}

impl<'a> DelaunayProblem<'a> {
    /// A triangulation problem over `points`.
    pub fn new(points: &'a [Point2]) -> Self {
        DelaunayProblem { points }
    }
}

impl Problem for DelaunayProblem<'_> {
    type Output = DtOutput;

    fn solve(&self, cfg: &RunConfig) -> (DtOutput, RunReport) {
        Runner::new(cfg.clone()).solve("delaunay", |cfg| {
            let mut report = RunReport::new("delaunay");
            report.items = self.points.len();
            let result: DtResult = report.phase("solve", cfg.instrument, |_| match cfg.mode {
                ExecMode::Sequential => crate::seq::delaunay_sequential_impl(self.points),
                ExecMode::Parallel | ExecMode::Relaxed { .. } => {
                    crate::par::delaunay_parallel_impl(self.points)
                }
            });
            let work = result.stats.incircle_tests + result.stats.orient_tests;
            report.stamp_rounds(result.rounds, work);
            report.checks = work;
            let out = DtOutput {
                mesh: result.mesh,
                stats: result.stats,
            };
            (out, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_geometry::PointDistribution;

    #[test]
    fn modes_agree_and_report_depth() {
        let pts = PointDistribution::UniformSquare.generate(400, 3);
        let problem = DelaunayProblem::new(&pts);
        let (seq, seq_report) = problem.solve(&RunConfig::new().sequential());
        let (par, par_report) = problem.solve(&RunConfig::new().parallel());
        seq.mesh.validate().unwrap();
        par.mesh.validate().unwrap();
        assert_eq!(seq.stats, par.stats, "identical ReplaceBoundary calls");
        assert_eq!(seq_report.depth, 400);
        assert!(par_report.depth < 120, "parallel depth is O(log n)");
        assert!(par_report.total_work() > 0);
    }
}
