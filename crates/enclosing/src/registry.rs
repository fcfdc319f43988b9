//! Registry entry: `"enclosing"` — Welzl's smallest enclosing disk over a
//! seeded point workload (§5.3, Type 2). The workload shape is a
//! point-distribution name (default `"uniform-disk"`).

use ri_core::engine::registry::{OutputSummary, Registry};
use ri_core::engine::{Problem, RunConfig, RunReport};
use ri_geometry::{named_point_workload, Point2};

use crate::EnclosingProblem;

/// Register this crate's problem.
pub fn register(reg: &mut Registry) {
    reg.register(
        "enclosing",
        "Welzl's smallest enclosing disk of a point workload (§5.3, Type 2)",
        |spec| {
            named_point_workload(
                "enclosing",
                spec.n,
                spec.seed,
                spec.shape_or("uniform-disk"),
                2,
            )
        },
        |points, cfg| solve(points, cfg),
    );
}

fn solve(points: &[Point2], cfg: &RunConfig) -> (OutputSummary, RunReport) {
    let (out, report) = EnclosingProblem::new(points).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("points", points.len() as f64)
        .answer_num("center_x", out.disk.center.x)
        .answer_num("center_y", out.disk.center.y)
        .answer_num("radius", out.disk.radius())
        .answer_num("update2_calls", out.update2_calls as f64)
        .metric_num("contains_tests", out.contains_tests as f64);
    (s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_name_solves() {
        let mut reg = Registry::new();
        register(&mut reg);
        let (summary, report) = reg
            .solve("enclosing", &WorkloadSpec::new(400, 6), &RunConfig::new())
            .unwrap();
        assert!(summary.to_json().contains("\"radius\":"));
        assert!(report.checks > 0);
        assert!(reg
            .construct("enclosing", &WorkloadSpec::new(1, 6))
            .is_err());
    }
}
