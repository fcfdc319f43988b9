//! Registry entry: `"delaunay"` — incremental Delaunay triangulation of a
//! seeded point workload (§4, Type 1 with nested dependences). The
//! workload shape is a point-distribution name (default
//! `"uniform-square"`) — plus the native streaming adapter, which fixes
//! the full point set at open and reports each batch's triangulation
//! *edge diff* (edges added and removed as new points retriangulate
//! their cavities) as the delta.

use std::collections::HashSet;

use ri_core::engine::json::Value;
use ri_core::engine::registry::{
    OutputSummary, PrefixSolution, PrefixStream, Registry, WorkloadSpec,
};
use ri_core::engine::{Problem, RunConfig};
use ri_geometry::{named_point_workload, Point2};
use ri_pram::hash::checksum_u32s;

use crate::problem::DelaunayProblem;
use crate::DtOutput;

/// The workload's points: the one generator call of the one-shot
/// instance and the stream, so the final streamed prefix is the one-shot
/// instance bit for bit.
fn spec_points(spec: &WorkloadSpec) -> Result<Vec<Point2>, String> {
    named_point_workload(
        "delaunay",
        spec.n,
        spec.seed,
        spec.shape_or("uniform-square"),
        3,
    )
}

/// Register this crate's problem.
pub fn register(reg: &mut Registry) {
    reg.register(
        "delaunay",
        "incremental Delaunay triangulation of a point workload (§4, Type 1 nested)",
        spec_points,
        |points, cfg| {
            let (out, report) = DelaunayProblem::new(points).solve(cfg);
            (summarize(points, &out), report)
        },
    );
    reg.register_incremental("delaunay", |spec| {
        Ok(DelaunayStream {
            points: spec_points(spec)?,
            edges: HashSet::new(),
        })
    });
}

fn summarize(points: &[Point2], out: &DtOutput) -> OutputSummary {
    let mut s = OutputSummary::new();
    s.answer_num("points", points.len() as f64)
        .answer_num("triangles", out.mesh.finite_triangles().len() as f64)
        .answer_bool("valid", out.mesh.validate().is_ok())
        .metric_num("incircle_tests", out.stats.incircle_tests as f64)
        .metric_num("orient_tests", out.stats.orient_tests as f64)
        .metric_num("skipped_tests", out.stats.skipped_tests as f64);
    s
}

/// The mesh's undirected edges `(min, max)`, sorted: what the stream
/// diffs between prefixes.
fn sorted_edges(out: &DtOutput) -> Vec<(u32, u32)> {
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    for t in out.mesh.finite_triangles() {
        for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let mut edges: Vec<(u32, u32)> = edges.into_iter().collect();
    edges.sort_unstable();
    edges
}

/// The native streaming adapter: the delta counts the undirected
/// triangulation edges a batch added and removed relative to the
/// previous prefix, plus a checksum of the current sorted edge list —
/// compact enough to log per batch, strong enough that replay catches
/// any divergence in the mesh itself. Prefixes of fewer than three
/// points are pending.
///
/// Capacity is the *deduplicated* point count, not `spec.n`: a
/// duplicate-heavy shape shrinks the instance.
struct DelaunayStream {
    points: Vec<Point2>,
    /// Undirected edges `(min, max)` of the previous prefix's mesh.
    edges: HashSet<(u32, u32)>,
}

impl PrefixStream for DelaunayStream {
    fn capacity(&self) -> usize {
        self.points.len()
    }

    fn approx_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point2>() + self.edges.len() * 16 + 256
    }

    fn solve_prefix(
        &mut self,
        _lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String> {
        if hi < 3 {
            return Ok(None);
        }
        let points = &self.points[..hi];
        let (out, report) = DelaunayProblem::new(points).solve(cfg);
        let edges = sorted_edges(&out);
        let added = edges.iter().filter(|e| !self.edges.contains(e)).count();
        // |old| - |old ∩ new|, with |old ∩ new| = |new| - added.
        let removed = self.edges.len() + added - edges.len();
        let checksum = checksum_u32s(edges.iter().flat_map(|&(a, b)| [a, b]));
        let delta = Value::Obj(vec![
            ("edges".into(), Value::Num(edges.len() as f64)),
            ("added".into(), Value::Num(added as f64)),
            ("removed".into(), Value::Num(removed as f64)),
            ("checksum".into(), Value::Num(checksum as f64)),
        ]);
        self.edges = edges.into_iter().collect();
        Ok(Some((delta, summarize(points, &out), report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_name_solves_and_validates() {
        let mut reg = Registry::new();
        register(&mut reg);
        let spec = WorkloadSpec::new(120, 5).shape("uniform-disk");
        let (summary, report) = reg.solve("delaunay", &spec, &RunConfig::new()).unwrap();
        assert!(summary.to_json().contains("\"valid\":true"));
        assert!(report.depth > 0);
    }

    #[test]
    fn bad_shape_and_tiny_size_are_rejected() {
        let mut reg = Registry::new();
        register(&mut reg);
        let err = reg
            .construct("delaunay", &WorkloadSpec::new(100, 1).shape("sideways"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("unknown point distribution"));
        let err = reg
            .construct("delaunay", &WorkloadSpec::new(2, 1))
            .err()
            .unwrap();
        assert!(err.to_string().contains("at least 3"));
        // The incremental constructor applies the same shape check.
        assert!(reg
            .construct_incremental("delaunay", &WorkloadSpec::new(100, 1).shape("sideways"))
            .is_err());
    }

    #[test]
    fn stream_reports_edge_diffs_and_matches_one_shot() {
        let mut reg = Registry::new();
        register(&mut reg);
        let spec = WorkloadSpec::new(60, 5);
        let cfg = RunConfig::new().seed(3);
        let mut inc = reg.construct_incremental("delaunay", &spec).unwrap();
        assert!(inc.native());

        // Two points: pending, no mesh yet.
        let (d0, _) = inc.feed(2, &cfg).unwrap();
        assert!(d0.pending);

        // First solvable prefix: every edge is newly added.
        let (d1, _) = inc.feed(3, &cfg).unwrap();
        assert!(!d1.pending);
        assert_eq!(d1.delta.get("removed"), Some(&Value::Num(0.0)));
        assert_eq!(d1.delta.get("added"), d1.delta.get("edges"));

        // Stream to completion; later batches retriangulate (removals
        // appear) and the final answer equals the one-shot solve.
        let (d2, _) = inc.feed(40, &cfg).unwrap();
        assert!(d2.delta.get("removed").unwrap().as_f64().unwrap() > 0.0);
        let (d3, _) = inc.feed(15, &cfg).unwrap();
        assert!(d3.complete);
        let (one_shot, report) = reg.solve("delaunay", &spec, &cfg).unwrap();
        assert_eq!(d3.answer, one_shot.answer().to_vec());
        assert_eq!(d3.trace, ri_core::engine::RoundTrace::from_report(&report));
    }
}
