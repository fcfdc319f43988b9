//! Registry entry: `"closest-pair"` — the grid-sieve closest pair over a
//! seeded point workload (§5.2, Type 2). The workload shape is a
//! point-distribution name (default `"uniform-square"`) — plus the
//! native streaming adapter, which fixes the full point set at open and
//! tracks the running closest pair as batches reveal successive
//! prefixes.

use ri_core::engine::json::Value;
use ri_core::engine::registry::{
    OutputSummary, PrefixSolution, PrefixStream, Registry, WorkloadSpec,
};
use ri_core::engine::{Problem, RunConfig, RunReport};
use ri_geometry::{named_point_workload, Point2};

use crate::ClosestPairProblem;

/// The workload's points: the one generator call of the one-shot
/// instance and the stream, so the final streamed prefix is the one-shot
/// instance bit for bit.
fn spec_points(spec: &WorkloadSpec) -> Result<Vec<Point2>, String> {
    named_point_workload(
        "closest-pair",
        spec.n,
        spec.seed,
        spec.shape_or("uniform-square"),
        2,
    )
}

/// Register this crate's problem.
pub fn register(reg: &mut Registry) {
    reg.register(
        "closest-pair",
        "grid-sieve incremental closest pair of a point workload (§5.2, Type 2)",
        spec_points,
        |points, cfg| {
            let (s, report, _, _) = summarize(points, cfg);
            (s, report)
        },
    );
    reg.register_incremental("closest-pair", |spec| {
        Ok(ClosestPairStream {
            points: spec_points(spec)?,
            prev_dist: None,
        })
    });
}

fn summarize(points: &[Point2], cfg: &RunConfig) -> (OutputSummary, RunReport, (u32, u32), f64) {
    let (out, report) = ClosestPairProblem::new(points).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("points", points.len() as f64)
        .answer_num("pair_i", out.pair.0 as f64)
        .answer_num("pair_j", out.pair.1 as f64)
        .answer_num("dist", out.dist);
    (s, report, out.pair, out.dist)
}

/// The native streaming adapter: the delta is the running closest pair
/// of the absorbed prefix, flagged `improved` when a batch tightened the
/// distance. Prefixes of fewer than two points are pending. Capacity is
/// the *deduplicated* point count, not `spec.n`: a duplicate-heavy shape
/// shrinks the instance.
struct ClosestPairStream {
    points: Vec<Point2>,
    prev_dist: Option<f64>,
}

impl PrefixStream for ClosestPairStream {
    fn capacity(&self) -> usize {
        self.points.len()
    }

    fn approx_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point2>() + 128
    }

    fn solve_prefix(
        &mut self,
        _lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String> {
        if hi < 2 {
            return Ok(None);
        }
        let (summary, report, pair, dist) = summarize(&self.points[..hi], cfg);
        let improved = self.prev_dist.is_none_or(|prev| dist < prev);
        self.prev_dist = Some(dist);
        let delta = Value::Obj(vec![
            ("pair_i".into(), Value::Num(pair.0 as f64)),
            ("pair_j".into(), Value::Num(pair.1 as f64)),
            ("dist".into(), Value::Num(dist)),
            ("improved".into(), Value::Bool(improved)),
        ]);
        Ok(Some((delta, summary, report)))
    }
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
            .solve(
                "closest-pair",
                &WorkloadSpec::new(300, 4),
                &RunConfig::new(),
            )
            .unwrap();
        assert!(summary.to_json().contains("\"dist\":"));
        assert!(!report.specials.is_empty());
        assert!(reg
            .construct("closest-pair", &WorkloadSpec::new(1, 4))
            .is_err());
    }

    #[test]
    fn stream_tracks_the_running_pair() {
        let mut reg = Registry::new();
        register(&mut reg);
        let spec = WorkloadSpec::new(40, 4);
        let cfg = RunConfig::new().seed(1);
        let mut inc = reg.construct_incremental("closest-pair", &spec).unwrap();
        assert!(inc.native());

        // One point: pending. Two points: first real pair, improved.
        let (d0, _) = inc.feed(1, &cfg).unwrap();
        assert!(d0.pending);
        let (d1, _) = inc.feed(1, &cfg).unwrap();
        assert!(!d1.pending);
        assert_eq!(d1.delta.get("improved"), Some(&Value::Bool(true)));

        // Distances never increase as the prefix grows.
        let mut dist = d1.delta.get("dist").unwrap().as_f64().unwrap();
        let mut last = d1;
        while !last.complete {
            let (d, _) = inc.feed(19.min(spec.n - last.cumulative), &cfg).unwrap();
            let next = d.delta.get("dist").unwrap().as_f64().unwrap();
            assert!(next <= dist);
            dist = next;
            last = d;
        }
        // Final streamed answer equals the one-shot solve.
        let (one_shot, _) = reg.solve("closest-pair", &spec, &cfg).unwrap();
        assert_eq!(last.answer, one_shot.answer().to_vec());
    }
}
