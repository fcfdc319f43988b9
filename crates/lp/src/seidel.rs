//! The Seidel LP state machine and its Type 2 plumbing.

use rayon::prelude::*;

use ri_core::engine::{execute_type2, grain, ExecMode, RunConfig, RunReport};
use ri_core::Type2Algorithm;
use ri_geometry::Point2;

/// Numerical tolerance for feasibility tests (relative to the constraint
/// scale; the workloads are normalised so an absolute epsilon suffices).
pub const EPS: f64 = 1e-9;

/// A halfplane constraint `normal · x ≤ bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// Outward normal of the halfplane.
    pub normal: Point2,
    /// Right-hand side.
    pub bound: f64,
}

impl Constraint {
    /// Build a constraint.
    pub fn new(normal: Point2, bound: f64) -> Self {
        Constraint { normal, bound }
    }

    /// Signed violation of `x` (positive = infeasible).
    #[inline]
    pub fn violation(&self, x: Point2) -> f64 {
        self.normal.dot(x) - self.bound
    }

    /// Is `x` feasible for this constraint (within tolerance)?
    #[inline]
    pub fn satisfied_by(&self, x: Point2) -> bool {
        self.violation(x) <= EPS
    }
}

/// An LP instance: objective direction plus constraints in insertion
/// (iteration) order.
#[derive(Debug, Clone)]
pub struct LpInstance {
    /// Maximisation direction.
    pub objective: Point2,
    /// Constraints, already in the random insertion order.
    pub constraints: Vec<Constraint>,
}

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpOutcome {
    /// Unique optimum vertex (within the synthetic bounding box).
    Optimal(Point2),
    /// No feasible point.
    Infeasible,
}

/// Magnitude of the synthetic bounding box (far outside every workload).
const BOX_M: f64 = 1e6;

/// Estimated nanoseconds per constraint of the 1-D LP scan (two dot
/// products and a division).
const CLIP_NS: u64 = 8;

struct SeidelState<'a> {
    inst: &'a LpInstance,
    /// The two box constraints (implicit iterations −2, −1).
    boxc: [Constraint; 2],
    optimum: Point2,
    infeasible: bool,
    /// Run `run_special`'s 1-D LP with rayon reductions?
    parallel_special: bool,
}

impl<'a> SeidelState<'a> {
    fn new(inst: &'a LpInstance, parallel_special: bool) -> Self {
        // Box: (d̂+ê)·x ≤ M and (d̂−ê)·x ≤ M for unit objective d̂ and its
        // perpendicular ê; the unique optimum of the box alone is M·d̂.
        let d = inst.objective;
        let len = d.norm_sq().sqrt();
        assert!(len > 0.0, "objective must be nonzero");
        let dhat = d * (1.0 / len);
        let ehat = Point2::new(-dhat.y, dhat.x);
        let boxc = [
            Constraint::new(dhat + ehat, BOX_M),
            Constraint::new(dhat - ehat, BOX_M),
        ];
        let optimum = dhat * BOX_M;
        SeidelState {
            inst,
            boxc,
            optimum,
            infeasible: false,
            parallel_special,
        }
    }

    /// Solve the 1-D LP on the line of constraint `k` over the box
    /// constraints and constraints `0..k`: maximise `objective · x` with
    /// `x = p + t·dir` on the line `normal_k · x = bound_k`.
    fn one_dimensional_lp(&mut self, k: usize) {
        let ck = self.inst.constraints[k];
        let nn = ck.normal.norm_sq();
        debug_assert!(nn > 0.0, "degenerate constraint normal");
        let p = ck.normal * (ck.bound / nn); // foot point on the line
        let dir = Point2::new(-ck.normal.y, ck.normal.x); // line direction

        // Each earlier constraint clips t to a ray or detects infeasibility.
        // Interval bound per constraint: n·(p + t·dir) ≤ b.
        #[derive(Clone, Copy)]
        enum Clip {
            Upper(f64),
            Lower(f64),
            None,
            Infeasible,
        }
        let clip = |c: &Constraint| -> Clip {
            let a = c.normal.dot(dir);
            let rhs = c.bound - c.normal.dot(p);
            if a.abs() <= EPS * (1.0 + c.normal.norm_sq().sqrt()) {
                // Parallel to the line: either irrelevant or fatal.
                if rhs < -EPS {
                    Clip::Infeasible
                } else {
                    Clip::None
                }
            } else if a > 0.0 {
                Clip::Upper(rhs / a)
            } else {
                Clip::Lower(rhs / a)
            }
        };

        let fold = |acc: (f64, f64, bool), c: Clip| -> (f64, f64, bool) {
            let (lo, hi, bad) = acc;
            match c {
                Clip::Upper(t) => (lo, hi.min(t), bad),
                Clip::Lower(t) => (lo.max(t), hi, bad),
                Clip::None => acc,
                Clip::Infeasible => (lo, hi, true),
            }
        };
        let merge =
            |a: (f64, f64, bool), b: (f64, f64, bool)| (a.0.max(b.0), a.1.min(b.1), a.2 || b.2);
        let id = (f64::NEG_INFINITY, f64::INFINITY, false);

        // Parallel mode merges the box's interval with the body's; each
        // mode keeps its fold order, as the optimum's bits depend on it.
        let boxed = self.boxc.iter().map(clip).fold(id, fold);
        let body = &self.inst.constraints[..k];
        let (lo, hi, bad) = if !self.parallel_special {
            body.iter().map(clip).fold(boxed, fold)
        } else if grain::goes_parallel(k, CLIP_NS) {
            let per_chunk = body.par_iter().map(clip).fold(|| id, fold);
            merge(boxed, per_chunk.reduce(|| id, merge))
        } else {
            merge(boxed, body.iter().map(clip).fold(id, fold))
        };

        if bad || lo > hi + EPS {
            self.infeasible = true;
            return;
        }
        let along = self.inst.objective.dot(dir);
        let t = if along > 0.0 {
            hi
        } else if along < 0.0 {
            lo
        } else {
            lo.clamp(lo, hi) // objective ⟂ line: any point; take lo
        };
        debug_assert!(t.is_finite(), "1-D LP unbounded despite box");
        self.optimum = p + dir * t;
    }
}

impl Type2Algorithm for SeidelState<'_> {
    fn len(&self) -> usize {
        self.inst.constraints.len()
    }

    fn is_special(&self, k: usize) -> bool {
        !self.infeasible && !self.inst.constraints[k].satisfied_by(self.optimum)
    }

    fn run_regular(&mut self, _k: usize) {}

    fn run_special(&mut self, k: usize) {
        self.one_dimensional_lp(k);
    }
}

/// Engine entry point: solve `inst` under `cfg` (parallel 1-D LPs in
/// parallel mode), returning the outcome and the unified report.
pub(crate) fn run_with(inst: &LpInstance, cfg: &RunConfig) -> (LpOutcome, RunReport) {
    let mut st = SeidelState::new(inst, cfg.mode != ExecMode::Sequential);
    let report = execute_type2(&mut st, cfg);
    let outcome = if st.infeasible {
        LpOutcome::Infeasible
    } else {
        LpOutcome::Optimal(st.optimum)
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local stand-in for the retired `LpRun` shape: the outcome
    /// plus the unified report (whose `specials`/`checks` fields the
    /// assertions read).
    struct Run {
        outcome: LpOutcome,
        stats: RunReport,
    }

    fn lp_sequential(inst: &LpInstance) -> Run {
        let (outcome, stats) = run_with(inst, &RunConfig::new().sequential());
        Run { outcome, stats }
    }

    fn lp_parallel(inst: &LpInstance) -> Run {
        let (outcome, stats) = run_with(inst, &RunConfig::new().parallel());
        Run { outcome, stats }
    }

    fn pt(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// Brute-force reference: best feasible intersection vertex among all
    /// constraint pairs (incl. the box), or Infeasible.
    pub(crate) fn brute_force(inst: &LpInstance) -> LpOutcome {
        let d = inst.objective;
        let len = d.norm_sq().sqrt();
        let dhat = d * (1.0 / len);
        let ehat = Point2::new(-dhat.y, dhat.x);
        let mut cs = vec![
            Constraint::new(dhat + ehat, BOX_M),
            Constraint::new(dhat - ehat, BOX_M),
        ];
        cs.extend_from_slice(&inst.constraints);
        let mut best: Option<Point2> = None;
        for i in 0..cs.len() {
            for j in i + 1..cs.len() {
                let (a, b) = (cs[i], cs[j]);
                let det = a.normal.cross(b.normal);
                if det.abs() < 1e-12 {
                    continue;
                }
                let x = Point2::new(
                    (a.bound * b.normal.y - b.bound * a.normal.y) / det,
                    (a.normal.x * b.bound - b.normal.x * a.bound) / det,
                );
                if cs.iter().all(|c| c.violation(x) <= 1e-6) {
                    let better = match best {
                        None => true,
                        Some(cur) => inst.objective.dot(x) > inst.objective.dot(cur),
                    };
                    if better {
                        best = Some(x);
                    }
                }
            }
        }
        match best {
            Some(x) => LpOutcome::Optimal(x),
            None => LpOutcome::Infeasible,
        }
    }

    fn assert_same(a: LpOutcome, b: LpOutcome) {
        match (a, b) {
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (LpOutcome::Optimal(x), LpOutcome::Optimal(y)) => {
                assert!(
                    x.dist(y) < 1e-5,
                    "optima differ: {x} vs {y} (dist {})",
                    x.dist(y)
                );
            }
            _ => panic!("outcome mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn simple_triangle() {
        // Feasible region: x ≤ 1, y ≤ 1, x + y ≥ 0.5; maximize x + y -> (1,1).
        let inst = LpInstance {
            objective: pt(1.0, 1.0),
            constraints: vec![
                Constraint::new(pt(1.0, 0.0), 1.0),
                Constraint::new(pt(0.0, 1.0), 1.0),
                Constraint::new(pt(-1.0, -1.0), -0.5),
            ],
        };
        match lp_sequential(&inst).outcome {
            LpOutcome::Optimal(x) => assert!(x.dist(pt(1.0, 1.0)) < 1e-9),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ -1 and x ≥ 1.
        let inst = LpInstance {
            objective: pt(1.0, 0.0),
            constraints: vec![
                Constraint::new(pt(1.0, 0.0), -1.0),
                Constraint::new(pt(-1.0, 0.0), -1.0),
            ],
        };
        assert_eq!(lp_sequential(&inst).outcome, LpOutcome::Infeasible);
        assert_eq!(lp_parallel(&inst).outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn unconstrained_hits_box() {
        let inst = LpInstance {
            objective: pt(0.0, 1.0),
            constraints: vec![],
        };
        match lp_sequential(&inst).outcome {
            LpOutcome::Optimal(x) => assert!(x.dist(pt(0.0, BOX_M)) < 1e-3),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn parallel_matches_sequential_and_bruteforce() {
        for seed in 0..10 {
            let inst = crate::workloads::tangent_instance(60, seed);
            let seq = lp_sequential(&inst);
            let par = lp_parallel(&inst);
            assert_same(seq.outcome, par.outcome);
            assert_same(seq.outcome, brute_force(&inst));
            assert_eq!(seq.stats.specials, par.stats.specials, "seed {seed}");
        }
    }

    #[test]
    fn specials_are_logarithmic() {
        let mut total = 0usize;
        let trials = 10;
        let n = 2000;
        for seed in 0..trials {
            let inst = crate::workloads::tangent_instance(n, seed);
            total += lp_parallel(&inst).stats.specials.len();
        }
        let avg = total as f64 / trials as f64;
        let bound = 2.0 * ri_core::harmonic(n) + 4.0;
        assert!(avg <= bound, "avg specials {avg} above 2·H_n + 4 = {bound}");
    }

    #[test]
    fn clip_forms_one_region_where_the_rule_admits_it() {
        let inst = crate::workloads::tangent_instance(4000, 5);
        // The optimum's bits and the regions formed by the parallel-mode
        // clip on the last constraint's line at `width`.
        let clip = |width: usize| {
            let mut st = SeidelState::new(&inst, true);
            let before = rayon::crew_regions();
            rayon::cached_pool(width).install(|| st.one_dimensional_lp(3999));
            assert!(!st.infeasible);
            let bits = (st.optimum.x.to_bits(), st.optimum.y.to_bits());
            (bits, rayon::crew_regions() - before)
        };
        let (want, regions) = clip(1);
        assert_eq!(regions, 0, "width 1 runs inline");
        // Admitted, the per-chunk accumulators merge on the caller.
        for (region_ns, crews) in [(0, 1), (u64::MAX, 0)] {
            let (bits, regions) = rayon::with_region_ns(region_ns, || clip(2));
            assert_eq!(bits, want, "region cost {region_ns}");
            assert_eq!(regions, crews, "region cost {region_ns}");
        }
    }

    #[test]
    fn checks_are_linear() {
        // Expected total check work of the prefix executor is O(n).
        let n = 1 << 14;
        let inst = crate::workloads::tangent_instance(n, 3);
        let run = lp_parallel(&inst);
        assert!(
            run.stats.checks < 8 * n as u64,
            "checks {} not O(n)",
            run.stats.checks
        );
    }
}
