//! d-dimensional Seidel LP — the paper's §5.1 extension:
//!
//! *"the algorithm can be extended to the case where the dimension d is
//! greater than two by having a randomized incremental d-dimensional LP
//! algorithm recursively call a randomized incremental algorithm for
//! solving (d−1)-dimensional LPs. ... The work bound is O(d!·n) as in the
//! sequential algorithm. ... we can use the same randomized order for all
//! sub-problems."*
//!
//! Implementation: maximise `objective · x` subject to `normalᵢ · x ≤
//! boundᵢ` inside the synthetic box `[-M, M]^d`. Constraints are inserted
//! in the given random order; a violated (special) constraint pins the
//! optimum to its hyperplane, one variable is eliminated (largest-pivot
//! column), and the earlier constraints — *in the same order* — form the
//! (d−1)-dimensional sub-problem. The base case `d = 1` is interval
//! clipping.
//!
//! Scope note: the top level runs through the Type 2 executor (parallel
//! violation checks); the recursive sub-solves are sequential, so this
//! demonstrates the *work* structure (`O(d!·n)` expected, `O(d·H_n)`
//! expected specials at the top level) rather than the paper's full
//! `O(d! log^{d-1} n)` depth bound, which would need the prefix-doubling
//! executor at every recursion level.

use ri_core::engine::{execute_type2, RunConfig, RunReport};
use ri_core::Type2Algorithm;

/// Numerical tolerance (the workloads are O(1)-scaled).
const EPS: f64 = 1e-9;
/// Synthetic bounding box half-width.
const BOX_M: f64 = 1e6;

/// A halfspace constraint `normal · x ≤ bound` in d dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintD {
    /// Outward normal (length d).
    pub normal: Vec<f64>,
    /// Right-hand side.
    pub bound: f64,
}

impl ConstraintD {
    /// Build a constraint.
    pub fn new(normal: Vec<f64>, bound: f64) -> Self {
        ConstraintD { normal, bound }
    }

    fn violation(&self, x: &[f64]) -> f64 {
        dot(&self.normal, x) - self.bound
    }
}

/// A d-dimensional LP instance (constraints already in random order).
#[derive(Debug, Clone)]
pub struct LpInstanceD {
    /// Maximisation direction (length d ≥ 1).
    pub objective: Vec<f64>,
    /// The constraints.
    pub constraints: Vec<ConstraintD>,
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcomeD {
    /// Optimum point (within the synthetic box).
    Optimal(Vec<f64>),
    /// No feasible point.
    Infeasible,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Maximise `obj · x` over the box alone: per-coordinate extreme.
fn box_optimum(obj: &[f64]) -> Vec<f64> {
    obj.iter()
        .map(|&o| if o >= 0.0 { BOX_M } else { -BOX_M })
        .collect()
}

/// Split a flat row (`normal, bound`) into its parts.
fn split_row(row: &[f64]) -> (&[f64], f64) {
    let (normal, bound) = row.split_at(row.len() - 1);
    (normal, bound[0])
}

/// Solve the LP over `rows` recursively (sequential Seidel): flat rows
/// `normal, bound` of stride `obj.len() + 1`, in insertion order.
/// `levels[0]` holds the rows of this level's sub-problems, `levels[1]`
/// theirs, and so on. `None` = infeasible.
fn solve_recursive(obj: &[f64], rows: &[f64], levels: &mut [Vec<f64>]) -> Option<Vec<f64>> {
    let d = obj.len();
    if d == 1 {
        return solve_1d(obj[0], rows.chunks_exact(2).map(|r| (r[0], r[1])));
    }
    let stride = d + 1;
    let mut x = box_optimum(obj);
    for (k, row) in rows.chunks_exact(stride).enumerate() {
        let (normal, bound) = split_row(row);
        if dot(normal, &x) - bound <= EPS {
            continue;
        }
        // Tight constraint: eliminate the largest-pivot variable and
        // recurse on the earlier constraints in the same order.
        let earlier = rows[..k * stride].chunks_exact(stride).map(split_row);
        x = project_and_recurse(obj, earlier, (normal, bound), levels)?;
    }
    Some(x)
}

/// Solve a 1-D LP: maximise `o·x` s.t. `aᵢ x ≤ bᵢ` and `|x| ≤ M`.
fn solve_1d(o: f64, constraints: impl Iterator<Item = (f64, f64)>) -> Option<Vec<f64>> {
    let (mut lo, mut hi) = (-BOX_M, BOX_M);
    for (a, b) in constraints {
        if a.abs() <= EPS {
            if b < -EPS {
                return None;
            }
        } else if a > 0.0 {
            hi = hi.min(b / a);
        } else {
            lo = lo.max(b / a);
        }
    }
    if lo > hi + EPS {
        return None;
    }
    Some(vec![if o >= 0.0 { hi } else { lo }])
}

/// The optimum lies on `tight`'s hyperplane: eliminate variable `k*`
/// (largest |normal| entry), reduce `earlier` (`(normal, bound)` pairs)
/// into the (d−1)-dimensional sub-problem's rows in `levels[0]`, solve it,
/// and back-substitute. The buffer is overwritten by every special at
/// this level, so a solve allocates its rows once per level.
fn project_and_recurse<'r>(
    obj: &[f64],
    earlier: impl Iterator<Item = (&'r [f64], f64)>,
    (tight, tight_bound): (&[f64], f64),
    levels: &mut [Vec<f64>],
) -> Option<Vec<f64>> {
    let d = obj.len();
    let k = (0..d)
        .max_by(|&i, &j| {
            tight[i]
                .abs()
                .partial_cmp(&tight[j].abs())
                .expect("finite normals")
        })
        .expect("d >= 1");
    let nk = tight[k];
    if nk.abs() <= EPS {
        // Degenerate normal: the constraint is `0 · x ≤ b` — either vacuous
        // or globally infeasible; a violated vacuous constraint means
        // infeasible.
        return None;
    }

    // x_k = (bound − Σ_{j≠k} n_j x_j) / n_k: append the row's
    // coefficients without x_k, then its right-hand side.
    let others = (0..d).filter(|&j| j != k);
    let reduce = |out: &mut Vec<f64>, coeffs: &[f64], rhs: f64| {
        let scale = coeffs[k] / nk;
        out.extend(others.clone().map(|j| coeffs[j] - scale * tight[j]));
        out.push(rhs - scale * tight_bound);
    };

    // Reduced objective (constant term dropped — argmax unchanged).
    let mut robj = Vec::with_capacity(d);
    reduce(&mut robj, obj, 0.0);
    robj.pop();
    // Reduced earlier constraints, in the same order, plus the box bounds
    // of the eliminated variable (|x_k| ≤ M becomes two constraints).
    let (rows, deeper) = levels
        .split_first_mut()
        .expect("one row buffer per recursion level");
    rows.clear();
    for (normal, bound) in earlier {
        reduce(rows, normal, bound);
    }
    for sign in [1.0, -1.0] {
        // sign · x_k ≤ M  ⇒  sign/n_k · (bound − Σ n_j x_j) ≤ M: the
        // reduction of the row whose only nonzero coefficient is `sign`.
        let scale = sign / nk;
        rows.extend(others.clone().map(|j| 0.0 - scale * tight[j]));
        rows.push(BOX_M - scale * tight_bound);
    }

    let sub = solve_recursive(&robj, rows, deeper)?;
    // Back-substitute: x_k from the hyperplane equation.
    let mut x = vec![0.0; d];
    let mut si = 0;
    for (j, xj) in x.iter_mut().enumerate() {
        if j != k {
            *xj = sub[si];
            si += 1;
        }
    }
    let partial: f64 = others.map(|j| tight[j] * x[j]).sum();
    x[k] = (tight_bound - partial) / nk;
    Some(x)
}

struct SeidelD<'a> {
    inst: &'a LpInstanceD,
    optimum: Vec<f64>,
    infeasible: bool,
    /// The flat row buffers of the sub-problems, one per recursion level
    /// (`levels[0]` holds dimension d − 1), reused by every special.
    levels: Vec<Vec<f64>>,
}

impl Type2Algorithm for SeidelD<'_> {
    fn len(&self) -> usize {
        self.inst.constraints.len()
    }

    fn is_special(&self, k: usize) -> bool {
        !self.infeasible && self.inst.constraints[k].violation(&self.optimum) > EPS
    }

    fn run_regular(&mut self, _k: usize) {}

    fn run_special(&mut self, k: usize) {
        let constraints = &self.inst.constraints;
        let earlier = constraints[..k].iter().map(|c| (&c.normal[..], c.bound));
        let tight = &constraints[k];
        match project_and_recurse(
            &self.inst.objective,
            earlier,
            (&tight.normal, tight.bound),
            &mut self.levels,
        ) {
            Some(x) => self.optimum = x,
            None => self.infeasible = true,
        }
    }
}

/// Engine entry point: solve `inst` under `cfg`, returning the outcome and
/// the unified report.
pub(crate) fn run_with_d(inst: &LpInstanceD, cfg: &RunConfig) -> (LpOutcomeD, RunReport) {
    let d = inst.objective.len();
    assert!(d >= 1, "dimension must be at least 1");
    assert!(
        inst.constraints.iter().all(|c| c.normal.len() == d),
        "constraint dimension mismatch"
    );
    let mut st = SeidelD {
        inst,
        optimum: box_optimum(&inst.objective),
        infeasible: false,
        levels: vec![Vec::new(); d],
    };
    let report = execute_type2(&mut st, cfg);
    let outcome = if st.infeasible {
        LpOutcomeD::Infeasible
    } else {
        LpOutcomeD::Optimal(st.optimum)
    };
    (outcome, report)
}

/// Workload: constraints tangent to the unit d-sphere (`n̂ · x ≤ 1` for
/// random unit normals) — always feasible, optimum on the polytope
/// boundary.
pub fn tangent_instance_d(d: usize, n: usize, seed: u64) -> LpInstanceD {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1);
    LpInstanceD {
        objective: random_unit(&mut rng, d),
        constraints: (0..n)
            .map(|_| ConstraintD::new(random_unit(&mut rng, d), 1.0))
            .collect(),
    }
}

/// Tangent-degenerate d-dimensional instance: half the unit normals are
/// tiny (1e-4-scale) perturbations of the objective direction, the rest
/// uniform, all with bound 1. The optimum is a near-tie among the whole
/// perturbed bundle — every late bundle arrival forces a violation test
/// that is decided in the last few digits, the degenerate stress case
/// for the recursive Seidel solver. Always feasible (unit ball inside
/// every halfspace).
pub fn degenerate_instance_d(d: usize, n: usize, seed: u64) -> LpInstanceD {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE6);
    let objective = random_unit(&mut rng, d);
    let constraints = (0..n)
        .map(|i| {
            let normal = if i % 2 == 0 {
                let noise = random_unit(&mut rng, d);
                let mut v: Vec<f64> = objective
                    .iter()
                    .zip(&noise)
                    .map(|(o, e)| o + 1e-4 * e)
                    .collect();
                let norm = dot(&v, &v).sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            } else {
                random_unit(&mut rng, d)
            };
            ConstraintD::new(normal, 1.0)
        })
        .collect();
    LpInstanceD {
        objective,
        constraints,
    }
}

/// Uniform random unit vector in `d` dimensions (Gaussian normalised,
/// Box–Muller pairs).
fn random_unit(rng: &mut rand::rngs::StdRng, d: usize) -> Vec<f64> {
    use rand::Rng;
    let mut v: Vec<f64> = (0..d)
        .map(|_| {
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        })
        .collect();
    let norm = dot(&v, &v).sqrt().max(1e-12);
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local stand-in for the retired `LpRunD` shape.
    struct Run {
        outcome: LpOutcomeD,
        stats: RunReport,
    }

    fn lp_d_sequential(inst: &LpInstanceD) -> Run {
        let (outcome, stats) = run_with_d(inst, &RunConfig::new().sequential());
        Run { outcome, stats }
    }

    fn lp_d_parallel(inst: &LpInstanceD) -> Run {
        let (outcome, stats) = run_with_d(inst, &RunConfig::new().parallel());
        Run { outcome, stats }
    }

    /// The `Vec`-per-constraint recursion the flat rows replaced: the
    /// reference for the optimum's bits, the specials and the checks.
    mod reference {
        use super::super::*;

        fn solve_recursive(obj: &[f64], constraints: &[ConstraintD]) -> Option<Vec<f64>> {
            let d = obj.len();
            if d == 1 {
                return solve_1d(obj[0], constraints.iter().map(|c| (c.normal[0], c.bound)));
            }
            let mut x = box_optimum(obj);
            for (k, c) in constraints.iter().enumerate() {
                if c.violation(&x) <= EPS {
                    continue;
                }
                x = project_and_recurse(obj, &constraints[..k], c)?;
            }
            Some(x)
        }

        fn project_and_recurse(
            obj: &[f64],
            earlier: &[ConstraintD],
            tight: &ConstraintD,
        ) -> Option<Vec<f64>> {
            let d = obj.len();
            let k = (0..d)
                .max_by(|&i, &j| {
                    tight.normal[i]
                        .abs()
                        .partial_cmp(&tight.normal[j].abs())
                        .expect("finite normals")
                })
                .expect("d >= 1");
            let nk = tight.normal[k];
            if nk.abs() <= EPS {
                return None;
            }
            let reduce = |coeffs: &[f64], rhs: f64| -> (Vec<f64>, f64) {
                let scale = coeffs[k] / nk;
                let red: Vec<f64> = (0..d)
                    .filter(|&j| j != k)
                    .map(|j| coeffs[j] - scale * tight.normal[j])
                    .collect();
                (red, rhs - scale * tight.bound)
            };
            let (robj, _) = reduce(obj, 0.0);
            let mut rcons: Vec<ConstraintD> = Vec::with_capacity(earlier.len() + 2);
            for c in earlier {
                let (rn, rb) = reduce(&c.normal, c.bound);
                rcons.push(ConstraintD::new(rn, rb));
            }
            for sign in [1.0, -1.0] {
                let mut coeffs = vec![0.0; d];
                coeffs[k] = sign;
                let (rn, rb) = reduce(&coeffs, BOX_M);
                rcons.push(ConstraintD::new(rn, rb));
            }
            let sub = solve_recursive(&robj, &rcons)?;
            let mut x = vec![0.0; d];
            let mut si = 0;
            for (j, xj) in x.iter_mut().enumerate() {
                if j != k {
                    *xj = sub[si];
                    si += 1;
                }
            }
            let partial: f64 = (0..d)
                .filter(|&j| j != k)
                .map(|j| tight.normal[j] * x[j])
                .sum();
            x[k] = (tight.bound - partial) / nk;
            Some(x)
        }

        struct SeidelD<'a> {
            inst: &'a LpInstanceD,
            optimum: Vec<f64>,
            infeasible: bool,
        }

        impl Type2Algorithm for SeidelD<'_> {
            fn len(&self) -> usize {
                self.inst.constraints.len()
            }

            fn is_special(&self, k: usize) -> bool {
                !self.infeasible && self.inst.constraints[k].violation(&self.optimum) > EPS
            }

            fn run_regular(&mut self, _k: usize) {}

            fn run_special(&mut self, k: usize) {
                match project_and_recurse(
                    &self.inst.objective,
                    &self.inst.constraints[..k],
                    &self.inst.constraints[k],
                ) {
                    Some(x) => self.optimum = x,
                    None => self.infeasible = true,
                }
            }
        }

        /// [`run_with_d`] over the reference recursion.
        pub(super) fn run(inst: &LpInstanceD, cfg: &RunConfig) -> (LpOutcomeD, RunReport) {
            ri_core::engine::Runner::new(cfg.clone()).solve("lp-seidel-d", |cfg| {
                let mut st = SeidelD {
                    inst,
                    optimum: box_optimum(&inst.objective),
                    infeasible: false,
                };
                let report = execute_type2(&mut st, cfg);
                let outcome = if st.infeasible {
                    LpOutcomeD::Infeasible
                } else {
                    LpOutcomeD::Optimal(st.optimum)
                };
                (outcome, report)
            })
        }
    }

    /// Assert that the flat-row solver matches [`reference`] at dimension
    /// `d` in the optimum's bits, the specials and the checks: both
    /// shapes, n ∈ {50, 700, 8000}, 6 seeds, sequential and parallel at
    /// widths 1 and 2 (108 cases).
    fn assert_flat_rows_match_reference(d: usize) {
        use ri_core::engine::Problem;
        let bits = |o: &LpOutcomeD| match o {
            LpOutcomeD::Optimal(x) => Some(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()),
            LpOutcomeD::Infeasible => None,
        };
        let configs = [
            RunConfig::new().sequential(),
            RunConfig::new().parallel().threads(1),
            RunConfig::new().parallel().threads(2),
        ];
        let mut cases = 0;
        for shape in [tangent_instance_d, degenerate_instance_d] {
            for n in [50, 700, 8000] {
                for seed in 0..6 {
                    let inst = shape(d, n, seed);
                    for cfg in &configs {
                        let (got, got_report) = crate::LpProblemD::new(&inst).solve(cfg);
                        let (want, want_report) = reference::run(&inst, cfg);
                        let case = format!("d={d} n={n} seed={seed} {:?}", cfg.mode);
                        assert_eq!(bits(&got), bits(&want), "optimum of {case}");
                        assert_eq!(got_report.specials, want_report.specials, "{case}");
                        assert_eq!(got_report.checks, want_report.checks, "{case}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 108);
    }

    #[test]
    fn flat_rows_match_the_reference_at_d2() {
        assert_flat_rows_match_reference(2);
    }

    #[test]
    fn flat_rows_match_the_reference_at_d3() {
        assert_flat_rows_match_reference(3);
    }

    #[test]
    fn flat_rows_match_the_reference_at_d4() {
        assert_flat_rows_match_reference(4);
    }

    #[test]
    fn flat_rows_match_the_reference_at_d5() {
        assert_flat_rows_match_reference(5);
    }

    #[test]
    fn one_dimensional() {
        // max x s.t. x ≤ 3, −x ≤ 1 (i.e. x ≥ −1).
        let inst = LpInstanceD {
            objective: vec![1.0],
            constraints: vec![
                ConstraintD::new(vec![1.0], 3.0),
                ConstraintD::new(vec![-1.0], 1.0),
            ],
        };
        match lp_d_sequential(&inst).outcome {
            LpOutcomeD::Optimal(x) => assert!((x[0] - 3.0).abs() < 1e-9),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn matches_2d_solver() {
        use crate::seidel::LpOutcome;
        use ri_core::engine::Problem;
        use ri_geometry::Point2;
        for seed in 0..8 {
            let inst2 = crate::workloads::tangent_instance(200, seed);
            let instd = LpInstanceD {
                objective: vec![inst2.objective.x, inst2.objective.y],
                constraints: inst2
                    .constraints
                    .iter()
                    .map(|c| ConstraintD::new(vec![c.normal.x, c.normal.y], c.bound))
                    .collect(),
            };
            let got = lp_d_parallel(&instd).outcome;
            let want = crate::LpProblem::new(&inst2).solve(&RunConfig::new()).0;
            match (got, want) {
                (LpOutcomeD::Optimal(x), LpOutcome::Optimal(y)) => {
                    let p = Point2::new(x[0], x[1]);
                    assert!(p.dist(y) < 1e-5, "seed {seed}: {p} vs {y}");
                }
                (a, b) => panic!("seed {seed}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn three_dimensional_simplex() {
        // max x+y+z s.t. x ≤ 1, y ≤ 2, z ≤ 3: optimum (1, 2, 3).
        let e = |k: usize| {
            let mut v = vec![0.0; 3];
            v[k] = 1.0;
            v
        };
        let inst = LpInstanceD {
            objective: vec![1.0, 1.0, 1.0],
            constraints: vec![
                ConstraintD::new(e(0), 1.0),
                ConstraintD::new(e(1), 2.0),
                ConstraintD::new(e(2), 3.0),
            ],
        };
        match lp_d_sequential(&inst).outcome {
            LpOutcomeD::Optimal(x) => {
                assert!((x[0] - 1.0).abs() < 1e-6, "{x:?}");
                assert!((x[1] - 2.0).abs() < 1e-6, "{x:?}");
                assert!((x[2] - 3.0).abs() < 1e-6, "{x:?}");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn tangent_sphere_optimum_feasible_and_extremal() {
        for d in [2usize, 3, 4] {
            for seed in 0..4 {
                let inst = tangent_instance_d(d, 300, seed);
                let run = lp_d_parallel(&inst);
                let LpOutcomeD::Optimal(x) = run.outcome else {
                    panic!("d={d} seed {seed}: tangent instance infeasible?")
                };
                // Feasible...
                for c in &inst.constraints {
                    assert!(
                        c.violation(&x) <= 1e-6,
                        "d={d}: violated by {}",
                        c.violation(&x)
                    );
                }
                // ...and at least as good as the inscribed-sphere point in
                // the objective direction (obj is a unit vector; n̂·x ≤ 1
                // polytope contains the unit sphere).
                let val = dot(&inst.objective, &x);
                assert!(val >= 1.0 - 1e-6, "d={d}: objective value {val} < 1");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_d3() {
        for seed in 0..6 {
            let inst = tangent_instance_d(3, 400, seed);
            let seq = lp_d_sequential(&inst);
            let par = lp_d_parallel(&inst);
            match (&seq.outcome, &par.outcome) {
                (LpOutcomeD::Optimal(x), LpOutcomeD::Optimal(y)) => {
                    let dist: f64 = x
                        .iter()
                        .zip(y)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    assert!(dist < 1e-6, "seed {seed}: {x:?} vs {y:?}");
                }
                (a, b) => panic!("seed {seed}: {a:?} vs {b:?}"),
            }
            assert_eq!(seq.stats.specials, par.stats.specials);
        }
    }

    #[test]
    fn specials_scale_with_dimension() {
        // Backwards analysis: ≤ d/j probability ⇒ ≈ d·H_n expected specials.
        let n = 2000;
        let hn = ri_core::harmonic(n);
        for d in [2usize, 3, 4] {
            let mut total = 0usize;
            let trials = 6;
            for seed in 0..trials {
                total += lp_d_parallel(&tangent_instance_d(d, n, seed))
                    .stats
                    .specials
                    .len();
            }
            let avg = total as f64 / trials as f64;
            assert!(
                avg <= d as f64 * hn + 5.0,
                "d={d}: avg specials {avg} above d·H_n = {}",
                d as f64 * hn
            );
        }
    }

    #[test]
    fn infeasible_detected_d3() {
        let mut inst = tangent_instance_d(3, 50, 1);
        inst.constraints
            .push(ConstraintD::new(vec![1.0, 0.0, 0.0], -2.0));
        inst.constraints
            .push(ConstraintD::new(vec![-1.0, 0.0, 0.0], -2.0));
        assert_eq!(lp_d_parallel(&inst).outcome, LpOutcomeD::Infeasible);
    }
}
