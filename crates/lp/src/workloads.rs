//! LP workload generators (seeded, reproducible).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ri_geometry::Point2;

use crate::seidel::{Constraint, LpInstance};

/// Constraints tangent to the unit disk: `n̂ · x ≤ 1` for random unit
/// normals `n̂`. Always feasible (the unit disk is inside every halfplane),
/// the feasible region is a random polygon circumscribing the disk, and
/// with a random objective the optimum is a non-degenerate vertex — the
/// standard benign-but-nontrivial Seidel workload.
pub fn tangent_instance(n: usize, seed: u64) -> LpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut angle = || rng.gen::<f64>() * std::f64::consts::TAU;
    let objective = {
        let a = angle();
        Point2::new(a.cos(), a.sin())
    };
    let constraints = (0..n)
        .map(|_| {
            let a = angle();
            Constraint::new(Point2::new(a.cos(), a.sin()), 1.0)
        })
        .collect();
    LpInstance {
        objective,
        constraints,
    }
}

/// A feasible instance whose optimum moves many times: constraints tangent
/// to a shrinking spiral of disks (more special iterations early).
pub fn shrinking_instance(n: usize, seed: u64) -> LpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let objective = Point2::new(1.0, 0.3);
    let constraints = (0..n)
        .map(|i| {
            let a = rng.gen::<f64>() * std::f64::consts::TAU;
            let radius = 1.0 + 10.0 / (1.0 + i as f64);
            Constraint::new(Point2::new(a.cos(), a.sin()), radius)
        })
        .collect();
    LpInstance {
        objective,
        constraints,
    }
}

/// An infeasible instance: tangent constraints plus an early pair of
/// contradictory halfplanes (`x ≤ −2`, `−x ≤ −2`) shuffled in.
pub fn infeasible_instance(n: usize, seed: u64) -> LpInstance {
    let mut inst = tangent_instance(n.saturating_sub(2), seed);
    // Room for exactly the two extra constraints, not a doubled buffer.
    inst.constraints.reserve_exact(2);
    inst.constraints
        .push(Constraint::new(Point2::new(1.0, 0.0), -2.0));
    inst.constraints
        .push(Constraint::new(Point2::new(-1.0, 0.0), -2.0));
    // Deterministic shuffle so the contradiction is discovered mid-run.
    ri_pram::shuffle(&mut inst.constraints, seed ^ 0xbad);
    inst
}

/// Tangent-degenerate instance: half the unit normals crowd into a
/// ±1e-4 cone around the objective direction (the rest are spread), all
/// with bound 1. The optimum vertex is the intersection of two
/// near-parallel tangents and every crowd member is within ~1e-8 of
/// optimal, so each late crowd arrival is a near-tie for the basis —
/// Devillers' degenerate regime for the incremental LP. Always feasible
/// (the unit disk is inside every halfplane).
pub fn degenerate_instance(n: usize, seed: u64) -> LpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let th_star = rng.gen::<f64>() * std::f64::consts::TAU;
    let objective = Point2::new(th_star.cos(), th_star.sin());
    let constraints = (0..n)
        .map(|i| {
            let a = if i % 2 == 0 {
                th_star + (rng.gen::<f64>() - 0.5) * 2e-4
            } else {
                rng.gen::<f64>() * std::f64::consts::TAU
            };
            Constraint::new(Point2::new(a.cos(), a.sin()), 1.0)
        })
        .collect();
    LpInstance {
        objective,
        constraints,
    }
}

/// Feasible by a sliver: tangent constraints plus an antiparallel pair
/// `n̂·x ≤ 1`, `−n̂·x ≤ −(1 − 1e-6)` shuffled in, leaving a band of
/// width 1e-6 — three orders of magnitude above Seidel's 1e-9 epsilon,
/// so the outcome is deterministically optimal, but every violation
/// test near the band is small. The near-infeasible twin of
/// [`infeasible_instance`].
pub fn near_infeasible_instance(n: usize, seed: u64) -> LpInstance {
    const BAND: f64 = 1e-6;
    let mut inst = tangent_instance(n.saturating_sub(2), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11f);
    let a = rng.gen::<f64>() * std::f64::consts::TAU;
    let nhat = Point2::new(a.cos(), a.sin());
    inst.constraints.reserve_exact(2);
    inst.constraints.push(Constraint::new(nhat, 1.0));
    inst.constraints.push(Constraint::new(
        Point2::new(-nhat.x, -nhat.y),
        -(1.0 - BAND),
    ));
    ri_pram::shuffle(&mut inst.constraints, seed ^ 0x51e);
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seidel::LpOutcome;
    use ri_core::engine::{Problem, RunConfig};

    fn solve_parallel(inst: &LpInstance) -> LpOutcome {
        crate::LpProblem::new(inst).solve(&RunConfig::new()).0
    }

    #[test]
    fn tangent_is_reproducible() {
        let a = tangent_instance(50, 1);
        let b = tangent_instance(50, 1);
        assert_eq!(a.constraints.len(), b.constraints.len());
        assert_eq!(a.objective, b.objective);
        assert!(a
            .constraints
            .iter()
            .zip(&b.constraints)
            .all(|(x, y)| x == y));
    }

    #[test]
    fn tangent_contains_unit_disk() {
        let inst = tangent_instance(100, 2);
        // Origin is strictly feasible.
        for c in &inst.constraints {
            assert!(c.violation(Point2::new(0.0, 0.0)) < 0.0);
        }
    }

    #[test]
    fn infeasible_instance_is_infeasible() {
        for seed in 0..5 {
            let inst = infeasible_instance(64, seed);
            assert_eq!(solve_parallel(&inst), LpOutcome::Infeasible);
        }
    }

    #[test]
    fn degenerate_instance_feasible_with_near_ties() {
        for seed in 0..5 {
            let inst = degenerate_instance(128, seed);
            // Strictly feasible at the origin.
            for c in &inst.constraints {
                assert!(c.violation(Point2::new(0.0, 0.0)) < 0.0);
            }
            match solve_parallel(&inst) {
                LpOutcome::Optimal(x) => {
                    // The optimum sits on the crowded tangent bundle:
                    // objective value ≈ 1.
                    let v = inst.objective.x * x.x + inst.objective.y * x.y;
                    assert!((v - 1.0).abs() < 1e-3, "objective value {v}");
                }
                o => panic!("expected optimal, got {o:?}"),
            }
        }
    }

    #[test]
    fn near_infeasible_instance_is_feasible() {
        for seed in 0..5 {
            let inst = near_infeasible_instance(64, seed);
            match solve_parallel(&inst) {
                LpOutcome::Optimal(_) => {}
                o => panic!("seed {seed}: expected optimal, got {o:?}"),
            }
        }
    }

    #[test]
    fn shrinking_instance_feasible() {
        let inst = shrinking_instance(200, 3);
        match solve_parallel(&inst) {
            LpOutcome::Optimal(_) => {}
            o => panic!("expected optimal, got {o:?}"),
        }
    }
}
