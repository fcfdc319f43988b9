//! Registry entries: `"lp"` (Seidel's 2-D LP, §5.1, Type 2) and `"lp-d"`
//! (the d-dimensional extension). The 2-D workload shape picks a
//! generator from [`crate::workloads`] (`"tangent"` default,
//! `"shrinking"`, `"infeasible"`, plus the adversarial `"degenerate"`
//! and `"near-infeasible"` families); `lp-d` solves the tangent-sphere
//! (`"tangent"`, default) or `"degenerate"` workload with `param` as
//! the dimension (default 3).

use ri_core::engine::registry::{OutputSummary, Registry};
use ri_core::engine::{Problem, RunConfig, RunReport};

use crate::highdim::{degenerate_instance_d, tangent_instance_d, LpInstanceD, LpOutcomeD};
use crate::seidel::{LpInstance, LpOutcome};
use crate::{workloads, LpProblem, LpProblemD};

/// Register this crate's problems.
pub fn register(reg: &mut Registry) {
    reg.register(
        "lp",
        "Seidel's randomized incremental 2-D LP (§5.1, Type 2)",
        |spec| {
            let inst = match spec.shape_or("tangent") {
                "tangent" => workloads::tangent_instance(spec.n, spec.seed),
                "shrinking" => workloads::shrinking_instance(spec.n, spec.seed),
                "infeasible" => workloads::infeasible_instance(spec.n, spec.seed),
                "degenerate" => workloads::degenerate_instance(spec.n, spec.seed),
                "near-infeasible" => workloads::near_infeasible_instance(spec.n, spec.seed),
                other => {
                    return Err(format!(
                        "unknown lp workload `{other}` (known: tangent, shrinking, \
                         infeasible, degenerate, near-infeasible)"
                    ))
                }
            };
            Ok(inst)
        },
        solve_2d,
    );
    reg.register(
        "lp-d",
        "d-dimensional Seidel LP on the tangent-sphere workload (param = dimension)",
        |spec| {
            let d = spec.param_or(3.0);
            if d < 1.0 || d.fract() != 0.0 || d > 16.0 {
                return Err(format!(
                    "lp-d dimension must be an integer in 1..=16, got {d}"
                ));
            }
            let inst = match spec.shape_or("tangent") {
                "tangent" => tangent_instance_d(d as usize, spec.n, spec.seed),
                "degenerate" => degenerate_instance_d(d as usize, spec.n, spec.seed),
                other => {
                    return Err(format!(
                        "unknown lp-d workload `{other}` (known: tangent, degenerate)"
                    ))
                }
            };
            Ok(inst)
        },
        solve_d,
    );
}

fn solve_2d(inst: &LpInstance, cfg: &RunConfig) -> (OutputSummary, RunReport) {
    let (outcome, report) = LpProblem::new(inst).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("constraints", inst.constraints.len() as f64);
    match outcome {
        LpOutcome::Optimal(x) => {
            // The parallel schedule reproduces the sequential optimum
            // exactly (min/max reductions are associative), so exact
            // coordinates are safe answer fields.
            s.answer_str("outcome", "optimal")
                .answer_num("x", x.x)
                .answer_num("y", x.y);
        }
        LpOutcome::Infeasible => {
            s.answer_str("outcome", "infeasible");
        }
    }
    (s, report)
}

fn solve_d(inst: &LpInstanceD, cfg: &RunConfig) -> (OutputSummary, RunReport) {
    let (outcome, report) = LpProblemD::new(inst).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("constraints", inst.constraints.len() as f64)
        .answer_num("dimension", inst.objective.len() as f64);
    match outcome {
        LpOutcomeD::Optimal(x) => {
            // Recursive 1-D solves accumulate mode-dependent rounding
            // in the last bits, so the objective value is a metric,
            // not an answer field.
            s.answer_str("outcome", "optimal");
            let value: f64 = inst.objective.iter().zip(&x).map(|(a, b)| a * b).sum();
            s.metric_num("objective_value", value);
        }
        LpOutcomeD::Infeasible => {
            s.answer_str("outcome", "infeasible");
        }
    }
    (s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_names_solve() {
        let mut reg = Registry::new();
        register(&mut reg);
        let (summary, _) = reg
            .solve("lp", &WorkloadSpec::new(400, 2), &RunConfig::new())
            .unwrap();
        assert!(summary.to_json().contains("\"outcome\":\"optimal\""));
        let (summary, _) = reg
            .solve(
                "lp",
                &WorkloadSpec::new(64, 2).shape("infeasible"),
                &RunConfig::new(),
            )
            .unwrap();
        assert!(summary.to_json().contains("\"outcome\":\"infeasible\""));
        let (summary, _) = reg
            .solve(
                "lp-d",
                &WorkloadSpec::new(200, 2).param(4.0),
                &RunConfig::new(),
            )
            .unwrap();
        assert!(summary.to_json().contains("\"dimension\":4"));
    }

    #[test]
    fn bad_specs_rejected() {
        let mut reg = Registry::new();
        register(&mut reg);
        assert!(reg
            .construct("lp", &WorkloadSpec::new(10, 1).shape("sideways"))
            .is_err());
        assert!(reg
            .construct("lp-d", &WorkloadSpec::new(10, 1).param(2.5))
            .is_err());
        assert!(reg
            .construct("lp-d", &WorkloadSpec::new(10, 1).shape("sideways"))
            .is_err());
    }

    #[test]
    fn adversarial_shapes_solve() {
        let mut reg = Registry::new();
        register(&mut reg);
        for shape in ["degenerate", "near-infeasible"] {
            let (summary, _) = reg
                .solve(
                    "lp",
                    &WorkloadSpec::new(128, 4).shape(shape),
                    &RunConfig::new(),
                )
                .unwrap();
            assert!(
                summary.to_json().contains("\"outcome\":\"optimal\""),
                "{shape}"
            );
        }
        let (summary, _) = reg
            .solve(
                "lp-d",
                &WorkloadSpec::new(128, 4).shape("degenerate").param(4.0),
                &RunConfig::new(),
            )
            .unwrap();
        assert!(summary.to_json().contains("\"outcome\":\"optimal\""));
    }
}
