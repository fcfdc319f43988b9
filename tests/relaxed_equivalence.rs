//! The relaxed-execution gate: for **every** registered problem, a
//! `relaxed:k` run must produce the same answer as the exact parallel
//! schedule — natively where the problem has a k-relaxed loop (sort,
//! closest-pair, scc), via the reported exact-parallel fallback
//! everywhere else — at every relaxation factor and pool width.

use parallel_ri::registry;
use ri_core::engine::RunReport;
use ri_core::{ExecMode, RunConfig, WorkloadSpec};

/// Every name the workspace registers, in registration order.
const ALL_PROBLEMS: [&str; 9] = [
    "sort",
    "sort-batch",
    "delaunay",
    "lp",
    "lp-d",
    "closest-pair",
    "enclosing",
    "le-lists",
    "scc",
];

/// The problems with a first-class relaxed loop (no fallback).
const NATIVE_RELAXED: [&str; 3] = ["sort", "closest-pair", "scc"];

/// A small but non-trivial instance per problem.
fn small_spec(name: &str) -> WorkloadSpec {
    let spec = WorkloadSpec::new(256, 42);
    match name {
        "lp-d" => spec.param(3.0),
        "le-lists" => spec.param(4.0),
        _ => spec,
    }
}

#[test]
fn relaxed_answers_match_parallel_for_all_problems() {
    let reg = registry();
    for name in ALL_PROBLEMS {
        let spec = small_spec(name);
        let par_cfg = RunConfig::new().seed(11).parallel().instrument(false);
        let (par, _) = reg.solve(name, &spec, &par_cfg).unwrap();
        for k in [1usize, 4, 64] {
            let rel_cfg = RunConfig::new().seed(11).relaxed(k).instrument(false);
            let (rel, report) = reg.solve(name, &spec, &rel_cfg).unwrap();
            assert_eq!(
                par.answer(),
                rel.answer(),
                "{name}: relaxed:{k} answer diverges from parallel"
            );
            // The report carries the requested mode even through fallback.
            assert_eq!(report.mode, ExecMode::Relaxed { k }, "{name} k={k}");
            if NATIVE_RELAXED.contains(&name) {
                assert_eq!(
                    report.relaxed_fallback, None,
                    "{name}: native relaxed loop must not report a fallback"
                );
            } else {
                let reason = report
                    .relaxed_fallback
                    .as_deref()
                    .unwrap_or_else(|| panic!("{name}: fallback ran without a reported reason"));
                assert!(
                    reason.contains("exact parallel"),
                    "{name}: fallback reason `{reason}` does not name the exact schedule"
                );
            }
            // The relaxed counters survive the serving envelope.
            let back = RunReport::from_json(&report.to_json()).unwrap();
            assert_eq!(back.mode, report.mode, "{name} k={k}");
            assert_eq!(back.rank_inversions, report.rank_inversions, "{name}");
            assert_eq!(back.wasted_retries, report.wasted_retries, "{name}");
            assert_eq!(back.relaxed_fallback, report.relaxed_fallback, "{name}");
        }
    }
}

#[test]
fn relaxed_answers_are_width_invariant() {
    // Pops happen on the coordinating thread, so the relaxed schedule —
    // and hence the answer — is a function of (k, seed) alone; pool width
    // only changes who executes the popped work.
    let reg = registry();
    for name in ALL_PROBLEMS {
        let spec = small_spec(name);
        let base = reg
            .solve(name, &spec, &RunConfig::new().seed(5).relaxed(4).threads(1))
            .unwrap()
            .0;
        for width in 2..=8usize {
            let cfg = RunConfig::new().seed(5).relaxed(4).threads(width);
            let (got, _) = reg.solve(name, &spec, &cfg).unwrap();
            assert_eq!(
                base.answer(),
                got.answer(),
                "{name}: relaxed answer changed between width 1 and {width}"
            );
        }
    }
}

#[test]
fn relaxed_k1_reports_zero_rank_inversions_natively() {
    // k = 1 is a single exact priority queue: the pop order is the exact
    // priority order, so the measured relaxation must be zero.
    let reg = registry();
    for name in NATIVE_RELAXED {
        let spec = small_spec(name);
        let cfg = RunConfig::new().seed(11).relaxed(1).instrument(false);
        let (_, report) = reg.solve(name, &spec, &cfg).unwrap();
        assert_eq!(
            report.rank_inversions, 0,
            "{name}: k=1 must pop in exact priority order"
        );
    }
}
