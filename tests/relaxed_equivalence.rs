//! The relaxed-mode contract: `relaxed:k` still parses and is echoed
//! back, but for **every** registered problem it runs the exact parallel
//! schedule — the same answer and the same round trace as a parallel run,
//! with `relaxed_fallback` saying so — at every relaxation factor and pool
//! width. The largest factor guards a request that once made the process
//! allocate one heap per unit of `k` and abort.

use parallel_ri::registry;
use ri_core::engine::{RoundTrace, RunReport};
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
        let (par, par_report) = reg.solve(name, &spec, &par_cfg).unwrap();
        for k in [1usize, 4, 64, u32::MAX as usize] {
            let rel_cfg = RunConfig::new().seed(11).relaxed(k).instrument(false);
            let (rel, report) = reg.solve(name, &spec, &rel_cfg).unwrap();
            assert_eq!(
                par.answer(),
                rel.answer(),
                "{name}: relaxed:{k} answer diverges from parallel"
            );
            assert_eq!(
                RoundTrace::from_report(&report),
                RoundTrace::from_report(&par_report),
                "{name}: relaxed:{k} trace diverges from parallel"
            );
            assert_eq!(report.mode, ExecMode::Relaxed { k }, "{name} k={k}");
            let reason = report
                .relaxed_fallback
                .as_deref()
                .unwrap_or_else(|| panic!("{name}: relaxed:{k} ran without a reported fallback"));
            assert!(
                reason.contains("exact parallel"),
                "{name}: fallback reason `{reason}` does not name the exact schedule"
            );
            // The echoed mode and the fallback survive the serving envelope.
            let back = RunReport::from_json(&report.to_json()).unwrap();
            assert_eq!(back.mode, report.mode, "{name} k={k}");
            assert_eq!(back.relaxed_fallback, report.relaxed_fallback, "{name}");
        }
    }
}

#[test]
fn relaxed_answers_are_width_invariant() {
    // The exact parallel schedule is a function of the seed alone; the
    // width only changes who executes each round's work (crews forced, so
    // every width above 1 runs them).
    let reg = registry();
    for name in ALL_PROBLEMS {
        let spec = small_spec(name);
        let base = reg
            .solve(name, &spec, &RunConfig::new().seed(5).relaxed(4).threads(1))
            .unwrap()
            .0;
        for width in 2..=8usize {
            let cfg = RunConfig::new().seed(5).relaxed(4).threads(width);
            let (got, _) = rayon::with_region_ns(0, || reg.solve(name, &spec, &cfg)).unwrap();
            assert_eq!(
                base.answer(),
                got.answer(),
                "{name}: relaxed answer changed between width 1 and {width}"
            );
        }
    }
}
