//! Registry-level integration tests: every registered problem constructs
//! and solves by name, and — the paper's central claim — the parallel
//! schedule reproduces the sequential output for **all** of them, checked
//! through one object-safe code path (PR 1 only covered one algorithm per
//! type class).

use parallel_ri::registry;
use ri_core::engine::json;
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
fn registry_lists_every_problem() {
    let reg = registry();
    assert_eq!(reg.names(), ALL_PROBLEMS.to_vec());
    assert_eq!(reg.names().len(), ALL_PROBLEMS.len());
}

#[test]
fn every_registered_name_constructs_and_solves() {
    let reg = registry();
    for name in ALL_PROBLEMS {
        let problem = reg
            .construct(name, &small_spec(name))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(problem.name(), name);
        let (summary, report) = problem.solve_erased(&RunConfig::new().seed(7));
        assert!(report.items > 0, "{name}: empty report");
        assert!(report.depth > 0, "{name}: no measured depth");
        // The summary and the full response shape must be valid JSON.
        let parsed = json::parse(&summary.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(parsed.get("answer").is_some(), "{name}: no answer section");
        assert!(
            parsed.get("metrics").is_some(),
            "{name}: no metrics section"
        );
        json::parse(&report.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn sequential_and_parallel_answers_agree_for_all_problems() {
    let reg = registry();
    for name in ALL_PROBLEMS {
        let spec = small_spec(name);
        // Same run seed: problems that draw processing orders at solve
        // time (le-lists, scc) must see the same order in both modes.
        let seq_cfg = RunConfig::new().seed(11).sequential().instrument(false);
        let par_cfg = RunConfig::new().seed(11).parallel().instrument(false);
        let (seq, seq_report) = reg.solve(name, &spec, &seq_cfg).unwrap();
        let (par, par_report) = reg.solve(name, &spec, &par_cfg).unwrap();
        assert_eq!(
            seq.answer(),
            par.answer(),
            "{name}: parallel answer diverges from sequential"
        );
        assert_eq!(seq_report.mode, ExecMode::Sequential, "{name}");
        assert_eq!(par_report.mode, ExecMode::Parallel, "{name}");
        assert_eq!(seq_report.items, par_report.items, "{name}");
        // The sequential dependence chain is the input order itself; the
        // parallel schedule must be strictly shallower on these sizes.
        assert!(
            par_report.depth < seq_report.depth,
            "{name}: parallel depth {} not below sequential {}",
            par_report.depth,
            seq_report.depth
        );
    }
}

/// Work counters are summed per item or per chunk after each round, never
/// bumped from inside a crew, so they — and the per-round work of the
/// trace — do not depend on how many threads ran the rounds.
#[test]
fn work_counters_are_width_invariant() {
    let reg = registry();
    for (name, n) in [
        ("sort-batch", 40_000),
        ("scc", 60_000),
        ("le-lists", 8_000),
        ("enclosing", 50_000),
    ] {
        let problem = reg
            .construct(name, &WorkloadSpec::new(n, 5))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let solve =
            |threads: usize| problem.solve_erased(&RunConfig::new().seed(7).threads(threads));
        let (want, want_report) = solve(1);
        assert!(!want.metrics().is_empty(), "{name}: no work counters");
        for threads in [2, 4] {
            let (got, report) = solve(threads);
            assert_eq!(got.answer(), want.answer(), "{name} at {threads} threads");
            assert_eq!(got.metrics(), want.metrics(), "{name} at {threads} threads");
            assert_eq!(
                report.rounds, want_report.rounds,
                "{name} at {threads} threads: per-round work"
            );
        }
    }
}

#[test]
fn solve_is_deterministic_per_seed() {
    let reg = registry();
    for name in ALL_PROBLEMS {
        let spec = small_spec(name);
        let cfg = RunConfig::new().seed(3).instrument(false);
        let (a, _) = reg.solve(name, &spec, &cfg).unwrap();
        let (b, _) = reg.solve(name, &spec, &cfg).unwrap();
        assert_eq!(a, b, "{name}: same spec + config must reproduce");
    }
}

#[test]
fn unknown_problem_is_a_clean_error() {
    let reg = registry();
    let err = reg
        .solve("sideways", &WorkloadSpec::new(8, 0), &RunConfig::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown problem `sideways`"));
    // The error lists the full vocabulary for discoverability.
    for name in ALL_PROBLEMS {
        assert!(msg.contains(name), "error message misses {name}");
    }
}

#[test]
fn cli_request_shapes_round_trip() {
    // The `ri` driver's request halves: WorkloadSpec and RunConfig both
    // (de)serialize through the same hand-rolled JSON layer as RunReport.
    let spec = WorkloadSpec::new(512, 9).shape("uniform-disk").param(2.0);
    assert_eq!(WorkloadSpec::from_json(&spec.to_json()).unwrap(), spec);
    let cfg = RunConfig::new().seed(5).sequential().threads(2);
    assert_eq!(RunConfig::from_json(&cfg.to_json()).unwrap(), cfg);
    // Partial requests fall back to defaults, as the CLI promises.
    let partial = RunConfig::from_json("{\"mode\":\"parallel\"}").unwrap();
    assert_eq!(partial, RunConfig::default());
}
