//! Scratch-arena hygiene: the round engine's reusable buffers must never
//! leak state between runs. For **every** registered problem, a thread
//! whose scratch pool has already served several runs (warm pool, hits
//! guaranteed) must produce an `OutputSummary.answer` byte-identical to a
//! run on a freshly spawned thread (empty pool, misses only) — at every
//! thread width, parallel and sequential. Widths above 1 run with crews
//! forced (`rayon::with_region_ns(0, ..)`), so their rounds really run on
//! crews.

use proptest::prelude::*;

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::OutputSummary;
use ri_core::{RunConfig, WorkloadSpec};

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

fn spec_for(name: &str, n: usize, seed: u64) -> WorkloadSpec {
    let spec = WorkloadSpec::new(n, seed);
    match name {
        "lp-d" => spec.param(3.0),
        "le-lists" => spec.param(4.0),
        _ => spec,
    }
}

/// The mode-invariant answer as a canonical JSON string: equal strings =
/// byte-identical answers.
fn fingerprint(summary: &OutputSummary) -> String {
    Value::Obj(summary.answer().to_vec()).write()
}

fn solve_fingerprint(name: &str, n: usize, workload_seed: u64, cfg: &RunConfig) -> String {
    let reg = registry();
    let (summary, _report) = reg
        .solve(name, &spec_for(name, n, workload_seed), cfg)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    fingerprint(&summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Repeated `Runner::solve`s on one thread (scratch pool warm, buffers
    /// reused across runs) answer byte-identically to a fresh-state run
    /// (new thread, empty pool) for every registered problem at 1–8
    /// threads.
    #[test]
    fn warm_scratch_answers_equal_fresh_state_answers(
        n in 96usize..256,
        workload_seed in 1u64..1000,
        run_seed in 1u64..1000,
    ) {
        for name in ALL_PROBLEMS {
            // Fresh-state reference: a brand-new thread has an empty
            // scratch pool by construction.
            let fresh = {
                let name = name.to_string();
                let cfg = RunConfig::new().seed(run_seed).parallel().instrument(false);
                std::thread::spawn(move || solve_fingerprint(&name, n, workload_seed, &cfg))
                    .join()
                    .expect("fresh-state solve")
            };
            // Warm-pool runs: same thread, repeatedly, across widths and
            // modes. Every answer must equal the fresh-state one.
            for threads in [1usize, 2, 4, 8] {
                let cfg = RunConfig::new()
                    .seed(run_seed)
                    .parallel()
                    .threads(threads)
                    .instrument(false);
                for repeat in 0..2 {
                    let warm = if threads > 1 {
                        rayon::with_region_ns(0, || solve_fingerprint(name, n, workload_seed, &cfg))
                    } else {
                        solve_fingerprint(name, n, workload_seed, &cfg)
                    };
                    prop_assert_eq!(
                        &warm, &fresh,
                        "{} diverged on warm-scratch run {} at {} threads",
                        name, repeat, threads
                    );
                }
            }
            let seq = solve_fingerprint(
                name,
                n,
                workload_seed,
                &RunConfig::new().seed(run_seed).sequential().instrument(false),
            );
            prop_assert_eq!(&seq, &fresh, "{}: sequential baseline diverged", name);
        }
    }
}

/// Deterministic (non-proptest) smoke: scratch reuse actually happens on
/// repeated runs — the second run's report shows pool hits — while the
/// answers stay identical.
#[test]
fn repeated_runs_reuse_scratch_and_stay_identical() {
    let reg = registry();
    let cfg = RunConfig::new().seed(3).parallel().threads(2);
    let spec = spec_for("sort", 4096, 5);
    let solve = || rayon::with_region_ns(0, || reg.solve("sort", &spec, &cfg)).unwrap();
    let (first_summary, _first) = solve();
    let (second_summary, second) = solve();
    assert_eq!(fingerprint(&first_summary), fingerprint(&second_summary));
    assert!(
        second.scratch_hits > 0,
        "second run must reuse pooled buffers, report: {}",
        second.to_json()
    );
}
