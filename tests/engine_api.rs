//! Engine-level integration tests: one `Runner`/`RunConfig` path over all
//! three algorithm classes, sequential/parallel output equivalence, and
//! report serialization across crate boundaries.

use parallel_ri::prelude::*;

/// One algorithm per class, each solved in both modes through the same
/// `RunConfig` surface: outputs must be identical (the framework's central
/// correctness claim), and the reports must expose the class's depth
/// semantics.
#[test]
fn sequential_and_parallel_agree_for_each_type() {
    // Type 1: BST sort — identical tree (Theorem 3.2).
    let keys = random_permutation(5000, 21);
    let sort = SortProblem::new(&keys);
    let (sort_seq, sort_seq_report) = sort.solve(&RunConfig::new().sequential());
    let (sort_par, sort_par_report) = sort.solve(&RunConfig::new().parallel());
    assert_eq!(sort_seq.tree, sort_par.tree);
    assert_eq!(sort_seq.comparisons, sort_par.comparisons);
    assert_eq!(sort_seq_report.depth, 5000);
    assert_eq!(sort_par_report.depth, sort_par_report.rounds.rounds());

    // Type 2: closest pair — identical pair, distance, and specials trace.
    let pts = PointDistribution::UniformSquare.generate(4000, 22);
    let cp = ClosestPairProblem::new(&pts);
    let (cp_seq, cp_seq_report) = cp.solve(&RunConfig::new().sequential());
    let (cp_par, cp_par_report) = cp.solve(&RunConfig::new().parallel());
    assert_eq!(cp_seq, cp_par);
    assert_eq!(cp_seq_report.specials, cp_par_report.specials);
    assert_eq!(cp_par_report.depth, cp_par_report.total_sub_rounds());

    // Type 3: LE-lists — identical lists (the combine step reproduces the
    // sequential run exactly).
    let g = parallel_ri::graph::generators::gnm_weighted(2000, 8000, 23, true);
    let le = LeListsProblem::new(&g);
    let cfg = RunConfig::new().seed(24);
    let (le_seq, _) = le.solve(&cfg.clone().sequential());
    let (le_par, le_par_report) = le.solve(&cfg.clone().parallel());
    assert_eq!(le_seq.lists, le_par.lists);
    assert_eq!(le_par_report.depth, le_par_report.rounds.rounds());
    assert!(le_par_report.depth <= 13, "⌈log₂ 2000⌉ + 1 doubling rounds");
}

/// The thread knob is honoured and recorded; single-worker parallel mode
/// still produces identical outputs (determinism does not depend on the
/// worker count).
#[test]
fn thread_count_is_scoped_and_deterministic() {
    let keys = random_permutation(4000, 31);
    let problem = SortProblem::new(&keys);
    let (wide, wide_report) = problem.solve(&RunConfig::new());
    let (narrow, narrow_report) = problem.solve(&RunConfig::new().threads(1));
    assert_eq!(wide.tree, narrow.tree);
    assert_eq!(narrow_report.threads, 1);
    assert!(wide_report.threads >= 1);
    assert_eq!(wide_report.depth, narrow_report.depth);
}

/// Reports from every algorithm survive the JSON round trip bit-exactly,
/// and instrumentation can be disabled.
#[test]
fn reports_serialize_across_algorithms() {
    let cfg = RunConfig::new().seed(7);
    let pts = PointDistribution::UniformSquare.generate(600, 7);
    let g = parallel_ri::graph::generators::gnm(500, 1500, 7, false);
    let inst = ri_lp::workloads::tangent_instance(600, 7);
    let keys = random_permutation(600, 7);

    let reports = vec![
        SortProblem::new(&keys).solve(&cfg).1,
        BatchSortProblem::new(&keys).solve(&cfg).1,
        DelaunayProblem::new(&pts).solve(&cfg).1,
        LpProblem::new(&inst).solve(&cfg).1,
        ClosestPairProblem::new(&pts).solve(&cfg).1,
        EnclosingProblem::new(&pts).solve(&cfg).1,
        LeListsProblem::new(&g).solve(&cfg).1,
        SccProblem::new(&g).solve(&cfg).1,
    ];
    let names: Vec<&str> = reports.iter().map(|r| r.algorithm.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "bst-sort",
            "bst-sort-batch",
            "delaunay",
            "lp-seidel",
            "closest-pair",
            "enclosing-disk",
            "le-lists",
            "scc"
        ]
    );
    for report in &reports {
        let back = RunReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(&back, report, "{} report round-trips", report.algorithm);
        assert!(report.wall_seconds > 0.0, "instrumented run records time");
    }

    // Instrumentation off: no phases, no wall time — everything else equal.
    let quiet = SortProblem::new(&keys)
        .solve(&cfg.clone().instrument(false))
        .1;
    assert!(quiet.phases.is_empty());
    assert_eq!(quiet.wall_seconds, 0.0);
    assert_eq!(quiet.depth, reports[0].depth);
}

/// Trait algorithms run through the same `Runner::solve` path as the
/// Problems.
#[test]
fn adapters_share_the_runner_path() {
    use std::sync::atomic::{AtomicBool, Ordering};

    struct Chain {
        done: Vec<AtomicBool>,
    }
    impl parallel_ri::framework::Type1Algorithm for Chain {
        fn len(&self) -> usize {
            self.done.len()
        }
        fn ready(&self, k: usize) -> bool {
            k == 0 || self.done[k - 1].load(Ordering::Relaxed)
        }
        fn run(&mut self, k: usize) {
            self.done[k].store(true, Ordering::Relaxed);
        }
    }

    let mut chain = Chain {
        done: (0..64).map(|_| AtomicBool::default()).collect(),
    };
    let runner = Runner::new(RunConfig::new().threads(2));
    let (_, report) = runner.solve("chain", |cfg| ((), execute_type1(&mut chain, cfg)));
    assert_eq!(report.depth, 64, "a chain has linear dependence depth");
    assert_eq!(report.threads, 2);
    assert_eq!(report.mode, ExecMode::Parallel);
}
