//! Stress and failure-injection tests for the substrates, at the
//! integration level: larger sizes than unit tests, adversarial shapes,
//! and cross-checks between independent implementations.

use parallel_ri::prelude::*;

#[test]
fn deterministic_scc_agrees_with_eager_on_all_families() {
    use parallel_ri::graph::generators as gen;
    let n = 1 << 10;
    let graphs = [
        gen::gnm(n, 3 * n, 1, false),
        gen::random_dag(n, 3 * n, 2),
        gen::rmat(10, 4 * n, 3),
        gen::planted_sccs(&[n / 16; 16], n, n, 4).0,
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let order = random_permutation(g.num_vertices(), 7 + gi as u64);
        let (eager, _) = SccProblem::new(g)
            .with_order(order.clone())
            .solve(&RunConfig::new());
        let det = parallel_ri::scc::scc_parallel_deterministic(g, &order);
        let want = canonical_labels(&tarjan_scc(g));
        assert_eq!(canonical_labels(&eager.comp), want, "eager, graph {gi}");
        assert_eq!(
            canonical_labels(&det.result.comp),
            want,
            "deterministic, graph {gi}"
        );
    }
}

#[test]
fn delaunay_survives_adversarial_mixtures() {
    // Mixture of collinear runs, duplicated-then-deduped clusters, and a
    // near-circle ring: everything the exact predicates must absorb.
    let mut pts = Vec::new();
    for i in 0..50 {
        pts.push(Point2::new(i as f64, 0.0)); // horizontal line
        pts.push(Point2::new(0.0, i as f64 + 1.0)); // vertical line
    }
    for p in PointDistribution::NearCircle.generate(200, 8) {
        pts.push(Point2::new(p.x * 20.0 + 25.0, p.y * 20.0 + 25.0));
    }
    for p in PointDistribution::Clusters(3).generate(200, 9) {
        pts.push(Point2::new(p.x * 10.0, p.y * 10.0 + 5.0));
    }
    let pts = ri_geometry::distributions::dedup_points(pts);
    let order = random_permutation(pts.len(), 10);
    let shuffled: Vec<Point2> = order.iter().map(|&i| pts[i]).collect();

    let problem = DelaunayProblem::new(&shuffled);
    let (seq, _) = problem.solve(&RunConfig::new().sequential());
    let (par, _) = problem.solve(&RunConfig::new().parallel());
    seq.mesh.validate().expect("sequential mesh valid");
    par.mesh.validate().expect("parallel mesh valid");
    assert_eq!(seq.stats, par.stats, "identical ReplaceBoundary calls");
}

#[test]
fn le_lists_weighted_vs_unweighted_consistency() {
    // On a unit-weighted graph, the weighted code path must agree with
    // itself under an explicit all-ones weighting.
    use parallel_ri::graph::generators::gnm;
    let n = 500;
    let g = gnm(n, 4 * n, 11, true);
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    for u in 0..n as u32 {
        for &v in g.neighbors(u) {
            edges.push((u, v));
            weights.push(1.0);
        }
    }
    let gw = CsrGraph::from_weighted_edges(n, &edges, &weights);
    let order = random_permutation(n, 12);
    let (a, _) = LeListsProblem::new(&g)
        .with_order(order.clone())
        .solve(&RunConfig::new());
    let (b, _) = LeListsProblem::new(&gw)
        .with_order(order)
        .solve(&RunConfig::new());
    assert_eq!(a.lists, b.lists);
}

#[test]
fn sort_handles_pathological_key_patterns() {
    // Sawtooth, organ-pipe, and nearly-sorted inputs (distinct keys) —
    // correctness under adversarial (non-random) orders.
    let n = 4000usize;
    let patterns: Vec<Vec<i64>> = vec![
        (0..n).map(|i| ((i % 97) * 1000 + i / 97) as i64).collect(), // sawtooth
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    i as i64
                } else {
                    (2 * n - i) as i64
                }
            })
            .collect(), // organ pipe
        (0..n)
            .map(|i| i as i64 + if i % 100 == 0 { 150 } else { 0 })
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect(), // nearly sorted with spikes, deduped
    ];
    for (pi, keys) in patterns.iter().enumerate() {
        let problem = SortProblem::new(keys);
        let (seq, _) = problem.solve(&RunConfig::new().sequential());
        let (par, _) = problem.solve(&RunConfig::new().parallel());
        assert_eq!(seq.tree, par.tree, "pattern {pi}");
        let got: Vec<&i64> = seq.sorted(keys);
        let mut want: Vec<&i64> = keys.iter().collect();
        want.sort();
        assert_eq!(got, want, "pattern {pi}");
    }
}
