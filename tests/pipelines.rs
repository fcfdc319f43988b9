//! End-to-end pipelines across crates: realistic compositions a downstream
//! user would build, checked for internal consistency.

use std::collections::HashMap;

use parallel_ri::prelude::*;

/// Geometry pipeline: points → Delaunay → closest pair must be an edge of
/// the triangulation (a classic DT property), and the enclosing disk must
/// contain the whole mesh.
#[test]
fn delaunay_closest_pair_enclosing_consistency() {
    for seed in 0..4 {
        let pts = {
            let raw = ri_geometry::distributions::dedup_points(
                PointDistribution::UniformSquare.generate(600, seed),
            );
            let order = random_permutation(raw.len(), seed ^ 0xAB);
            order.iter().map(|&i| raw[i]).collect::<Vec<_>>()
        };

        let cfg = RunConfig::new();
        let (dt, _) = DelaunayProblem::new(&pts).solve(&cfg);
        dt.mesh.validate().unwrap();

        // The closest pair (computed independently) must be a Delaunay edge.
        let (cp, _) = ClosestPairProblem::new(&pts).solve(&cfg);
        // Map from the caller's order to the mesh's (seed-reordered) points:
        // one hash map keyed on coordinate bits, built once (points are
        // exact copies, so bit equality is point equality).
        let index: HashMap<(u64, u64), u32> = dt
            .mesh
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.x.to_bits(), p.y.to_bits()), i as u32))
            .collect();
        let locate = |p: Point2| -> u32 {
            *index
                .get(&(p.x.to_bits(), p.y.to_bits()))
                .expect("point survives reordering")
        };
        let (a, b) = (
            locate(pts[cp.pair.0 as usize]),
            locate(pts[cp.pair.1 as usize]),
        );
        let is_edge = dt.mesh.finite_triangles().iter().any(|t| {
            let has = |x: u32| t.contains(&x);
            has(a) && has(b)
        });
        assert!(is_edge, "closest pair not a Delaunay edge at seed {seed}");

        // The smallest enclosing disk contains every mesh point.
        let (sed, _) = EnclosingProblem::new(&pts).solve(&cfg);
        for &p in &dt.mesh.points {
            assert!(sed.disk.contains(p));
        }
    }
}

/// Graph pipeline: SCC condensation + LE-lists on the same graph. Inside
/// one SCC every vertex has finite distance to the component's LE-list
/// sources; across the condensation DAG, LE-list entries can only flow in
/// edge direction.
#[test]
fn scc_and_le_lists_agree_on_reachability() {
    for seed in 0..3 {
        let n = 400;
        let g = parallel_ri::graph::generators::gnm(n, 3 * n, seed, false);
        let order = random_permutation(n, seed ^ 0x77);

        let cfg = RunConfig::new();
        let (scc, _) = SccProblem::new(&g).with_order(order.clone()).solve(&cfg);
        let labels = canonical_labels(&scc.comp);
        let (le, _) = LeListsProblem::new(&g)
            .with_order(order.clone())
            .solve(&cfg);

        // An LE-list entry (src, d) at u certifies a path src → u. If both
        // endpoints are in the same SCC that is consistent by definition;
        // otherwise src's component must precede u's in the condensation —
        // verified via plain BFS reachability.
        for (u, list) in le.lists.iter().enumerate() {
            for &(src, _) in list {
                if labels[src as usize] != labels[u] {
                    let d = ri_graph::bfs_distances(&g, src);
                    assert_ne!(
                        d[u],
                        u32::MAX,
                        "LE entry {src}->{u} without reachability (seed {seed})"
                    );
                }
            }
        }
    }
}

/// The random permutation is the shared substrate: sorting an insertion
/// order recovers the identity ranking, whichever crate consumes it.
#[test]
fn permutation_roundtrip_through_algorithms() {
    let n = 1000;
    let order = random_permutation(n, 99);
    // Sort the order array: the result must be the identity ranking.
    let (sorted, _) = SortProblem::new(&order).solve(&RunConfig::new());
    let recovered: Vec<usize> = sorted.sorted_indices.iter().map(|&i| order[i]).collect();
    assert_eq!(recovered, (0..n).collect::<Vec<_>>());
}

/// Determinism across the whole stack: same seeds ⇒ bit-identical outputs,
/// including every work counter.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let cfg = RunConfig::new().seed(5);
        let pts = PointDistribution::Clusters(5).generate(500, 3);
        let (dt, _) = DelaunayProblem::new(&pts).solve(&cfg);
        let g = parallel_ri::graph::generators::gnm_weighted(300, 1200, 4, false);
        let (le, le_report) = LeListsProblem::new(&g).solve(&cfg);
        (
            dt.stats.clone(),
            dt.mesh.finite_triangles().len(),
            le.total_entries(),
            le_report.checks,
        )
    };
    assert_eq!(run(), run(), "pipeline must be deterministic given seeds");
}
