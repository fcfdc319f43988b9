//! Table 1 row 6 — LE-lists: Algorithm 6 vs the Type 3 parallel rounds,
//! weighted uniform graphs and high-diameter grids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_pram::random_permutation;

fn bench_le_lists(c: &mut Criterion) {
    let mut group = c.benchmark_group("le_lists");
    group.sample_size(10);
    for &n in &[1usize << 11, 1 << 13] {
        let g = ri_graph::generators::gnm_weighted(n, 8 * n, 1, true);
        let order = random_permutation(n, 2);
        group.bench_with_input(
            BenchmarkId::new("sequential", n),
            &(&g, &order),
            |b, (g, o)| {
                let problem = ri_le_lists::LeListsProblem::new(g).with_order(o.to_vec());
                b.iter(|| problem.solve(&seq_cfg()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", n),
            &(&g, &order),
            |b, (g, o)| {
                let problem = ri_le_lists::LeListsProblem::new(g).with_order(o.to_vec());
                b.iter(|| problem.solve(&par_cfg()))
            },
        );
    }
    // High-diameter stress: grid graph.
    let g = ri_graph::generators::grid2d(64);
    let order = random_permutation(g.num_vertices(), 3);
    group.bench_with_input(
        BenchmarkId::new("parallel_grid", g.num_vertices()),
        &(&g, &order),
        |b, (g, o)| {
            let problem = ri_le_lists::LeListsProblem::new(g).with_order(o.to_vec());
            b.iter(|| problem.solve(&par_cfg()))
        },
    );
    group.finish();
}

criterion_group!(benches, bench_le_lists);
criterion_main!(benches);
