//! Table 1 row 3 — 2-D linear programming: Seidel sequential vs the Type 2
//! prefix-doubling parallel executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp");
    group.sample_size(20);
    for &n in &[1usize << 14, 1 << 18] {
        let inst = ri_lp::workloads::tangent_instance(n, 2);
        group.bench_with_input(BenchmarkId::new("sequential", n), &inst, |b, i| {
            b.iter(|| ri_lp::LpProblem::new(i).solve(&seq_cfg()))
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &inst, |b, i| {
            b.iter(|| ri_lp::LpProblem::new(i).solve(&par_cfg()))
        });
        // Harder instance: the optimum moves many times early on.
        let shrink = ri_lp::workloads::shrinking_instance(n, 2);
        group.bench_with_input(
            BenchmarkId::new("parallel_shrinking", n),
            &shrink,
            |b, i| b.iter(|| ri_lp::LpProblem::new(i).solve(&par_cfg())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
