//! Table 1 row 1 — comparison sorting: sequential vs priority-write
//! parallel vs Type 3 batch BST insertion, with `std` sorts as the
//! conventional baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_pram::random_permutation;

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    for &n in &[1usize << 14, 1 << 17] {
        let keys = random_permutation(n, 1);
        group.bench_with_input(BenchmarkId::new("sequential_bst", n), &keys, |b, k| {
            b.iter(|| ri_sort::SortProblem::new(k).solve(&seq_cfg()))
        });
        group.bench_with_input(BenchmarkId::new("parallel_bst", n), &keys, |b, k| {
            b.iter(|| ri_sort::SortProblem::new(k).solve(&par_cfg()))
        });
        group.bench_with_input(BenchmarkId::new("batch_bst", n), &keys, |b, k| {
            b.iter(|| ri_sort::BatchSortProblem::new(k).solve(&par_cfg()))
        });
        group.bench_with_input(BenchmarkId::new("std_sort_baseline", n), &keys, |b, k| {
            b.iter(|| {
                let mut v = k.clone();
                v.sort_unstable();
                v
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort);
criterion_main!(benches);
