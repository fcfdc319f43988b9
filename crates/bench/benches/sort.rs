//! Table 1 row 1 — comparison sorting: sequential vs priority-write
//! parallel vs Type 3 batch BST insertion, with `std` sorts as the
//! conventional baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_pram::{
    knuth_shuffle_parallel, knuth_shuffle_sequential, knuth_targets, random_permutation,
};

/// The random-permutation substrate itself ([66]'s parallel Knuth
/// shuffle) — the ancestor of the paper's framework.
fn bench_knuth(c: &mut Criterion) {
    let mut group = c.benchmark_group("knuth_shuffle");
    group.sample_size(10);
    for &n in &[1usize << 16, 1 << 19] {
        let h = knuth_targets(n, 1);
        group.bench_with_input(BenchmarkId::new("sequential", n), &h, |b, h| {
            b.iter(|| knuth_shuffle_sequential(h))
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &h, |b, h| {
            b.iter(|| knuth_shuffle_parallel(h))
        });
    }
    group.finish();
}

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

criterion_group!(benches, bench_sort, bench_knuth);
criterion_main!(benches);
