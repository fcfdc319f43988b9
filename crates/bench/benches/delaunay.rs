//! Table 1 row 2 — Delaunay triangulation: Algorithm 4 (sequential
//! conflict sets) vs Algorithm 5 (parallel active faces), across two
//! distributions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_geometry::point_workload;
use ri_geometry::PointDistribution;

fn bench_delaunay(c: &mut Criterion) {
    let mut group = c.benchmark_group("delaunay");
    group.sample_size(10);
    for &n in &[1usize << 12, 1 << 14] {
        for dist in [
            PointDistribution::UniformSquare,
            PointDistribution::Clusters(8),
        ] {
            let pts = point_workload(n, 3, dist);
            let tag = format!("{}/{}", dist.name(), n);
            group.bench_with_input(BenchmarkId::new("sequential", &tag), &pts, |b, p| {
                b.iter(|| ri_delaunay::DelaunayProblem::new(p).solve(&seq_cfg()))
            });
            group.bench_with_input(BenchmarkId::new("parallel", &tag), &pts, |b, p| {
                b.iter(|| ri_delaunay::DelaunayProblem::new(p).solve(&par_cfg()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_delaunay);
criterion_main!(benches);
