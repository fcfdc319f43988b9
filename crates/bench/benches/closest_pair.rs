//! Table 1 row 4 — closest pair: sequential grid sieve vs Type 2 parallel,
//! uniform and clustered inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_geometry::point_workload;
use ri_geometry::PointDistribution;

fn bench_closest_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("closest_pair");
    group.sample_size(10);
    for &n in &[1usize << 14, 1 << 17] {
        for dist in [
            PointDistribution::UniformSquare,
            PointDistribution::Clusters(8),
        ] {
            let pts = point_workload(n, 5, dist);
            let tag = format!("{}/{}", dist.name(), n);
            group.bench_with_input(BenchmarkId::new("sequential", &tag), &pts, |b, p| {
                b.iter(|| ri_closest_pair::ClosestPairProblem::new(p).solve(&seq_cfg()))
            });
            group.bench_with_input(BenchmarkId::new("parallel", &tag), &pts, |b, p| {
                b.iter(|| ri_closest_pair::ClosestPairProblem::new(p).solve(&par_cfg()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_closest_pair);
criterion_main!(benches);
