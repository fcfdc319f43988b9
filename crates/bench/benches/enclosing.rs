//! Table 1 row 5 — smallest enclosing disk: Welzl sequential vs Type 2
//! parallel; the near-circle distribution is the adversarial case (many
//! boundary updates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_geometry::point_workload;
use ri_geometry::PointDistribution;

fn bench_enclosing(c: &mut Criterion) {
    let mut group = c.benchmark_group("enclosing");
    group.sample_size(10);
    for &n in &[1usize << 14, 1 << 17] {
        for dist in [
            PointDistribution::UniformDisk,
            PointDistribution::NearCircle,
        ] {
            let pts = point_workload(n, 4, dist);
            let tag = format!("{}/{}", dist.name(), n);
            group.bench_with_input(BenchmarkId::new("sequential", &tag), &pts, |b, p| {
                b.iter(|| ri_enclosing::EnclosingProblem::new(p).solve(&seq_cfg()))
            });
            group.bench_with_input(BenchmarkId::new("parallel", &tag), &pts, |b, p| {
                b.iter(|| ri_enclosing::EnclosingProblem::new(p).solve(&par_cfg()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_enclosing);
criterion_main!(benches);
