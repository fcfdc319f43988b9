//! Table 1 row 7 — SCC: Tarjan baseline vs Algorithm 7 (sequential
//! incremental) vs the Type 3 parallel rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ri_bench::{par_cfg, seq_cfg};
use ri_core::engine::Problem;

use ri_pram::random_permutation;

fn bench_scc(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc");
    group.sample_size(10);
    for &n in &[1usize << 13, 1 << 15] {
        for (name, g) in [
            ("gnm", ri_graph::generators::gnm(n, 4 * n, 1, false)),
            ("dag", ri_graph::generators::random_dag(n, 4 * n, 1)),
        ] {
            let order = random_permutation(n, 2);
            let tag = format!("{name}/{n}");
            group.bench_with_input(BenchmarkId::new("tarjan", &tag), &g, |b, g| {
                b.iter(|| ri_scc::tarjan_scc(g))
            });
            group.bench_with_input(
                BenchmarkId::new("incremental_seq", &tag),
                &(&g, &order),
                |b, (g, o)| {
                    let problem = ri_scc::SccProblem::new(g).with_order(o.to_vec());
                    b.iter(|| problem.solve(&seq_cfg()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new("parallel", &tag),
                &(&g, &order),
                |b, (g, o)| {
                    let problem = ri_scc::SccProblem::new(g).with_order(o.to_vec());
                    b.iter(|| problem.solve(&par_cfg()))
                },
            );
            // Ablation: eager partition refinement (default) vs the
            // deterministic sequential-faithful combine of §6.2.
            group.bench_with_input(
                BenchmarkId::new("parallel_deterministic", &tag),
                &(&g, &order),
                |b, (g, o)| b.iter(|| ri_scc::scc_parallel_deterministic(g, o)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scc);
criterion_main!(benches);
