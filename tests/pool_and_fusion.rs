//! Integration tests for the persistent thread pool underneath the engine:
//! pool reuse across `Runner::solve` calls, nested parallelism staying
//! on-pool, panic propagation, spawn accounting, and property-based
//! sequential-equivalence of every combinator under randomized stealing at
//! 1–8 threads.

use proptest::prelude::*;
use rayon::prelude::*;
use ri_core::engine::{Problem, RunConfig, Runner};
use ri_pram::random_permutation;
use ri_sort::SortProblem;

/// Two engine runs with the same thread count reuse one cached pool: the
/// worker thread ids are identical and no new worker threads are spawned
/// by the second run.
#[test]
fn runner_runs_reuse_one_pool_with_stable_worker_ids() {
    let keys = random_permutation(20_000, 5);
    let problem = SortProblem::new(&keys);
    let cfg = RunConfig::new().parallel().threads(3);

    let (first, _) = problem.solve(&cfg);
    let pool_after_first = rayon::cached_pool(3);
    let ids_after_first = pool_after_first.worker_ids();

    let (second, _) = problem.solve(&cfg);
    let pool_after_second = rayon::cached_pool(3);

    assert_eq!(first.sorted_indices, second.sorted_indices);
    assert!(
        std::sync::Arc::ptr_eq(&pool_after_first, &pool_after_second),
        "both runs must resolve to one cached pool"
    );
    assert_eq!(
        pool_after_second.worker_ids(),
        ids_after_first,
        "worker ids must be stable across runs"
    );
    assert_eq!(ids_after_first.len(), 3);
}

/// Parallel work started from inside an installed run — including from
/// crew helper threads — sees the pool's width, not the machine default:
/// nested parallelism stays sized by the pool.
#[test]
fn nested_parallelism_from_workers_stays_on_pool() {
    let runner = Runner::new(RunConfig::new().parallel().threads(5));
    let widths: Vec<usize> = runner.install(|| {
        (0..20_000usize)
            .into_par_iter()
            .map(|_| {
                // An inner parallel region launched from whichever thread
                // (caller or helper) is executing this chunk.
                let inner: Vec<usize> = (0..4096usize)
                    .into_par_iter()
                    .map(|_| rayon::current_num_threads())
                    .collect();
                inner[0]
            })
            .collect()
    });
    assert!(
        widths.iter().all(|&w| w == 5),
        "nested regions fell off-pool: {:?}",
        widths.iter().take(8).collect::<Vec<_>>()
    );
}

/// A `threads == 1` config must bypass the pool entirely: the whole run
/// executes inline on this thread, spawning no helper threads (the
/// helper-spawn counter is per-thread, so concurrent tests cannot
/// perturb it).
#[test]
fn single_thread_config_bypasses_the_pool() {
    let keys = random_permutation(50_000, 9);
    let problem = SortProblem::new(&keys);
    let helpers_before = rayon::helper_threads_spawned();
    let (out, report) = problem.solve(&RunConfig::new().parallel().threads(1));
    assert_eq!(report.threads, 1);
    assert_eq!(out.sorted_indices.len(), 50_000);
    assert_eq!(
        rayon::helper_threads_spawned(),
        helpers_before,
        "threads=1 must spawn no helpers"
    );

    // Sequential mode takes the same inline path.
    let helpers_before = rayon::helper_threads_spawned();
    let _ = problem.solve(&RunConfig::new().sequential());
    assert_eq!(rayon::helper_threads_spawned(), helpers_before);
}

/// A panic inside a parallel region propagates to the installing caller
/// with its original payload, whichever crew member hit it.
#[test]
fn panics_propagate_through_parallel_regions() {
    let runner = Runner::new(RunConfig::new().parallel().threads(4));
    let data: Vec<usize> = (0..100_000).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner.install(|| {
            data.par_iter().for_each(|&x| {
                if x == 90_123 {
                    panic!("iteration {x} failed");
                }
            });
        })
    }));
    let payload = result.expect_err("panic must cross the region boundary");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("90123"), "payload lost: {msg:?}");
}

/// A panic in a `'static` job stolen by a pool worker is caught: the
/// worker survives, the payload is kept, and later jobs still run.
#[test]
fn panics_in_stolen_pool_jobs_leave_the_pool_alive() {
    let pool = rayon::cached_pool(2);
    let before = pool.panic_count();
    pool.spawn(|| panic!("stolen job panicked"));
    pool.wait_idle();
    assert_eq!(pool.panic_count(), before + 1);
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done2 = std::sync::Arc::clone(&done);
    pool.spawn(move || done2.store(true, std::sync::atomic::Ordering::SeqCst));
    pool.wait_idle();
    assert!(done.load(std::sync::atomic::Ordering::SeqCst));
}

/// Outputs of the reference pipeline: mapped values, filtered sum, first
/// match, and zip-enumerate pairs.
type PipelineOutputs = (Vec<u64>, u64, Option<u64>, Vec<(usize, u64)>);

/// Sequential references for the combinator equivalence property.
fn reference_pipeline(xs: &[u64]) -> PipelineOutputs {
    let mapped: Vec<u64> = xs.iter().map(|&x| x.wrapping_mul(3) ^ 1).collect();
    let sum: u64 = xs
        .iter()
        .filter(|&&x| x % 3 == 0)
        .map(|&x| x / 2)
        .fold(0u64, u64::wrapping_add);
    let first_big = xs.iter().copied().find(|&x| x % 97 == 13);
    let enumerated: Vec<(usize, u64)> = xs
        .iter()
        .zip(xs.iter().skip(1))
        .map(|(&a, &b)| a.wrapping_add(b))
        .enumerate()
        .collect();
    (mapped, sum, first_big, enumerated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every combinator path — fused map/collect, filter+map+reduce,
    /// find_first, zip+enumerate, fold, flat_map_iter, pack/scan — equals
    /// its sequential reference under randomized stealing at 1–8 threads.
    #[test]
    fn combinators_match_sequential_at_any_width(
        xs in proptest::collection::vec(any::<u64>(), 0..6000),
        threads in 1usize..=8,
    ) {
        let runner = Runner::new(RunConfig::new().parallel().threads(threads));
        let (want_map, want_sum, want_first, want_enum) = reference_pipeline(&xs);
        let (got_map, got_sum, got_first, got_enum) = runner.install(|| {
            let m: Vec<u64> = xs.par_iter().map(|&x| x.wrapping_mul(3) ^ 1).collect();
            let s: u64 = xs
                .par_iter()
                .copied()
                .filter(|&x| x % 3 == 0)
                .map(|x| x / 2)
                .reduce(|| 0u64, u64::wrapping_add);
            let f = xs.par_iter().find_first(|&&x| x % 97 == 13).copied();
            let e: Vec<(usize, u64)> = xs
                .par_iter()
                .zip(xs[1.min(xs.len())..].par_iter())
                .map(|(&a, &b)| a.wrapping_add(b))
                .enumerate()
                .collect();
            (m, s, f, e)
        });
        prop_assert_eq!(got_map, want_map);
        prop_assert_eq!(got_sum, want_sum);
        prop_assert_eq!(got_first, want_first);
        prop_assert_eq!(got_enum, want_enum);
    }

    /// The pram primitives built on the pool agree with their references
    /// at every width too (scan feeds pack; radix must stay stable).
    #[test]
    fn primitives_match_sequential_at_any_width(
        xs in proptest::collection::vec(0usize..1000, 0..6000),
        threads in 1usize..=8,
    ) {
        let runner = Runner::new(RunConfig::new().parallel().threads(threads));
        let flags: Vec<bool> = xs.iter().map(|&x| x % 3 == 0).collect();
        let (got_scan, got_pack, got_sorted) = runner.install(|| {
            let scan = ri_pram::exclusive_scan_usize(&xs);
            let packed = ri_pram::pack(&xs, &flags);
            let mut sorted: Vec<(u64, usize)> =
                xs.iter().enumerate().map(|(i, &x)| ((x % 16) as u64, i)).collect();
            ri_pram::radix_sort_by_key(&mut sorted, |&(k, _)| k);
            (scan, packed, sorted)
        });
        let mut acc = 0usize;
        let mut want_scan = Vec::with_capacity(xs.len());
        for &x in &xs {
            want_scan.push(acc);
            acc += x;
        }
        prop_assert_eq!(got_scan, (want_scan, acc));
        let want_pack: Vec<usize> =
            xs.iter().zip(&flags).filter(|(_, &f)| f).map(|(&x, _)| x).collect();
        prop_assert_eq!(got_pack, want_pack);
        let mut want_sorted: Vec<(u64, usize)> =
            xs.iter().enumerate().map(|(i, &x)| ((x % 16) as u64, i)).collect();
        want_sorted.sort_by_key(|&(k, i)| (k, i)); // stable order
        prop_assert_eq!(got_sorted, want_sorted);
    }
}
