//! Integration tests for the parallel substrate underneath the engine:
//! nested parallelism keeping the installed width, width-1 configs
//! running inline, panic propagation, and property-based
//! sequential-equivalence at widths 1–8 of every combinator shape the
//! solves call. A combinator over more than one item runs on a crew at
//! any width above 1; the primitives, which ask the go-parallel rule
//! themselves, are forced onto crews with `rayon::with_region_ns(0, ..)`.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rayon::prelude::*;
use ri_core::engine::{Problem, RunConfig, Runner};
use ri_pram::random_permutation;
use ri_sort::SortProblem;

/// Parallel work started from inside an installed run — including from
/// crew helper threads — sees the installed width, not the machine
/// default: nested parallelism stays sized by it.
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

/// A `threads == 1` config runs at width 1: the whole run
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

/// Outputs of the combinator property, one per shape the solves call:
/// chunked zip (also radix's owned blocks), element zip, fold-reduce,
/// first match, enumerate-map and collect into a reused buffer.
type Shapes = (
    Vec<u64>,
    Vec<u64>,
    (u64, u64),
    Option<usize>,
    Vec<u64>,
    Vec<u64>,
);

/// Sequential references for the combinator property.
fn reference_shapes(xs: &[u64]) -> Shapes {
    let next = |i: usize| xs.get(i + 1).copied().unwrap_or(0);
    let sum = xs.iter().map(|&x| x % 1000).sum();
    let enumerated = xs.iter().enumerate();
    (
        xs.iter().map(|&x| x.wrapping_mul(3) ^ 1).collect(),
        xs.iter().map(|&x| x ^ 0xff).collect(),
        (sum, xs.iter().copied().max().unwrap_or(0)),
        xs.iter().position(|&x| x % 97 == 13),
        enumerated
            .map(|(i, &x)| x.wrapping_add(next(i)).wrapping_mul(i as u64 + 1))
            .collect(),
        xs.iter().map(|&x| x / 3).collect(),
    )
}

/// The same shapes through the combinators at the installed width.
fn parallel_shapes(xs: &[u64]) -> Shapes {
    let n = xs.len();
    let chunk = n.div_ceil(rayon::recommended_splits()).max(1);
    let next = |i: usize| xs.get(i + 1).copied().unwrap_or(0);

    // Blocked primitives: mutable chunks paired with read chunks (owned
    // pairs through `ParIter::for_each`, as radix's scatter runs).
    let mut chunk_zip = vec![0u64; n];
    chunk_zip
        .par_chunks_mut(chunk)
        .zip(xs.par_chunks(chunk))
        .for_each(|(out, src)| {
            for (o, &x) in out.iter_mut().zip(src) {
                *o = x.wrapping_mul(3) ^ 1;
            }
        });

    // Sort's write phase: element pairs visited for their side effects.
    let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    xs.par_iter()
        .zip(cells.par_iter())
        .for_each(|(&x, cell)| cell.store(x ^ 0xff, Ordering::Relaxed));
    let zip_for_each = cells.into_iter().map(AtomicU64::into_inner).collect();

    // Seidel's clip: per-chunk accumulators, then one merge.
    let fold_reduce = xs
        .par_iter()
        .map(|&x| (x % 1000, x))
        .fold(|| (0u64, 0u64), |(s, m), (a, x)| (s + a, m.max(x)))
        .reduce(|| (0, 0), |(s, m), (t, k)| (s + t, m.max(k)));

    // The Type 2 executor's earliest special.
    let first_match = (0..n).into_par_iter().find_first(|&i| xs[i] % 97 == 13);

    // Semisort's group table: pipeline indices through a fused chain.
    let enumerate_map = xs
        .par_iter()
        .enumerate()
        .map(|(i, &x)| x.wrapping_add(next(i)).wrapping_mul(i as u64 + 1))
        .collect();

    // The Type 3 executor's round outputs: a reused buffer still holding
    // the items of an earlier, longer round.
    let mut collected = vec![u64::MAX; n + 17];
    (0..n)
        .into_par_iter()
        .map(|k| xs[k] / 3)
        .collect_into_vec(&mut collected);

    (
        chunk_zip,
        zip_for_each,
        fold_reduce,
        first_match,
        enumerate_map,
        collected,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every combinator shape the solves call equals its sequential
    /// reference at widths 1–8 (on a crew at widths above 1).
    #[test]
    fn combinators_match_sequential_at_any_width(
        xs in proptest::collection::vec(any::<u64>(), 0..6000),
        threads in 1usize..=8,
    ) {
        let runner = Runner::new(RunConfig::new().parallel().threads(threads));
        prop_assert_eq!(runner.install(|| parallel_shapes(&xs)), reference_shapes(&xs));
    }

    /// The pram primitives agree with their references at every width
    /// too, forced onto crews, empty inputs included
    /// (scan feeds pack; radix must stay stable).
    #[test]
    fn primitives_match_sequential_at_any_width(
        xs in proptest::collection::vec(0usize..1000, 0..6000),
        threads in 1usize..=8,
    ) {
        let runner = Runner::new(RunConfig::new().parallel().threads(threads));
        let flags: Vec<bool> = xs.iter().map(|&x| x % 3 == 0).collect();
        let (got_scan, got_pack, got_sorted) = rayon::with_region_ns(0, || runner.install(|| {
            let scan = ri_pram::exclusive_scan_usize(&xs);
            let packed = ri_pram::pack(&xs, &flags);
            let mut sorted: Vec<(u64, usize)> =
                xs.iter().enumerate().map(|(i, &x)| ((x % 16) as u64, i)).collect();
            ri_pram::radix_sort_by_key(&mut sorted, |&(k, _)| k);
            (scan, packed, sorted)
        }));
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
