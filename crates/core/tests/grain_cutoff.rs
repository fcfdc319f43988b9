//! Adaptive grain control: rounds below the engine's sequential cutoff
//! must execute inline on the caller — no crew regions, no helper-thread
//! spawns — while rounds above it take the parallel path. The counters
//! here are per-calling-thread (see `rayon::crew_regions` /
//! `rayon::helper_threads_spawned`), so concurrently running tests cannot
//! interfere.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ri_core::engine::{execute_type1, execute_type2, execute_type3, grain, RunConfig};
use ri_core::{Type1Algorithm, Type2Algorithm, Type3Algorithm};

/// Counter snapshot on the calling thread.
fn counters() -> (usize, usize) {
    (rayon::crew_regions(), rayon::helper_threads_spawned())
}

/// All-independent Type 1 toy: one round of `n` iterations.
struct Independent {
    done: Vec<AtomicBool>,
}

impl Independent {
    fn new(n: usize) -> Self {
        Independent {
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl Type1Algorithm for Independent {
    fn len(&self) -> usize {
        self.done.len()
    }
    fn ready(&self, _k: usize) -> bool {
        true
    }
    fn run(&mut self, k: usize) {
        self.done[k].store(true, Ordering::Relaxed);
    }
}

/// Type 2 toy: only iteration 0 is special, so every prefix is scanned
/// end to end in one sub-round.
struct OneSpecial {
    n: usize,
    seen: AtomicU64,
}

impl Type2Algorithm for OneSpecial {
    fn len(&self) -> usize {
        self.n
    }
    fn is_special(&self, k: usize) -> bool {
        self.seen.fetch_add(1, Ordering::Relaxed);
        k == 0
    }
    fn run_regular(&mut self, _k: usize) {}
    fn run_special(&mut self, _k: usize) {}
}

/// Type 3 toy: prefix minimum (order-insensitive combine).
struct MinToy {
    values: Vec<u64>,
    current: u64,
}

impl Type3Algorithm for MinToy {
    type Output = u64;
    fn len(&self) -> usize {
        self.values.len()
    }
    fn run_iteration(&self, k: usize) -> u64 {
        self.values[k]
    }
    fn combine(&mut self, _lo: usize, outputs: &mut Vec<u64>) -> u64 {
        let work = outputs.len() as u64;
        for v in outputs.drain(..) {
            self.current = self.current.min(v);
        }
        work
    }
}

/// A size that the *combinators* would have parallelised (it is above
/// `rayon::MIN_PAR_LEN`) but the engine's round cutoff keeps inline at
/// width 4 — proving the cutoff, not the combinator floor, is in charge.
fn between_floor_and_cutoff() -> usize {
    let cutoff = rayon::cached_pool(4).install(grain::sequential_cutoff);
    assert!(
        cutoff > rayon::MIN_PAR_LEN,
        "cutoff {cutoff} must exceed the combinator floor"
    );
    (rayon::MIN_PAR_LEN + cutoff) / 2
}

#[test]
fn type1_small_rounds_stay_inline() {
    let n = between_floor_and_cutoff();
    let mut algo = Independent::new(n);
    rayon::cached_pool(4).install(|| {
        let before = counters();
        let report = execute_type1(&mut algo, &RunConfig::new().parallel());
        assert_eq!(report.total_items(), n);
        assert_eq!(counters(), before, "sub-cutoff round must spawn nothing");
    });
}

#[test]
fn type1_large_rounds_go_parallel() {
    let n = 8 * rayon::cached_pool(4).install(grain::sequential_cutoff);
    let mut algo = Independent::new(n);
    rayon::cached_pool(4).install(|| {
        let (regions0, helpers0) = counters();
        execute_type1(&mut algo, &RunConfig::new().parallel());
        let (regions1, helpers1) = counters();
        assert!(regions1 > regions0, "above-cutoff round must form a crew");
        assert!(helpers1 > helpers0, "crew members are scoped helpers");
    });
}

#[test]
fn type2_small_prefixes_stay_inline() {
    let n = between_floor_and_cutoff();
    let mut algo = OneSpecial {
        n,
        seen: AtomicU64::new(0),
    };
    rayon::cached_pool(4).install(|| {
        let before = counters();
        let report = execute_type2(&mut algo, &RunConfig::new().parallel());
        assert_eq!(report.items, n);
        assert_eq!(counters(), before, "sub-cutoff prefix must spawn nothing");
    });
}

#[test]
fn type2_large_prefixes_go_parallel() {
    let n = 8 * rayon::cached_pool(4).install(grain::sequential_cutoff);
    let mut algo = OneSpecial {
        n,
        seen: AtomicU64::new(0),
    };
    rayon::cached_pool(4).install(|| {
        let (regions0, _) = counters();
        execute_type2(&mut algo, &RunConfig::new().parallel());
        assert!(rayon::crew_regions() > regions0);
    });
}

#[test]
fn type3_small_rounds_stay_inline_and_large_do_not() {
    let small = between_floor_and_cutoff();
    let mut algo = MinToy {
        values: (0..small as u64).rev().collect(),
        current: u64::MAX,
    };
    rayon::cached_pool(4).install(|| {
        let before = counters();
        execute_type3(&mut algo, &RunConfig::new().parallel());
        assert_eq!(counters(), before, "sub-cutoff rounds must spawn nothing");
    });
    assert_eq!(algo.current, 0);

    let large = 8 * rayon::cached_pool(4).install(grain::sequential_cutoff);
    let mut algo = MinToy {
        values: (0..large as u64).rev().collect(),
        current: u64::MAX,
    };
    rayon::cached_pool(4).install(|| {
        let (regions0, _) = counters();
        execute_type3(&mut algo, &RunConfig::new().parallel());
        assert!(rayon::crew_regions() > regions0);
    });
    assert_eq!(algo.current, 0);
}

#[test]
fn one_thread_runs_are_always_inline() {
    // Width 1 means the cutoff is infinite: even a huge round stays on
    // the caller with zero scheduler involvement.
    let n = 100_000;
    let mut algo = Independent::new(n);
    rayon::run_sequential(|| {
        assert_eq!(grain::sequential_cutoff(), usize::MAX);
        let before = counters();
        execute_type1(&mut algo, &RunConfig::new().parallel());
        assert_eq!(counters(), before);
    });
}

#[test]
fn runner_reports_regions_and_scratch_counters() {
    use ri_core::engine::Runner;
    let cfg = RunConfig::new().parallel().threads(2);

    // First run on this thread warms the scratch pool...
    let mut algo = Independent::new(1000);
    let (_, first) =
        Runner::new(cfg.clone()).solve("independent", |cfg| ((), execute_type1(&mut algo, cfg)));
    assert_eq!(first.regions, 0, "1000-item round is far below the cutoff");
    assert_eq!(first.helper_spawns, 0);

    // ...so a second run is served from it. (Only `remaining` and `flags`
    // grow capacity here — `next` stays empty in an all-ready single
    // round and capacity-0 buffers are not pooled.)
    let mut algo = Independent::new(1000);
    let (_, second) =
        Runner::new(cfg).solve("independent", |cfg| ((), execute_type1(&mut algo, cfg)));
    assert!(
        second.scratch_hits >= 2,
        "remaining/flags buffers must be reused, got {} hits",
        second.scratch_hits
    );
}
