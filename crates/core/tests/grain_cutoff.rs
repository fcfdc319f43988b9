//! The go-parallel rule at the executors: a round gets a crew only when
//! its item count times the algorithm's declared per-item cost covers
//! `PAYOFF` measured region costs; every other round executes inline on
//! the caller — no crew regions, no helper-thread spawns. Round sizes here
//! are derived from the rule at the installed width, so the tests hold on
//! any host. The counters are per-calling-thread (see
//! `rayon::crew_regions` / `rayon::helper_threads_spawned`), so
//! concurrently running tests cannot interfere.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ri_core::engine::grain::{self, PAYOFF};
use ri_core::engine::{execute_type1, execute_type2, execute_type3, RunConfig, RunReport};
use ri_core::{Type1Algorithm, Type2Algorithm, Type3Algorithm};

/// Declared per-item cost of the toys below (their real work is trivial;
/// the rule only sees the declaration).
const TOY_NS: u64 = 1_000;

/// Counter snapshot on the calling thread.
fn counters() -> (usize, usize) {
    (rayon::crew_regions(), rayon::helper_threads_spawned())
}

/// Iterations the report's rounds executed.
fn items_run(report: &RunReport) -> usize {
    report
        .rounds
        .entries()
        .iter()
        .map(|&(items, _)| items)
        .sum()
}

/// The smallest round of `item_ns` items that pays for a crew at `width`.
fn paying_len(width: usize, item_ns: u64) -> usize {
    (PAYOFF * grain::region_ns(width)).div_ceil(item_ns) as usize
}

/// All-independent Type 1 toy: one round of `n` iterations, each `ready`
/// check declared to cost `ns`.
struct Independent {
    done: Vec<AtomicBool>,
    ns: u64,
}

impl Independent {
    fn new(n: usize, ns: u64) -> Self {
        Independent {
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            ns,
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
    fn item_ns(&self) -> u64 {
        self.ns
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
    fn item_ns(&self) -> u64 {
        TOY_NS
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
    fn item_ns(&self) -> u64 {
        TOY_NS
    }
    fn combine(&mut self, _lo: usize, outputs: &mut Vec<u64>) -> u64 {
        let work = outputs.len() as u64;
        for v in outputs.drain(..) {
            self.current = self.current.min(v);
        }
        work
    }
}

#[test]
fn rule_weighs_declared_work_against_an_injected_region_cost() {
    let region = 50_000; // 50 µs per crew
    let item_ns = 1_000;
    let threshold = (PAYOFF * region / item_ns) as usize;
    assert!(grain::pays_off(2, threshold, item_ns, region));
    assert!(!grain::pays_off(2, threshold - 1, item_ns, region));
    // More costly items need fewer of them; a dearer region needs more.
    assert!(grain::pays_off(2, threshold / 2, 2 * item_ns, region));
    assert!(!grain::pays_off(2, threshold, item_ns, 2 * region));
    // Width 1 never goes parallel, whatever the work.
    assert!(!grain::pays_off(1, usize::MAX, u64::MAX, 0));
    // Work that would overflow saturates instead of wrapping to "cheap".
    assert!(grain::pays_off(8, usize::MAX, u64::MAX, u64::MAX / 2));
}

#[test]
fn a_512_item_round_of_10us_checks_forms_a_crew_at_width_2() {
    let mut algo = Independent::new(512, 10_000);
    rayon::cached_pool(2).install(|| {
        // 5.1 ms of declared work covers PAYOFF region costs of a crew of
        // 2 that spawns in under 320 µs (25–60 µs on a 2-vCPU host).
        assert!(
            grain::goes_parallel(512, 10_000),
            "a crew of 2 costs {} ns here",
            grain::region_ns(2)
        );
        let (regions0, helpers0) = counters();
        let report = execute_type1(&mut algo, &RunConfig::new().parallel());
        assert_eq!(items_run(&report), 512);
        let (regions1, helpers1) = counters();
        assert_eq!(regions1, regions0 + 1, "the one round forms one crew");
        assert!(helpers1 > helpers0, "crew members are scoped helpers");
    });
}

#[test]
fn a_100k_item_round_of_1ns_checks_stays_inline_at_width_2() {
    let mut algo = Independent::new(100_000, 1);
    rayon::cached_pool(2).install(|| {
        // 100 µs of declared work is short of PAYOFF region costs of any
        // crew of 2 that takes over 6.25 µs to spawn.
        assert!(
            !grain::goes_parallel(100_000, 1),
            "a crew of 2 costs {} ns here",
            grain::region_ns(2)
        );
        let before = counters();
        let report = execute_type1(&mut algo, &RunConfig::new().parallel());
        assert_eq!(items_run(&report), 100_000);
        assert_eq!(counters(), before, "a cheap round must spawn nothing");
    });
}

#[test]
fn type1_rounds_follow_the_rule() {
    let pool = rayon::cached_pool(4);
    let threshold = pool.install(|| paying_len(4, TOY_NS));
    let mut small = Independent::new(threshold / 2, TOY_NS);
    let mut large = Independent::new(2 * threshold, TOY_NS);
    pool.install(|| {
        let before = counters();
        let report = execute_type1(&mut small, &RunConfig::new().parallel());
        assert_eq!(items_run(&report), threshold / 2);
        assert_eq!(
            counters(),
            before,
            "a round that does not pay spawns nothing"
        );

        let (regions0, helpers0) = counters();
        execute_type1(&mut large, &RunConfig::new().parallel());
        let (regions1, helpers1) = counters();
        assert!(regions1 > regions0, "a round that pays must form a crew");
        assert!(helpers1 > helpers0, "crew members are scoped helpers");
    });
}

#[test]
fn type2_prefixes_follow_the_rule() {
    let pool = rayon::cached_pool(4);
    let threshold = pool.install(|| paying_len(4, TOY_NS));
    // Prefixes double, so the largest one of `threshold` iterations holds
    // at most half of them, and the largest one of 4 × `threshold` at
    // least `threshold`.
    let mut small = OneSpecial {
        n: threshold,
        seen: AtomicU64::new(0),
    };
    let mut large = OneSpecial {
        n: 4 * threshold,
        seen: AtomicU64::new(0),
    };
    pool.install(|| {
        let before = counters();
        let report = execute_type2(&mut small, &RunConfig::new().parallel());
        assert_eq!(report.items, threshold);
        assert_eq!(counters(), before, "prefixes that do not pay spawn nothing");

        let (regions0, _) = counters();
        execute_type2(&mut large, &RunConfig::new().parallel());
        assert!(rayon::crew_regions() > regions0);
    });
}

#[test]
fn type3_rounds_follow_the_rule() {
    let pool = rayon::cached_pool(4);
    let threshold = pool.install(|| paying_len(4, TOY_NS));
    let mut small = MinToy {
        values: (0..threshold as u64).rev().collect(),
        current: u64::MAX,
    };
    pool.install(|| {
        let before = counters();
        execute_type3(&mut small, &RunConfig::new().parallel());
        assert_eq!(counters(), before, "rounds that do not pay spawn nothing");
    });
    assert_eq!(small.current, 0);

    let mut large = MinToy {
        values: (0..4 * threshold as u64).rev().collect(),
        current: u64::MAX,
    };
    pool.install(|| {
        let (regions0, _) = counters();
        execute_type3(&mut large, &RunConfig::new().parallel());
        assert!(rayon::crew_regions() > regions0);
    });
    assert_eq!(large.current, 0);
}

#[test]
fn one_thread_runs_are_always_inline() {
    // Width 1 never reaches the rule: even a huge round of dear items
    // stays on the caller with zero scheduler involvement.
    let n = 100_000;
    let mut algo = Independent::new(n, u64::MAX / n as u64);
    rayon::run_sequential(|| {
        assert!(!grain::goes_parallel(usize::MAX, u64::MAX));
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
    let mut algo = Independent::new(1000, grain::DEFAULT_ITEM_NS);
    let (_, first) =
        Runner::new(cfg.clone()).solve("independent", |cfg| ((), execute_type1(&mut algo, cfg)));
    assert_eq!(first.regions, 0, "1000 cheap checks do not pay for a crew");
    assert_eq!(first.helper_spawns, 0);

    // ...so a second run is served from it. (Only `remaining` and `flags`
    // grow capacity here — `next` stays empty in an all-ready single
    // round and capacity-0 buffers are not pooled.)
    let mut algo = Independent::new(1000, grain::DEFAULT_ITEM_NS);
    let (_, second) =
        Runner::new(cfg).solve("independent", |cfg| ((), execute_type1(&mut algo, cfg)));
    assert!(
        second.scratch_hits >= 2,
        "remaining/flags buffers must be reused, got {} hits",
        second.scratch_hits
    );
}
