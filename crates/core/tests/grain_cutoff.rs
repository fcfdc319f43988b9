//! The go-parallel rule at the executors: every executor round site
//! prices its next round from its own latest inline round
//! (`grain::RoundCost`), and a round gets a crew only when its item count
//! times that price covers `PAYOFF` region costs; every other round
//! executes inline on the caller — no crew regions, no helper-thread
//! spawns. The rule's cases take an injected region cost, the timing
//! helper injected durations, and the crew cases the one switch
//! (`grain::with_region_ns`), so the tests hold on any host. The counters
//! are per-calling-thread (see `rayon::crew_regions` /
//! `rayon::helper_threads_spawned`), so concurrently running tests cannot
//! interfere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ri_core::engine::grain::{self, RoundCost, DEFAULT_ITEM_NS, PAYOFF};
use ri_core::engine::{execute_type1, execute_type2, execute_type3, RunConfig, RunReport, Runner};
use ri_core::{Type1Algorithm, Type2Algorithm, Type3Algorithm};

/// Counter snapshot on the calling thread.
fn counters() -> (usize, usize) {
    (rayon::crew_regions(), rayon::helper_threads_spawned())
}

/// Run `op` at `width` with every region forced onto a crew.
fn forced<R>(width: usize, op: impl FnOnce() -> R) -> R {
    grain::with_region_ns(0, || rayon::cached_pool(width).install(op))
}

/// Type 1 toy: `n` iterations, each ready once its predecessor ran when
/// `chained` (`n` rounds checking `n, n − 1, .., 1` items) and at once
/// otherwise (one round).
struct Chain {
    done: Vec<AtomicBool>,
    chained: bool,
}

impl Chain {
    fn new(n: usize, chained: bool) -> Self {
        Chain {
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            chained,
        }
    }
}

impl Type1Algorithm for Chain {
    fn len(&self) -> usize {
        self.done.len()
    }
    fn ready(&self, k: usize) -> bool {
        !self.chained || k == 0 || self.done[k - 1].load(Ordering::Relaxed)
    }
    fn run(&mut self, k: usize) {
        self.done[k].store(true, Ordering::Relaxed);
    }
}

/// Type 2 toy: only iteration 0 is special, so every prefix is scanned
/// end to end in one sub-round.
struct OneSpecial(usize);

impl Type2Algorithm for OneSpecial {
    fn len(&self) -> usize {
        self.0
    }
    fn is_special(&self, k: usize) -> bool {
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

/// Rounds of the report that held at least two items.
fn multi_item_rounds(report: &RunReport) -> usize {
    let rounds = report.rounds.entries().iter();
    rounds.filter(|&&(items, _)| items >= 2).count()
}

/// Per executor, the crew regions a parallel run forms on the calling
/// thread and the rounds of two or more items it runs.
fn regions_per_type() -> [(usize, usize); 3] {
    let parallel = RunConfig::new().parallel();
    let mut chain = Chain::new(100, true);
    let before = counters().0;
    execute_type1(&mut chain, &parallel);
    // Round r checks the 100 − r iterations left.
    let type1 = (counters().0 - before, 99);

    let before = counters().0;
    let report = execute_type2(&mut OneSpecial(700), &parallel);
    let type2 = (counters().0 - before, multi_item_rounds(&report));

    let mut min = MinToy {
        values: (0..700).rev().collect(),
        current: u64::MAX,
    };
    let before = counters().0;
    let report = execute_type3(&mut min, &parallel);
    assert_eq!(min.current, 0);
    [
        type1,
        type2,
        (counters().0 - before, multi_item_rounds(&report)),
    ]
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
    // An empty region never goes parallel, even at no region cost.
    assert!(!grain::pays_off(2, 0, item_ns, 0));
    assert!(grain::pays_off(2, 1, 0, 0));
    // Work that would overflow saturates instead of wrapping to "cheap".
    assert!(grain::pays_off(8, usize::MAX, u64::MAX, u64::MAX / 2));
}

#[test]
fn round_cost_prices_the_next_round_from_the_latest_one() {
    rayon::cached_pool(2).install(|| {
        let mut cost = RoundCost::new();
        assert_eq!(cost.ns_per_item(), DEFAULT_ITEM_NS, "no round timed yet");
        cost.record(1000, Duration::from_micros(50));
        assert_eq!(cost.ns_per_item(), 50);
        // The latest round sets the price; earlier ones do not average in.
        cost.record(10, Duration::from_micros(1));
        assert_eq!(cost.ns_per_item(), 100);
        cost.record(0, Duration::from_secs(1));
        assert_eq!(cost.ns_per_item(), 100, "a 0-item round records nothing");
        // The rule weighs the price against the region cost.
        grain::with_region_ns(50_000, || {
            let threshold = (PAYOFF * 50_000 / 100) as usize;
            assert!(cost.goes_parallel(threshold));
            // A crewed round is priced net of the crew's measured region
            // cost, its two members sharing the rest, and can only lower
            // the price.
            let region = grain::region_ns(2);
            cost.record(10, Duration::from_nanos(region + 1_000));
            assert_eq!(cost.ns_per_item(), 100, "200 ns does not raise it");
            cost.record(10, Duration::from_nanos(region + 250));
            assert_eq!(cost.ns_per_item(), 50);
            cost.record(10, Duration::from_nanos(region / 2));
            assert_eq!(cost.ns_per_item(), 0, "a crew that beat its region");
            assert!(!cost.goes_parallel(threshold));
        });
        // An inline round reads the clock.
        let t0 = cost.start();
        assert!(t0.is_some());
        std::thread::sleep(Duration::from_millis(2));
        cost.stop(t0, 2);
        assert!(cost.ns_per_item() >= 1_000_000);
    });
    rayon::cached_pool(1).install(|| {
        let mut cost = RoundCost::new();
        assert!(cost.start().is_none(), "width 1 reads no clock");
        cost.record(1000, Duration::from_micros(50));
        assert_eq!(
            cost.ns_per_item(),
            DEFAULT_ITEM_NS,
            "width 1 records nothing"
        );
    });
}

#[test]
fn forced_crews_run_every_round_of_two_or_more_items() {
    for width in [2, 4] {
        // Each toy also runs rounds of one item, which stay inline.
        let [type1, type2, type3] = forced(width, regions_per_type);
        assert!(type2.1 > 0 && type3.1 > 0);
        assert_eq!(type1.0, type1.1, "Type 1 at width {width}");
        assert_eq!(type2.0, type2.1, "Type 2 at width {width}");
        assert_eq!(type3.0, type3.1, "Type 3 at width {width}");
    }
}

#[test]
fn trivially_cheap_rounds_stay_inline() {
    // The first round of each run is priced at the default 1 ns per item
    // and every later one at its predecessor's measured cost, which for
    // these toys is a few nanoseconds: far short of PAYOFF region costs.
    // A round the host preempts can price its successor high, so one
    // clean run in three is the claim.
    for width in [2, 4] {
        let clean = (0..3).any(|_| {
            let before = counters();
            let regions = rayon::cached_pool(width).install(regions_per_type);
            regions.iter().all(|&(crews, _)| crews == 0) && counters().1 == before.1
        });
        assert!(
            clean,
            "cheap rounds formed crews in three runs at width {width}"
        );
    }
}

#[test]
fn one_thread_runs_are_always_inline() {
    // Width 1 never reaches the rule, even with every region forced.
    let before = counters();
    let regions = forced(1, || {
        assert!(!grain::goes_parallel(usize::MAX, u64::MAX));
        regions_per_type()
    });
    assert!(regions.iter().all(|&(crews, _)| crews == 0));
    assert_eq!(counters(), before);
}

#[test]
fn runner_reports_regions_and_scratch_counters() {
    let cfg = RunConfig::new().parallel().threads(2);

    // First run on this thread warms the scratch pool. Its one round is
    // priced at the default 1 ns per check, far short of a crew.
    let mut algo = Chain::new(1000, false);
    let (_, first) =
        Runner::new(cfg.clone()).solve("forest", |cfg| ((), execute_type1(&mut algo, cfg)));
    assert_eq!(first.regions, 0, "1000 cheap checks do not pay for a crew");
    assert_eq!(first.helper_spawns, 0);

    // ...so a second run is served from it. (Only `remaining` and `flags`
    // grow capacity here — `next` stays empty in an all-ready single
    // round and capacity-0 buffers are not pooled.) Forced, its round
    // forms the one crew the report counts.
    let mut algo = Chain::new(1000, false);
    let (_, second) = grain::with_region_ns(0, || {
        Runner::new(cfg).solve("forest", |cfg| ((), execute_type1(&mut algo, cfg)))
    });
    assert!(
        second.scratch_hits >= 2,
        "remaining/flags buffers must be reused, got {} hits",
        second.scratch_hits
    );
    assert_eq!(second.regions, 1);
    assert!(second.helper_spawns >= 1);
}
