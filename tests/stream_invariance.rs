//! Batch-split invariance of the streaming session layer: for EVERY
//! registered problem, feeding the fixed instance through
//! [`construct_incremental`] in arbitrary batch widths (1..=8) must end
//! in exactly the one-shot solve — same answer, same deterministic round
//! trace, bit for bit. This is the property the serving layer's
//! migration and witness replay both stand on: a session is nothing but
//! its spec and batch counts, so rebuilding it anywhere reproduces it.
//!
//! The deltas in between are problem-defined (prefix answers of the
//! capacity-sized instance), but the *positions* are checked throughout:
//! batch indices, cumulative totals and the completion flag must track
//! the feed exactly, native adapters and the re-solve fallback alike.
//! The split property streams at width 4 with every non-empty round on
//! a crew (`rayon::with_region_ns(0, ..)`) against the one-shot solve at
//! width 1, so a width-dependent answer or trace fails it.

use parallel_ri::registry;
use proptest::prelude::*;
use ri_core::engine::registry::WorkloadSpec;
use ri_core::engine::{RoundTrace, RunConfig};

/// Every registered problem, with a capacity large enough to clear its
/// minimum instance size while keeping proptest cases quick.
const PROBLEMS: [(&str, usize); 9] = [
    ("sort", 28),
    ("sort-batch", 28),
    ("delaunay", 24),
    ("lp", 26),
    ("lp-d", 26),
    ("closest-pair", 26),
    ("enclosing", 24),
    ("le-lists", 24),
    ("scc", 26),
];

/// Turn a raw width list into a batch plan that exactly covers
/// `capacity`: widths are used in order (clamped to the remainder), and
/// a final batch tops the feed up if the list runs short.
fn plan(widths: &[usize], capacity: usize) -> Vec<usize> {
    let mut batches = Vec::new();
    let mut remaining = capacity;
    for &w in widths {
        if remaining == 0 {
            break;
        }
        let count = w.min(remaining);
        batches.push(count);
        remaining -= count;
    }
    if remaining > 0 {
        batches.push(remaining);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core invariance: any split of the feed, streamed on real
    /// crews at width 4, reaches the width-1 one-shot answer and trace,
    /// for all nine problems.
    #[test]
    fn any_batch_split_matches_the_one_shot_solve(
        widths in proptest::collection::vec(1usize..=8, 1..12),
        wseed in 0u64..1000,
        cseed in 0u64..1000,
    ) {
        let reg = registry();
        for (problem, capacity) in PROBLEMS {
            let spec = WorkloadSpec::new(capacity, wseed);
            let cfg = RunConfig::new().seed(cseed).threads(4);
            let batches = plan(&widths, capacity);

            let mut inc = reg
                .construct_incremental(problem, &spec)
                .unwrap_or_else(|e| panic!("{problem}: construct_incremental: {e}"));
            prop_assert_eq!(inc.capacity(), capacity, "{}", problem);

            let mut cumulative = 0usize;
            let mut last = None;
            for (i, &count) in batches.iter().enumerate() {
                let (delta, _) = rayon::with_region_ns(0, || inc.feed(count, &cfg))
                    .unwrap_or_else(|e| panic!("{problem}: batch {i} (count {count}): {e}"));
                cumulative += count;
                prop_assert_eq!(delta.batch, i, "{}", problem);
                prop_assert_eq!(delta.count, count, "{}", problem);
                prop_assert_eq!(delta.cumulative, cumulative, "{}", problem);
                prop_assert_eq!(delta.capacity, capacity, "{}", problem);
                prop_assert_eq!(delta.complete, cumulative == capacity, "{}", problem);
                if delta.complete {
                    prop_assert!(!delta.pending, "{}: a complete feed cannot be pending", problem);
                }
                last = Some(delta);
            }
            prop_assert_eq!(inc.absorbed(), capacity, "{}", problem);

            let last = last.expect("at least one batch");
            let (one_shot, report) = reg
                .solve(problem, &spec, &RunConfig::new().seed(cseed).threads(1))
                .unwrap_or_else(|e| panic!("{problem}: one-shot solve: {e}"));
            prop_assert_eq!(
                &last.answer,
                one_shot.answer(),
                "{}: streamed final answer != one-shot (widths {:?})",
                problem,
                batches
            );
            prop_assert_eq!(
                &last.trace,
                &RoundTrace::from_report(&report),
                "{}: streamed final trace != one-shot (widths {:?})",
                problem,
                batches
            );

            // Overfeeding past capacity is rejected without corrupting state.
            prop_assert!(inc.feed(1, &cfg).is_err(), "{}", problem);
            prop_assert_eq!(inc.absorbed(), capacity, "{}", problem);
        }
    }

    /// Determinism across splits: two *different* splits of the same
    /// instance agree on every shared cumulative prefix (not just the
    /// final one) — the answer after absorbing k elements is a function
    /// of k alone, never of how the feed was chopped.
    #[test]
    fn shared_prefixes_agree_across_splits(
        widths_a in proptest::collection::vec(1usize..=8, 1..12),
        widths_b in proptest::collection::vec(1usize..=8, 1..12),
        wseed in 0u64..1000,
    ) {
        let reg = registry();
        let cfg = RunConfig::new().seed(3);
        for (problem, capacity) in [("sort", 28), ("closest-pair", 26), ("scc", 26)] {
            let spec = WorkloadSpec::new(capacity, wseed);
            let run = |widths: &[usize]| {
                let mut inc = reg.construct_incremental(problem, &spec).unwrap();
                plan(widths, capacity)
                    .iter()
                    .map(|&count| {
                        let (delta, _) = inc.feed(count, &cfg).unwrap();
                        (delta.cumulative, delta.answer, delta.delta.write())
                    })
                    .collect::<Vec<_>>()
            };
            let a = run(&widths_a);
            let b = run(&widths_b);
            for (cum, answer, _) in &a {
                if let Some((_, other, _)) = b.iter().find(|(c, _, _)| c == cum) {
                    prop_assert_eq!(
                        answer,
                        other,
                        "{}: answers diverge at cumulative {}",
                        problem,
                        cum
                    );
                }
            }
        }
    }
}
