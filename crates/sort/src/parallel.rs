//! Algorithm 3: the parallel incremental sort with priority-writes.
//!
//! All outstanding keys advance one tree level per round. Each round has
//! three synchronous phases, reproducing the priority-write CRCW PRAM step
//! semantics on shared memory:
//!
//! 1. **snapshot** — every active key reads its current slot;
//! 2. **write** — keys whose slot was empty priority-write their iteration
//!    index (`fetch_min`);
//! 3. **resolve** — every active key re-reads the slot: the winner is
//!    placed, everyone else descends one level past the slot's (now fixed)
//!    occupant.
//!
//! Because writes happen only in phase 2 and the minimum iteration index
//! wins, the constructed tree is **identical** to the sequential one
//! (Theorem 3.2), and the number of rounds equals the iteration dependence
//! depth (each round retires exactly one level of the dependence DAG).
//!
//! ## Grain control: the fused inline round
//!
//! When a round runs entirely on the calling thread **in iteration
//! order** — which every round of the sort does (see below) — the three
//! phases fuse into a *single* pass with in-place compaction: the first
//! key to see an empty slot is the minimum-index key pointing at it (the
//! active list is always sorted by iteration index), so it wins exactly
//! the priority-write, and every later key reads the winner as its
//! occupant exactly as the resolve phase would. Same winners, same
//! descents, same comparison counts, same per-round placement — but one
//! pass instead of three and zero per-round allocation, which is what
//! brings parallel-mode-at-1-thread within a whisker of the sequential
//! loop. The concurrent (multi-thread) path keeps the phase separation
//! (a fused check-and-write is racy about *which* key wins) and instead
//! reuses its snapshot/survivor buffers through the scratch arena; its
//! write phase skips the `fetch_min` when the slot already holds a smaller
//! index, and its resolve phase counts comparisons per chunk.
//!
//! ## When the concurrent round pays
//!
//! On no host measured so far. Forced onto a crew of 2, the three-phase
//! round takes three to seven times the fused pass's wall time per key
//! (rounds of 10k+ keys at n = 16k–200k on a 2-vCPU host): it touches
//! every key's slot three times and writes per-chunk survivor lists,
//! which costs more than a second thread saves. So the sort runs every
//! round fused, at every width, until a measurement on a wider crew shows
//! the concurrent round winning; `bst_sort_rounds` runs it wherever a
//! declared per-key cost pays, which is how the tests keep it on a crew.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::tree::{Bst, NONE};
use ri_core::engine::{grain, scratch};
use ri_pram::RoundLog;

/// Output of the parallel sort.
#[derive(Debug)]
pub struct ParSortResult {
    /// The constructed search tree — equal to the sequential tree.
    pub tree: Bst,
    /// Iteration indices in key-sorted order.
    pub sorted_indices: Vec<usize>,
    /// Total key comparisons across all rounds.
    pub comparisons: u64,
    /// Per-round log; `log.rounds()` = iteration dependence depth.
    pub log: RoundLog,
}

/// Where an outstanding key currently points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    Root,
    Left(u64),
    Right(u64),
}

/// Sort by parallel BST insertion (Algorithm 3). Keys must be distinct.
/// Every round takes the fused pass (see the module docs).
pub(crate) fn parallel_bst_sort_impl<T: Ord + Sync>(keys: &[T]) -> ParSortResult {
    bst_sort_rounds(keys, 0)
}

/// Algorithm 3's rounds. A round runs concurrently where the go-parallel
/// rule admits `crew_ns` per key (a cost declared for the three-phase
/// round; 0 never pays) and fused inline otherwise.
fn bst_sort_rounds<T: Ord + Sync>(keys: &[T], crew_ns: u64) -> ParSortResult {
    let n = keys.len();
    let root = AtomicU64::new(NONE);
    let left: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE)).collect();
    let right: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE)).collect();

    let slot_of = |c: Cursor| -> &AtomicU64 {
        match c {
            Cursor::Root => &root,
            Cursor::Left(v) => &left[v as usize],
            Cursor::Right(v) => &right[v as usize],
        }
    };

    // The active list, its successor, and the snapshot buffer all come
    // from (and return to) the engine's scratch arena: rounds reallocate
    // nothing, repeated runs on one thread reuse capacity.
    let mut active: Vec<(usize, Cursor)> = scratch::take_vec();
    active.extend((0..n).map(|i| (i, Cursor::Root)));
    let mut next: Vec<(usize, Cursor)> = scratch::take_vec();
    let mut snapshot: Vec<u64> = scratch::take_vec();
    let mut log = RoundLog::new();
    let mut comparisons = 0u64;

    while !active.is_empty() {
        let round_items = active.len();
        if !grain::goes_parallel(round_items, crew_ns) {
            // Fused inline round (single thread, iteration order): see the
            // module docs for why this is phase-equivalent. Winners retire
            // in place; losers are compacted forward with a write cursor.
            let mut kept = 0usize;
            let mut round_comparisons = 0u64;
            for r in 0..round_items {
                let (i, c) = active[r];
                let slot = slot_of(c);
                let occupant = slot.load(Ordering::Acquire);
                if occupant == NONE {
                    // In-order processing: i is the minimum active index
                    // pointing at this slot, i.e. the priority-write winner.
                    slot.store(i as u64, Ordering::Release);
                } else {
                    round_comparisons += 1;
                    let next_cursor = if keys[i] < keys[occupant as usize] {
                        Cursor::Left(occupant)
                    } else {
                        Cursor::Right(occupant)
                    };
                    active[kept] = (i, next_cursor);
                    kept += 1;
                }
            }
            comparisons += round_comparisons;
            active.truncate(kept);
        } else {
            let chunk = round_items.div_ceil(rayon::recommended_splits());

            // Phase 1: snapshot each active key's slot (into the reused
            // buffer, chunk-aligned with the active list).
            snapshot.clear();
            snapshot.resize(round_items, 0);
            snapshot
                .par_chunks_mut(chunk)
                .zip(active.par_chunks(chunk))
                .with_cost(crew_ns)
                .for_each(|(ss, aa)| {
                    for (s, &(_, c)) in ss.iter_mut().zip(aa) {
                        *s = slot_of(c).load(Ordering::Acquire);
                    }
                });

            // Phase 2: keys that saw an empty slot priority-write their
            // index — unless a smaller index already holds the slot, when
            // the write could not win and is skipped (many keys of a round
            // share a slot; only the first few need the contended RMW).
            // Slot values only decrease, so a stale relaxed read costs at
            // most a redundant `fetch_min`; phase 3 reads after the join.
            active
                .par_iter()
                .zip(snapshot.par_iter())
                .with_cost(crew_ns)
                .for_each(|(&(i, c), &seen)| {
                    let slot = slot_of(c);
                    if seen == NONE && slot.load(Ordering::Relaxed) > i as u64 {
                        slot.fetch_min(i as u64, Ordering::AcqRel);
                    }
                });

            // Phase 3: resolve — winners retire, losers descend one level
            // (one comparison each, counted per chunk). Survivors compact
            // per chunk, then drain into the reused `next` buffer in order.
            let parts: Vec<Vec<(usize, Cursor)>> = active
                .par_chunks(chunk)
                .with_cost(crew_ns)
                .map(|aa| {
                    aa.iter()
                        .filter_map(|&(i, c)| {
                            let occupant = slot_of(c).load(Ordering::Acquire);
                            debug_assert_ne!(
                                occupant, NONE,
                                "write phase must have filled the slot"
                            );
                            if occupant == i as u64 {
                                return None; // placed
                            }
                            let next_cursor = if keys[i] < keys[occupant as usize] {
                                Cursor::Left(occupant)
                            } else {
                                Cursor::Right(occupant)
                            };
                            Some((i, next_cursor))
                        })
                        .collect()
                })
                .collect();
            next.clear();
            for p in parts {
                // Every survivor made exactly one comparison.
                comparisons += p.len() as u64;
                next.extend(p);
            }
            std::mem::swap(&mut active, &mut next);
        }
        log.record(round_items, (round_items - active.len()) as u64);
    }
    scratch::put_vec(active);
    scratch::put_vec(next);
    scratch::put_vec(snapshot);

    let tree = Bst {
        root: root.into_inner(),
        left: left.into_iter().map(|a| a.into_inner()).collect(),
        right: right.into_iter().map(|a| a.into_inner()).collect(),
    };
    let sorted_indices = tree.in_order_par();
    ParSortResult {
        tree,
        sorted_indices,
        comparisons,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::sequential_bst_sort_impl;
    use ri_pram::random_permutation;

    #[test]
    fn sorts_correctly() {
        let keys: Vec<usize> = random_permutation(10_000, 1);
        let r = parallel_bst_sort_impl(&keys);
        let got: Vec<usize> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn tree_identical_to_sequential() {
        for seed in 0..5 {
            let keys = random_permutation(2000, seed);
            let par = parallel_bst_sort_impl(&keys);
            let seq = sequential_bst_sort_impl(&keys);
            assert_eq!(par.tree, seq.tree, "Theorem 3.2 violated at seed {seed}");
        }
    }

    #[test]
    fn concurrent_rounds_form_crews_and_build_the_sequential_tree() {
        // Declare the rounds dear enough that every multi-key round pays,
        // so the three-phase concurrent path really runs on a crew.
        let keys = random_permutation(5000, 3);
        let seq = sequential_bst_sort_impl(&keys);
        rayon::cached_pool(4).install(|| {
            let before = rayon::crew_regions();
            let par = bst_sort_rounds(&keys, 1_000_000);
            assert!(rayon::crew_regions() > before, "rounds must form crews");
            assert_eq!(par.tree, seq.tree, "Theorem 3.2 violated on a crew");
            assert_eq!(par.comparisons, seq.comparisons);
            assert_eq!(par.log.rounds(), par.tree.dependence_depth());
        });
    }

    #[test]
    fn comparisons_match_sequential() {
        let keys = random_permutation(5000, 9);
        let par = parallel_bst_sort_impl(&keys);
        let seq = sequential_bst_sort_impl(&keys);
        assert_eq!(par.comparisons, seq.comparisons);
    }

    #[test]
    fn rounds_equal_dependence_depth() {
        let keys = random_permutation(5000, 4);
        let r = parallel_bst_sort_impl(&keys);
        assert_eq!(r.log.rounds(), r.tree.dependence_depth());
    }

    #[test]
    fn rounds_logarithmic_for_random_order() {
        let n = 1 << 15;
        let keys = random_permutation(n, 2);
        let r = parallel_bst_sort_impl(&keys);
        assert!(
            r.log.rounds() < 6 * 15,
            "rounds {} not O(log n)",
            r.log.rounds()
        );
    }

    #[test]
    fn empty_and_single() {
        let r = parallel_bst_sort_impl::<u32>(&[]);
        assert!(r.sorted_indices.is_empty());
        assert_eq!(r.log.rounds(), 0);
        let r = parallel_bst_sort_impl(&[42u32]);
        assert_eq!(r.sorted_indices, vec![0]);
        assert_eq!(r.log.rounds(), 1);
    }

    #[test]
    fn adversarial_sorted_order_still_correct() {
        // Sorted input: the tree is a path; rounds = n. Correctness (not
        // performance) must hold.
        let keys: Vec<u32> = (0..200).collect();
        let r = parallel_bst_sort_impl(&keys);
        assert_eq!(r.log.rounds(), 200);
        let got: Vec<u32> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        assert_eq!(got, keys);
    }
}
