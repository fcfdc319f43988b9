//! The k-relaxed incremental sort: Algorithm 3's tree, scheduled by slot.
//!
//! The relaxed driver reformulates BST insertion as independent **slot
//! tasks**. A task owns an empty tree slot (root, or a left/right child
//! pointer) plus the *pending set* — every iteration index whose root
//! path leads into that slot. The sequential algorithm fills the slot
//! with the minimum pending index (the first to arrive), so a task can
//! resolve itself without consulting any other task: place the winner
//! `min(pending)`, compare the rest against it once each, and split them
//! into the two child-slot tasks. That is exactly the sequential
//! recursion, so the tree, the sorted order, and the comparison count
//! are all **identical** to the sequential run no matter when each task
//! executes — which is what makes the scheduling freely relaxable.
//!
//! Tasks are driven from a [`MultiQueue`] with priority `min(pending)` —
//! the time the sequential algorithm would fill that slot. Each round
//! drains the queue in k-relaxed pop order and processes the drained
//! tasks in parallel (their slot writes are disjoint); child tasks land
//! in the next round's drain. Pops happen only on the coordinating
//! thread, so the schedule (and the [`rank_inversions`] it reports) is
//! deterministic per `(k, seed)` and independent of pool width; at
//! `k = 1` the drain comes back in exact priority order and reports zero
//! inversions.
//!
//! Pending sets start sorted (`0..n`) and splitting preserves order, so
//! `min(pending)` is always `pending[0]` — no scan, no re-sort.
//!
//! [`rank_inversions`]: ri_pram::MultiQueue::rank_inversions

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

use crate::tree::{Bst, NONE};
use ri_core::engine::grain;
use ri_pram::{MultiQueue, RoundLog};

/// Estimated nanoseconds to compare one pending key against its slot's
/// winner and move it to a child set.
const PARTITION_NS: u64 = 3;

/// Output of the relaxed sort.
#[derive(Debug)]
pub struct RelaxedSortResult {
    /// The constructed search tree — equal to the sequential tree.
    pub tree: Bst,
    /// Iteration indices in key-sorted order.
    pub sorted_indices: Vec<usize>,
    /// Total key comparisons (equal to the sequential count: each key
    /// meets each of its tree ancestors exactly once).
    pub comparisons: u64,
    /// Per-drain log; `log.rounds()` = number of queue drains.
    pub log: RoundLog,
    /// Out-of-priority-order pops across all drains (0 at `k = 1`).
    pub rank_inversions: u64,
}

/// Where a slot task's empty slot lives.
#[derive(Debug, Clone, Copy)]
enum Cursor {
    Root,
    Left(u32),
    Right(u32),
}

/// One schedulable unit: an empty slot and its sorted pending set.
struct SlotTask {
    cursor: Cursor,
    pending: Vec<u32>,
}

/// Sort by k-relaxed slot scheduling (see the module docs). Keys must be
/// distinct; `seed` fixes the relaxed pop order.
pub(crate) fn relaxed_bst_sort_impl<T: Ord + Sync>(
    keys: &[T],
    k: usize,
    seed: u64,
) -> RelaxedSortResult {
    let n = keys.len();
    let root = AtomicU64::new(NONE);
    let left: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE)).collect();
    let right: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NONE)).collect();
    let mut comparisons = 0u64;

    // Resolve one task: place the winner, split the rest toward the two
    // child slots, and report the comparisons that took. Slot writes are
    // disjoint across tasks (each task owns its slot), so concurrent
    // resolution is race-free.
    let process = |task: SlotTask| -> (u64, [Option<SlotTask>; 2]) {
        let winner = task.pending[0];
        let slot = match task.cursor {
            Cursor::Root => &root,
            Cursor::Left(v) => &left[v as usize],
            Cursor::Right(v) => &right[v as usize],
        };
        slot.store(winner as u64, Ordering::Release);
        let rest = &task.pending[1..];
        let less = |i: &&u32| keys[**i as usize] < keys[winner as usize];
        let (lo, hi): (Vec<u32>, Vec<u32>) = if grain::goes_parallel(rest.len(), PARTITION_NS) {
            // Chunked parallel partition; ordered concatenation keeps the
            // pending sets sorted.
            let chunk = rest.len().div_ceil(rayon::recommended_splits());
            let parts: Vec<(Vec<u32>, Vec<u32>)> = rest
                .par_chunks(chunk)
                .with_cost(PARTITION_NS)
                .map(|cc| cc.iter().partition(less))
                .collect();
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for (l, h) in parts {
                lo.extend(l);
                hi.extend(h);
            }
            (lo, hi)
        } else {
            rest.iter().partition(less)
        };
        let child = |cursor: Cursor, pending: Vec<u32>| {
            (!pending.is_empty()).then_some(SlotTask { cursor, pending })
        };
        (
            rest.len() as u64,
            [
                child(Cursor::Left(winner), lo),
                child(Cursor::Right(winner), hi),
            ],
        )
    };

    let mq: MultiQueue<SlotTask> = MultiQueue::new(k, seed);
    if n > 0 {
        mq.push(
            0,
            SlotTask {
                cursor: Cursor::Root,
                pending: (0..n as u32).collect(),
            },
        );
    }
    let mut order: Vec<(u64, SlotTask)> = Vec::new();
    let mut log = RoundLog::new();
    while !mq.is_empty() {
        // Each drain is its own inversion epoch: child priorities restart
        // below previously popped ones by construction, and the measured
        // relaxation should be the queue's, not the drain loop's.
        mq.begin_epoch();
        order.clear();
        mq.pop_batch(usize::MAX, &mut order);
        let round_items = order.len();
        // A drain's work is its tasks' pending keys, spread over the tasks.
        let pending: usize = order.iter().map(|(_, task)| task.pending.len()).sum();
        let task_ns = (pending as u64 * PARTITION_NS).div_ceil(round_items as u64);
        let children: Vec<(u64, [Option<SlotTask>; 2])> =
            if round_items > 1 && grain::goes_parallel(round_items, task_ns) {
                std::mem::take(&mut order)
                    .into_par_iter()
                    .with_cost(task_ns)
                    .map(|(_, task)| process(task))
                    .collect()
            } else {
                order.drain(..).map(|(_, task)| process(task)).collect()
            };
        let mut round_comparisons = 0u64;
        for (compared, tasks) in children {
            round_comparisons += compared;
            for task in tasks.into_iter().flatten() {
                mq.push(task.pending[0] as u64, task);
            }
        }
        comparisons += round_comparisons;
        log.record(round_items, round_comparisons);
    }

    let tree = Bst {
        root: root.into_inner(),
        left: left.into_iter().map(|a| a.into_inner()).collect(),
        right: right.into_iter().map(|a| a.into_inner()).collect(),
    };
    let sorted_indices = tree.in_order_par();
    RelaxedSortResult {
        tree,
        sorted_indices,
        comparisons,
        log,
        rank_inversions: mq.rank_inversions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::parallel_bst_sort_impl;
    use crate::sequential::sequential_bst_sort_impl;
    use ri_pram::random_permutation;

    #[test]
    fn tree_and_comparisons_identical_to_sequential() {
        for seed in 0..4 {
            let keys = random_permutation(2000, seed);
            let seq = sequential_bst_sort_impl(&keys);
            for k in [1usize, 4, 64] {
                let rel = relaxed_bst_sort_impl(&keys, k, seed ^ 0x5a);
                assert_eq!(rel.tree, seq.tree, "k={k} seed={seed}");
                assert_eq!(rel.sorted_indices, seq.sorted_indices, "k={k}");
                assert_eq!(rel.comparisons, seq.comparisons, "k={k}");
            }
        }
    }

    #[test]
    fn agrees_with_parallel_and_k1_is_exact() {
        let keys = random_permutation(4096, 9);
        let par = parallel_bst_sort_impl(&keys);
        let exact = relaxed_bst_sort_impl(&keys, 1, 3);
        assert_eq!(exact.tree, par.tree);
        assert_eq!(exact.rank_inversions, 0, "k=1 pops in exact order");
        let relaxed = relaxed_bst_sort_impl(&keys, 16, 3);
        assert_eq!(relaxed.tree, par.tree);
    }

    #[test]
    fn empty_and_single() {
        let r = relaxed_bst_sort_impl::<u32>(&[], 4, 0);
        assert!(r.sorted_indices.is_empty());
        assert_eq!(r.log.rounds(), 0);
        let r = relaxed_bst_sort_impl(&[7u32], 4, 0);
        assert_eq!(r.sorted_indices, vec![0]);
        assert_eq!(r.comparisons, 0);
    }

    #[test]
    fn sorted_input_still_correct() {
        let keys: Vec<u32> = (0..300).collect();
        let r = relaxed_bst_sort_impl(&keys, 8, 1);
        let got: Vec<u32> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        assert_eq!(got, keys);
    }
}
