//! The Type 3 (batch) execution of BST insertion — the worked example of
//! §2.3 of the paper.
//!
//! *"On each round i, 2^{i−1} keys are already inserted into a BST and in
//! parallel we try to insert the next 2^{i−1} keys. In the first loop all
//! new keys will search the tree for where they belong. Many will fall into
//! their own leaf and be happy, but there will be some conflicts in which
//! multiple keys fall into the same leaf. The second loop would resolve
//! these conflicts."*
//!
//! The conflict resolution inserts each colliding group in iteration order
//! from the contested slot, which reproduces the sequential tree exactly —
//! the "extra work" of Type 3 is the intra-round comparisons that a
//! sequential run would have avoided via separation.
//!
//! This module also measures **Lemma 2.5**: for every key `j` and every
//! round `i`, how many round-`i` keys have a *left dependence* to `j` (a
//! comparison where `j` descends right). The lemma predicts a geometric
//! tail `P[l] ≤ 2^{-l}`; [`left_dep_histogram`] counts it from the final
//! tree, and the bench harness plots it.

use ri_core::engine::{execute_type3, RunConfig};
use ri_core::Type3Algorithm;
use ri_pram::RoundLog;

use crate::tree::{Bst, NONE};

/// Output of the batch (Type 3) sort.
#[derive(Debug)]
pub struct BatchSortResult {
    /// The constructed tree — still equal to the sequential tree.
    pub tree: Bst,
    /// Iteration indices in key-sorted order.
    pub sorted_indices: Vec<usize>,
    /// Total comparisons (frozen-tree searches + conflict resolution).
    pub comparisons: u64,
    /// Per-round log (`rounds() = ⌈log₂ n⌉ + 1` by construction).
    pub log: RoundLog,
}

/// Slot in the frozen tree where a probing key landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Root,
    Left(u32),
    Right(u32),
}

/// One key's search result against the frozen tree.
struct Probe {
    key: usize,
    slot: Slot,
    /// Comparisons the search made.
    comparisons: u32,
}

struct BatchState<'a, T> {
    keys: &'a [T],
    tree: Bst,
    search_comparisons: u64,
    resolve_comparisons: u64,
}

impl<T: Ord + Sync> Type3Algorithm for BatchState<'_, T> {
    type Output = Probe;

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn run_iteration(&self, k: usize) -> Probe {
        let mut comparisons = 0u32;
        let mut slot = Slot::Root;
        let mut cur = self.tree.root;
        while cur != NONE {
            comparisons += 1;
            let node = cur as usize;
            if self.keys[k] < self.keys[node] {
                slot = Slot::Left(cur as u32);
                cur = self.tree.left[node];
            } else {
                slot = Slot::Right(cur as u32);
                cur = self.tree.right[node];
            }
        }
        Probe {
            key: k,
            slot,
            comparisons,
        }
    }

    /// The round's recorded work is its conflict-resolution comparisons;
    /// the probes' search comparisons count toward the run's total.
    fn combine(&mut self, _lo: usize, outputs: &mut Vec<Probe>) -> u64 {
        let resolved_before = self.resolve_comparisons;

        // Resolve conflicts in one allocation-free pass. Probes drain in
        // iteration order and every contested slot was empty in the frozen
        // tree, so the *first* probe to reach a slot is exactly the
        // earliest colliding key — it takes the slot — and every later
        // collider descends from that winner through the subtree the
        // round has grown below it. This interleaves the old per-group
        // resolution without changing any insertion order within a
        // subtree: groups live in disjoint subtrees.
        for p in outputs.drain(..) {
            let k = p.key;
            self.search_comparisons += u64::from(p.comparisons);
            let slot_child = match p.slot {
                Slot::Root => &mut self.tree.root,
                Slot::Left(q) => &mut self.tree.left[q as usize],
                Slot::Right(q) => &mut self.tree.right[q as usize],
            };
            if *slot_child == NONE {
                *slot_child = k as u64;
            } else {
                let mut cur = *slot_child;
                loop {
                    self.resolve_comparisons += 1;
                    let node = cur as usize;
                    let child = if self.keys[k] < self.keys[node] {
                        &mut self.tree.left[node]
                    } else {
                        &mut self.tree.right[node]
                    };
                    if *child == NONE {
                        *child = k as u64;
                        break;
                    }
                    cur = *child;
                }
            }
        }

        self.resolve_comparisons - resolved_before
    }
}

/// Sort by batched (Type 3) BST insertion. Keys must be distinct.
pub(crate) fn batch_bst_sort_impl<T: Ord + Sync>(keys: &[T]) -> BatchSortResult {
    let mut state = BatchState {
        keys,
        tree: Bst::new(keys.len()),
        search_comparisons: 0,
        resolve_comparisons: 0,
    };
    let log = execute_type3(&mut state, &RunConfig::new().parallel()).rounds;
    let sorted_indices = state.tree.in_order_par();
    BatchSortResult {
        tree: state.tree,
        sorted_indices,
        comparisons: state.search_comparisons + state.resolve_comparisons,
        log,
    }
}

/// Lemma 2.5's histogram of the batch schedule that builds `tree`: `[l]`
/// counts the (key, round ≤ the key's round) pairs with exactly `l` left
/// dependences from that round. Key `k` is inserted in round `64 −
/// k.leading_zeros()`, and its left dependences from round `i` are its
/// right turns at round-`i` ancestors, in its search or its conflict
/// resolution. One DFS counts them.
pub(crate) fn left_dep_histogram(tree: &Bst) -> Vec<u64> {
    /// A node to visit, a right turn to take into a child, or one to undo.
    enum Step {
        Visit(u64),
        Turn(u64, usize),
        Back(usize),
    }
    let mut histogram = Vec::new();
    // Right turns per round on the path from the root.
    let mut turns = [0usize; u64::BITS as usize + 1];
    let mut stack = vec![Step::Visit(tree.root)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(NONE) => {}
            Step::Visit(k) => {
                let r = (u64::BITS - k.leading_zeros()) as usize;
                for &l in &turns[..=r] {
                    if histogram.len() <= l {
                        histogram.resize(l + 1, 0);
                    }
                    histogram[l] += 1;
                }
                let (left, right) = (tree.left[k as usize], tree.right[k as usize]);
                stack.extend([Step::Back(r), Step::Turn(right, r), Step::Visit(left)]);
            }
            Step::Turn(child, r) => {
                turns[r] += 1;
                stack.push(Step::Visit(child));
            }
            Step::Back(r) => turns[r] -= 1,
        }
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::sequential_bst_sort_impl;
    use crate::workloads::shaped_keys;
    use ri_core::engine::Runner;
    use ri_core::prefix_rounds;
    use ri_pram::random_permutation;

    /// The batch state this module ran before the histogram left the solve,
    /// kept as the reference: every probe carries its left dependences per
    /// round (`round_of` gives each node's round), conflict resolution adds
    /// the intra-round ones, and the combine folds each probe into the
    /// histogram.
    struct Reference<'a> {
        keys: &'a [usize],
        tree: Bst,
        round_of: Vec<u16>,
        comparisons: u64,
        histogram: Vec<u64>,
    }

    impl Type3Algorithm for Reference<'_> {
        type Output = (Probe, [u16; 64]);

        fn len(&self) -> usize {
            self.keys.len()
        }

        fn run_iteration(&self, k: usize) -> Self::Output {
            let mut left_hits = [0u16; 64];
            let mut comparisons = 0u32;
            let mut slot = Slot::Root;
            let mut cur = self.tree.root;
            while cur != NONE {
                comparisons += 1;
                let node = cur as usize;
                if self.keys[k] < self.keys[node] {
                    slot = Slot::Left(cur as u32);
                    cur = self.tree.left[node];
                } else {
                    left_hits[self.round_of[node] as usize] += 1;
                    slot = Slot::Right(cur as u32);
                    cur = self.tree.right[node];
                }
            }
            let probe = Probe {
                key: k,
                slot,
                comparisons,
            };
            (probe, left_hits)
        }

        fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
            let round = self.round_of[lo] as usize;
            for (p, mut hits) in outputs.drain(..) {
                let k = p.key;
                self.comparisons += u64::from(p.comparisons);
                let slot_child = match p.slot {
                    Slot::Root => &mut self.tree.root,
                    Slot::Left(q) => &mut self.tree.left[q as usize],
                    Slot::Right(q) => &mut self.tree.right[q as usize],
                };
                if *slot_child == NONE {
                    *slot_child = k as u64;
                } else {
                    let mut cur = *slot_child;
                    loop {
                        self.comparisons += 1;
                        let node = cur as usize;
                        let child = if self.keys[k] < self.keys[node] {
                            &mut self.tree.left[node]
                        } else {
                            hits[round] += 1;
                            &mut self.tree.right[node]
                        };
                        if *child == NONE {
                            *child = k as u64;
                            break;
                        }
                        cur = *child;
                    }
                }
                for &l in hits.iter().take(round + 1) {
                    let l = l as usize;
                    if self.histogram.len() <= l {
                        self.histogram.resize(l + 1, 0);
                    }
                    self.histogram[l] += 1;
                }
            }
            0
        }
    }

    /// Runs `algo` in parallel mode at `width` threads, every round of two
    /// or more keys on a crew when `forced`; returns the crew regions the
    /// run started.
    fn regions_at(algo: &mut impl Type3Algorithm, width: usize, forced: bool) -> u64 {
        let runner = Runner::new(RunConfig::new().parallel().threads(width));
        let mut solve = || {
            let (_, report) = runner.solve("sort-batch", |cfg| ((), execute_type3(algo, cfg)));
            report.regions
        };
        if forced {
            rayon::with_region_ns(0, solve)
        } else {
            solve()
        }
    }

    #[test]
    fn lean_probes_and_the_tree_dfs_match_the_per_probe_fold() {
        for shape in ["random", "nearly-sorted", "reverse", "organ-pipe"] {
            for seed in 0..3 {
                let keys = shaped_keys(3000, seed, shape, None).unwrap();
                let mut round_of = vec![0u16; keys.len()];
                for (r, (lo, hi)) in prefix_rounds(keys.len()).into_iter().enumerate() {
                    round_of[lo..hi].fill(r as u16);
                }
                let mut want = Reference {
                    keys: &keys,
                    tree: Bst::new(keys.len()),
                    round_of,
                    comparisons: 0,
                    histogram: Vec::new(),
                };
                regions_at(&mut want, 1, false);
                for width in [1, 2, 4] {
                    for forced in [false, true] {
                        let tag = format!("{shape}/{seed} at width {width}, forced {forced}");
                        let mut got = BatchState {
                            keys: &keys,
                            tree: Bst::new(keys.len()),
                            search_comparisons: 0,
                            resolve_comparisons: 0,
                        };
                        let regions = regions_at(&mut got, width, forced);
                        assert!(regions == 0 || width > 1, "{tag}: a crew at width 1");
                        assert!(regions > 0 || width == 1 || !forced, "{tag}: no crew");
                        assert_eq!(got.tree, want.tree, "{tag}: tree");
                        let comparisons = got.search_comparisons + got.resolve_comparisons;
                        assert_eq!(comparisons, want.comparisons, "{tag}: comparisons");
                        assert_eq!(left_dep_histogram(&got.tree), want.histogram, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn sorts_correctly() {
        let keys = random_permutation(10_000, 21);
        let r = batch_bst_sort_impl(&keys);
        let got: Vec<usize> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn tree_matches_sequential() {
        for seed in 0..5 {
            let keys = random_permutation(3000, seed);
            let batch = batch_bst_sort_impl(&keys);
            let seq = sequential_bst_sort_impl(&keys);
            assert_eq!(batch.tree, seq.tree, "batch tree differs at seed {seed}");
        }
    }

    #[test]
    fn round_count_is_logarithmic_by_construction() {
        let keys = random_permutation(1 << 12, 8);
        let r = batch_bst_sort_impl(&keys);
        assert_eq!(r.log.rounds(), 13);
    }

    #[test]
    fn extra_work_is_constant_factor() {
        // Type 3 does more comparisons than sequential, but only by a
        // constant factor in expectation (Theorem 2.6 discussion).
        let keys = random_permutation(1 << 14, 8);
        let batch = batch_bst_sort_impl(&keys);
        let seq = sequential_bst_sort_impl(&keys);
        let ratio = batch.comparisons as f64 / seq.comparisons as f64;
        assert!(
            (1.0..2.5).contains(&ratio),
            "work ratio {ratio} outside expected constant-factor band"
        );
    }

    #[test]
    fn left_dep_histogram_has_geometric_tail() {
        // Lemma 2.5: P[l left deps from one round] ≤ 2^{-l}; check the
        // measured histogram decays at least geometrically past l = 2.
        let keys = random_permutation(1 << 14, 13);
        let r = batch_bst_sort_impl(&keys);
        let h = &left_dep_histogram(&r.tree);
        let total: u64 = h.iter().sum();
        assert!(total > 0);
        for l in 3..h.len().saturating_sub(1) {
            // Allow slack 2x on the ratio but demand decay on average.
            if h[l] > 100 {
                assert!(
                    h[l + 1] * 2 <= h[l] * 3,
                    "histogram not decaying at l={l}: {} -> {}",
                    h[l],
                    h[l + 1]
                );
            }
        }
        // The mass at l >= 1 must be a minority of all samples.
        let ge1: u64 = h.iter().skip(1).sum();
        assert!(ge1 * 2 < total, "left-dep tail too heavy: {ge1}/{total}");
    }

    #[test]
    fn empty_and_single() {
        let r = batch_bst_sort_impl::<u32>(&[]);
        assert!(r.sorted_indices.is_empty());
        let r = batch_bst_sort_impl(&[9u32]);
        assert_eq!(r.sorted_indices, vec![0]);
    }
}
