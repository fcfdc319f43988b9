//! The sequential incremental sort — the baseline every parallel variant
//! must reproduce exactly.

use crate::tree::{Bst, NONE};

/// Output of the sequential sort.
#[derive(Debug)]
pub struct SeqSortResult {
    /// The constructed search tree (node = iteration index).
    pub tree: Bst,
    /// Iteration indices in key-sorted order.
    pub sorted_indices: Vec<usize>,
    /// Number of key comparisons performed.
    pub comparisons: u64,
}

/// Insert `keys` into a BST in the given (iteration) order; keys must be
/// pairwise distinct (the paper's simplifying assumption).
pub(crate) fn sequential_bst_sort_impl<T: Ord>(keys: &[T]) -> SeqSortResult {
    let n = keys.len();
    let mut tree = Bst::new(n);
    let mut comparisons = 0u64;

    for i in 0..n {
        if tree.root == NONE {
            tree.root = i as u64;
            continue;
        }
        let mut cur = tree.root;
        loop {
            comparisons += 1;
            let slot = match keys[i].cmp(&keys[cur as usize]) {
                std::cmp::Ordering::Less => &mut tree.left[cur as usize],
                std::cmp::Ordering::Greater => &mut tree.right[cur as usize],
                std::cmp::Ordering::Equal => panic!("duplicate key at iteration {i}"),
            };
            if *slot == NONE {
                *slot = i as u64;
                break;
            }
            cur = *slot;
        }
    }

    let sorted_indices = tree.in_order();
    SeqSortResult {
        tree,
        sorted_indices,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pram::random_permutation;

    #[test]
    fn sorts_small() {
        let keys = vec![5, 1, 4, 2, 3];
        let r = sequential_bst_sort_impl(&keys);
        let got: Vec<i32> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert!(r.tree.is_search_tree(&keys));
    }

    #[test]
    fn sorts_random_order() {
        let n = 10_000;
        let keys: Vec<usize> = random_permutation(n, 99);
        let r = sequential_bst_sort_impl(&keys);
        let got: Vec<usize> = r.sorted_indices.iter().map(|&i| keys[i]).collect();
        let want: Vec<usize> = (0..n).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn comparisons_near_expected() {
        // E[comparisons] ≈ 2 n ln n for random insertion (Cor. 2.4's bound
        // is 2 n ln n; the exact expectation is 2(n+1)H_n − 4n ≈ 1.39 n log₂ n).
        let n = 1 << 14;
        let keys = random_permutation(n, 5);
        let r = sequential_bst_sort_impl(&keys);
        let bound = 2.0 * n as f64 * (n as f64).ln();
        assert!(
            (r.comparisons as f64) < bound,
            "comparisons {} above Cor 2.4 bound {}",
            r.comparisons,
            bound
        );
        assert!((r.comparisons as f64) > n as f64); // sanity lower bound
    }

    #[test]
    fn dependence_depth_logarithmic_on_random_order() {
        let n = 1 << 14;
        let keys = random_permutation(n, 3);
        let r = sequential_bst_sort_impl(&keys);
        let d = r.tree.dependence_depth();
        // whp bound: ~4.3 log₂ n for random BSTs; assert a generous 6x.
        assert!(
            d < 6 * 14,
            "tree depth {d} suspiciously large for random order"
        );
    }

    #[test]
    fn worst_case_order_is_linear_depth() {
        let keys: Vec<u32> = (0..100).collect(); // sorted order: a path
        let r = sequential_bst_sort_impl(&keys);
        assert_eq!(r.tree.dependence_depth(), 100);
        assert_eq!(r.comparisons, 99 * 100 / 2);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_rejected() {
        sequential_bst_sort_impl(&[1, 2, 1]);
    }

    #[test]
    fn empty_and_single() {
        let r = sequential_bst_sort_impl::<u32>(&[]);
        assert!(r.sorted_indices.is_empty());
        let r = sequential_bst_sort_impl(&[7]);
        assert_eq!(r.sorted_indices, vec![0]);
        assert_eq!(r.comparisons, 0);
    }
}
