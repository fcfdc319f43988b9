//! The arena binary search tree shared by all three sort implementations.
//!
//! Nodes are identified by *iteration index* (the position of their key in
//! the random insertion order), which is exactly the priority used by the
//! paper's priority-writes. No rebalancing — the randomness of the order is
//! what keeps the tree (and hence the dependence depth) shallow.

use ri_core::engine::grain;

/// Sentinel for an absent child / empty root.
pub const NONE: u64 = u64::MAX;

/// Estimated nanoseconds per node of an in-order walk (dependent loads,
/// mostly cache misses on large trees; 14–28 ns measured at 16k–200k
/// nodes).
const WALK_NS: u64 = 16;

/// An explicit binary search tree over iterations `0..n`.
///
/// `left[i]` / `right[i]` hold the iteration index of node `i`'s children
/// (or [`NONE`]). Structural equality between a parallel and a sequential
/// run (`==`) is the paper's Theorem 3.2 statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bst {
    /// Iteration index of the root key.
    pub root: u64,
    /// Left child per node, by iteration index.
    pub left: Vec<u64>,
    /// Right child per node, by iteration index.
    pub right: Vec<u64>,
}

impl Bst {
    /// An empty tree over `n` (future) nodes.
    pub fn new(n: usize) -> Self {
        Bst {
            root: NONE,
            left: vec![NONE; n],
            right: vec![NONE; n],
        }
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// In-order traversal: iteration indices in key-sorted order.
    /// Iterative (explicit stack) so adversarially deep trees cannot
    /// overflow the call stack.
    pub fn in_order(&self) -> Vec<usize> {
        self.in_order_from(self.root, self.len())
    }

    /// Iterative in-order walk of the subtree rooted at `node`;
    /// `capacity` is the caller's output-size hint.
    fn in_order_from(&self, node: u64, capacity: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(capacity);
        let mut stack: Vec<u64> = Vec::new();
        let mut cur = node;
        while cur != NONE || !stack.is_empty() {
            while cur != NONE {
                stack.push(cur);
                cur = self.left[cur as usize];
            }
            let node = stack.pop().expect("nonempty by loop condition");
            out.push(node as usize);
            cur = self.right[node as usize];
        }
        out
    }

    /// In-order traversal assembled by parallel divide-and-conquer:
    /// [`rayon::join`] recurses on the two subtrees (its thread budget
    /// halves per fork, so at most `threads − 1` helpers are spawned for
    /// the whole tree) and concatenates `left ++ node ++ right`. A subtree
    /// is walked iteratively once the go-parallel rule rejects its
    /// estimated size (a random tree's subtrees halve per level), and the
    /// recursion depth is capped — a path-shaped tree degrades to the
    /// iterative walk instead of overflowing the stack. Output is
    /// identical to [`Bst::in_order`].
    pub fn in_order_par(&self) -> Vec<usize> {
        // Random insertion orders give O(log n) expected height; 4× that
        // comfortably covers the whp bound while bounding stack depth.
        let depth_cap = 4 * (usize::BITS - self.len().leading_zeros()) as usize + 4;
        self.in_order_rec(self.root, depth_cap, self.len())
    }

    fn in_order_rec(&self, node: u64, depth: usize, size: usize) -> Vec<usize> {
        if node == NONE {
            return Vec::new();
        }
        if depth == 0 || !grain::goes_parallel(size, WALK_NS) {
            return self.in_order_from(node, size);
        }
        let (l, r) = (self.left[node as usize], self.right[node as usize]);
        let (mut left, right) = rayon::join(
            || self.in_order_rec(l, depth - 1, size / 2),
            || self.in_order_rec(r, depth - 1, size / 2),
        );
        left.reserve(right.len() + 1);
        left.push(node as usize);
        left.extend(right);
        left
    }

    /// Depth (in nodes, root = 1) of every node; 0 for detached slots.
    ///
    /// Per §3, a node's depth equals the length of its iteration-dependence
    /// path, so `depths().max()` is the iteration dependence depth `D(G)`.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        if self.root == NONE {
            return depth;
        }
        let mut stack = vec![(self.root, 1u32)];
        while let Some((node, d)) = stack.pop() {
            depth[node as usize] = d;
            let (l, r) = (self.left[node as usize], self.right[node as usize]);
            if l != NONE {
                stack.push((l, d + 1));
            }
            if r != NONE {
                stack.push((r, d + 1));
            }
        }
        depth
    }

    /// The iteration dependence depth `D(G)` = tree height in nodes.
    pub fn dependence_depth(&self) -> usize {
        self.depths().iter().copied().max().unwrap_or(0) as usize
    }

    /// Check the BST order invariant against the key array.
    pub fn is_search_tree<T: Ord>(&self, keys: &[T]) -> bool {
        let inorder = self.in_order();
        inorder.len() == self.len() && inorder.windows(2).all(|w| keys[w[0]] < keys[w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build by hand:      1
    ///                    / \
    ///                   2   0
    fn tiny() -> Bst {
        let mut t = Bst::new(3);
        t.root = 1;
        t.left[1] = 2;
        t.right[1] = 0;
        t
    }

    #[test]
    fn in_order_tiny() {
        assert_eq!(tiny().in_order(), vec![2, 1, 0]);
        assert_eq!(tiny().in_order_par(), vec![2, 1, 0]);
    }

    #[test]
    fn in_order_par_matches_iterative_on_path_tree() {
        // A right-path tree deeper than the recursion cap must fall back
        // to the iterative walk and still produce the identical order.
        let n = 5000;
        let mut t = Bst::new(n);
        t.root = 0;
        for i in 0..n - 1 {
            t.right[i] = (i + 1) as u64;
        }
        assert_eq!(t.in_order_par(), t.in_order());
        assert_eq!(t.in_order().len(), n);
    }

    #[test]
    fn depths_tiny() {
        assert_eq!(tiny().depths(), vec![2, 1, 2]);
        assert_eq!(tiny().dependence_depth(), 2);
    }

    #[test]
    fn search_tree_invariant() {
        // keys by iteration: it 0 -> 30, it 1 -> 20, it 2 -> 10.
        assert!(tiny().is_search_tree(&[30, 20, 10]));
        assert!(!tiny().is_search_tree(&[10, 20, 30]));
    }

    #[test]
    fn empty_tree() {
        let t = Bst::new(0);
        assert!(t.in_order().is_empty());
        assert_eq!(t.dependence_depth(), 0);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // Right spine of 100k nodes: iterative traversal must survive.
        let n = 100_000;
        let mut t = Bst::new(n);
        t.root = 0;
        for i in 0..n - 1 {
            t.right[i] = (i + 1) as u64;
        }
        let order = t.in_order();
        assert_eq!(order.len(), n);
        assert_eq!(t.dependence_depth(), n);
    }
}
