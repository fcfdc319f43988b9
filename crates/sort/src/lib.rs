//! # `ri-sort` — incremental BST comparison sorting (§3 of the paper)
//!
//! Sorting by inserting keys into an (unbalanced) binary search tree in
//! random order is the paper's warm-up Type 1 algorithm:
//!
//! * Inserting a key depends on at most two earlier keys (its sorted-order
//!   predecessor and successor) — a *2-bounded dependence* — so by
//!   Theorem 2.1 the iteration dependence depth is `O(log n)` whp
//!   (Lemma 3.1).
//! * Algorithm 3 parallelises the insertion with **priority-writes**: all
//!   outstanding keys race one step down the tree per round, concurrent
//!   writers of an empty child slot are resolved by minimum iteration
//!   index, and the resulting tree is *identical* to the sequential tree
//!   (Theorem 3.2).
//!
//! Three implementations behind two problem types:
//! * [`SortProblem`] — sequential mode runs the classic insertion loop;
//!   parallel mode runs Algorithm 3 with synchronous rounds (snapshot /
//!   priority-write / descend phases), measured rounds = the iteration
//!   dependence depth;
//! * [`BatchSortProblem`] — the §2.3 worked example of a **Type 3**
//!   execution of the same algorithm (doubling rounds + conflict
//!   resolution), used by the Lemma 2.5 tail experiment.
//!
//! Both solve through the unified engine (`solve(&RunConfig)` →
//! `(SortOutput, RunReport)`) and register in the problem registry as
//! `"sort"` and `"sort-batch"` ([`registry::register`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod parallel;
pub mod problem;
pub mod registry;
mod sequential;
pub mod tree;
pub mod workloads;

pub use problem::{BatchSortProblem, SortOutput, SortProblem};
pub use tree::Bst;
