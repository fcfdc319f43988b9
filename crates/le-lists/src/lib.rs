//! # `ri-le-lists` — Cohen's least-element lists
//! (§6.1 of the paper, Type 3)
//!
//! Given a graph whose vertices carry a random priority order
//! `v₁, ..., v_n`, vertex `v_j` belongs to `L(u)` iff `v_j` is closer to
//! `u` than every earlier vertex (Definition 3). LE-lists have `O(log n)`
//! entries whp and power neighborhood-size estimation and probabilistic
//! tree embeddings.
//!
//! * Sequential mode of [`LeListsProblem`] — Algorithm 6: iterate sources
//!   in priority order, running a **δ-pruned** shortest-path search that
//!   only visits vertices the source improves.
//! * Parallel mode — the Type 3 execution: doubling rounds of sources
//!   search *in parallel against the previous round's δ array*, and a
//!   combine step folds the round's finds into δ in source order: a find
//!   enters `L(u)` only if it beats `δ(u)` so far. That discards the
//!   redundant entries and reproduces the sequential lists exactly. (The
//!   paper collects each target's finds with a semisort; targets are
//!   independent, so one pass in source order gives the same lists.)
//!
//! Theorem 6.2: the parallel version does `O(W_SP(n,m) log n)` expected
//! work over `O(log n)` rounds. Lemma 6.1 establishes the separating
//! dependences: if `b` is closer to `c` than `a` is and runs first, `a`'s
//! search can no longer reach `c`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lists;
pub mod problem;
pub mod registry;

pub use lists::le_lists_brute_force;
pub use problem::{LeListsOutput, LeListsProblem};
