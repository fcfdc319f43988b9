//! # `ri-enclosing` — Welzl's smallest enclosing disk
//! (§5.3 of the paper, Type 2)
//!
//! Points arrive in random order while the smallest disk enclosing the
//! prefix is maintained. An iteration is **special** when its point falls
//! outside the current disk — that point must then lie *on* the boundary of
//! the new disk, and `Update1` rebuilds the disk by scanning all earlier
//! points (with a nested `Update2` scan when a second boundary point is
//! discovered, and a circumcircle when a third is).
//!
//! Backwards analysis gives `P[iteration i is special] ≤ 3/i` (the disk is
//! determined by at most 3 points) and `P[Update2 at step j] ≤ 2/j`, so the
//! expected work is `O(n)` (Theorem 5.3). The parallel version runs the
//! outer loop through the Type 2 executor; `Update1`/`Update2` are the
//! paper's *find-earliest-outside* scans over the prefix (min-reductions
//! on the PRAM, for `O(log² n)` depth overall). Here those scans run
//! inline: at about a nanosecond per containment test, a scan would need
//! hundreds of thousands of points to pay for a crew.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod problem;
pub mod registry;
mod welzl;

pub use problem::EnclosingProblem;
pub use welzl::{brute_force_sed, SedOutput};
