//! The go-parallel rule for executor rounds.
//!
//! A parallel round is worth a crew only when its work pays for the
//! crew's spawn: under `#![forbid(unsafe_code)]` every crew region and
//! every `join` spawns scoped helper threads, which costs tens of
//! microseconds per region on a small host. Round sites therefore ask one
//! rule, [`goes_parallel`], owned by the vendored scheduler: a round of
//! `len` items costing about `item_ns` nanoseconds each gets a crew only
//! when the installed width is above 1 and
//! `len × item_ns ≥` [`PAYOFF`] `×` [`region_ns`]`(width)`, where
//! `region_ns` is the spawn-and-join cost of `width − 1` helpers, measured
//! once per width on its first fetch. Otherwise the round runs inline
//! on the calling thread — same results, zero scheduler involvement
//! (`RunReport::{regions, helper_spawns}` stay 0). Width 1 (sequential
//! mode, `threads == 1` configs) never reaches the rule.
//!
//! Every round site supplies its own per-item cost constant: the Type
//! 1/2/3 executors read it from the algorithm's `item_ns` trait method
//! (default [`DEFAULT_ITEM_NS`], overridden by every registered
//! algorithm), and the algorithm crates' own rounds and the `ri-pram`
//! primitives pass theirs. The constants come from per-item timings of
//! each site at width 1; `speedup --gate-scaling` checks them against
//! measurement by failing when any problem runs slower at a wider width.

pub use rayon::{goes_parallel, pays_off, region_ns, DEFAULT_ITEM_NS, PAYOFF};
