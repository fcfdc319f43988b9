//! # `ri-pram` — work-depth parallel primitives
//!
//! The paper analyses its algorithms on the CRCW PRAM in the *work-depth*
//! model. This crate is the shared-memory substrate standing in for that
//! model: the primitives the algorithms call, built on [`rayon`]'s crews
//! (scoped helper threads that split a region's chunks through a shared
//! cursor) and `std::sync::atomic`.
//!
//! Provided primitives and their PRAM counterparts:
//!
//! | Module | Primitive | PRAM role in the paper |
//! |---|---|---|
//! | [`scan`] | parallel prefix sums | processor allocation / compaction |
//! | [`pack`](mod@crate::pack) | filter & pack | compaction after InCircle filtering (§4) |
//! | [`radix`] | stable parallel LSD radix sort | integer sorting for semisort |
//! | [`semisort`] | group-by-key | collecting each LE-list's contributions (§6.1) |
//! | [`conmap`] | concurrent fixed-capacity hash maps | face hashmap of parallel DT (§4) |
//! | [`permutation`] | seeded random permutations | the random insertion order itself |
//! | [`hash`] | fast non-cryptographic hashing | hashing for semisort / hash tables |
//! | [`counters`] | round instrumentation | measuring work and depth (rounds) |
//! | [`scratch`] | reusable per-thread scratch buffers | amortising per-round allocation |
//!
//! The paper's priority writes (§3) need no module: sort's parallel round,
//! their one user, calls `AtomicU64::fetch_min`, and the Type 2 executor
//! finds the earliest special iteration with the crew's `find_first`. No
//! solve calls [`exclusive_scan_usize`], [`pack()`], [`radix_sort_u64`] or
//! [`semisort_by_key`] (the Type 3 combines fold each round in iteration
//! order instead of grouping it): they stay for the repository
//! benchmark's per-primitive probes.
//!
//! All primitives are deterministic given their inputs (and seeds), which is
//! what lets the algorithm crates assert *parallel output == sequential
//! output* in their test suites.
//!
//! Each parallel primitive declares its own per-element cost in
//! nanoseconds (it has no earlier round to time, unlike the executors'
//! round sites) and goes parallel only where the scheduler's one
//! go-parallel rule ([`rayon::goes_parallel`]) admits that much work: at
//! least `PAYOFF` times the measured spawn-and-join cost of a crew at the
//! installed width. Everything else — all work at width 1, and inputs
//! too small to pay for a crew — runs as a plain sequential loop on the
//! caller. Block counts *within* a parallel primitive come from
//! [`rayon::recommended_splits`], which adapts to the installed width
//! (a few blocks per crew member so the crew's dynamic cursor can
//! balance uneven blocks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conmap;
pub mod counters;
pub mod hash;
pub mod pack;
pub mod permutation;
pub mod radix;
pub mod scan;
pub mod scratch;
pub mod semisort;

pub use conmap::{ConcurrentPairMap, PairSlots};
pub use counters::RoundLog;
pub use hash::{hash_u64, FxBuildHasher, FxHasher};
pub use pack::{pack, pack_indices_where_into};
pub use permutation::{random_permutation, shuffle};
pub use radix::{radix_sort_by_key, radix_sort_u64};
pub use scan::exclusive_scan_usize;
pub use scratch::{put_vec, take_vec, ScratchStats};
pub use semisort::{semisort_by_key, Grouped};

/// Test support: run `op` at width 4 with every non-empty region forced
/// onto a crew ([`rayon::with_region_ns`]), so the parallel-path tests run
/// crews without sizing inputs from a timing.
#[cfg(test)]
pub(crate) fn forced<R>(op: impl FnOnce() -> R) -> R {
    rayon::with_region_ns(0, || rayon::cached_pool(4).install(op))
}
