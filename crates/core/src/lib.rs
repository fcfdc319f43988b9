//! # `ri-core` — the framework of the paper
//!
//! Section 2 of *Parallelism in Randomized Incremental Algorithms* (Blelloch,
//! Gu, Shun, Sun; SPAA 2016) classifies randomized incremental algorithms by
//! the structure of their **iteration dependence graphs** and gives a
//! general parallel execution scheme per class. This crate implements that
//! framework:
//!
//! * [`type1`] — the round scheduler for **Type 1** algorithms (k-bounded
//!   dependences; §2.1): each round runs every iteration whose dependences
//!   are satisfied. The number of rounds equals the dependence depth.
//! * [`type2`] — **Algorithm 1** of the paper for **Type 2** algorithms
//!   (special/regular iterations; §2.2): geometrically growing prefixes,
//!   each processed in sub-rounds that locate and execute the earliest
//!   special iteration.
//! * [`type3`] — **Algorithm 2** for **Type 3** algorithms (separating
//!   dependences; §2.3): doubling rounds that run a whole prefix against
//!   the previous round's state and then combine, tolerating (bounded)
//!   redundant work.
//! * [`theory`] — the closed-form quantities the experiments compare
//!   against: harmonic numbers, the Type 3 round count, the expected
//!   dependence and InCircle counts.
//! * [`engine`] — the **unified execution engine**: one [`Runner`] over
//!   all three executor schedules, configured by a [`RunConfig`] (seed,
//!   mode, worker threads, instrumentation) and producing one
//!   [`RunReport`] shape for every algorithm.
//!
//! The algorithm crates (`ri-sort`, `ri-lp`, `ri-le-lists`, ...) plug into
//! the engine; each exposes a `*Problem` type implementing
//! [`engine::Problem`], whose `solve(&RunConfig)` returns the answer plus
//! the unified report, and registers an object-safe constructor in the
//! [`engine::registry`] layer so cross-algorithm drivers (the `ri` CLI,
//! serving layers) can pick problems by name at runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod theory;
pub mod type1;
pub mod type2;
pub mod type3;

pub use engine::{
    ErasedProblem, ExecMode, OutputSummary, Problem, Registry, RunConfig, RunReport, Runner,
    ServeError, ServeErrorKind, ServeRequest, ServeResponse, WorkloadSpec,
};
pub use ri_pram::RoundLog;
pub use theory::{harmonic, log2_ceil};
pub use type1::Type1Algorithm;
pub use type2::Type2Algorithm;
pub use type3::{prefix_rounds, Type3Algorithm};
