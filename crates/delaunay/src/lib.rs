//! # `ri-delaunay` — randomized incremental Delaunay triangulation
//! (§4 of the paper, Type 1 with nested dependences)
//!
//! This crate implements the Boissonnat–Teillaud *conflict-set* variant of
//! incremental Delaunay triangulation analysed by the paper:
//!
//! * **Algorithm 4** (sequential mode of [`DelaunayProblem`]) — for each
//!   point in random order, the set of triangles it encroaches (`R`) is
//!   located directly through the maintained conflict sets `E(t)`; every
//!   boundary face of `R` is replaced by a new triangle through the point
//!   (`ReplaceBoundary`), whose conflict set is filtered from
//!   `E(t) ∪ E(t_o)` using **Fact 4.1** (points in *both* sets need no
//!   InCircle test — the source of the 24 vs 36 constant in Theorem 4.5).
//! * **Algorithm 5** (parallel mode of [`DelaunayProblem`]) — the same
//!   `ReplaceBoundary`
//!   calls, discovered face-by-face: a face whose two triangles `t, t_o`
//!   satisfy `min(E(t)) < min(E(t_o))` can fire immediately (Lemma 4.2),
//!   so each round processes all such *active faces* in parallel. The
//!   number of rounds is the triangle-dependence depth, `O(log n)` whp
//!   (Theorem 4.3).
//!
//! **Substitution note:** instead of a huge finite bounding triangle, the
//! triangulation is seeded with the first non-collinear triple of the
//! insertion order plus one *symbolic point at infinity* `ω`; the conflict
//! region of a hull triangle `(a, b, ω)` is the closed half-plane left of
//! the directed hull edge `(a → b)` (`orient2d(a,b,x) ≥ 0`). Fact 4.1
//! extends to these triangles (the half-plane/disk cap arguments in
//! `mesh.rs`), so the work accounting is unchanged, and correctness never
//! depends on a bounding-box scale factor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mesh;
mod par;
pub mod problem;
pub mod registry;
mod seq;

pub use mesh::{Mesh, Triangle, INFINITE_VERTEX};
pub use problem::{DelaunayProblem, DtOutput};

/// Work counters for the Theorem 4.5 experiment.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DtStats {
    /// InCircle tests performed on finite triangles (the quantity
    /// Theorem 4.5 bounds by `24 n ln n + O(n)`).
    pub incircle_tests: u64,
    /// Orientation tests for hull (infinite) triangle conflicts.
    pub orient_tests: u64,
    /// Tests *saved* by Fact 4.1 (points in `E(t) ∩ E(t_o)` inherited
    /// without a test) — the 24-vs-36 ablation data.
    pub skipped_tests: u64,
    /// Total triangles created (including the 4 seed triangles).
    pub triangles_created: usize,
}

/// Result of a Delaunay run.
#[derive(Debug)]
pub struct DtResult {
    /// The triangulation (owns the — possibly reseeded — point array).
    pub mesh: Mesh,
    /// Work counters.
    pub stats: DtStats,
    /// Parallel runs: per-round log (`rounds()` = dependence depth).
    /// `None` for sequential runs.
    pub rounds: Option<ri_pram::RoundLog>,
}
