//! # `parallel-ri` — Parallelism in Randomized Incremental Algorithms
//!
//! A Rust implementation of the framework and algorithms of
//!
//! > Guy E. Blelloch, Yan Gu, Julian Shun, Yihan Sun.
//! > *Parallelism in Randomized Incremental Algorithms.* SPAA 2016.
//!
//! The paper shows that classic sequential randomized incremental
//! algorithms have *shallow dependence structure* with high probability,
//! so running every iteration as soon as its dependences are satisfied
//! yields work-efficient, polylogarithmic-depth parallel algorithms. This
//! crate re-exports the whole workspace:
//!
//! | Module | Contents | Paper |
//! |---|---|---|
//! | [`framework`] | Type 1/2/3 executors, the `Runner` engine | §2 |
//! | [`pram`] | parallel primitives (scans, radix sort, semisort, ...) | Prelims |
//! | [`geometry`] | exact predicates, shapes, point distributions | §4–5 |
//! | [`graph`] | CSR digraphs, generators, searches | §6 |
//! | [`sort`] | incremental BST sorting (Type 1) | §3 |
//! | [`delaunay`] | Delaunay triangulation (Type 1, nested) | §4 |
//! | [`lp`] | Seidel 2-D linear programming (Type 2) | §5.1 |
//! | [`closest_pair`] | grid-sieve closest pair (Type 2) | §5.2 |
//! | [`enclosing`] | Welzl smallest enclosing disk (Type 2) | §5.3 |
//! | [`le_lists`] | Cohen least-element lists (Type 3) | §6.1 |
//! | [`scc`] | incremental strongly connected components (Type 3) | §6.2 |
//!
//! ## Quickstart
//!
//! Every algorithm solves through one engine: build a
//! [`RunConfig`](framework::RunConfig) (seed, `Sequential`/`Parallel`
//! mode, worker threads, instrumentation), call `solve`, get the answer
//! plus a unified [`RunReport`](framework::RunReport) (rounds,
//! work, measured dependence depth, JSON serialization).
//!
//! ```
//! use parallel_ri::prelude::*;
//!
//! let cfg = RunConfig::new().seed(42);
//!
//! // Sort by parallel BST insertion (§3): same tree as the sequential run.
//! let keys = random_permutation(1000, 42);
//! let (sorted, report) = SortProblem::new(&keys).solve(&cfg);
//! assert_eq!(sorted.sorted_indices.len(), 1000);
//! assert!(report.depth < 70); // O(log n) whp (Lemma 3.1)
//!
//! // Delaunay-triangulate random points (§4).
//! let pts = PointDistribution::UniformSquare.generate(200, 7);
//! let (dt, _) = DelaunayProblem::new(&pts).solve(&cfg);
//! dt.mesh.validate().unwrap();
//!
//! // Strongly connected components (§6.2), validated against Tarjan.
//! let g = parallel_ri::graph::generators::gnm(300, 900, 1, false);
//! let (comps, report) = SccProblem::new(&g).solve(&cfg.clone().seed(2));
//! assert_eq!(
//!     canonical_labels(&comps.comp),
//!     canonical_labels(&tarjan_scc(&g)),
//! );
//!
//! // Sequential mode reproduces the same components, and every run
//! // serializes to one JSON line for the bench harness.
//! let (seq, seq_report) = SccProblem::new(&g).solve(&cfg.clone().seed(2).sequential());
//! assert_eq!(canonical_labels(&seq.comp), canonical_labels(&comps.comp));
//! assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;

pub use registry::registry;

/// The §2 framework: the three executors and the engine.
pub mod framework {
    pub use ri_core::*;
}

/// Parallel primitives substrate (PRAM stand-ins).
pub mod pram {
    pub use ri_pram::*;
}

/// Exact predicates, disks, and point distributions.
pub mod geometry {
    pub use ri_geometry::*;
}

/// Graph substrate: CSR, generators, searches.
pub mod graph {
    pub use ri_graph::*;
    /// Seeded graph generators.
    pub mod generators {
        pub use ri_graph::generators::*;
    }
}

/// §3: incremental BST comparison sorting.
pub mod sort {
    pub use ri_sort::*;
}

/// §4: Delaunay triangulation.
pub mod delaunay {
    pub use ri_delaunay::*;
}

/// §5.1: 2-D linear programming.
pub mod lp {
    pub use ri_lp::*;
}

/// §5.2: closest pair.
pub mod closest_pair {
    pub use ri_closest_pair::*;
}

/// §5.3: smallest enclosing disk.
pub mod enclosing {
    pub use ri_enclosing::*;
}

/// §6.1: least-element lists.
pub mod le_lists {
    pub use ri_le_lists::*;
}

/// §6.2: strongly connected components.
pub mod scc {
    pub use ri_scc::*;
}

/// One-stop imports for examples and applications.
///
/// The engine API (`RunConfig` + per-algorithm `*Problem` types, the
/// `execute_type{1,2,3}` executors that `Runner::solve` runs custom
/// algorithms through, plus the object-safe [`registry()`](crate::registry)
/// layer for name-driven dispatch) is the supported surface; the
/// pre-engine free functions are gone.
pub mod prelude {
    pub use crate::registry;
    pub use ri_closest_pair::{ClosestPairOutput, ClosestPairProblem};
    pub use ri_core::engine::{
        execute_type1, execute_type2, execute_type3, ErasedProblem, ExecMode, OutputSummary, Phase,
        Problem, Registry, RunConfig, RunReport, Runner, WorkloadSpec,
    };
    pub use ri_core::harmonic;
    pub use ri_delaunay::{DelaunayProblem, DtOutput};
    pub use ri_enclosing::{EnclosingProblem, SedOutput};
    pub use ri_geometry::{Point2, PointDistribution};
    pub use ri_graph::CsrGraph;
    pub use ri_le_lists::{LeListsOutput, LeListsProblem};
    pub use ri_lp::{LpInstance, LpInstanceD, LpOutcome, LpOutcomeD, LpProblem, LpProblemD};
    pub use ri_pram::random_permutation;
    pub use ri_scc::{
        canonical_labels, scc_parallel_deterministic, tarjan_scc, SccOutput, SccProblem,
    };
    pub use ri_sort::{BatchSortProblem, SortOutput, SortProblem};
}
