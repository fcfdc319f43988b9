//! # The unified execution engine
//!
//! One API over the paper's three executor schedules, all eight
//! algorithms, and a single execution record:
//!
//! * [`RunConfig`] — seed, [`ExecMode`], worker threads, instrumentation;
//! * [`Runner`] — [`Runner::solve`] runs one solve under a config at its
//!   width and stamps the report: the one path every problem and every
//!   trait algorithm runs through;
//! * [`execute_type1`] / [`execute_type2`] / [`execute_type3`] — the
//!   paper's three executors over the `Type1Algorithm` /
//!   `Type2Algorithm` / `Type3Algorithm` traits (a `relaxed:k` config
//!   runs their exact parallel schedule);
//! * [`RunReport`] — the unified per-run record (rounds, work, measured
//!   dependence depth, special-iteration trace, phase wall times, JSON);
//! * [`Problem`] — the uniform problem-level trait the algorithm crates
//!   implement (`SortProblem`, `DelaunayProblem`, `LpProblem`,
//!   `ClosestPairProblem`, `EnclosingProblem`, `LeListsProblem`,
//!   `SccProblem`, ...), each solving to `(Output, RunReport)`;
//! * [`registry`] — the object-safe layer over all of it: a [`Registry`]
//!   of named problems, each registered as a build function (from a
//!   [`WorkloadSpec`]) and a solve-and-digest function to
//!   `(OutputSummary, RunReport)`, plus optional native [`PrefixStream`]s —
//!   what the `ri` CLI driver and any serving layer program against;
//! * [`scratch`] — the round-scoped scratch workspace
//!   ([`RoundScratch`]): per-thread, capacity-preserving buffer reuse so
//!   steady-state executor rounds allocate nothing, with reuse counters
//!   stamped on every report;
//! * [`grain`] — the one go-parallel rule: a round gets a crew only when
//!   its item count times its per-item cost (timed from the site's latest
//!   round) covers a multiple of the crew's measured spawn cost;
//!   every other round runs inline on the caller with zero scheduler
//!   involvement;
//! * [`envelope`] — the transport-agnostic serving envelope:
//!   [`ServeRequest`] / [`ServeResponse`] / [`ServeError`] with JSON
//!   round-trips, shared by the `ri` CLI and the `ri-serve` HTTP server
//!   so both speak exactly one parse path;
//! * [`faults`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   mapping request indices to injectable faults (latency, stalls,
//!   mid-response drops, spurious 503s, crash-after-N) so chaos runs
//!   against the serving tier are bit-reproducible, plus the
//!   deadline-budget and retry-hint header names shared by serve,
//!   router, and loadgen;
//! * [`session`] — the streaming-session envelope
//!   ([`StreamSpec`] / [`BatchRequest`] / [`BatchDelta`]): open a
//!   session over a fixed instance and reveal it batch by batch through
//!   the registry's object-safe [`ErasedIncremental`] session, each batch
//!   returning a deterministic delta + per-batch trace;
//! * [`witness`] — deterministic witness records
//!   ([`WitnessRecord`] / [`WitnessLog`] / [`witness::replay`]): persist
//!   any served response as `{request, seed, shard, answer, trace}` and
//!   re-execute it bit-identically anywhere — the cross-shard
//!   answer-equality gate the `ri-router` front tier and the
//!   `ri witness replay` CLI mode are built on.
//!
//! ```
//! use ri_core::engine::{execute_type1, ExecMode, RunConfig, Runner};
//! use ri_core::Type1Algorithm;
//!
//! // A 4-iteration chain 0 -> 1 -> 2 plus an independent iteration 3.
//! struct Chain {
//!     done: Vec<std::sync::atomic::AtomicBool>,
//! }
//! impl Type1Algorithm for Chain {
//!     fn len(&self) -> usize {
//!         self.done.len()
//!     }
//!     fn ready(&self, k: usize) -> bool {
//!         k == 0 || k == 3 || self.done[k - 1].load(std::sync::atomic::Ordering::Relaxed)
//!     }
//!     fn run(&mut self, k: usize) {
//!         self.done[k].store(true, std::sync::atomic::Ordering::Relaxed);
//!     }
//! }
//!
//! let mut algo = Chain { done: (0..4).map(|_| Default::default()).collect() };
//! let runner = Runner::new(RunConfig::new());
//! let (_, report) = runner.solve("chain", |cfg| ((), execute_type1(&mut algo, cfg)));
//! assert_eq!(report.depth, 3); // the dependence depth of the chain
//! assert_eq!(report.mode, ExecMode::Parallel);
//! ```

pub mod envelope;
pub mod faults;
pub mod grain;
pub mod json;
pub mod registry;
mod report;
mod runner;
pub mod scratch;
pub mod session;
pub mod witness;

pub use envelope::{ServeError, ServeErrorKind, ServeRequest, ServeResponse};
pub use faults::{FaultKind, FaultPlan};
pub use registry::{
    ErasedIncremental, ErasedProblem, OutputSummary, PrefixSolution, PrefixStream, Registry,
    RegistryError, WorkloadSpec,
};
pub use report::{Phase, RunReport};
pub use runner::{
    execute_type1, execute_type2, execute_type3, ExecMode, ParseExecModeError, Problem, RunConfig,
    Runner,
};
pub use scratch::RoundScratch;
pub use session::{BatchDelta, BatchRequest, FeedState, StreamSpec};
pub use witness::{LogEntry, RoundTrace, StreamBatchRecord, WitnessLog, WitnessRecord};
