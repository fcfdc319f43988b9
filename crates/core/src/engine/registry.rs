//! The object-safe problem registry.
//!
//! The typed [`Problem`](super::Problem) trait is the right API *inside* an
//! algorithm crate — each problem has its own output type — but every
//! cross-algorithm consumer (the `ri` CLI driver, the bench report
//! binaries, a serving endpoint) needs the opposite: pick a problem **by
//! name at runtime**, build a workload for it, solve it under a
//! [`RunConfig`], and get back something uniform. This module provides that
//! layer:
//!
//! * [`WorkloadSpec`] — generator parameters (size, seed, shape, numeric
//!   parameter) each algorithm crate knows how to turn into an instance;
//! * [`ErasedProblem`] — the object-safe problem trait: `solve_erased`
//!   returns an [`OutputSummary`] (a small JSON-able digest of the
//!   algorithm's answer) plus the unified [`RunReport`];
//! * [`Registry`] — an ordered name → constructor map. Each algorithm
//!   crate contributes a `register(&mut Registry)` function that names,
//!   per problem, how to build an instance from a spec and how to solve
//!   and digest it (plus, for native streams, a [`PrefixStream`]); the root
//!   `parallel-ri` crate assembles them all into `parallel_ri::registry()`
//!   (a crate that cannot depend on the algorithm crates cannot construct
//!   their problems, so the fully-populated registry lives one layer up).
//!
//! ```
//! use ri_core::engine::registry::{OutputSummary, Registry, WorkloadSpec};
//! use ri_core::engine::{RunConfig, RunReport};
//!
//! let mut reg = Registry::new();
//! reg.register(
//!     "count-up",
//!     "sums 0..n",
//!     |spec| Ok(spec.n),
//!     |&n, _cfg| {
//!         let mut report = RunReport::new("count-up");
//!         report.items = n;
//!         let mut summary = OutputSummary::new();
//!         summary.answer_num("sum", (0..n).sum::<usize>() as f64);
//!         (summary, report)
//!     },
//! );
//! let spec = WorkloadSpec::new(10, 1);
//! let (summary, report) = reg.solve("count-up", &spec, &RunConfig::new()).unwrap();
//! assert_eq!(report.items, 10);
//! assert!(summary.to_json().contains("\"sum\":45"));
//! ```

use super::json::{self, Value};
use super::report::RunReport;
use super::runner::RunConfig;
use super::session::{BatchDelta, FeedState};
use std::sync::Arc;

/// Generator parameters for one workload instance: everything an algorithm
/// crate needs to construct a problem of its kind. The same spec given to
/// the same constructor always builds the same instance (all generators
/// are seeded).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Instance size (keys, points, constraints, vertices — the problem's
    /// natural item count).
    pub n: usize,
    /// Workload seed: drives the input generator (distinct from
    /// [`RunConfig::seed`], which drives run-time randomness such as
    /// insertion orders drawn at solve time).
    pub seed: u64,
    /// Input shape: a point-distribution name (`"uniform-square"`,
    /// `"near-circle"`, ...), an LP workload (`"tangent"`, `"shrinking"`,
    /// `"infeasible"`) or a graph family (`"gnm"`, `"gnm-weighted"`,
    /// `"dag"`, `"rmat"`, `"grid"`). `None` picks the problem's default.
    pub shape: Option<String>,
    /// Shape-specific numeric parameter: average degree for graph
    /// workloads, dimension for `lp-d`. `None` picks the default.
    pub param: Option<f64>,
}

impl WorkloadSpec {
    /// A spec of size `n` with workload seed `seed` and default shape.
    pub fn new(n: usize, seed: u64) -> Self {
        WorkloadSpec {
            n,
            seed,
            shape: None,
            param: None,
        }
    }

    /// Set the input shape name.
    pub fn shape(mut self, shape: impl Into<String>) -> Self {
        self.shape = Some(shape.into());
        self
    }

    /// Set the shape-specific numeric parameter.
    pub fn param(mut self, param: f64) -> Self {
        self.param = Some(param);
        self
    }

    /// The shape name, or `default` when unset.
    pub fn shape_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.shape.as_deref().unwrap_or(default)
    }

    /// The numeric parameter, or `default` when unset.
    pub fn param_or(&self, default: f64) -> f64 {
        self.param.unwrap_or(default)
    }

    /// Serialize to a single-line JSON object (unset fields are omitted).
    ///
    /// JSON numbers are f64, so seeds at or above 2⁵³ may not round-trip
    /// exactly; the envelope layer rejects them at the door.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// The spec as a JSON [`Value`] (unset fields are omitted).
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("n".to_string(), Value::Num(self.n as f64)),
            ("seed".to_string(), Value::Num(self.seed as f64)),
        ];
        if let Some(shape) = &self.shape {
            members.push(("shape".into(), Value::Str(shape.clone())));
        }
        if let Some(param) = self.param {
            members.push(("param".into(), Value::Num(param)));
        }
        Value::Obj(members)
    }

    /// Parse a spec from JSON; missing fields fall back to
    /// `WorkloadSpec::new(default_n, default_seed)` defaults, mirroring
    /// [`RunConfig::from_json`]'s tolerance.
    pub fn from_json(text: &str) -> Result<WorkloadSpec, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a spec from an already-parsed JSON object.
    pub fn from_value(v: &Value) -> Result<WorkloadSpec, json::ParseError> {
        let bad = |key: &str| json::ParseError {
            message: format!("malformed workload field `{key}`"),
            at: 0,
        };
        let mut spec = WorkloadSpec::new(0, 0);
        if let Some(n) = v.get("n") {
            spec.n = n.as_usize().ok_or_else(|| bad("n"))?;
        }
        if let Some(seed) = v.get("seed") {
            spec.seed = seed.as_u64().ok_or_else(|| bad("seed"))?;
        }
        match v.get("shape") {
            None | Some(Value::Null) => {}
            Some(shape) => {
                spec.shape = Some(shape.as_str().ok_or_else(|| bad("shape"))?.to_string());
            }
        }
        match v.get("param") {
            None | Some(Value::Null) => {}
            Some(param) => {
                let x = param.as_f64().ok_or_else(|| bad("param"))?;
                // The hand-rolled number parser accepts overflowing
                // literals like 1e999 as ±inf; a non-finite param must
                // never reach the constructors' casts (or the response
                // echo, which asserts finiteness when serializing).
                if !x.is_finite() {
                    return Err(json::ParseError {
                        message: format!("malformed workload field `param`: {x} is not finite"),
                        at: 0,
                    });
                }
                spec.param = Some(x);
            }
        }
        Ok(spec)
    }
}

/// A small JSON-able digest of an algorithm's answer, split into two
/// sections:
///
/// * **answer** fields digest the output itself (triangle count, SCC
///   count, optimum value, a checksum of the sorted order, ...). The
///   paper's executors reproduce the sequential output exactly, so answer
///   fields are **mode-invariant**: a sequential and a parallel run of the
///   same instance must produce equal answer sections — the registry
///   equivalence tests assert exactly this.
/// * **metric** fields carry work measures that legitimately vary between
///   modes (e.g. the Type 3 redundant work).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSummary {
    answer: Vec<(String, Value)>,
    metrics: Vec<(String, Value)>,
}

impl OutputSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric answer field (mode-invariant).
    pub fn answer_num(&mut self, key: &str, x: f64) -> &mut Self {
        self.answer.push((key.to_string(), Value::Num(x)));
        self
    }

    /// Add a boolean answer field (mode-invariant).
    pub fn answer_bool(&mut self, key: &str, b: bool) -> &mut Self {
        self.answer.push((key.to_string(), Value::Bool(b)));
        self
    }

    /// Add a string answer field (mode-invariant).
    pub fn answer_str(&mut self, key: &str, s: impl Into<String>) -> &mut Self {
        self.answer.push((key.to_string(), Value::Str(s.into())));
        self
    }

    /// Add a numeric metric field (may vary between modes).
    pub fn metric_num(&mut self, key: &str, x: f64) -> &mut Self {
        self.metrics.push((key.to_string(), Value::Num(x)));
        self
    }

    /// The answer section (mode-invariant digest fields).
    pub fn answer(&self) -> &[(String, Value)] {
        &self.answer
    }

    /// The metrics section (mode-dependent work measures).
    pub fn metrics(&self) -> &[(String, Value)] {
        &self.metrics
    }

    /// The summary as a JSON [`Value`]:
    /// `{"answer": {...}, "metrics": {...}}`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("answer".into(), Value::Obj(self.answer.clone())),
            ("metrics".into(), Value::Obj(self.metrics.clone())),
        ])
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse a summary back from its [`OutputSummary::to_value`] shape
    /// (`{"answer": {...}, "metrics": {...}}`) — what lets a serve client
    /// reconstruct a typed response from the wire.
    pub fn from_value(v: &Value) -> Result<OutputSummary, json::ParseError> {
        let section = |key: &str| match v.get(key) {
            Some(Value::Obj(members)) => Ok(members.clone()),
            _ => Err(json::ParseError {
                message: format!("summary needs an object `{key}` section"),
                at: 0,
            }),
        };
        Ok(OutputSummary {
            answer: section("answer")?,
            metrics: section("metrics")?,
        })
    }
}

/// The object-safe problem trait: what the registry, the `ri` CLI driver,
/// and any serving layer program against. [`Registry::register`]
/// implements it for every problem: the built instance plus the
/// problem's solve-and-digest function.
pub trait ErasedProblem: Send + Sync {
    /// The registered problem name (`"sort"`, `"delaunay"`, ...).
    fn name(&self) -> &str;

    /// Solve under `cfg`, returning the output digest and the unified
    /// report.
    fn solve_erased(&self, cfg: &RunConfig) -> (OutputSummary, RunReport);
}

/// The object-safe **incremental** problem trait: a session-owned
/// instance that absorbs element batches online and advances its
/// randomized-incremental rounds prefix by prefix.
///
/// The contract mirrors the paper's setting: the full instance is fixed
/// at construction (the [`WorkloadSpec`]'s `n` is the **capacity**), and
/// each [`feed`](ErasedIncremental::feed) reveals the next `count`
/// elements of that fixed instance. Because the instance never changes —
/// only how much of it is visible — the state after absorbing `k`
/// elements is exactly the one-shot solve of the first `k`, whatever the
/// batch partition. That is the batch-split invariance the streaming
/// proptests assert, and it must hold bit-identically: same spec + same
/// batch sequence ⇒ equal [`BatchDelta`]s everywhere.
///
/// `Send` but not `Sync`: a session serializes its own batches (the
/// serving layer holds one instance behind a mutex), so implementations
/// keep plain mutable state.
pub trait ErasedIncremental: Send {
    /// The full instance size fixed at construction.
    fn capacity(&self) -> usize;

    /// Elements absorbed so far.
    fn absorbed(&self) -> usize;

    /// Whether this is a native incremental adapter (`true`) or the
    /// generic re-solve-prefix fallback (`false`).
    fn native(&self) -> bool;

    /// A conservative estimate of the session's resident bytes — what
    /// the serving layer's per-session byte cap is enforced against.
    fn approx_bytes(&self) -> usize;

    /// Absorb the next `count` elements and advance the incremental
    /// construction under `cfg`, returning the batch's delta and the
    /// run report of the work this batch performed. Errors on an empty
    /// batch or one overrunning the capacity; prefixes still below the
    /// problem's minimum instance size yield a
    /// [`pending`](BatchDelta::pending) delta, not an error.
    fn feed(&mut self, count: usize, cfg: &RunConfig) -> Result<(BatchDelta, RunReport), String>;
}

/// A solved prefix: the problem-specific delta against the previous
/// prefix, the prefix's answer digest and its run report.
pub type PrefixSolution = (Value, OutputSummary, RunReport);

/// What a problem supplies to stream: its fixed instance, a solve of
/// each revealed prefix and that prefix's delta. The registry wraps it in
/// the one [`ErasedIncremental`] session, which owns the batch
/// bookkeeping ([`FeedState`]).
pub trait PrefixStream: Send {
    /// The full instance size (the session capacity).
    fn capacity(&self) -> usize;

    /// A conservative estimate of the stream's resident bytes.
    fn approx_bytes(&self) -> usize;

    /// Solve the prefix `..hi`, whose last batch revealed `lo..hi`, and
    /// describe what changed since the previous prefix. `Ok(None)` while
    /// the prefix is below the problem's minimum instance size.
    fn solve_prefix(
        &mut self,
        lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String>;
}

/// Why a registry lookup or construction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No problem registered under the requested name; carries the known
    /// names for the error message.
    UnknownProblem {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, in registration order.
        known: Vec<String>,
    },
    /// The constructor rejected the workload spec (bad shape name, size
    /// below the problem's minimum, ...).
    BadWorkload {
        /// The problem whose constructor rejected the spec.
        name: String,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownProblem { name, known } => {
                write!(f, "unknown problem `{name}`; known: {}", known.join(", "))
            }
            RegistryError::BadWorkload { name, message } => {
                write!(f, "bad workload for `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The largest `n` [`Registry::construct`] and
/// [`Registry::construct_incremental`] accept: 2^24, 56× the largest size
/// any tool here uses (lp's 300,000 in the benchmark). Every constructor
/// allocates Θ(n) up front, so a larger `n` would abort the process on a
/// failed allocation rather than fail the one request.
pub const MAX_N: usize = 1 << 24;

/// Rejects an `n` above [`MAX_N`] before any constructor allocates for it.
fn within_ceiling(spec: &WorkloadSpec) -> Result<(), String> {
    if spec.n > MAX_N {
        return Err(format!("n = {} is above the ceiling of {MAX_N}", spec.n));
    }
    Ok(())
}

// `Arc` rather than `Box` so the generic fallback can carry a clone of
// the one-shot constructor into its re-solve loop.
type Constructor =
    Arc<dyn Fn(&WorkloadSpec) -> Result<Box<dyn ErasedProblem>, String> + Send + Sync>;

type StreamOpener =
    Box<dyn Fn(&WorkloadSpec) -> Result<Box<dyn PrefixStream>, String> + Send + Sync>;

struct RegistryEntry {
    name: &'static str,
    description: &'static str,
    ctor: Constructor,
    incremental: Option<StreamOpener>,
}

/// An ordered problem-name → constructor map. Names are unique;
/// registration order is preserved (it is the order `names()` lists and
/// the CLI's `--list` prints).
#[derive(Default)]
pub struct Registry {
    entries: Vec<RegistryEntry>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `name`: `build` turns a workload spec into the problem's
    /// instance (or rejects the spec), and `solve` solves an instance
    /// under a config and digests the answer.
    ///
    /// Panics on a duplicate name — registrations are static per-crate
    /// lists, so a clash is a programming error, not an input error.
    pub fn register<T: Send + Sync + 'static>(
        &mut self,
        name: &'static str,
        description: &'static str,
        build: impl Fn(&WorkloadSpec) -> Result<T, String> + Send + Sync + 'static,
        solve: impl Fn(&T, &RunConfig) -> (OutputSummary, RunReport) + Send + Sync + 'static,
    ) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "problem `{name}` registered twice"
        );
        let solve = Arc::new(solve);
        let ctor: Constructor = Arc::new(move |spec| {
            Ok(Box::new(Registered {
                name,
                instance: build(spec)?,
                solve: Arc::clone(&solve),
            }))
        });
        self.entries.push(RegistryEntry {
            name,
            description,
            ctor,
            incremental: None,
        });
    }

    /// Attach a native stream to the already-registered `name`: `open`
    /// builds the full-capacity [`PrefixStream`] from a spec. Problems
    /// without one still stream through the generic re-solve-prefix
    /// fallback of [`construct_incremental`](Registry::construct_incremental).
    ///
    /// Panics on an unknown name or a second attachment — like
    /// [`register`](Registry::register), this is a static per-crate list
    /// and a clash is a programming error.
    pub fn register_incremental<S: PrefixStream + 'static>(
        &mut self,
        name: &'static str,
        open: impl Fn(&WorkloadSpec) -> Result<S, String> + Send + Sync + 'static,
    ) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("incremental ctor for unregistered problem `{name}`"));
        assert!(
            entry.incremental.is_none(),
            "incremental ctor for `{name}` registered twice"
        );
        entry.incremental = Some(Box::new(move |spec| {
            Ok(Box::new(open(spec)?) as Box<dyn PrefixStream>)
        }));
    }

    /// Whether `name` has a native incremental adapter.
    pub fn has_incremental(&self, name: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.name == name && e.incremental.is_some())
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// `(name, description)` pairs, in registration order.
    pub fn descriptions(&self) -> Vec<(&'static str, &'static str)> {
        self.entries
            .iter()
            .map(|e| (e.name, e.description))
            .collect()
    }

    fn entry(&self, name: &str) -> Result<&RegistryEntry, RegistryError> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| RegistryError::UnknownProblem {
                name: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// Construct `name`'s problem instance from `spec`; an `n` above
    /// 2^24 is a bad workload.
    pub fn construct(
        &self,
        name: &str,
        spec: &WorkloadSpec,
    ) -> Result<Box<dyn ErasedProblem>, RegistryError> {
        let entry = self.entry(name)?;
        let bad = |message: String| RegistryError::BadWorkload {
            name: name.to_string(),
            message,
        };
        within_ceiling(spec).map_err(bad)?;
        (entry.ctor)(spec).map_err(bad)
    }

    /// Construct `name`'s **streaming** instance from `spec` (whose `n`
    /// is the session capacity). Problems with a native incremental
    /// adapter get it; the rest get the generic re-solve-prefix
    /// fallback, validated here against the full-capacity spec so a bad
    /// shape or parameter fails at open time rather than mid-stream. An
    /// `n` above 2^24 is a bad workload, as in
    /// [`construct`](Registry::construct).
    pub fn construct_incremental(
        &self,
        name: &str,
        spec: &WorkloadSpec,
    ) -> Result<Box<dyn ErasedIncremental>, RegistryError> {
        let entry = self.entry(name)?;
        let bad = |message: String| RegistryError::BadWorkload {
            name: name.to_string(),
            message,
        };
        within_ceiling(spec).map_err(bad)?;
        let stream: Box<dyn PrefixStream> = match &entry.incremental {
            Some(open) => open(spec).map_err(bad)?,
            None => {
                // Fallback path: prove the full-capacity instance
                // constructs, then stream by re-solving ever-longer
                // prefixes of the same spec.
                (entry.ctor)(spec).map_err(bad)?;
                Box::new(PrefixResolve {
                    ctor: Arc::clone(&entry.ctor),
                    spec: spec.clone(),
                    prev_answer: Vec::new(),
                })
            }
        };
        Ok(Box::new(Session {
            name: entry.name,
            native: entry.incremental.is_some(),
            state: FeedState::new(stream.capacity()),
            stream,
        }))
    }

    /// Construct and solve in one step.
    pub fn solve(
        &self,
        name: &str,
        spec: &WorkloadSpec,
        cfg: &RunConfig,
    ) -> Result<(OutputSummary, RunReport), RegistryError> {
        Ok(self.construct(name, spec)?.solve_erased(cfg))
    }
}

/// The one [`ErasedProblem`]: a registered problem's built instance and
/// its solve-and-digest function.
struct Registered<T, S> {
    name: &'static str,
    instance: T,
    solve: Arc<S>,
}

impl<T, S> ErasedProblem for Registered<T, S>
where
    T: Send + Sync,
    S: Fn(&T, &RunConfig) -> (OutputSummary, RunReport) + Send + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn solve_erased(&self, cfg: &RunConfig) -> (OutputSummary, RunReport) {
        (self.solve)(&self.instance, cfg)
    }
}

/// The one [`ErasedIncremental`]: the shared batch bookkeeping around a
/// problem's [`PrefixStream`] (native, or the re-solve fallback).
struct Session {
    name: &'static str,
    native: bool,
    state: FeedState,
    stream: Box<dyn PrefixStream>,
}

impl ErasedIncremental for Session {
    fn capacity(&self) -> usize {
        self.state.capacity()
    }

    fn absorbed(&self) -> usize {
        self.state.absorbed()
    }

    fn native(&self) -> bool {
        self.native
    }

    fn approx_bytes(&self) -> usize {
        self.stream.approx_bytes()
    }

    fn feed(&mut self, count: usize, cfg: &RunConfig) -> Result<(BatchDelta, RunReport), String> {
        let (batch, lo, hi) = self.state.advance(count)?;
        let capacity = self.state.capacity();
        Ok(match self.stream.solve_prefix(lo, hi, cfg)? {
            None => (
                BatchDelta::pending(batch, count, hi, capacity),
                RunReport::new(self.name),
            ),
            Some((delta, summary, report)) => {
                let delta =
                    BatchDelta::solved(batch, count, hi, capacity, delta, &summary, &report);
                (delta, report)
            }
        })
    }
}

/// The generic incremental fallback: every batch re-solves the absorbed
/// prefix from scratch by constructing the problem at `n = cumulative`
/// with the session's original seed/shape/param. Asymptotically wasteful
/// next to a native adapter, but it keeps the whole registry streamable,
/// and its **final** batch (at `cumulative == capacity`) constructs the
/// exact one-shot instance — so the last delta's answer and trace equal
/// the one-shot solve by construction. The delta lists the answer keys
/// whose values changed.
///
/// Constructor rejections while the prefix is still short (below the
/// problem's minimum instance size) yield a pending delta; at full
/// capacity they are real errors (though `construct_incremental` already
/// vetted the full spec at open time).
struct PrefixResolve {
    ctor: Constructor,
    spec: WorkloadSpec,
    prev_answer: Vec<(String, Value)>,
}

impl PrefixStream for PrefixResolve {
    fn capacity(&self) -> usize {
        self.spec.n
    }

    fn approx_bytes(&self) -> usize {
        // The fallback holds no instance between batches; the dominant
        // transient is the re-constructed prefix. Estimate generously.
        self.spec.n * 64
    }

    fn solve_prefix(
        &mut self,
        _lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String> {
        let mut prefix = self.spec.clone();
        prefix.n = hi;
        let problem = match (self.ctor)(&prefix) {
            Ok(p) => p,
            // Prefix below the problem's minimum size: absorb quietly.
            Err(_) if hi < self.spec.n => return Ok(None),
            Err(e) => return Err(e),
        };
        let (summary, report) = problem.solve_erased(cfg);
        let changed: Vec<Value> = summary
            .answer()
            .iter()
            .filter(|(key, value)| {
                self.prev_answer
                    .iter()
                    .find(|(k, _)| k == key)
                    .is_none_or(|(_, prev)| prev != value)
            })
            .map(|(key, _)| Value::Str(key.clone()))
            .collect();
        let delta = Value::Obj(vec![
            ("resolve".into(), Value::Bool(true)),
            ("changed".into(), Value::Arr(changed)),
        ]);
        self.prev_answer = summary.answer().to_vec();
        Ok(Some((delta, summary, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(_: &(), _cfg: &RunConfig) -> (OutputSummary, RunReport) {
        let mut s = OutputSummary::new();
        s.answer_num("x", 1.0).metric_num("work", 9.0);
        (s, RunReport::new("fixed"))
    }

    fn reg() -> Registry {
        let mut r = Registry::new();
        r.register(
            "fixed",
            "a fixed answer",
            |spec| {
                if spec.n == 0 {
                    Err("n must be positive".into())
                } else {
                    Ok(())
                }
            },
            fixed,
        );
        r
    }

    #[test]
    fn lookup_and_solve() {
        let r = reg();
        assert_eq!(r.names(), vec!["fixed"]);
        let (summary, report) = r
            .solve("fixed", &WorkloadSpec::new(4, 0), &RunConfig::new())
            .unwrap();
        assert_eq!(report.algorithm, "fixed");
        assert_eq!(summary.answer().len(), 1);
        assert_eq!(
            summary.to_json(),
            "{\"answer\":{\"x\":1},\"metrics\":{\"work\":9}}"
        );
    }

    #[test]
    fn unknown_name_lists_known() {
        let r = reg();
        let err = r
            .solve("nope", &WorkloadSpec::new(4, 0), &RunConfig::new())
            .unwrap_err();
        assert!(err.to_string().contains("unknown problem `nope`"));
        assert!(err.to_string().contains("fixed"));
    }

    #[test]
    fn constructor_errors_surface() {
        let r = reg();
        let err = r
            .construct("fixed", &WorkloadSpec::new(0, 0))
            .err()
            .unwrap();
        assert_eq!(
            err.to_string(),
            "bad workload for `fixed`: n must be positive"
        );
    }

    #[test]
    fn sizes_above_the_ceiling_are_bad_workloads() {
        let r = min3_reg();
        assert!(r.construct("sum", &WorkloadSpec::new(MAX_N, 0)).is_ok());
        for n in [MAX_N + 1, 1 << 50] {
            let spec = WorkloadSpec::new(n, 0);
            let message =
                format!("bad workload for `sum`: n = {n} is above the ceiling of {MAX_N}");
            let err = r.construct("sum", &spec).err().unwrap();
            assert_eq!(err.to_string(), message);
            let err = r.construct_incremental("sum", &spec).err().unwrap();
            assert_eq!(err.to_string(), message);
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut r = reg();
        r.register("fixed", "again", |_| Ok(()), fixed);
    }

    // A registry whose one problem needs at least 3 items, answering the
    // prefix sum — enough to exercise the fallback's pending → solved →
    // complete progression.
    fn min3_reg() -> Registry {
        let mut r = Registry::new();
        r.register(
            "sum",
            "prefix sums",
            |spec| {
                if spec.n < 3 {
                    Err("need at least 3 items".into())
                } else {
                    Ok(spec.n)
                }
            },
            |&n, _cfg| {
                let mut s = OutputSummary::new();
                s.answer_num("sum", (0..n).sum::<usize>() as f64);
                s.answer_num("items", n as f64);
                let mut report = RunReport::new("sum");
                report.items = n;
                (s, report)
            },
        );
        r
    }

    #[test]
    fn fallback_streams_any_problem() {
        let r = min3_reg();
        assert!(!r.has_incremental("sum"));
        let spec = WorkloadSpec::new(6, 0);
        let mut inc = r.construct_incremental("sum", &spec).unwrap();
        assert!(!inc.native());
        assert_eq!((inc.capacity(), inc.absorbed()), (6, 0));
        let cfg = RunConfig::new();

        // Two items: below the minimum, absorbed as pending.
        let (d0, _) = inc.feed(2, &cfg).unwrap();
        assert!(d0.pending && !d0.complete);
        assert_eq!((d0.batch, d0.cumulative), (0, 2));

        // Three more: solvable now, and `changed` lists every answer key.
        let (d1, _) = inc.feed(3, &cfg).unwrap();
        assert!(!d1.pending && !d1.complete);
        assert_eq!(d1.delta.get("resolve"), Some(&Value::Bool(true)));
        let changed = match d1.delta.get("changed") {
            Some(Value::Arr(keys)) => keys.len(),
            other => panic!("bad changed section: {other:?}"),
        };
        assert_eq!(changed, 2);

        // Final batch: complete, and its answer equals the one-shot solve.
        let (d2, _) = inc.feed(1, &cfg).unwrap();
        assert!(d2.complete && !d2.pending);
        let (one_shot, _) = r.solve("sum", &spec, &cfg).unwrap();
        assert_eq!(d2.answer, one_shot.answer().to_vec());
        assert!(inc.feed(1, &cfg).is_err(), "stream complete");
    }

    #[test]
    fn construct_incremental_vets_spec_and_name() {
        let r = min3_reg();
        assert!(matches!(
            r.construct_incremental("nope", &WorkloadSpec::new(6, 0)),
            Err(RegistryError::UnknownProblem { .. })
        ));
        // The full-capacity spec is vetted at open time.
        assert!(matches!(
            r.construct_incremental("sum", &WorkloadSpec::new(2, 0)),
            Err(RegistryError::BadWorkload { .. })
        ));
    }

    // A native stream that never leaves the pending state.
    struct Native(usize);
    impl PrefixStream for Native {
        fn capacity(&self) -> usize {
            self.0
        }
        fn approx_bytes(&self) -> usize {
            64
        }
        fn solve_prefix(
            &mut self,
            _lo: usize,
            _hi: usize,
            _cfg: &RunConfig,
        ) -> Result<Option<PrefixSolution>, String> {
            Ok(None)
        }
    }

    #[test]
    fn native_incremental_ctor_takes_precedence() {
        let mut r = min3_reg();
        r.register_incremental("sum", |spec| Ok(Native(spec.n)));
        assert!(r.has_incremental("sum"));
        let inc = r
            .construct_incremental("sum", &WorkloadSpec::new(4, 0))
            .unwrap();
        assert!(inc.native());
    }

    #[test]
    #[should_panic(expected = "unregistered problem")]
    fn incremental_for_unknown_name_panics() {
        let mut r = min3_reg();
        r.register_incremental("nope", |_| Err::<Native, _>("unused".into()));
    }

    #[test]
    fn workload_spec_json_round_trip() {
        let spec = WorkloadSpec::new(1000, 7).shape("near-circle").param(4.0);
        let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let sparse = WorkloadSpec::from_json("{\"n\":32}").unwrap();
        assert_eq!(sparse, WorkloadSpec::new(32, 0));
        assert!(WorkloadSpec::from_json("{\"n\":-3}").is_err());
        assert!(WorkloadSpec::from_json("{\"shape\":7}").is_err());
    }

    #[test]
    fn workload_spec_rejects_non_finite_param() {
        // 1e999 overflows to +inf in the number parser; it must fail
        // here, not flow into constructor casts or the response echo.
        for text in ["{\"param\":1e999}", "{\"param\":-1e999}"] {
            let err = WorkloadSpec::from_json(text).unwrap_err();
            assert!(err.to_string().contains("not finite"), "{text}: {err}");
        }
        assert_eq!(
            WorkloadSpec::from_json("{\"param\":4.0}").unwrap().param,
            Some(4.0)
        );
    }
}
