//! The execution engine: one configuration, one runner, one report.
//!
//! [`RunConfig`] fixes everything that varies between runs — RNG seed,
//! [`ExecMode`], worker-thread count, instrumentation — and
//! [`Runner::solve`] runs any solve closure under it: each problem's
//! typed [`Problem::solve`], and any algorithm written against the
//! paper's `Type1Algorithm` / `Type2Algorithm` / `Type3Algorithm` traits
//! through [`execute_type1`] / [`execute_type2`] / [`execute_type3`].
//!
//! A parallel run executes on the calling thread with its ambient width
//! set to the resolved thread count (a `rayon::ThreadPool` width token,
//! which owns no threads). Under `#![forbid(unsafe_code)]` borrowed data
//! can only cross threads through `std::thread::scope`, so every crew
//! region and every `join` spawns its own scoped helper threads (the
//! report's `regions` and `helper_spawns` count them). Each executor
//! round therefore asks the one go-parallel rule ([`grain`]) at its
//! executor's latest round's price ([`grain::RoundCost`]) and runs inline
//! unless the rule admits a crew. Sequential-mode runs and `threads == 1`
//! configs set width 1 and execute inline on the caller — they never
//! reach the rule, read no clock, and their reports carry zero scheduler
//! overhead.

use rayon::prelude::*;

use crate::type1::Type1Algorithm;
use crate::type2::Type2Algorithm;
use crate::type3::{prefix_rounds, Type3Algorithm};

use super::grain;
use super::report::RunReport;
use super::scratch::{self, RoundScratch};

/// How the engine schedules iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Run iterations one at a time in insertion order — the classic
    /// sequential randomized incremental algorithm.
    Sequential,
    /// Run the paper's parallel schedule for the algorithm's class.
    Parallel,
    /// `relaxed:k`, kept so requests, reports and recorded logs that name
    /// it stay valid: it runs the exact [`ExecMode::Parallel`] schedule.
    /// [`Runner::solve`] echoes the mode in the report and says so in
    /// `relaxed_fallback`; the executors run their parallel arm for it.
    /// Witness replay gates relaxed records on answer equality only,
    /// because logs recorded before the k-relaxed scheduler was retired
    /// hold that scheduler's round traces.
    Relaxed {
        /// The relaxation factor the request named. Must be at least 1
        /// (`relaxed:0` is rejected at parse time; [`RunConfig::relaxed`]
        /// clamps); it changes nothing about the run.
        k: usize,
    },
}

impl ExecMode {
    /// Lower-case name (stable; used by the JSON form). Borrowed for the
    /// fixed modes; `relaxed:k` carries its parameter.
    pub fn as_str(&self) -> std::borrow::Cow<'static, str> {
        match self {
            ExecMode::Sequential => "sequential".into(),
            ExecMode::Parallel => "parallel".into(),
            ExecMode::Relaxed { k } => format!("relaxed:{k}").into(),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_str())
    }
}

/// Error parsing an [`ExecMode`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseExecModeError {
    /// The name matched no known mode.
    UnknownMode(String),
    /// A `relaxed:k` form whose `k` was not an unsigned integer.
    BadRelaxation(String),
    /// `relaxed:0`: `k` must be at least 1.
    ZeroRelaxation,
}

impl std::fmt::Display for ParseExecModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseExecModeError::UnknownMode(s) => write!(
                f,
                "unknown exec mode `{s}` (expected `sequential`, `parallel` or `relaxed:k`)"
            ),
            ParseExecModeError::BadRelaxation(s) => write!(
                f,
                "bad relaxation in `relaxed:{s}`: expected an unsigned integer k"
            ),
            ParseExecModeError::ZeroRelaxation => {
                write!(f, "`relaxed:0` is not a mode: k must be at least 1")
            }
        }
    }
}

impl std::error::Error for ParseExecModeError {}

impl std::str::FromStr for ExecMode {
    type Err = ParseExecModeError;

    /// Accepts exactly the [`ExecMode::as_str`] names (the stable JSON
    /// vocabulary: `sequential`, `parallel`, `relaxed:k` with `k >= 1`),
    /// plus the common short forms `seq` / `par`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sequential" | "seq" => Ok(ExecMode::Sequential),
            "parallel" | "par" => Ok(ExecMode::Parallel),
            other => match other.strip_prefix("relaxed:") {
                Some(k_text) => match k_text.parse::<usize>() {
                    Ok(0) => Err(ParseExecModeError::ZeroRelaxation),
                    Ok(k) => Ok(ExecMode::Relaxed { k }),
                    Err(_) => Err(ParseExecModeError::BadRelaxation(k_text.to_string())),
                },
                None => Err(ParseExecModeError::UnknownMode(other.to_string())),
            },
        }
    }
}

/// Run configuration: seed, mode, worker threads, instrumentation.
///
/// Built fluently; field and builder method share names (fields are public
/// for reading, methods consume and return `self` for writing):
///
/// ```
/// use ri_core::engine::{ExecMode, RunConfig};
/// let cfg = RunConfig::new().seed(42).sequential().threads(2).instrument(false);
/// assert_eq!(cfg.seed, 42);
/// assert_eq!(cfg.mode, ExecMode::Sequential);
/// assert_eq!(cfg.resolved_threads(), 1); // sequential mode pins one worker
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// RNG seed for runs that draw their own randomness (insertion orders,
    /// priorities). Ignored by problems whose input fixes the order.
    pub seed: u64,
    /// Scheduling mode.
    pub mode: ExecMode,
    /// Worker-thread count; `None` uses the machine default.
    pub threads: Option<usize>,
    /// Record per-phase and total wall times in the report.
    pub instrument: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            mode: ExecMode::Parallel,
            threads: None,
            instrument: true,
        }
    }
}

impl RunConfig {
    /// Parallel mode, seed 0, machine-default threads, instrumented.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scheduling mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.mode(ExecMode::Sequential)`.
    pub fn sequential(self) -> Self {
        self.mode(ExecMode::Sequential)
    }

    /// Shorthand for `.mode(ExecMode::Parallel)`.
    pub fn parallel(self) -> Self {
        self.mode(ExecMode::Parallel)
    }

    /// Shorthand for `.mode(ExecMode::Relaxed { k })` (`k` clamped to at
    /// least 1), which runs the exact parallel schedule.
    pub fn relaxed(self, k: usize) -> Self {
        self.mode(ExecMode::Relaxed { k: k.max(1) })
    }

    /// Set the worker-thread count (`0` restores the machine default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Toggle instrumentation (phase and wall-time recording).
    pub fn instrument(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Serialize to a single-line JSON object mirroring
    /// [`RunReport::to_json`]'s hand-rolled format (`threads` is `null`
    /// when the machine default applies).
    ///
    /// JSON numbers are f64, so seeds at or above 2⁵³ may not round-trip
    /// exactly; the envelope layer rejects them at the door.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// The config as a JSON [`Value`](super::json::Value) (`threads` is
    /// `null` when the machine default applies).
    pub fn to_value(&self) -> super::json::Value {
        use super::json::Value;
        Value::Obj(vec![
            ("seed".into(), Value::Num(self.seed as f64)),
            ("mode".into(), Value::Str(self.mode.as_str().into())),
            (
                "threads".into(),
                match self.threads {
                    Some(t) => Value::Num(t as f64),
                    None => Value::Null,
                },
            ),
            ("instrument".into(), Value::Bool(self.instrument)),
        ])
    }

    /// Parse a config back from JSON. Unlike [`RunReport::from_json`],
    /// missing fields take their [`RunConfig::default`] values — a config
    /// is a request, not a record, so partial requests are welcome —
    /// but present fields must be well-formed.
    pub fn from_json(text: &str) -> Result<RunConfig, super::json::ParseError> {
        Self::from_value(&super::json::parse(text)?)
    }

    /// Parse a config from an already-parsed JSON value.
    pub fn from_value(v: &super::json::Value) -> Result<RunConfig, super::json::ParseError> {
        use super::json::{ParseError, Value};
        let bad = |key: &str| ParseError {
            message: format!("malformed config field `{key}`"),
            at: 0,
        };
        let mut cfg = RunConfig::default();
        if let Some(seed) = v.get("seed") {
            cfg.seed = seed.as_u64().ok_or_else(|| bad("seed"))?;
        }
        if let Some(mode) = v.get("mode") {
            cfg.mode = mode
                .as_str()
                .ok_or_else(|| bad("mode"))?
                .parse()
                .map_err(|e| ParseError {
                    message: format!("malformed config field `mode`: {e}"),
                    at: 0,
                })?;
        }
        match v.get("threads") {
            None | Some(Value::Null) => {}
            // 0 means machine default, exactly as in the `threads` builder.
            Some(t) => {
                let t = t.as_usize().ok_or_else(|| bad("threads"))?;
                cfg.threads = (t > 0).then_some(t);
            }
        }
        if let Some(i) = v.get("instrument") {
            cfg.instrument = match i {
                Value::Bool(b) => *b,
                _ => return Err(bad("instrument")),
            };
        }
        Ok(cfg)
    }

    /// Worker threads a run under this config uses: 1 in sequential mode,
    /// otherwise the configured count, falling back to the ambient/machine
    /// default. A serving process that wants a fixed width pins it
    /// explicitly per request (see [`Runner::pool`]) instead of relying on
    /// process-global state.
    pub fn resolved_threads(&self) -> usize {
        match self.mode {
            ExecMode::Sequential => 1,
            ExecMode::Parallel | ExecMode::Relaxed { .. } => self
                .threads
                .unwrap_or_else(rayon::current_num_threads)
                .max(1),
        }
    }
}

/// A problem instance solvable under a [`RunConfig`]: the uniform
/// problem-level API every algorithm crate exposes (`SortProblem`,
/// `DelaunayProblem`, `LpProblem`, ...).
pub trait Problem {
    /// The algorithm's answer (tree, mesh, optimum, components, ...).
    type Output;

    /// Solve under `cfg`, returning the answer and the unified report.
    fn solve(&self, cfg: &RunConfig) -> (Self::Output, RunReport);
}

/// The `relaxed_fallback` every `relaxed:k` report carries.
const RELAXED_FALLBACK: &str = "the relaxed scheduler is retired; ran exact parallel";

/// The engine facade: runs solves under a [`RunConfig`] at its width.
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: RunConfig,
}

impl Runner {
    /// A runner for `cfg`.
    pub fn new(cfg: RunConfig) -> Self {
        Runner { cfg }
    }

    /// The width token for `threads` (`0` means the machine default),
    /// with that width's region cost measured on its first fetch. The
    /// token owns no threads; it is only the width that
    /// [`rayon::ThreadPool::install`] sets. A caller that wants every
    /// solve clamped to one width (a server) fetches it once and sets
    /// `config.threads` to its width on each request, so nothing is
    /// decided by process-global state and servers in one process can
    /// pin different widths.
    pub fn pool(threads: usize) -> rayon::ThreadPool {
        let width = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        rayon::cached_pool(width)
    }

    /// Run `op` on the calling thread at this runner's width. At width 1
    /// (sequential mode or `threads == 1`) every combinator and `join`
    /// under `op` runs inline, so sequential reports carry zero scheduler
    /// overhead.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        Runner::pool(self.cfg.resolved_threads()).install(op)
    }

    /// Run `solve` under this runner's config — at the config's width,
    /// or inline at width 1 — and stamp the report with `algorithm`, the
    /// mode, the thread count and the wall time, plus the scratch and
    /// region counters measured by the runner's [`RoundScratch`]
    /// workspace. The counters are measured on the calling thread, which
    /// is where the executors' round loops (and their reused buffers)
    /// live.
    ///
    /// A `relaxed:k` config runs `solve` under the same config in
    /// parallel mode; the report keeps the requested mode and sets
    /// `relaxed_fallback`.
    pub fn solve<T>(
        &self,
        algorithm: &str,
        solve: impl FnOnce(&RunConfig) -> (T, RunReport),
    ) -> (T, RunReport) {
        let relaxed = matches!(self.cfg.mode, ExecMode::Relaxed { .. });
        let cfg = if relaxed {
            self.cfg.clone().parallel()
        } else {
            self.cfg.clone()
        };
        let threads = self.cfg.resolved_threads();
        // Fetched before the clock starts: a width's first fetch measures
        // its region cost, which is no part of the solve.
        let width = Runner::pool(threads);
        let workspace = RoundScratch::begin();
        let t0 = std::time::Instant::now();
        let (out, mut report) = width.install(|| solve(&cfg));
        report.algorithm = algorithm.to_string();
        report.mode = self.cfg.mode;
        if relaxed {
            report.relaxed_fallback = Some(RELAXED_FALLBACK.into());
        }
        report.threads = threads;
        if self.cfg.instrument {
            report.wall_seconds = t0.elapsed().as_secs_f64();
        }
        let (hits, misses) = workspace.scratch_delta();
        report.scratch_hits = hits;
        report.scratch_misses = misses;
        report.regions = workspace.regions_delta();
        report.helper_spawns = workspace.helper_spawns_delta();
        (out, report)
    }
}

/// Evaluate `test` on every item into `flags` (cleared first): a round
/// the go-parallel rule admits at `cost`'s price is one crew region;
/// other rounds evaluate inline on the caller without paying region
/// setup. Either way the round prices the next one.
fn fill_flags<T: Sync>(
    flags: &mut Vec<bool>,
    items: &[T],
    cost: &mut grain::RoundCost,
    test: impl Fn(&T) -> bool + Sync,
) {
    flags.clear();
    let t0 = cost.start();
    if cost.goes_parallel(items.len()) {
        items.par_iter().map(test).collect_into_vec(flags);
    } else {
        flags.extend(items.iter().map(test));
    }
    cost.stop(t0, items.len());
}

/// The Type 1 executor (§2.1): parallel mode runs rounds of all ready
/// iterations (rounds = iteration dependence depth); sequential mode runs
/// iterations in insertion order. A relaxed config runs the parallel
/// schedule.
///
/// Panics if no progress is possible (an incorrectly encoded dependence
/// graph).
pub fn execute_type1<A: Type1Algorithm + ?Sized>(algo: &mut A, cfg: &RunConfig) -> RunReport {
    let n = algo.len();
    let mut report = RunReport::new("type1");
    report.items = n;
    match cfg.mode {
        ExecMode::Sequential => {
            for k in 0..n {
                algo.begin_round(k);
                assert!(
                    algo.ready(k),
                    "Type 1 executor stalled: iteration {k} not ready in insertion order"
                );
                algo.run(k);
            }
            report.stamp_rounds(None, n as u64);
        }
        ExecMode::Parallel | ExecMode::Relaxed { .. } => {
            // All three per-round buffers come from (and return to) the
            // runner's scratch workspace: steady-state rounds allocate
            // nothing, and repeated runs on one thread reuse capacity.
            let mut remaining: Vec<usize> = scratch::take_vec();
            remaining.extend(0..n);
            let mut next: Vec<usize> = scratch::take_vec();
            let mut flags: Vec<bool> = scratch::take_vec();
            let mut cost = grain::RoundCost::new();
            let mut round = 0usize;
            while !remaining.is_empty() {
                algo.begin_round(round);
                // Check phase (read-only; all checks observe the state at
                // round start), then run phase (sequential within the
                // round: iterations that run together are mutually
                // independent, so any order gives the sequential
                // algorithm's result). Rounds too small to pay for a crew
                // at the latest round's price check inline.
                fill_flags(&mut flags, &remaining, &mut cost, |&k| algo.ready(k));
                // Run-and-compact in one pass over the reused buffers.
                let mut ran = 0usize;
                next.clear();
                for (&k, &ready) in remaining.iter().zip(flags.iter()) {
                    if ready {
                        ran += 1;
                    } else {
                        next.push(k);
                    }
                }
                assert!(
                    ran > 0,
                    "Type 1 executor stalled with {} iterations remaining",
                    remaining.len()
                );
                for (&k, &ready) in remaining.iter().zip(flags.iter()) {
                    if ready {
                        algo.run(k);
                    }
                }
                std::mem::swap(&mut remaining, &mut next);
                report.record_round(ran, ran as u64);
                round += 1;
            }
            report.depth = round;
            scratch::put_vec(remaining);
            scratch::put_vec(next);
            scratch::put_vec(flags);
        }
    }
    report
}

/// The Type 2 executor — Algorithm 1 of the paper (§2.2) in parallel mode,
/// the classic sequential dispatch loop in sequential mode. Fills
/// `specials`, `sub_rounds` and `checks`; round entries are one per prefix
/// (parallel) or one summary entry (sequential).
///
/// A relaxed config runs the parallel schedule.
pub fn execute_type2<A: Type2Algorithm + ?Sized>(algo: &mut A, cfg: &RunConfig) -> RunReport {
    let n = algo.len();
    let mut report = RunReport::new("type2");
    report.items = n;
    match cfg.mode {
        ExecMode::Sequential => {
            for k in 0..n {
                algo.begin_prefix(k, k + 1);
                report.checks += 1;
                if algo.is_special(k) {
                    report.specials.push(k);
                    algo.run_special(k);
                } else {
                    algo.run_regular(k);
                }
            }
            report.stamp_rounds(None, report.checks);
        }
        ExecMode::Parallel | ExecMode::Relaxed { .. } => {
            let mut cost = grain::RoundCost::new();
            let mut lo = 0usize;
            let mut width = 1usize;
            while lo < n {
                let hi = (lo + width).min(n);
                algo.begin_prefix(lo, hi);
                let mut sub_rounds = 0usize;
                let mut prefix_checks = 0u64;
                let mut j = lo;
                while j < hi {
                    sub_rounds += 1;
                    prefix_checks += (hi - j) as u64;
                    // Check phase over the outstanding prefix tail; find
                    // the earliest special iteration (min-reduction).
                    // Tails too small to pay for a crew — every early
                    // prefix, every tail after a late special, and every
                    // tail of cheap checks — scan inline. The scan prices
                    // the next one by the checks up to the special it met.
                    let t0 = cost.start();
                    let l = if cost.goes_parallel(hi - j) {
                        (j..hi)
                            .into_par_iter()
                            .find_first(|&k| algo.is_special(k))
                            .unwrap_or(hi)
                    } else {
                        (j..hi).find(|&k| algo.is_special(k)).unwrap_or(hi)
                    };
                    cost.stop(t0, (l + 1).min(hi) - j);
                    for k in j..l {
                        algo.run_regular(k);
                    }
                    if l < hi {
                        report.specials.push(l);
                        algo.run_special(l);
                        j = l + 1;
                    } else {
                        j = hi;
                    }
                }
                report.checks += prefix_checks;
                report.sub_rounds.push(sub_rounds);
                report.record_round(hi - lo, prefix_checks);
                lo = hi;
                width *= 2;
            }
            report.depth = report.total_sub_rounds();
        }
    }
    report
}

/// The Type 3 executor — Algorithm 2 of the paper (§2.3) in parallel mode
/// (doubling rounds against the previous round's frozen state, then
/// combine); sequential mode runs width-1 rounds, i.e. the classic
/// sequential incremental algorithm. A relaxed config runs the parallel
/// schedule.
pub fn execute_type3<A: Type3Algorithm + ?Sized>(algo: &mut A, cfg: &RunConfig) -> RunReport {
    let n = algo.len();
    let mut report = RunReport::new("type3");
    report.items = n;
    // One output buffer serves every round (and, in sequential mode,
    // every iteration): `combine` drains it, `clear` keeps the capacity.
    let mut outputs: Vec<A::Output> = Vec::new();
    match cfg.mode {
        ExecMode::Sequential => {
            let mut total_work = 0u64;
            for k in 0..n {
                let out = algo.run_iteration(k);
                outputs.clear();
                outputs.push(out);
                total_work += algo.combine(k, &mut outputs);
            }
            report.stamp_rounds(None, total_work);
        }
        ExecMode::Parallel | ExecMode::Relaxed { .. } => {
            let rounds = prefix_rounds(n);
            report.depth = rounds.len();
            let mut cost = grain::RoundCost::new();
            for (lo, hi) in rounds {
                // Rounds too small to pay for a crew (the first log n of
                // them combined hold fewer items than the last) run
                // inline on the caller. Each round's iterations, which see
                // the state the previous rounds built, price the next
                // round (the combine is not timed).
                let t0 = cost.start();
                if cost.goes_parallel(hi - lo) {
                    (lo..hi)
                        .into_par_iter()
                        .map(|k| algo.run_iteration(k))
                        .collect_into_vec(&mut outputs);
                } else {
                    outputs.clear();
                    outputs.extend((lo..hi).map(|k| algo.run_iteration(k)));
                }
                cost.stop(t0, hi - lo);
                let work = algo.combine(lo, &mut outputs);
                report.record_round(hi - lo, work);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_round_trips_through_from_str() {
        for mode in [
            ExecMode::Sequential,
            ExecMode::Parallel,
            ExecMode::Relaxed { k: 1 },
            ExecMode::Relaxed { k: 64 },
        ] {
            assert_eq!(mode.as_str().parse::<ExecMode>().unwrap(), mode);
        }
        assert_eq!("seq".parse::<ExecMode>().unwrap(), ExecMode::Sequential);
        assert_eq!("par".parse::<ExecMode>().unwrap(), ExecMode::Parallel);
        assert_eq!(
            "relaxed:8".parse::<ExecMode>().unwrap(),
            ExecMode::Relaxed { k: 8 }
        );
        let err = "sideways".parse::<ExecMode>().unwrap_err();
        assert!(err.to_string().contains("sideways"));
    }

    #[test]
    fn exec_mode_rejects_bad_relaxations() {
        let zero = "relaxed:0".parse::<ExecMode>().unwrap_err();
        assert_eq!(zero, ParseExecModeError::ZeroRelaxation);
        assert!(zero.to_string().contains("at least 1"));
        let junk = "relaxed:many".parse::<ExecMode>().unwrap_err();
        assert_eq!(junk, ParseExecModeError::BadRelaxation("many".into()));
        assert!(junk.to_string().contains("many"));
        // A bare `relaxed` has no k and is not a mode either.
        assert!("relaxed".parse::<ExecMode>().is_err());
    }

    #[test]
    fn relaxed_config_round_trips_and_clamps() {
        let cfg = RunConfig::new().relaxed(16).seed(5);
        assert_eq!(cfg.mode, ExecMode::Relaxed { k: 16 });
        assert_eq!(RunConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        // k = 0 clamps to 1 through the builder; the parser rejects it.
        assert_eq!(RunConfig::new().relaxed(0).mode, ExecMode::Relaxed { k: 1 });
        assert!(RunConfig::from_json("{\"mode\":\"relaxed:0\"}").is_err());
    }

    #[test]
    fn run_config_json_round_trips() {
        let cfg = RunConfig::new().seed(42).sequential().threads(3);
        assert_eq!(RunConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        let dflt = RunConfig::default();
        assert_eq!(RunConfig::from_json(&dflt.to_json()).unwrap(), dflt);
    }

    #[test]
    fn run_config_partial_json_takes_defaults() {
        let cfg = RunConfig::from_json("{\"mode\":\"sequential\"}").unwrap();
        assert_eq!(cfg, RunConfig::default().sequential());
        assert_eq!(RunConfig::from_json("{}").unwrap(), RunConfig::default());
        // `threads: null` means machine default, same as absent.
        let cfg = RunConfig::from_json("{\"threads\":null,\"seed\":9}").unwrap();
        assert_eq!(cfg, RunConfig::default().seed(9));
    }

    #[test]
    fn run_config_rejects_malformed_fields() {
        assert!(RunConfig::from_json("{\"mode\":\"sideways\"}").is_err());
        assert!(RunConfig::from_json("{\"seed\":-1}").is_err());
        assert!(RunConfig::from_json("{\"threads\":1.5}").is_err());
        assert!(RunConfig::from_json("{\"instrument\":1}").is_err());
        assert!(RunConfig::from_json("not json").is_err());
    }
}
