//! Deterministic witness records: persist, replay, and verify any served
//! response.
//!
//! The paper's central determinism property — a fixed seed fully
//! determines the insertion order, and with it the rounds, dependences
//! and answer of every Type 1/2/3 algorithm — means a `{problem,
//! workload, config}` request is a *complete* recipe for its own
//! response: any process holding the registry can re-execute it and must
//! reproduce the answer **and** the round structure bit-identically.
//! This module turns that property into infrastructure:
//!
//! * [`RoundTrace`] — the deterministic subset of a [`RunReport`]
//!   (per-round items/work, depth, specials, sub-rounds, checks). It
//!   deliberately excludes everything machine- or schedule-dependent:
//!   wall times, phases, scratch/region counters, thread counts. Two
//!   runs of the same request in the same [`ExecMode`] produce equal
//!   traces on any machine at any pool width.
//! * [`WitnessRecord`] — one served response, reduced to what replay
//!   needs: the echoed request (which replays the run exactly), the
//!   shard that served it, the mode-invariant answer, and the trace.
//! * [`WitnessLog`] — an append-only JSONL log of records (the router
//!   writes one line per routed solve) plus [`read_any_log`] to load it
//!   back.
//! * [`replay`] — re-execute a record through a local [`Registry`] and
//!   assert answer + trace equality: the cross-shard / cross-process
//!   answer-equality gate. A divergence means a broken build, a
//!   non-deterministic code path, or a corrupted log — all things a
//!   serving fleet wants to catch loudly.
//! * [`StreamBatchRecord`] / [`replay_stream`] — the same property for
//!   streaming sessions: one record per served batch (tagged
//!   `"kind":"stream-batch"` so both kinds share a log file, loaded via
//!   [`read_any_log`]), and a replay that reconstructs the session from
//!   its spec, re-feeds the exact batch sequence, and asserts every
//!   [`BatchDelta`] comes back bit-identical — answer, problem-specific
//!   delta and per-batch trace alike.
//!
//! The record's canonical JSON shape is one line of
//! `{"request": {...}, "seed": {"workload": W, "config": C},
//! "shard": "s0", "answer": {...}, "trace": {...}}` — `seed` is
//! denormalized out of the request so log consumers that only care about
//! the determinism key need not parse the request body.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::envelope::{ServeRequest, ServeResponse};
use super::json::{self, Value};
use super::registry::{Registry, RegistryError, WorkloadSpec};
use super::report::RunReport;
use super::runner::{ExecMode, RunConfig};
use super::session::{BatchDelta, StreamSpec};

/// The deterministic subset of a [`RunReport`]: equal across machines,
/// pool widths and repetitions for a fixed request (problem, workload,
/// config seed and mode); excludes wall times, phases and scheduler
/// counters, which are not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// Per-round `(items, work)` entries.
    pub rounds: Vec<(usize, u64)>,
    /// Measured dependence depth.
    pub depth: usize,
    /// Special-iteration trace (Type 2; empty otherwise).
    pub specials: Vec<usize>,
    /// Sub-rounds per prefix (Type 2 parallel; empty otherwise).
    pub sub_rounds: Vec<usize>,
    /// The algorithm's scalar work measure.
    pub checks: u64,
}

impl RoundTrace {
    /// Extract the deterministic trace from a full report.
    pub fn from_report(report: &RunReport) -> Self {
        RoundTrace {
            rounds: report.rounds.entries().to_vec(),
            depth: report.depth,
            specials: report.specials.clone(),
            sub_rounds: report.sub_rounds.clone(),
            checks: report.checks,
        }
    }

    /// The trace as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "rounds".into(),
                Value::Arr(
                    self.rounds
                        .iter()
                        .map(|&(items, work)| {
                            Value::Arr(vec![Value::Num(items as f64), Value::Num(work as f64)])
                        })
                        .collect(),
                ),
            ),
            ("depth".into(), Value::Num(self.depth as f64)),
            (
                "specials".into(),
                Value::Arr(
                    self.specials
                        .iter()
                        .map(|&s| Value::Num(s as f64))
                        .collect(),
                ),
            ),
            (
                "sub_rounds".into(),
                Value::Arr(
                    self.sub_rounds
                        .iter()
                        .map(|&s| Value::Num(s as f64))
                        .collect(),
                ),
            ),
            ("checks".into(), Value::Num(self.checks as f64)),
        ])
    }

    /// Parse a trace from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<RoundTrace, json::ParseError> {
        let bad = |key: &str| json::ParseError {
            message: format!("malformed trace field `{key}`"),
            at: 0,
        };
        let field = |key: &str| {
            v.get(key).ok_or_else(|| json::ParseError {
                message: format!("trace missing field `{key}`"),
                at: 0,
            })
        };
        let mut trace = RoundTrace::default();
        for entry in field("rounds")?.as_arr().ok_or_else(|| bad("rounds"))? {
            let pair = entry
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("rounds"))?;
            trace.rounds.push((
                pair[0].as_usize().ok_or_else(|| bad("rounds"))?,
                pair[1].as_u64().ok_or_else(|| bad("rounds"))?,
            ));
        }
        trace.depth = field("depth")?.as_usize().ok_or_else(|| bad("depth"))?;
        for s in field("specials")?.as_arr().ok_or_else(|| bad("specials"))? {
            trace
                .specials
                .push(s.as_usize().ok_or_else(|| bad("specials"))?);
        }
        for s in field("sub_rounds")?
            .as_arr()
            .ok_or_else(|| bad("sub_rounds"))?
        {
            trace
                .sub_rounds
                .push(s.as_usize().ok_or_else(|| bad("sub_rounds"))?);
        }
        trace.checks = field("checks")?.as_u64().ok_or_else(|| bad("checks"))?;
        Ok(trace)
    }
}

/// The determinism key of a request: everything that fixes the answer
/// and the trace. Problem name, the full workload (its seed included),
/// the run-time seed, the mode (traces are mode-dependent) and the
/// instrument flag (cached response bodies embed phase timings when it is
/// set). Thread count is deliberately **excluded** — answers and traces
/// are width-invariant, which is exactly what makes cross-shard caching
/// and replay sound.
pub fn witness_key(problem: &str, workload: &WorkloadSpec, config: &RunConfig) -> String {
    format!(
        "{}|{}|{}|{}|{}",
        problem,
        workload.to_value().write(),
        config.seed,
        config.mode.as_str(),
        config.instrument
    )
}

/// One served response, reduced to what deterministic replay needs.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessRecord {
    /// The echoed request — problem, workload and the config the backend
    /// actually ran (its `threads` may carry the serving pool's clamp;
    /// replay reuses it verbatim).
    pub request: ServeRequest,
    /// Which shard served the response.
    pub shard: String,
    /// The mode-invariant answer members of the response's summary.
    pub answer: Vec<(String, Value)>,
    /// The deterministic round trace of the run.
    pub trace: RoundTrace,
}

impl WitnessRecord {
    /// Build a record from a served response (`resp` echoes the request
    /// that produced it) and the shard that served it.
    pub fn from_response(resp: &ServeResponse, shard: impl Into<String>) -> Self {
        WitnessRecord {
            request: ServeRequest {
                problem: resp.problem.clone(),
                workload: resp.workload.clone(),
                config: resp.config.clone(),
            },
            shard: shard.into(),
            answer: resp.summary.answer().to_vec(),
            trace: RoundTrace::from_report(&resp.report),
        }
    }

    /// The record as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("request".into(), self.request.to_value()),
            (
                "seed".into(),
                Value::Obj(vec![
                    (
                        "workload".into(),
                        Value::Num(self.request.workload.seed as f64),
                    ),
                    ("config".into(), Value::Num(self.request.config.seed as f64)),
                ]),
            ),
            ("shard".into(), Value::Str(self.shard.clone())),
            ("answer".into(), Value::Obj(self.answer.clone())),
            ("trace".into(), self.trace.to_value()),
        ])
    }

    /// Serialize to a single-line JSON object (one log line).
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse a record back from its JSON form.
    pub fn from_json(text: &str) -> Result<WitnessRecord, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a record from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<WitnessRecord, json::ParseError> {
        let bad = |what: &str| json::ParseError {
            message: format!("malformed witness record: {what}"),
            at: 0,
        };
        let request =
            ServeRequest::from_value(v.get("request").ok_or_else(|| bad("missing `request`"))?)
                .map_err(|e| bad(&format!("bad `request`: {e}")))?;
        let shard = v
            .get("shard")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `shard`"))?
            .to_string();
        let answer = match v.get("answer") {
            Some(Value::Obj(members)) => members.clone(),
            _ => return Err(bad("missing `answer` object")),
        };
        let trace = RoundTrace::from_value(v.get("trace").ok_or_else(|| bad("missing `trace`"))?)?;
        // The denormalized `seed` member is a convenience copy; when
        // present it must agree with the request, or the record has been
        // corrupted or hand-edited inconsistently.
        if let Some(seed) = v.get("seed") {
            let agree = seed.get("workload").and_then(Value::as_u64) == Some(request.workload.seed)
                && seed.get("config").and_then(Value::as_u64) == Some(request.config.seed);
            if !agree {
                return Err(bad("`seed` disagrees with the request's seeds"));
            }
        }
        Ok(WitnessRecord {
            request,
            shard,
            answer,
            trace,
        })
    }
}

/// One served **stream batch**, reduced to what deterministic replay
/// needs: the session's opening spec (problem, workload whose `n` is the
/// capacity, config), the session id, the shard that served the batch,
/// and the full [`BatchDelta`] the batch returned. A session's records,
/// in batch order, are a complete recipe for rebuilding it anywhere.
///
/// Serialized with a `"kind":"stream-batch"` tag so stream and one-shot
/// records can share one JSONL log file.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatchRecord {
    /// The session id the batch belongs to.
    pub session: String,
    /// The session's opening spec: problem, full-capacity workload and
    /// the run config every batch solves under.
    pub spec: StreamSpec,
    /// Which shard served the batch.
    pub shard: String,
    /// The delta the batch returned (carries its own batch index and
    /// count — replay re-feeds `delta.count` and compares the whole
    /// delta with `==`).
    pub delta: BatchDelta,
}

impl StreamBatchRecord {
    /// The record as a JSON [`Value`]. Mirrors [`WitnessRecord`]'s shape
    /// (`request` + denormalized `seed` + `shard`) with the stream tag,
    /// session id and delta on top.
    pub fn to_value(&self) -> Value {
        let mut spec = self.spec.clone();
        spec.session_id = None; // the top-level `session` member is canonical
        Value::Obj(vec![
            ("kind".into(), Value::Str("stream-batch".into())),
            ("session".into(), Value::Str(self.session.clone())),
            ("request".into(), spec.to_value()),
            (
                "seed".into(),
                Value::Obj(vec![
                    (
                        "workload".into(),
                        Value::Num(self.spec.workload.seed as f64),
                    ),
                    ("config".into(), Value::Num(self.spec.config.seed as f64)),
                ]),
            ),
            ("shard".into(), Value::Str(self.shard.clone())),
            ("delta".into(), self.delta.to_value()),
        ])
    }

    /// Serialize to a single-line JSON object (one log line).
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse a record back from its JSON form.
    pub fn from_json(text: &str) -> Result<StreamBatchRecord, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a record from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<StreamBatchRecord, json::ParseError> {
        let bad = |what: &str| json::ParseError {
            message: format!("malformed stream-batch record: {what}"),
            at: 0,
        };
        if v.get("kind").and_then(Value::as_str) != Some("stream-batch") {
            return Err(bad("missing `\"kind\":\"stream-batch\"` tag"));
        }
        let session = v
            .get("session")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `session`"))?
            .to_string();
        let mut spec =
            StreamSpec::from_value(v.get("request").ok_or_else(|| bad("missing `request`"))?)
                .map_err(|e| bad(&format!("bad `request`: {}", e.message)))?;
        spec.session_id = None;
        let shard = v
            .get("shard")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `shard`"))?
            .to_string();
        let delta = BatchDelta::from_value(v.get("delta").ok_or_else(|| bad("missing `delta`"))?)?;
        if let Some(seed) = v.get("seed") {
            let agree = seed.get("workload").and_then(Value::as_u64) == Some(spec.workload.seed)
                && seed.get("config").and_then(Value::as_u64) == Some(spec.config.seed);
            if !agree {
                return Err(bad("`seed` disagrees with the request's seeds"));
            }
        }
        Ok(StreamBatchRecord {
            session,
            spec,
            shard,
            delta,
        })
    }
}

/// One line of a witness log: a one-shot solve record or a stream batch.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A routed one-shot `/solve` record.
    Solve(WitnessRecord),
    /// One served batch of a streaming session.
    Stream(StreamBatchRecord),
}

/// An append-only JSONL witness log: one [`WitnessRecord`] per line.
/// Appends are serialized through a mutex and flushed per record, so a
/// log captured from a killed process is whole-line truncated at worst.
#[derive(Debug)]
pub struct WitnessLog {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    appended: AtomicU64,
}

impl WitnessLog {
    /// Open `path` for appending (creating it if absent).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<WitnessLog> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(WitnessLog {
            path,
            file: Mutex::new(file),
            appended: AtomicU64::new(0),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (not lines already in the
    /// file when it was opened).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::SeqCst)
    }

    /// Append one record as one JSON line and flush it.
    pub fn append(&self, record: &WitnessRecord) -> io::Result<()> {
        self.append_line(record.to_json())
    }

    /// Append one stream-batch record as one JSON line and flush it.
    pub fn append_stream(&self, record: &StreamBatchRecord) -> io::Result<()> {
        self.append_line(record.to_json())
    }

    fn append_line(&self, line: String) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(file, "{line}")?;
        file.flush()?;
        self.appended.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Load every entry from a JSONL witness log that may mix one-shot
/// [`WitnessRecord`] lines and `"kind":"stream-batch"` lines. Blank
/// lines are skipped; a malformed line fails the whole load (a witness
/// log is an integrity artifact — partial reads would hide corruption).
pub fn read_any_log(path: impl AsRef<Path>) -> io::Result<Vec<LogEntry>> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |e: json::ParseError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("witness log line {}: {e}", i + 1),
            )
        };
        let v = json::parse(line).map_err(fail)?;
        let entry = if v.get("kind").and_then(Value::as_str) == Some("stream-batch") {
            LogEntry::Stream(StreamBatchRecord::from_value(&v).map_err(fail)?)
        } else {
            LogEntry::Solve(WitnessRecord::from_value(&v).map_err(fail)?)
        };
        entries.push(entry);
    }
    Ok(entries)
}

/// Why a replay did not reproduce its record.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The local registry could not solve the recorded request at all.
    Solve(RegistryError),
    /// The re-executed answer differs from the recorded one.
    AnswerMismatch {
        /// The recorded answer.
        expected: Value,
        /// The re-executed answer.
        got: Value,
    },
    /// The re-executed round trace differs from the recorded one.
    TraceMismatch {
        /// Which trace field diverged first.
        field: &'static str,
        /// Recorded vs re-executed, rendered for humans.
        detail: String,
    },
    /// A streamed session's records are not replayable as recorded:
    /// mixed sessions, non-contiguous batch indices, inconsistent specs,
    /// or a batch the reconstructed session refused to absorb.
    BadStream {
        /// What was wrong.
        detail: String,
    },
    /// A re-fed batch produced a different delta than recorded.
    DeltaMismatch {
        /// The diverging batch's 0-based index.
        batch: usize,
        /// The recorded delta, as JSON.
        expected: Value,
        /// The re-fed delta, as JSON.
        got: Value,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Solve(e) => write!(f, "replay could not solve: {e}"),
            ReplayError::AnswerMismatch { expected, got } => write!(
                f,
                "answer diverged: recorded {} but replay produced {}",
                expected.write(),
                got.write()
            ),
            ReplayError::TraceMismatch { field, detail } => {
                write!(f, "round trace diverged at `{field}`: {detail}")
            }
            ReplayError::BadStream { detail } => {
                write!(f, "stream records not replayable: {detail}")
            }
            ReplayError::DeltaMismatch {
                batch,
                expected,
                got,
            } => write!(
                f,
                "batch {batch} delta diverged: recorded {} but replay produced {}",
                expected.write(),
                got.write()
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Re-execute `record`'s request through `registry` and assert that the
/// answer **and** the deterministic round trace come back bit-identical.
///
/// Relaxed-mode records (`"relaxed:k"`) are gated on **answer equality
/// only**. `relaxed:k` now runs the exact parallel schedule, but logs
/// recorded before the k-relaxed scheduler was retired hold that
/// scheduler's round traces, and they must keep replaying.
pub fn replay(registry: &Registry, record: &WitnessRecord) -> Result<(), ReplayError> {
    let req = &record.request;
    let (summary, report) = registry
        .solve(&req.problem, &req.workload, &req.config)
        .map_err(ReplayError::Solve)?;
    let got = Value::Obj(summary.answer().to_vec());
    let expected = Value::Obj(record.answer.clone());
    if got != expected {
        return Err(ReplayError::AnswerMismatch { expected, got });
    }
    if matches!(req.config.mode, ExecMode::Relaxed { .. }) {
        return Ok(());
    }
    let trace = RoundTrace::from_report(&report);
    if trace != record.trace {
        let (field, detail): (&'static str, String) = if trace.rounds != record.trace.rounds {
            (
                "rounds",
                format!(
                    "recorded {} rounds, replay ran {}",
                    record.trace.rounds.len(),
                    trace.rounds.len()
                ),
            )
        } else if trace.depth != record.trace.depth {
            (
                "depth",
                format!("recorded {}, replay {}", record.trace.depth, trace.depth),
            )
        } else if trace.specials != record.trace.specials {
            (
                "specials",
                format!(
                    "recorded {} specials, replay {}",
                    record.trace.specials.len(),
                    trace.specials.len()
                ),
            )
        } else if trace.sub_rounds != record.trace.sub_rounds {
            ("sub_rounds", "per-prefix sub-round counts differ".into())
        } else {
            (
                "checks",
                format!("recorded {}, replay {}", record.trace.checks, trace.checks),
            )
        };
        return Err(ReplayError::TraceMismatch { field, detail });
    }
    Ok(())
}

/// Re-feed one streamed session from its witness records and assert
/// every [`BatchDelta`] comes back bit-identical.
///
/// `records` must be **one** session's records in batch order (batch
/// indices contiguous from 0, identical spec throughout) — group a mixed
/// log by session id first. The session is reconstructed through
/// [`Registry::construct_incremental`], so a native adapter replays
/// natively and a fallback problem replays through the same
/// re-solve-prefix path that served it.
pub fn replay_stream(
    registry: &Registry,
    records: &[StreamBatchRecord],
) -> Result<(), ReplayError> {
    let bad = |detail: String| ReplayError::BadStream { detail };
    let first = records
        .first()
        .ok_or_else(|| bad("no records for session".into()))?;
    for (i, r) in records.iter().enumerate() {
        if r.session != first.session {
            return Err(bad(format!(
                "mixed sessions `{}` and `{}`; group by session before replay",
                first.session, r.session
            )));
        }
        if r.spec != first.spec {
            return Err(bad(format!(
                "session `{}` changes spec at batch {}",
                r.session, r.delta.batch
            )));
        }
        if r.delta.batch != i {
            return Err(bad(format!(
                "session `{}` batches not contiguous: expected index {i}, found {}",
                r.session, r.delta.batch
            )));
        }
    }
    let mut inc = registry
        .construct_incremental(&first.spec.problem, &first.spec.workload)
        .map_err(ReplayError::Solve)?;
    // Relaxed sessions are gated on everything *except* the round trace:
    // the answers and deltas must come back bit-identical, but a session
    // recorded before the relaxed scheduler was retired holds its traces.
    let relaxed = matches!(first.spec.config.mode, ExecMode::Relaxed { .. });
    for r in records {
        let (delta, _) = inc
            .feed(r.delta.count, &first.spec.config)
            .map_err(|e| bad(format!("batch {} refused on replay: {e}", r.delta.batch)))?;
        let matches = if relaxed {
            delta.batch == r.delta.batch
                && delta.count == r.delta.count
                && delta.cumulative == r.delta.cumulative
                && delta.capacity == r.delta.capacity
                && delta.complete == r.delta.complete
                && delta.pending == r.delta.pending
                && delta.delta == r.delta.delta
                && delta.answer == r.delta.answer
        } else {
            delta == r.delta
        };
        if !matches {
            return Err(ReplayError::DeltaMismatch {
                batch: r.delta.batch,
                expected: r.delta.to_value(),
                got: delta.to_value(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::registry::OutputSummary;
    use crate::engine::ExecMode;

    /// A deterministic toy problem: the "answer" and the trace are pure
    /// functions of (n, workload seed, config seed, mode) — exactly the
    /// determinism contract real problems satisfy.
    struct Toy {
        n: usize,
        wseed: u64,
    }

    impl Toy {
        fn solve(&self, cfg: &RunConfig) -> (OutputSummary, RunReport) {
            let mut report = RunReport::new("toy");
            report.mode = cfg.mode;
            report.items = self.n;
            let mix = self.wseed.wrapping_mul(31).wrapping_add(cfg.seed);
            match cfg.mode {
                ExecMode::Sequential => {
                    report.record_round(self.n, mix % 97);
                    report.depth = self.n;
                }
                ExecMode::Parallel => {
                    report.record_round(self.n / 2, mix % 89);
                    report.record_round(self.n - self.n / 2, mix % 83);
                    report.depth = 2;
                    report.specials.push((mix % self.n.max(1) as u64) as usize);
                }
                // Same answer as parallel, but a deliberately different,
                // k-dependent trace, as a record from the retired relaxed
                // scheduler would carry.
                ExecMode::Relaxed { k } => {
                    report.record_round(self.n, (k as u64).wrapping_add(mix) % 79);
                    report.depth = 1;
                }
            }
            report.checks = mix % 1009;
            // Non-deterministic-looking noise the trace must ignore.
            report.wall_seconds = 0.123;
            report.scratch_hits = 42;
            report.regions = 7;
            let mut summary = OutputSummary::new();
            summary.answer_num("mix", (mix % 100003) as f64);
            summary.metric_num("noise", 0.5);
            (summary, report)
        }
    }

    fn toy_registry() -> Registry {
        let mut reg = Registry::new();
        reg.register(
            "toy",
            "deterministic toy",
            |spec| {
                Ok(Toy {
                    n: spec.n,
                    wseed: spec.seed,
                })
            },
            Toy::solve,
        );
        reg
    }

    fn toy_response(reg: &Registry, n: usize, wseed: u64, cseed: u64) -> ServeResponse {
        toy_response_cfg(reg, n, wseed, RunConfig::new().seed(cseed))
    }

    fn toy_response_cfg(reg: &Registry, n: usize, wseed: u64, config: RunConfig) -> ServeResponse {
        let workload = WorkloadSpec::new(n, wseed);
        let (summary, report) = reg.solve("toy", &workload, &config).unwrap();
        ServeResponse {
            problem: "toy".into(),
            workload,
            config,
            summary,
            report,
        }
    }

    #[test]
    fn trace_is_the_deterministic_subset() {
        let reg = toy_registry();
        let resp = toy_response(&reg, 16, 3, 9);
        let trace = RoundTrace::from_report(&resp.report);
        assert_eq!(trace.rounds.len(), 2);
        assert_eq!(trace.depth, 2);
        // Wall time / scratch counters are not part of the trace.
        assert_eq!(RoundTrace::from_value(&trace.to_value()).unwrap(), trace);
    }

    #[test]
    fn record_round_trips_through_json() {
        let reg = toy_registry();
        let record = WitnessRecord::from_response(&toy_response(&reg, 12, 5, 2), "s1");
        let back = WitnessRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
        // The denormalized seed member is present and checked.
        assert!(record
            .to_json()
            .contains("\"seed\":{\"workload\":5,\"config\":2}"));
        let tampered = record.to_json().replace(
            "\"seed\":{\"workload\":5,\"config\":2}",
            "\"seed\":{\"workload\":6,\"config\":2}",
        );
        assert!(WitnessRecord::from_json(&tampered).is_err());
    }

    #[test]
    fn replay_accepts_faithful_records_and_rejects_tampered_ones() {
        let reg = toy_registry();
        let record = WitnessRecord::from_response(&toy_response(&reg, 20, 7, 11), "s0");
        assert!(replay(&reg, &record).is_ok());

        // Tampered answer → AnswerMismatch.
        let mut bad = record.clone();
        bad.answer[0].1 = Value::Num(-1.0);
        assert!(matches!(
            replay(&reg, &bad),
            Err(ReplayError::AnswerMismatch { .. })
        ));

        // Tampered trace → TraceMismatch.
        let mut bad = record.clone();
        bad.trace.checks += 1;
        assert!(matches!(
            replay(&reg, &bad),
            Err(ReplayError::TraceMismatch {
                field: "checks",
                ..
            })
        ));

        // A record for an unknown problem → Solve.
        let mut bad = record;
        bad.request.problem = "nope".into();
        assert!(matches!(replay(&reg, &bad), Err(ReplayError::Solve(_))));
    }

    #[test]
    fn relaxed_replay_gates_on_answer_only() {
        let reg = toy_registry();
        let cfg = RunConfig::new().seed(11).relaxed(8);
        let record = WitnessRecord::from_response(&toy_response_cfg(&reg, 20, 7, cfg), "s0");
        assert!(replay(&reg, &record).is_ok());

        // A tampered trace is NOT a divergence for a relaxed record: old
        // logs hold the retired relaxed scheduler's traces.
        let mut loose = record.clone();
        loose.trace.checks += 1;
        loose.trace.depth += 3;
        assert!(replay(&reg, &loose).is_ok());

        // The answer still is.
        let mut bad = record;
        bad.answer[0].1 = Value::Num(-1.0);
        assert!(matches!(
            replay(&reg, &bad),
            Err(ReplayError::AnswerMismatch { .. })
        ));
    }

    #[test]
    fn log_appends_and_reads_back() {
        let reg = toy_registry();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ri-witness-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let log = WitnessLog::open(&path).unwrap();
        let records: Vec<WitnessRecord> = (0..5)
            .map(|i| WitnessRecord::from_response(&toy_response(&reg, 8 + i, i as u64, 1), "s0"))
            .collect();
        for r in &records {
            log.append(r).unwrap();
        }
        assert_eq!(log.appended(), 5);
        let loaded = read_any_log(&path).unwrap();
        let want: Vec<LogEntry> = records.iter().cloned().map(LogEntry::Solve).collect();
        assert_eq!(loaded, want);
        for r in &records {
            assert!(replay(&reg, r).is_ok());
        }
        // A corrupted line fails the whole load.
        std::fs::write(&path, "not json\n").unwrap();
        assert!(read_any_log(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// Serve a toy session of `counts` batches through the registry's
    /// fallback incremental path, producing one record per batch.
    fn toy_stream(reg: &Registry, counts: &[usize]) -> Vec<StreamBatchRecord> {
        toy_stream_cfg(reg, counts, RunConfig::new().seed(9))
    }

    fn toy_stream_cfg(
        reg: &Registry,
        counts: &[usize],
        config: RunConfig,
    ) -> Vec<StreamBatchRecord> {
        let spec = StreamSpec {
            problem: "toy".into(),
            workload: WorkloadSpec::new(counts.iter().sum(), 3),
            config,
            session_id: None,
        };
        let mut inc = reg
            .construct_incremental(&spec.problem, &spec.workload)
            .unwrap();
        counts
            .iter()
            .map(|&count| {
                let (delta, _) = inc.feed(count, &spec.config).unwrap();
                StreamBatchRecord {
                    session: "rs-1".into(),
                    spec: spec.clone(),
                    shard: "s0".into(),
                    delta,
                }
            })
            .collect()
    }

    #[test]
    fn stream_record_round_trips_and_tags() {
        let reg = toy_registry();
        let records = toy_stream(&reg, &[4, 3, 5]);
        for r in &records {
            assert!(r.to_json().starts_with("{\"kind\":\"stream-batch\""));
            assert_eq!(StreamBatchRecord::from_json(&r.to_json()).unwrap(), *r);
        }
        // The tag is required; a solve record does not parse as a stream one.
        let solve = WitnessRecord::from_response(&toy_response(&reg, 8, 1, 2), "s0");
        assert!(StreamBatchRecord::from_json(&solve.to_json()).is_err());
        // The denormalized seed member is checked, as for solve records.
        let tampered = records[0].to_json().replace(
            "\"seed\":{\"workload\":3,\"config\":9}",
            "\"seed\":{\"workload\":4,\"config\":9}",
        );
        assert!(StreamBatchRecord::from_json(&tampered).is_err());
    }

    #[test]
    fn mixed_log_reads_back_both_kinds() {
        let reg = toy_registry();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ri-witness-mixed-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let log = WitnessLog::open(&path).unwrap();
        let solve = WitnessRecord::from_response(&toy_response(&reg, 8, 1, 2), "s0");
        let stream = toy_stream(&reg, &[2, 2]);
        log.append(&solve).unwrap();
        log.append_stream(&stream[0]).unwrap();
        log.append_stream(&stream[1]).unwrap();
        assert_eq!(log.appended(), 3);
        let entries = read_any_log(&path).unwrap();
        assert_eq!(
            entries,
            vec![
                LogEntry::Solve(solve),
                LogEntry::Stream(stream[0].clone()),
                LogEntry::Stream(stream[1].clone()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_replay_accepts_faithful_records_and_rejects_tampered_ones() {
        let reg = toy_registry();
        let records = toy_stream(&reg, &[4, 3, 5]);
        assert!(replay_stream(&reg, &records).is_ok());

        // Tampered delta → DeltaMismatch at the right batch.
        let mut bad = records.clone();
        bad[1].delta.trace.checks += 1;
        assert!(matches!(
            replay_stream(&reg, &bad),
            Err(ReplayError::DeltaMismatch { batch: 1, .. })
        ));

        // A gap in the batch sequence → BadStream.
        let gappy = vec![records[0].clone(), records[2].clone()];
        assert!(matches!(
            replay_stream(&reg, &gappy),
            Err(ReplayError::BadStream { .. })
        ));

        // Mixed sessions → BadStream.
        let mut mixed = records;
        mixed[2].session = "rs-2".into();
        assert!(matches!(
            replay_stream(&reg, &mixed),
            Err(ReplayError::BadStream { .. })
        ));

        // Empty input → BadStream.
        assert!(matches!(
            replay_stream(&reg, &[]),
            Err(ReplayError::BadStream { .. })
        ));
    }

    #[test]
    fn relaxed_stream_replay_ignores_traces_but_not_answers() {
        let reg = toy_registry();
        let cfg = RunConfig::new().seed(9).relaxed(4);
        let records = toy_stream_cfg(&reg, &[4, 3, 5], cfg);
        assert!(replay_stream(&reg, &records).is_ok());

        // A relaxed session's trace is free; only non-trace fields gate.
        let mut loose = records.clone();
        loose[1].delta.trace.checks += 1;
        assert!(replay_stream(&reg, &loose).is_ok());

        let mut bad = records;
        bad[2].delta.answer.push(("extra".into(), Value::Num(1.0)));
        assert!(matches!(
            replay_stream(&reg, &bad),
            Err(ReplayError::DeltaMismatch { batch: 2, .. })
        ));
    }

    #[test]
    fn witness_key_covers_the_determinism_inputs_only() {
        let w = WorkloadSpec::new(64, 3);
        let base = RunConfig::new().seed(5);
        let k = witness_key("sort", &w, &base);
        // Seeds, mode, problem and workload all key.
        assert_ne!(k, witness_key("scc", &w, &base));
        assert_ne!(k, witness_key("sort", &WorkloadSpec::new(64, 4), &base));
        assert_ne!(k, witness_key("sort", &w, &base.clone().seed(6)));
        assert_ne!(k, witness_key("sort", &w, &base.clone().sequential()));
        assert_ne!(k, witness_key("sort", &w, &base.clone().instrument(false)));
        // Thread width does not: answers and traces are width-invariant.
        assert_eq!(k, witness_key("sort", &w, &base.threads(8)));
    }
}
