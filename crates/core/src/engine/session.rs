//! The streaming-session envelope: the typed shapes every online
//! transport speaks.
//!
//! The paper's algorithms are randomized *incremental* constructions —
//! the instance is fixed up front, a random permutation of it is drawn,
//! and elements are absorbed prefix by prefix. One-shot `/solve` throws
//! that structure away at the API boundary; this module keeps it:
//!
//! * [`StreamSpec`] — opens a session: problem name + [`WorkloadSpec`]
//!   (whose `n` is the session's **capacity**, the size of the full,
//!   fixed instance) + [`RunConfig`], with the same JSON defaulting
//!   rules as [`ServeRequest`]. The full instance is constructed at
//!   open; batches then reveal successive
//!   *prefixes* of it. That is what makes streaming deterministic: the
//!   state after absorbing `k` elements is exactly the one-shot solve of
//!   the first `k`, whatever the batch partition — the batch-split
//!   invariance the proptests assert.
//! * [`BatchRequest`] — appends the next `count` elements of the
//!   instance to the session.
//! * [`BatchDelta`] — what one batch changed: a problem-specific delta
//!   object, the current mode-invariant answer, and the deterministic
//!   per-batch [`RoundTrace`] — everything the witness log needs to
//!   replay the batch bit-identically.
//! * [`FeedState`] — the batch bookkeeping of every streaming session
//!   (capacity, absorbed prefix, batch numbering, overfeed rejection).
//!
//! The object-safe [`ErasedIncremental`](super::registry::ErasedIncremental)
//! session these types feed lives in the registry module, next to its
//! one-shot sibling [`ErasedProblem`](super::registry::ErasedProblem);
//! problems supply only a [`PrefixStream`](super::registry::PrefixStream).

use super::envelope::{ServeError, ServeRequest};
use super::json::{self, Value};
use super::registry::{OutputSummary, WorkloadSpec};
use super::report::RunReport;
use super::runner::RunConfig;
use super::witness::RoundTrace;

/// Opens a streaming session: which problem, the full instance the
/// session will reveal batch by batch (`workload.n` is the capacity),
/// and the config every batch solves under.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The registered problem name.
    pub problem: String,
    /// The full instance's generator parameters; `n` is the session
    /// capacity (total elements the stream will ever absorb).
    pub workload: WorkloadSpec,
    /// Execution configuration for every batch.
    pub config: RunConfig,
    /// Optional caller-chosen session id (a router assigns one so it can
    /// consistent-hash the session before the backend exists; replay
    /// reuses one to rebuild a session under its original name). `None`
    /// lets the server pick.
    pub session_id: Option<String>,
}

impl StreamSpec {
    /// A spec for `problem` with default workload and config.
    pub fn new(problem: impl Into<String>) -> Self {
        let req = ServeRequest::new(problem);
        StreamSpec {
            problem: req.problem,
            workload: req.workload,
            config: req.config,
            session_id: None,
        }
    }

    /// Parse from JSON text with the envelope's shared defaulting rules
    /// (absent sections take their defaults, seeds must stay below 2⁵³)
    /// plus one stream-specific check: capacity must be positive — a
    /// session that can never absorb anything is a caller error.
    pub fn from_json(text: &str) -> Result<StreamSpec, ServeError> {
        let v = json::parse(text).map_err(|e| ServeError::bad_request(format!("bad JSON: {e}")))?;
        Self::from_value(&v)
    }

    /// Parse from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<StreamSpec, ServeError> {
        let req = ServeRequest::from_value(v)?;
        let session_id = match v.get("session_id") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) if !s.is_empty() && s.len() <= 128 => Some(s.clone()),
            Some(Value::Str(_)) => {
                return Err(ServeError::bad_request(
                    "`session_id` must be 1..=128 characters",
                ))
            }
            Some(_) => return Err(ServeError::bad_request("`session_id` must be a string")),
        };
        if req.workload.n == 0 {
            return Err(ServeError::bad_request(
                "a stream needs capacity: workload.n must be positive",
            ));
        }
        Ok(StreamSpec {
            problem: req.problem,
            workload: req.workload,
            config: req.config,
            session_id,
        })
    }

    /// The spec as a JSON [`Value`] (`session_id` omitted when unset).
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("problem".to_string(), Value::Str(self.problem.clone())),
            ("workload".to_string(), self.workload.to_value()),
            ("config".to_string(), self.config.to_value()),
        ];
        if let Some(id) = &self.session_id {
            members.push(("session_id".into(), Value::Str(id.clone())));
        }
        Value::Obj(members)
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }
}

/// Appends the next `count` elements of the session's fixed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRequest {
    /// How many elements to absorb (must be positive and fit in the
    /// remaining capacity).
    pub count: usize,
}

impl BatchRequest {
    /// A request absorbing `count` elements.
    pub fn new(count: usize) -> Self {
        BatchRequest { count }
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<BatchRequest, ServeError> {
        let v = json::parse(text).map_err(|e| ServeError::bad_request(format!("bad JSON: {e}")))?;
        Self::from_value(&v)
    }

    /// Parse from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<BatchRequest, ServeError> {
        let count = v
            .get("count")
            .and_then(Value::as_usize)
            .ok_or_else(|| ServeError::bad_request("batch needs a non-negative `count` field"))?;
        if count == 0 {
            return Err(ServeError::bad_request("batch `count` must be positive"));
        }
        Ok(BatchRequest { count })
    }

    /// The request as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![("count".into(), Value::Num(self.count as f64))])
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }
}

/// What one batch changed: position in the stream, a problem-specific
/// delta, the current answer, and the deterministic per-batch trace.
///
/// Deltas are part of the determinism contract: for a fixed
/// [`StreamSpec`] and batch sequence, every field here is bit-identical
/// across machines, pool widths and repetitions — which is what lets the
/// witness log record them and `ri witness replay` re-feed the exact
/// batch sequence and compare with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDelta {
    /// 0-based batch index within the session.
    pub batch: usize,
    /// Elements absorbed by this batch.
    pub count: usize,
    /// Total elements absorbed after this batch.
    pub cumulative: usize,
    /// The session's capacity (the full instance size).
    pub capacity: usize,
    /// Whether the stream is complete (`cumulative == capacity`); the
    /// answer then equals the one-shot solve of the full instance.
    pub complete: bool,
    /// Whether the prefix is still below the problem's minimum instance
    /// size — nothing was solved and `delta`/`answer`/`trace` are empty.
    pub pending: bool,
    /// Problem-specific delta object (sorted-rank insertions, Delaunay
    /// edge diffs, the running closest pair, SCC relabel counts, or the
    /// generic fallback's changed-answer-keys digest).
    pub delta: Value,
    /// The current mode-invariant answer fields (the one-shot answer of
    /// the absorbed prefix).
    pub answer: Vec<(String, Value)>,
    /// The deterministic round trace of this batch's advance.
    pub trace: RoundTrace,
}

impl BatchDelta {
    /// A delta for a prefix still below the problem's minimum size:
    /// nothing ran, the batch was absorbed into the pending prefix.
    pub fn pending(batch: usize, count: usize, cumulative: usize, capacity: usize) -> Self {
        BatchDelta {
            batch,
            count,
            cumulative,
            capacity,
            complete: cumulative == capacity,
            pending: true,
            delta: Value::Obj(Vec::new()),
            answer: Vec::new(),
            trace: RoundTrace::default(),
        }
    }

    /// A delta for a solved prefix: problem-specific `delta` plus the
    /// prefix's answer and the batch's deterministic trace.
    pub fn solved(
        batch: usize,
        count: usize,
        cumulative: usize,
        capacity: usize,
        delta: Value,
        summary: &OutputSummary,
        report: &RunReport,
    ) -> Self {
        BatchDelta {
            batch,
            count,
            cumulative,
            capacity,
            complete: cumulative == capacity,
            pending: false,
            delta,
            answer: summary.answer().to_vec(),
            trace: RoundTrace::from_report(report),
        }
    }

    /// The delta as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("batch".into(), Value::Num(self.batch as f64)),
            ("count".into(), Value::Num(self.count as f64)),
            ("cumulative".into(), Value::Num(self.cumulative as f64)),
            ("capacity".into(), Value::Num(self.capacity as f64)),
            ("complete".into(), Value::Bool(self.complete)),
            ("pending".into(), Value::Bool(self.pending)),
            ("delta".into(), self.delta.clone()),
            ("answer".into(), Value::Obj(self.answer.clone())),
            ("trace".into(), self.trace.to_value()),
        ])
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse a delta back from its JSON form.
    pub fn from_json(text: &str) -> Result<BatchDelta, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a delta from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<BatchDelta, json::ParseError> {
        let bad = |key: &str| json::ParseError {
            message: format!("malformed batch delta field `{key}`"),
            at: 0,
        };
        let field = |key: &str| {
            v.get(key).ok_or_else(|| json::ParseError {
                message: format!("batch delta missing field `{key}`"),
                at: 0,
            })
        };
        let num = |key: &str| field(key)?.as_usize().ok_or_else(|| bad(key));
        let flag = |key: &str| match field(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(bad(key)),
        };
        let answer = match field("answer")? {
            Value::Obj(members) => members.clone(),
            _ => return Err(bad("answer")),
        };
        Ok(BatchDelta {
            batch: num("batch")?,
            count: num("count")?,
            cumulative: num("cumulative")?,
            capacity: num("capacity")?,
            complete: flag("complete")?,
            pending: flag("pending")?,
            delta: field("delta")?.clone(),
            answer,
            trace: RoundTrace::from_value(field("trace")?)?,
        })
    }
}

/// The prefix bookkeeping of every streaming session: capacity, elements
/// absorbed so far, and batch numbering — with the overfeed and
/// empty-batch rejections standardized in one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedState {
    capacity: usize,
    absorbed: usize,
    batches: usize,
}

impl FeedState {
    /// A fresh state for a session of `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        FeedState {
            capacity,
            absorbed: 0,
            batches: 0,
        }
    }

    /// The session's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Absorb `count` elements: returns `(batch_index, lo, hi)` — the
    /// 0-based batch number and the revealed half-open prefix range —
    /// or an error for an empty batch or one past the capacity.
    pub fn advance(&mut self, count: usize) -> Result<(usize, usize, usize), String> {
        if count == 0 {
            return Err("batch count must be positive".into());
        }
        let lo = self.absorbed;
        let hi = lo.checked_add(count).filter(|&hi| hi <= self.capacity);
        let hi = hi.ok_or_else(|| {
            format!(
                "batch of {count} overruns the stream: {lo} of {} absorbed, {} remain",
                self.capacity,
                self.capacity - lo
            )
        })?;
        let batch = self.batches;
        self.absorbed = hi;
        self.batches += 1;
        Ok((batch, lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;

    #[test]
    fn stream_spec_round_trips_and_validates() {
        let mut spec = StreamSpec::new("sort");
        spec.workload = WorkloadSpec::new(96, 5).shape("uniform-disk");
        spec.config = RunConfig::new().seed(3).threads(2);
        spec.session_id = Some("rs-1".into());
        let back = StreamSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        // session_id is optional and omitted when unset.
        spec.session_id = None;
        assert!(!spec.to_json().contains("session_id"));
        assert_eq!(StreamSpec::from_json(&spec.to_json()).unwrap(), spec);

        // Zero capacity and malformed ids are rejected.
        let err =
            StreamSpec::from_json("{\"problem\":\"sort\",\"workload\":{\"n\":0}}").unwrap_err();
        assert!(err.message.contains("capacity"));
        assert!(
            StreamSpec::from_json("{\"problem\":\"sort\",\"session_id\":7}").is_err(),
            "non-string id"
        );
        assert!(
            StreamSpec::from_json("{\"problem\":\"sort\",\"session_id\":\"\"}").is_err(),
            "empty id"
        );
    }

    #[test]
    fn batch_request_parses_and_rejects() {
        let req = BatchRequest::from_json("{\"count\":8}").unwrap();
        assert_eq!(req, BatchRequest::new(8));
        assert_eq!(BatchRequest::from_json(&req.to_json()).unwrap(), req);
        assert!(BatchRequest::from_json("{\"count\":0}").is_err());
        assert!(BatchRequest::from_json("{\"count\":-3}").is_err());
        assert!(BatchRequest::from_json("{}").is_err());
    }

    #[test]
    fn batch_delta_round_trips() {
        let mut summary = OutputSummary::new();
        summary
            .answer_num("items", 24.0)
            .answer_bool("sorted", true);
        summary.metric_num("noise", 1.0);
        let mut report = RunReport::new("demo");
        report.mode = ExecMode::Parallel;
        report.record_round(8, 31);
        report.depth = 4;
        report.checks = 31;
        report.wall_seconds = 0.5; // must not leak into the trace
        let delta = BatchDelta::solved(
            2,
            8,
            24,
            24,
            Value::Obj(vec![("inserted".into(), Value::Num(8.0))]),
            &summary,
            &report,
        );
        assert!(delta.complete);
        assert!(!delta.pending);
        assert_eq!(delta.answer.len(), 2, "metrics stay out of the answer");
        let back = BatchDelta::from_json(&delta.to_json()).unwrap();
        assert_eq!(back, delta);

        let pending = BatchDelta::pending(0, 1, 1, 24);
        assert!(pending.pending && !pending.complete);
        assert_eq!(BatchDelta::from_json(&pending.to_json()).unwrap(), pending);
        assert!(BatchDelta::from_json("{}").is_err());
    }

    #[test]
    fn feed_state_numbers_batches_and_rejects_overfeed() {
        let mut state = FeedState::new(10);
        assert_eq!(state.advance(4).unwrap(), (0, 0, 4));
        assert_eq!(state.advance(5).unwrap(), (1, 4, 9));
        assert!(state.advance(0).is_err(), "empty batch");
        assert!(state.advance(2).is_err(), "overfeed");
        assert_eq!(state.advance(1).unwrap(), (2, 9, 10));
        assert_eq!(state.absorbed(), 10);
        assert!(state.advance(1).is_err(), "stream already complete");
    }
}
