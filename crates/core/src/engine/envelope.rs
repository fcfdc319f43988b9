//! The serving envelope: the typed request/response/error shapes every
//! transport speaks.
//!
//! PR 2 fixed the wire contract — `{problem, workload, config}` in,
//! `{problem, workload, config, summary, report}` out — but the parsing,
//! defaulting and seed-validation logic lived inside the `ri` CLI binary.
//! This module hoists it into the library so the CLI, the `ri-serve`
//! HTTP server, the `loadgen` client and the tests all share **one**
//! parse path with identical defaults:
//!
//! * [`ServeRequest`] — problem name + [`WorkloadSpec`] + [`RunConfig`],
//!   with JSON round-trip, the CLI's defaulting rules (absent `workload.n`
//!   means 1024; absent sections take their type defaults) and the 2⁵³
//!   seed limit that keeps echoed requests exactly replayable;
//! * [`ServeResponse`] — the request echo plus [`OutputSummary`] and
//!   [`RunReport`], with JSON round-trip both ways (a client can
//!   reconstruct the typed response from the wire);
//! * [`ServeError`] — a structured, JSON-able error with a stable kebab
//!   `kind` vocabulary and an HTTP status mapping, so transport errors are
//!   data, not dropped connections.
//!
//! ```
//! use ri_core::engine::envelope::ServeRequest;
//!
//! let req = ServeRequest::from_json(
//!     r#"{"problem":"sort","workload":{"n":256,"seed":7},"config":{"mode":"parallel"}}"#,
//! )
//! .unwrap();
//! assert_eq!(req.problem, "sort");
//! assert_eq!(req.workload.n, 256);
//! let back = ServeRequest::from_json(&req.to_json()).unwrap();
//! assert_eq!(back, req);
//! ```

use super::json::{self, Value};
use super::registry::{OutputSummary, RegistryError, WorkloadSpec};
use super::report::RunReport;
use super::runner::RunConfig;

/// Seeds must stay strictly below 2⁵³ (the JSON layer is f64): any larger
/// integer in a request either is unrepresentable or rounds to at least
/// 2⁵³, so rejecting `seed >= 2^53` catches every over-limit input
/// regardless of rounding direction, and a response's echoed request
/// always replays to the run it documents.
pub const SEED_LIMIT: u64 = 1 << 53;

/// Default instance size when a request omits `workload.n` entirely (an
/// explicit `"n": 0` is passed through so the constructor can reject it,
/// exactly like `--n 0` on the CLI flags path).
pub const DEFAULT_N: usize = 1024;

/// Validate that `seed` round-trips through JSON; `name` labels the field
/// in the error message.
pub fn check_seed(name: &str, seed: u64) -> Result<u64, ServeError> {
    if seed >= SEED_LIMIT {
        return Err(ServeError::bad_request(format!(
            "{name} {seed} is not below 2^53 and cannot round-trip through the JSON response"
        )));
    }
    Ok(seed)
}

/// What went wrong with a serve request, as a stable kebab-case
/// vocabulary. Every kind maps to an HTTP status; transports that are not
/// HTTP (the CLI) just print the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The request body failed to parse or validate (400).
    BadRequest,
    /// No problem registered under the requested name (404).
    UnknownProblem,
    /// The problem's constructor rejected the workload spec (400).
    BadWorkload,
    /// The path does not exist (404).
    NotFound,
    /// The path exists but not under this method (405).
    MethodNotAllowed,
    /// The request body exceeds the server's size limit (413).
    BodyTooLarge,
    /// The admission gate or queue-depth limit rejected the request (503).
    Overloaded,
    /// The request waited in the queue past its deadline (504).
    DeadlineExceeded,
    /// The solve panicked or the executor failed (500).
    Internal,
}

impl ServeErrorKind {
    /// The stable kebab-case name (the JSON `kind` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServeErrorKind::BadRequest => "bad-request",
            ServeErrorKind::UnknownProblem => "unknown-problem",
            ServeErrorKind::BadWorkload => "bad-workload",
            ServeErrorKind::NotFound => "not-found",
            ServeErrorKind::MethodNotAllowed => "method-not-allowed",
            ServeErrorKind::BodyTooLarge => "body-too-large",
            ServeErrorKind::Overloaded => "overloaded",
            ServeErrorKind::DeadlineExceeded => "deadline-exceeded",
            ServeErrorKind::Internal => "internal",
        }
    }

    /// Every kind, for round-trip parsing and tests.
    pub const ALL: [ServeErrorKind; 9] = [
        ServeErrorKind::BadRequest,
        ServeErrorKind::UnknownProblem,
        ServeErrorKind::BadWorkload,
        ServeErrorKind::NotFound,
        ServeErrorKind::MethodNotAllowed,
        ServeErrorKind::BodyTooLarge,
        ServeErrorKind::Overloaded,
        ServeErrorKind::DeadlineExceeded,
        ServeErrorKind::Internal,
    ];

    /// Whether a request failing with this kind is safe and sensible to
    /// retry (against another shard, or later): the request never ran —
    /// it was shed at admission ([`ServeErrorKind::Overloaded`]) or timed
    /// out in the queue ([`ServeErrorKind::DeadlineExceeded`]). Every
    /// solve is deterministic and side-effect-free, so retrying can never
    /// double-apply anything; the kinds marked non-retryable would just
    /// fail identically anywhere (malformed request, unknown problem, a
    /// deterministic panic).
    pub fn default_retryable(&self) -> bool {
        matches!(
            self,
            ServeErrorKind::Overloaded | ServeErrorKind::DeadlineExceeded
        )
    }

    /// The HTTP status this kind maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeErrorKind::BadRequest | ServeErrorKind::BadWorkload => 400,
            ServeErrorKind::UnknownProblem | ServeErrorKind::NotFound => 404,
            ServeErrorKind::MethodNotAllowed => 405,
            ServeErrorKind::BodyTooLarge => 413,
            ServeErrorKind::Overloaded => 503,
            ServeErrorKind::DeadlineExceeded => 504,
            ServeErrorKind::Internal => 500,
        }
    }
}

impl std::str::FromStr for ServeErrorKind {
    type Err = json::ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ServeErrorKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| json::ParseError {
                message: format!("unknown error kind `{s}`"),
                at: 0,
            })
    }
}

/// A structured serve-layer error: kind + human-readable message.
/// Serializes as `{"error":{"kind":...,"message":...}}` so clients can
/// always distinguish an error body from a response body by its single
/// `error` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// What category of failure this is.
    pub kind: ServeErrorKind,
    /// What went wrong, for humans.
    pub message: String,
    /// Whether retrying the request (elsewhere, or later) can succeed —
    /// what a router keys its failover decision on. Defaults to the
    /// kind's [`ServeErrorKind::default_retryable`]; the field is
    /// additive in the JSON form, so parsers of the pre-field envelope
    /// keep working and old envelopes parse to the kind default.
    pub retryable: bool,
}

impl ServeError {
    /// An error of `kind` with `message` and the kind's default
    /// retryability.
    pub fn new(kind: ServeErrorKind, message: impl Into<String>) -> Self {
        ServeError {
            kind,
            message: message.into(),
            retryable: kind.default_retryable(),
        }
    }

    /// Override the retryability (e.g. a router marking its synthesized
    /// all-shards-down 503 as retryable-later).
    pub fn retryable(mut self, retryable: bool) -> Self {
        self.retryable = retryable;
        self
    }

    /// Shorthand for a [`ServeErrorKind::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ServeErrorKind::BadRequest, message)
    }

    /// The HTTP status of this error's kind.
    pub fn http_status(&self) -> u16 {
        self.kind.http_status()
    }

    /// The error as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![(
            "error".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str(self.kind.as_str().into())),
                ("message".into(), Value::Str(self.message.clone())),
                ("retryable".into(), Value::Bool(self.retryable)),
            ]),
        )])
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse an error back from its JSON form.
    pub fn from_json(text: &str) -> Result<ServeError, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse an error from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<ServeError, json::ParseError> {
        let bad = |what: &str| json::ParseError {
            message: format!("malformed error envelope: {what}"),
            at: 0,
        };
        let inner = v.get("error").ok_or_else(|| bad("missing `error` key"))?;
        let kind: ServeErrorKind = inner
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `kind`"))?
            .parse()?;
        let message = inner
            .get("message")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `message`"))?
            .to_string();
        // Additive field: absent (pre-field envelopes) means the kind
        // default; present must be a bool.
        let retryable = match inner.get("retryable") {
            None => kind.default_retryable(),
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("non-bool `retryable`")),
        };
        Ok(ServeError {
            kind,
            message,
            retryable,
        })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        let kind = match &e {
            RegistryError::UnknownProblem { .. } => ServeErrorKind::UnknownProblem,
            RegistryError::BadWorkload { .. } => ServeErrorKind::BadWorkload,
        };
        ServeError::new(kind, e.to_string())
    }
}

impl From<json::ParseError> for ServeError {
    fn from(e: json::ParseError) -> Self {
        ServeError::bad_request(e.to_string())
    }
}

/// One solve request: which problem, what instance, under which config.
/// The canonical JSON form is
/// `{"problem": <name>, "workload": {...}, "config": {...}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The registered problem name.
    pub problem: String,
    /// Instance generator parameters.
    pub workload: WorkloadSpec,
    /// Execution configuration.
    pub config: RunConfig,
}

impl ServeRequest {
    /// A request for `problem` with default workload (n = [`DEFAULT_N`])
    /// and config.
    pub fn new(problem: impl Into<String>) -> Self {
        ServeRequest {
            problem: problem.into(),
            workload: WorkloadSpec::new(DEFAULT_N, 0),
            config: RunConfig::default(),
        }
    }

    /// Parse a request from JSON text, applying the shared defaulting
    /// rules: absent `workload`/`config` sections take their defaults,
    /// absent `workload.n` means [`DEFAULT_N`], and both seeds must stay
    /// below 2⁵³ so the response echo replays exactly.
    pub fn from_json(text: &str) -> Result<ServeRequest, ServeError> {
        let v = json::parse(text).map_err(|e| ServeError::bad_request(format!("bad JSON: {e}")))?;
        Self::from_value(&v)
    }

    /// Parse a request from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<ServeRequest, ServeError> {
        let problem = v
            .get("problem")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::bad_request("request needs a string `problem` field"))?
            .to_string();
        let workload = v.get("workload");
        if let Some(p) = workload
            .and_then(|w| w.get("param"))
            .and_then(Value::as_f64)
        {
            // Report a non-finite param (e.g. the literal 1e999, which
            // the number parser reads as +inf) as the structured
            // bad-workload error rather than a generic parse failure:
            // the request is well-formed JSON, the *workload* is bad.
            if !p.is_finite() {
                return Err(ServeError::new(
                    ServeErrorKind::BadWorkload,
                    format!("workload param {p} is not finite"),
                ));
            }
        }
        let mut spec = match workload {
            Some(w) => WorkloadSpec::from_value(w).map_err(ServeError::from)?,
            None => WorkloadSpec::new(0, 0),
        };
        // Default the size only when the field is genuinely absent — an
        // explicit "n": 0 must reach the constructor and fail there,
        // exactly like `--n 0` does on the CLI flags path.
        if workload.and_then(|w| w.get("n")).is_none() {
            spec.n = DEFAULT_N;
        }
        check_seed("workload.seed", spec.seed)?;
        let config = match v.get("config") {
            Some(c) => RunConfig::from_value(c).map_err(ServeError::from)?,
            None => RunConfig::default(),
        };
        check_seed("config.seed", config.seed)?;
        Ok(ServeRequest {
            problem,
            workload: spec,
            config,
        })
    }

    /// The request as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("problem".into(), Value::Str(self.problem.clone())),
            ("workload".into(), self.workload.to_value()),
            ("config".into(), self.config.to_value()),
        ])
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }
}

/// One solve response: the request echo (problem + workload + config
/// replay exactly the documented run) plus the output digest and the
/// unified report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The solved problem's name.
    pub problem: String,
    /// The workload that was constructed.
    pub workload: WorkloadSpec,
    /// The config the run actually used (a server may clamp `threads` to
    /// its own width; the echo documents the effective value).
    pub config: RunConfig,
    /// The output digest (`answer` is mode-invariant).
    pub summary: OutputSummary,
    /// The unified execution record.
    pub report: RunReport,
}

impl ServeResponse {
    /// The response as a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("problem".into(), Value::Str(self.problem.clone())),
            ("workload".into(), self.workload.to_value()),
            ("config".into(), self.config.to_value()),
            ("summary".into(), self.summary.to_value()),
            ("report".into(), self.report.to_value()),
        ])
    }

    /// Serialize to a single-line JSON object (exactly the `ri` CLI's
    /// output line).
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// Parse a response back from its JSON form.
    pub fn from_json(text: &str) -> Result<ServeResponse, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a response from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<ServeResponse, json::ParseError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| json::ParseError {
                message: format!("response missing field `{key}`"),
                at: 0,
            })
        };
        Ok(ServeResponse {
            problem: field("problem")?
                .as_str()
                .ok_or_else(|| json::ParseError {
                    message: "malformed response field `problem`".into(),
                    at: 0,
                })?
                .to_string(),
            workload: WorkloadSpec::from_value(field("workload")?)?,
            config: RunConfig::from_value(field("config")?)?,
            summary: OutputSummary::from_value(field("summary")?)?,
            report: RunReport::from_value(field("report")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;

    #[test]
    fn request_round_trips() {
        let mut req = ServeRequest::new("delaunay");
        req.workload = WorkloadSpec::new(500, 7).shape("uniform-disk");
        req.config = RunConfig::new().seed(3).threads(4);
        let back = ServeRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_defaults_match_the_cli_rules() {
        let req = ServeRequest::from_json("{\"problem\":\"sort\"}").unwrap();
        assert_eq!(req.workload, WorkloadSpec::new(DEFAULT_N, 0));
        assert_eq!(req.config, RunConfig::default());

        // An explicit n: 0 must survive to the constructor.
        let req = ServeRequest::from_json("{\"problem\":\"sort\",\"workload\":{\"n\":0}}").unwrap();
        assert_eq!(req.workload.n, 0);

        // A workload without n gets the default size but keeps its seed.
        let req =
            ServeRequest::from_json("{\"problem\":\"sort\",\"workload\":{\"seed\":9}}").unwrap();
        assert_eq!(req.workload.n, DEFAULT_N);
        assert_eq!(req.workload.seed, 9);
    }

    #[test]
    fn non_finite_param_is_a_structured_bad_workload() {
        for body in [
            "{\"problem\":\"le-lists\",\"workload\":{\"n\":64,\"param\":1e999}}",
            "{\"problem\":\"le-lists\",\"workload\":{\"n\":64,\"param\":-1e999}}",
        ] {
            let err = ServeRequest::from_json(body).unwrap_err();
            assert_eq!(err.kind, ServeErrorKind::BadWorkload, "{body}");
            assert_eq!(err.http_status(), 400, "{body}");
            assert!(
                err.message.contains("not finite"),
                "{body}: {}",
                err.message
            );
            // The error envelope itself must serialize (a non-finite
            // param echoed back would trip the writer's finiteness
            // assertion).
            assert!(err.to_json().contains("bad-workload"));
        }
    }

    #[test]
    fn request_rejections_are_structured() {
        for bad in [
            "not json",
            "{}",
            "{\"problem\":7}",
            "{\"problem\":\"sort\",\"workload\":{\"n\":-1}}",
            "{\"problem\":\"sort\",\"config\":{\"mode\":\"sideways\"}}",
            &format!(
                "{{\"problem\":\"sort\",\"workload\":{{\"seed\":{}}}}}",
                1u64 << 53
            ),
            &format!(
                "{{\"problem\":\"sort\",\"config\":{{\"seed\":{}}}}}",
                1u64 << 53
            ),
        ] {
            let err = ServeRequest::from_json(bad).unwrap_err();
            assert_eq!(err.kind, ServeErrorKind::BadRequest, "input: {bad}");
        }
    }

    #[test]
    fn error_round_trips_and_maps_statuses() {
        for kind in ServeErrorKind::ALL {
            for retryable in [kind.default_retryable(), !kind.default_retryable()] {
                let e = ServeError::new(kind, "something").retryable(retryable);
                let back = ServeError::from_json(&e.to_json()).unwrap();
                assert_eq!(back, e);
                assert_eq!(back.retryable, retryable);
            }
            assert!((400..=599).contains(&kind.http_status()), "{kind:?}");
        }
        assert_eq!(ServeError::bad_request("x").http_status(), 400);
        assert!(ServeError::from_json("{\"error\":{}}").is_err());
        assert!(ServeError::from_json("{}").is_err());
    }

    #[test]
    fn retryable_defaults_by_kind_and_is_additive_on_parse() {
        // Shed-before-running kinds default retryable; the rest do not.
        assert!(ServeError::new(ServeErrorKind::Overloaded, "x").retryable);
        assert!(ServeError::new(ServeErrorKind::DeadlineExceeded, "x").retryable);
        for kind in ServeErrorKind::ALL {
            if kind != ServeErrorKind::Overloaded && kind != ServeErrorKind::DeadlineExceeded {
                assert!(!ServeError::new(kind, "x").retryable, "{kind:?}");
            }
        }
        // A pre-field envelope (no `retryable` member) parses to the kind
        // default — the field is additive, old producers keep working.
        let old = "{\"error\":{\"kind\":\"overloaded\",\"message\":\"m\"}}";
        assert!(ServeError::from_json(old).unwrap().retryable);
        let old = "{\"error\":{\"kind\":\"bad-request\",\"message\":\"m\"}}";
        assert!(!ServeError::from_json(old).unwrap().retryable);
        // Present but malformed is rejected.
        let bad = "{\"error\":{\"kind\":\"overloaded\",\"message\":\"m\",\"retryable\":1}}";
        assert!(ServeError::from_json(bad).is_err());
    }

    #[test]
    fn registry_errors_map_to_kinds() {
        let unknown: ServeError = RegistryError::UnknownProblem {
            name: "nope".into(),
            known: vec!["sort".into()],
        }
        .into();
        assert_eq!(unknown.kind, ServeErrorKind::UnknownProblem);
        assert_eq!(unknown.http_status(), 404);
        let badwl: ServeError = RegistryError::BadWorkload {
            name: "sort".into(),
            message: "n must be positive".into(),
        }
        .into();
        assert_eq!(badwl.kind, ServeErrorKind::BadWorkload);
        assert_eq!(badwl.http_status(), 400);
    }

    #[test]
    fn response_round_trips() {
        let mut summary = OutputSummary::new();
        summary.answer_num("x", 2.5).metric_num("work", 10.0);
        let mut report = RunReport::new("demo");
        report.mode = ExecMode::Parallel;
        report.threads = 2;
        report.items = 5;
        report.record_round(5, 9);
        report.depth = 1;
        let resp = ServeResponse {
            problem: "demo".into(),
            workload: WorkloadSpec::new(5, 1),
            config: RunConfig::new().threads(2),
            summary,
            report,
        };
        let back = ServeResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back, resp);
        // The single `error` key distinguishes error bodies from
        // responses.
        assert!(ServeResponse::from_json(&ServeError::bad_request("x").to_json()).is_err());
    }
}
