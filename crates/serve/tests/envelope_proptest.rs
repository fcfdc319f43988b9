//! Property tests for the serving envelope: JSON round-trip identity for
//! arbitrary `WorkloadSpec`/`RunConfig` combinations, and parser
//! robustness (reject, never panic) on mutated and truncated bodies.

use proptest::prelude::*;
use ri_core::engine::envelope::{
    ServeError, ServeErrorKind, ServeRequest, ServeResponse, SEED_LIMIT,
};
use ri_core::engine::{ExecMode, OutputSummary, RunConfig, RunReport, WorkloadSpec};

const SHAPES: [&str; 6] = [
    "uniform-square",
    "near-circle",
    "tangent",
    "gnm-weighted",
    "dag",
    "a shape that needs \"escaping\"\n",
];

const PROBLEMS: [&str; 4] = ["sort", "delaunay", "lp-d", "not-a-problem"];

/// The three execution modes, indexed for proptest strategies: 0 =
/// parallel, 1 = sequential, 2 = `relaxed:k`.
fn mode_from(mode_idx: usize, k: usize) -> ExecMode {
    match mode_idx {
        0 => ExecMode::Parallel,
        1 => ExecMode::Sequential,
        _ => ExecMode::Relaxed { k },
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the strategy tuple 1:1
fn build_request(
    problem_idx: usize,
    n: usize,
    wseed: u64,
    shape: Option<usize>,
    param: Option<f64>,
    cseed: u64,
    mode: ExecMode,
    threads: usize,
    instrument: bool,
) -> ServeRequest {
    let mut workload = WorkloadSpec::new(n, wseed);
    workload.shape = shape.map(|i| SHAPES[i].to_string());
    workload.param = param;
    let mut config = RunConfig::new()
        .seed(cseed)
        .threads(threads)
        .instrument(instrument);
    config.mode = mode;
    ServeRequest {
        problem: PROBLEMS[problem_idx].to_string(),
        workload,
        config,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ServeRequest` JSON round-trip identity over the whole field
    /// space: every shape/param/mode/threads/instrument combination and
    /// the full representable seed range.
    #[test]
    fn request_round_trip_identity(
        problem_idx in 0usize..4,
        n in 0usize..2_000_000,
        wseed in 0u64..SEED_LIMIT,
        has_shape in any::<bool>(),
        shape_idx in 0usize..6,
        has_param in any::<bool>(),
        param in -1.0e6f64..1.0e6,
        cseed in 0u64..SEED_LIMIT,
        mode_idx in 0usize..3,
        k in 1usize..1_000_000,
        threads in 0usize..17,
        instrument in any::<bool>(),
    ) {
        let request = build_request(
            problem_idx,
            n,
            wseed,
            has_shape.then_some(shape_idx),
            has_param.then_some(param),
            cseed,
            mode_from(mode_idx, k),
            threads,
            instrument,
        );
        let text = request.to_json();
        let back = ServeRequest::from_json(&text).expect("own output parses");
        prop_assert_eq!(back, request);
    }

    /// `ServeResponse` JSON round-trip identity: summary answer/metric
    /// fields and a populated report all survive the wire.
    #[test]
    fn response_round_trip_identity(
        n in 0usize..100_000,
        wseed in 0u64..SEED_LIMIT,
        answers in proptest::collection::vec(-1.0e9f64..1.0e9, 0..4),
        metrics in proptest::collection::vec(0.0f64..1.0e9, 0..4),
        rounds in proptest::collection::vec((0usize..10_000, 0u64..1_000_000), 0..6),
        mode_idx in 0usize..3,
        k in 1usize..1_000_000,
        threads in 1usize..9,
        depth in 0usize..1_000,
        checks in 0u64..1_000_000,
        wall in 0.0f64..100.0,
        has_fallback in any::<bool>(),
    ) {
        let mut summary = OutputSummary::new();
        for (i, x) in answers.iter().enumerate() {
            summary.answer_num(&format!("a{i}"), *x);
        }
        summary.answer_bool("ok", true).answer_str("note", "x\"y\"\nz");
        for (i, x) in metrics.iter().enumerate() {
            summary.metric_num(&format!("m{i}"), *x);
        }

        let mode = mode_from(mode_idx, k);
        let mut report = RunReport::new("prop");
        report.mode = mode;
        report.threads = threads;
        report.items = n;
        for &(items, work) in &rounds {
            report.record_round(items, work);
        }
        report.depth = depth;
        report.checks = checks;
        report.wall_seconds = wall;
        report.relaxed_fallback = has_fallback.then(|| "ran exact \"parallel\"\n".to_string());

        let mut config = RunConfig::new().threads(threads);
        config.mode = mode;
        let response = ServeResponse {
            problem: "prop".into(),
            workload: WorkloadSpec::new(n, wseed),
            config,
            summary,
            report,
        };
        let back = ServeResponse::from_json(&response.to_json()).expect("own output parses");
        prop_assert_eq!(back, response);
    }

    /// `ServeError` round-trips for every kind with arbitrary (including
    /// control-character) messages, and the `retryable` field survives
    /// whether left at the kind's default or explicitly overridden
    /// either way.
    #[test]
    fn error_round_trip_identity(
        kind_idx in 0usize..9,
        raw in proptest::collection::vec(0u8..128, 0..40),
        override_retryable in any::<bool>(),
        retryable in any::<bool>(),
    ) {
        let message: String = raw.iter().map(|&b| b as char).collect();
        let mut err = ServeError::new(ServeErrorKind::ALL[kind_idx], message);
        if override_retryable {
            err = err.retryable(retryable);
        }
        let back = ServeError::from_json(&err.to_json()).expect("own output parses");
        prop_assert_eq!(back.retryable, err.retryable);
        prop_assert_eq!(back, err);
    }

    /// Bodies written before the `retryable` field existed (no such key)
    /// still parse, defaulting by kind — the additivity contract.
    #[test]
    fn legacy_error_bodies_default_retryable_by_kind(kind_idx in 0usize..9) {
        let kind = ServeErrorKind::ALL[kind_idx];
        let legacy = format!(
            "{{\"error\":{{\"kind\":\"{}\",\"message\":\"m\"}}}}",
            kind.as_str()
        );
        let parsed = ServeError::from_json(&legacy).expect("legacy body parses");
        prop_assert_eq!(parsed.retryable, kind.default_retryable());
    }

    /// Parser robustness: arbitrary character-level mutations of valid
    /// request bodies parse to `Ok` or `Err` — never a panic. (The
    /// vendored proptest has no shrinking, so failures print the mutated
    /// body via the panic message.)
    #[test]
    fn mutated_request_bodies_never_panic(
        problem_idx in 0usize..4,
        n in 0usize..10_000,
        wseed in 0u64..SEED_LIMIT,
        op in 0usize..3,
        pos in 0usize..4096,
        replacement in 0u8..128,
        mode_idx in 0usize..3,
    ) {
        let base = build_request(
            problem_idx, n, wseed, Some(0), Some(1.5), 0, mode_from(mode_idx, 8), 4, true,
        )
        .to_json();
        let chars: Vec<char> = base.chars().collect();
        let mutated: String = match op {
            // Truncate at an arbitrary char boundary.
            0 => chars[..pos % (chars.len() + 1)].iter().collect(),
            // Replace one char.
            1 => {
                let mut c = chars.clone();
                let at = pos % c.len();
                c[at] = replacement as char;
                c.into_iter().collect()
            }
            // Insert one char.
            _ => {
                let mut c = chars.clone();
                c.insert(pos % (c.len() + 1), replacement as char);
                c.into_iter().collect()
            }
        };
        // Must return, not panic; the result itself may be Ok or Err.
        let _ = ServeRequest::from_json(&mutated);
        let _ = ServeResponse::from_json(&mutated);
        let _ = ServeError::from_json(&mutated);
    }
}

/// Every strict prefix of a canonical request body is rejected cleanly
/// (deterministic truncation sweep — the classic torn-write case).
#[test]
fn truncated_bodies_reject_cleanly() {
    let mut request = ServeRequest::new("delaunay");
    request.workload = WorkloadSpec::new(777, 3).shape("uniform-disk").param(2.0);
    request.config = RunConfig::new().seed(11).threads(4);
    let body = request.to_json();
    for end in 0..body.len() {
        if !body.is_char_boundary(end) {
            continue;
        }
        assert!(
            ServeRequest::from_json(&body[..end]).is_err(),
            "prefix of {end} bytes unexpectedly parsed"
        );
    }
    // The whole body parses.
    assert_eq!(ServeRequest::from_json(&body).unwrap(), request);
}
