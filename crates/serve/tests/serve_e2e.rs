//! End-to-end serving tests: boot `ri-serve` on an ephemeral port
//! in-process and drive it over real TCP — golden answer round-trips per
//! registered problem, concurrent mixed-problem load, and structured
//! error envelopes for every malformed-input class.

use std::time::Duration;

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::{
    OutputSummary, RunConfig, ServeError, ServeErrorKind, ServeRequest, ServeResponse, WorkloadSpec,
};
use ri_serve::http;
use ri_serve::{ServeConfig, Server};

/// One shared width for every server in this test binary (each fixes it
/// through `Runner::pool`).
const POOL_WIDTH: usize = 2;

fn start_server(cfg_mut: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig {
        threads: POOL_WIDTH,
        executors: 3,
        ..ServeConfig::default()
    };
    cfg_mut(&mut cfg);
    Server::start(registry(), cfg).expect("server starts")
}

fn post_solve(server: &Server, body: &str) -> http::HttpResponse {
    http::request(
        server.local_addr(),
        "POST",
        "/solve",
        Some(body),
        Duration::from_secs(120),
    )
    .expect("transport round-trip")
}

/// The mode-invariant answer as a canonical JSON string.
fn fingerprint(summary: &OutputSummary) -> String {
    Value::Obj(summary.answer().to_vec()).write()
}

/// (a) Golden round-trip: for every registered problem, the answer served
/// over TCP equals a direct `solve_erased` call replaying the response's
/// own echoed workload + config.
#[test]
fn golden_round_trip_per_problem() {
    let server = start_server(|_| {});
    let reg = registry();
    for name in reg.names() {
        let mut request = ServeRequest::new(name);
        request.workload = WorkloadSpec::new(96, 3);
        request.config = RunConfig::new().seed(5).parallel();
        let resp = post_solve(&server, &request.to_json());
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        let served = ServeResponse::from_json(&resp.body)
            .unwrap_or_else(|e| panic!("{name}: unparseable response: {e}"));
        assert_eq!(served.problem, name);
        // The server clamps parallel solves to its shared pool width and
        // documents that in the config echo.
        assert_eq!(served.config.threads, Some(server.pool_width()));
        assert_eq!(served.report.threads, server.pool_width());

        // Replay the echoed request directly through the registry: the
        // served answer must match exactly.
        let (direct, _) = reg
            .solve(&served.problem, &served.workload, &served.config)
            .expect("direct replay");
        assert_eq!(
            fingerprint(&served.summary),
            fingerprint(&direct),
            "{name}: served answer diverges from direct replay"
        );
    }
    server.shutdown();
}

/// (b) 32 concurrent mixed-problem requests from client threads all
/// succeed, and every response's answer matches its sequential reference.
#[test]
fn concurrent_mixed_requests_match_sequential_references() {
    let server = start_server(|cfg| cfg.executors = 4);
    let reg = registry();
    let names = reg.names();

    // Sequential references, computed up front: the paper's executors
    // reproduce the sequential output exactly, so a parallel serve of the
    // same instance must answer identically.
    let references: Vec<String> = names
        .iter()
        .map(|name| {
            let (summary, _) = reg
                .solve(
                    name,
                    &WorkloadSpec::new(64, 9),
                    &RunConfig::new().seed(2).sequential(),
                )
                .expect("reference solve");
            fingerprint(&summary)
        })
        .collect();

    let outcomes: Vec<(usize, http::HttpResponse)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let server = &server;
                let names = &names;
                s.spawn(move || {
                    let which = i % names.len();
                    let mut request = ServeRequest::new(names[which]);
                    request.workload = WorkloadSpec::new(64, 9);
                    request.config = RunConfig::new().seed(2).parallel();
                    (which, post_solve(server, &request.to_json()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    assert_eq!(outcomes.len(), 32);
    for (which, resp) in outcomes {
        let name = names[which];
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        let served = ServeResponse::from_json(&resp.body).expect("parseable response");
        assert_eq!(
            fingerprint(&served.summary),
            references[which],
            "{name}: concurrent answer diverges from sequential reference"
        );
    }
    server.shutdown();
}

/// (c) Malformed JSON, unknown problems, bad workloads, wrong
/// methods/paths and oversized bodies all answer **structured JSON error
/// envelopes** with the right status — never connection drops.
#[test]
fn error_classes_answer_structured_envelopes() {
    let server = start_server(|cfg| cfg.max_body_bytes = 4096);

    let expect_error = |resp: http::HttpResponse, kind: ServeErrorKind, label: &str| {
        let err = ServeError::from_json(&resp.body).unwrap_or_else(|e| {
            panic!(
                "{label}: body is not an error envelope ({e}): {}",
                resp.body
            )
        });
        assert_eq!(err.kind, kind, "{label}: {}", resp.body);
        assert_eq!(resp.status, kind.http_status(), "{label}");
        assert!(!err.message.is_empty(), "{label}: empty message");
    };

    // Malformed JSON bodies.
    for body in ["", "not json at all", "{\"problem\":", "{\"problem\":7}"] {
        let resp = post_solve(&server, body);
        expect_error(resp, ServeErrorKind::BadRequest, "malformed body");
    }

    // Unknown problem name.
    let resp = post_solve(&server, "{\"problem\":\"nope\"}");
    expect_error(resp, ServeErrorKind::UnknownProblem, "unknown problem");

    // Constructor-rejected workload.
    let resp = post_solve(
        &server,
        "{\"problem\":\"delaunay\",\"workload\":{\"n\":64,\"shape\":\"bogus-shape\"}}",
    );
    expect_error(resp, ServeErrorKind::BadWorkload, "bad workload");

    // A size past the registry's ceiling is rejected before any
    // constructor allocates for it, so the server lives on to answer.
    let resp = post_solve(
        &server,
        "{\"problem\":\"sort\",\"workload\":{\"n\":1125899906842624}}",
    );
    expect_error(resp, ServeErrorKind::BadWorkload, "n past the ceiling");

    // Seeds that cannot round-trip through JSON.
    let resp = post_solve(
        &server,
        &format!(
            "{{\"problem\":\"sort\",\"workload\":{{\"seed\":{}}}}}",
            1u64 << 53
        ),
    );
    expect_error(resp, ServeErrorKind::BadRequest, "oversized seed");

    // Oversized body: rejected from the declared length — and promptly,
    // even when head and body arrive coalesced in one segment (the
    // server must not stall trying to re-read body bytes it already
    // buffered with the head).
    let t0 = std::time::Instant::now();
    let resp = post_solve(
        &server,
        &format!("{{\"problem\":\"sort\",\"pad\":\"{}\"}}", "x".repeat(8192)),
    );
    let elapsed = t0.elapsed();
    expect_error(resp, ServeErrorKind::BodyTooLarge, "oversized body");
    assert!(
        elapsed < Duration::from_secs(5),
        "413 took {elapsed:?} — the server must not block on already-buffered body bytes"
    );

    // Wrong method on a real path; unknown path.
    let addr = server.local_addr();
    let resp = http::request(addr, "GET", "/solve", None, Duration::from_secs(10)).unwrap();
    expect_error(resp, ServeErrorKind::MethodNotAllowed, "GET /solve");
    let resp = http::request(addr, "DELETE", "/healthz", None, Duration::from_secs(10)).unwrap();
    expect_error(resp, ServeErrorKind::MethodNotAllowed, "DELETE /healthz");
    let resp = http::request(addr, "GET", "/bogus", None, Duration::from_secs(10)).unwrap();
    expect_error(resp, ServeErrorKind::NotFound, "unknown path");

    // The `errored` counter must equal the error responses issued (12
    // above) — each failure counted exactly once, whether it failed at
    // parse, admission or solve stage.
    let health = http::request(addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
    let doc = ri_core::engine::json::parse(&health.body).expect("healthz JSON");
    assert_eq!(
        doc.get("errored").and_then(Value::as_usize),
        Some(12),
        "errored counter must count each failed request once: {}",
        health.body
    );

    server.shutdown();
}

/// The two read-only endpoints: `/problems` lists the whole registry,
/// `/healthz` reports ok with the serving counters.
#[test]
fn problems_and_healthz_report_the_registry_and_counters() {
    let server = start_server(|_| {});
    let addr = server.local_addr();

    let resp = http::request(addr, "GET", "/problems", None, Duration::from_secs(10)).unwrap();
    assert_eq!(resp.status, 200);
    let doc = ri_core::engine::json::parse(&resp.body).expect("problems JSON");
    let listed: Vec<String> = doc
        .get("problems")
        .and_then(Value::as_arr)
        .expect("problems array")
        .iter()
        .map(|p| p.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let expected: Vec<String> = registry().names().iter().map(|s| s.to_string()).collect();
    assert_eq!(listed, expected);

    let resp = http::request(addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
    assert_eq!(resp.status, 200);
    let doc = ri_core::engine::json::parse(&resp.body).expect("healthz JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    // The additive identity fields: shard_id (empty unless configured)
    // and the build version.
    assert_eq!(doc.get("shard_id").and_then(Value::as_str), Some(""));
    assert_eq!(
        doc.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(
        doc.get("pool_threads").and_then(Value::as_usize),
        Some(server.pool_width())
    );
    for key in [
        "queue_depth",
        "inflight",
        "served",
        "errored",
        "max_inflight",
    ] {
        assert!(
            doc.get(key).and_then(Value::as_usize).is_some(),
            "healthz missing numeric `{key}`: {}",
            resp.body
        );
    }
    server.shutdown();
}

/// Connections beyond `max_connections` are shed with a structured 503
/// straight from the acceptor — idle sockets cannot exhaust handler
/// threads.
#[test]
fn connection_cap_sheds_with_structured_503() {
    let server = start_server(|cfg| cfg.max_connections = 1);
    let addr = server.local_addr();

    // An idle connection that never sends a request holds the only
    // handler slot (its handler blocks in read).
    let idle = std::net::TcpStream::connect(addr).expect("idle connect");
    std::thread::sleep(Duration::from_millis(100));

    let resp = http::request(addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("rejected connection still gets a response");
    assert_eq!(resp.status, 503, "{}", resp.body);
    let err = ServeError::from_json(&resp.body).expect("structured 503");
    assert_eq!(err.kind, ServeErrorKind::Overloaded);

    // Releasing the slot restores service.
    drop(idle);
    std::thread::sleep(Duration::from_millis(100));
    let resp = http::request(addr, "GET", "/healthz", None, Duration::from_secs(5)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
}

/// Keep-alive: one TCP connection serves many requests, the configured
/// shard id shows in `/healthz`, and a 503 rejection carries
/// `Retry-After` plus `"retryable":true` in its envelope.
#[test]
fn keep_alive_shard_identity_and_retry_after() {
    let server = start_server(|cfg| cfg.shard_id = "shard-7".into());
    let mut conn = http::ClientConn::new(server.local_addr(), Duration::from_secs(120));

    // Several requests over the same connection: after the first, the
    // connection object must still be holding its socket.
    let mut request = ServeRequest::new("sort");
    request.workload = WorkloadSpec::new(64, 2);
    let body = request.to_json();
    for i in 0..3 {
        let resp = conn.request("POST", "/solve", Some(&body)).expect("solve");
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert!(resp.keep_alive(), "server advertises keep-alive");
        if i > 0 {
            assert!(
                conn.is_connected(),
                "the connection was reused, not reopened"
            );
        }
    }
    let health = conn.request("GET", "/healthz", None).expect("healthz");
    let doc = ri_core::engine::json::parse(&health.body).unwrap();
    assert_eq!(doc.get("shard_id").and_then(Value::as_str), Some("shard-7"));
    server.shutdown();

    // An admission gate of zero sheds every solve: the 503 must carry
    // Retry-After and a retryable envelope.
    let server = start_server(|cfg| cfg.max_inflight = 0);
    let resp = post_solve(&server, &body);
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let err = ServeError::from_json(&resp.body).expect("structured 503");
    assert_eq!(err.kind, ServeErrorKind::Overloaded);
    assert!(err.retryable, "overload rejections are marked retryable");
    server.shutdown();
}

/// Graceful shutdown answers everything admitted, then stops accepting.
#[test]
fn shutdown_is_graceful() {
    let server = start_server(|_| {});
    let addr = server.local_addr();
    let mut request = ServeRequest::new("sort");
    request.workload = WorkloadSpec::new(64, 1);
    let resp = post_solve(&server, &request.to_json());
    assert_eq!(resp.status, 200);
    server.shutdown();
    // The listener is gone: new connections are refused (or reset).
    assert!(http::request(addr, "GET", "/healthz", None, Duration::from_millis(500)).is_err());
}
