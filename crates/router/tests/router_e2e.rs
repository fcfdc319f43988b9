//! Router end-to-end tests: real TCP, in-process `ri-serve` backends
//! attached as shards, and the full determinism gate — every routed
//! answer must replay bit-identically from its witness record in a
//! fresh single process.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::{self, Value};
use ri_core::engine::witness::{read_log, replay};
use ri_core::engine::{RunConfig, ServeRequest, WorkloadSpec};
use ri_router::{BackendSpec, BackendTarget, Router, RouterConfig};
use ri_serve::http::ClientConn;
use ri_serve::{ServeConfig, Server};

const POOL_WIDTH: usize = 2;

fn start_backend() -> Server {
    let cfg = ServeConfig {
        threads: POOL_WIDTH,
        executors: 2,
        ..ServeConfig::default()
    };
    Server::start(registry(), cfg).expect("backend starts")
}

fn attach_spec(shard_id: &str, addr: SocketAddr) -> BackendSpec {
    BackendSpec {
        shard_id: shard_id.into(),
        target: BackendTarget::Attach(addr),
    }
}

fn temp_witness(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("ri-router-e2e-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn solve_body(problem: &str, n: usize, wseed: u64, cseed: u64) -> String {
    let mut request = ServeRequest::new(problem);
    request.workload = WorkloadSpec::new(n, wseed);
    request.config = RunConfig::new().seed(cseed).parallel();
    request.to_json()
}

fn router_conn(router: &Router) -> ClientConn {
    ClientConn::new(router.local_addr(), Duration::from_secs(120))
}

fn healthz(router: &Router) -> Value {
    let mut conn = router_conn(router);
    let resp = conn.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    json::parse(&resp.body).expect("healthz parses")
}

fn shard_field(health: &Value, shard_id: &str, field: &str) -> Value {
    health
        .get("shards")
        .and_then(Value::as_arr)
        .and_then(|shards| {
            shards
                .iter()
                .find(|s| s.get("shard_id").and_then(Value::as_str) == Some(shard_id))
        })
        .and_then(|s| s.get(field))
        .cloned()
        .unwrap_or_else(|| panic!("shard {shard_id} field {field} missing: {}", health.write()))
}

/// (a) Routing, shard attribution, caching and witnessing all work over
/// one keep-alive client connection, and every witness record replays.
#[test]
fn routes_caches_witnesses_and_replays() {
    let b0 = start_backend();
    let b1 = start_backend();
    let witness = temp_witness("routes");
    let router = Router::start(
        RouterConfig {
            witness_path: Some(witness.clone()),
            health_interval_ms: 100,
            ..RouterConfig::default()
        },
        vec![
            attach_spec("s0", b0.local_addr()),
            attach_spec("s1", b1.local_addr()),
        ],
    )
    .expect("router starts");

    let mut conn = router_conn(&router);
    let problems = ["sort", "closest-pair", "lp"];
    let mut first_bodies = Vec::new();
    for (i, problem) in problems.iter().enumerate() {
        let body = solve_body(problem, 64, i as u64, 7 + i as u64);
        let resp = conn
            .request("POST", "/solve", Some(&body))
            .expect("routed solve");
        assert_eq!(resp.status, 200, "{problem}: {}", resp.body);
        let shard = resp.header("x-ri-shard").expect("shard header").to_string();
        assert!(shard == "s0" || shard == "s1", "unexpected shard {shard}");
        assert_eq!(resp.header("x-ri-cache"), Some("miss"));
        assert!(resp.keep_alive(), "router honors keep-alive");
        first_bodies.push((body, resp.body));
    }

    // Same keys again: cache hits, byte-identical bodies, no new
    // backend work.
    let served_before: f64 = ["s0", "s1"]
        .iter()
        .map(|s| {
            shard_field(&healthz(&router), s, "served")
                .as_f64()
                .unwrap()
        })
        .sum();
    for (body, first) in &first_bodies {
        let resp = conn
            .request("POST", "/solve", Some(body))
            .expect("cached solve");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-ri-cache"), Some("hit"));
        assert_eq!(&resp.body, first, "cache returns the stored bytes");
    }
    let health = healthz(&router);
    let served_after: f64 = ["s0", "s1"]
        .iter()
        .map(|s| shard_field(&health, s, "served").as_f64().unwrap())
        .sum();
    assert_eq!(served_before, served_after, "cache hits reach no backend");
    assert_eq!(
        health
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_f64),
        Some(first_bodies.len() as f64)
    );
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    // The proxied /problems listing matches a shard-direct call shape.
    let listing = conn.request("GET", "/problems", None).expect("problems");
    assert_eq!(listing.status, 200);
    assert!(listing.body.contains("\"problems\""));

    router.shutdown();
    b0.shutdown();
    b1.shutdown();

    // The witness gate: one record per non-cached 200, each replaying
    // bit-identically (answer AND round trace) in this fresh process.
    let records = read_log(&witness).expect("witness log loads");
    assert_eq!(records.len(), first_bodies.len());
    let reg = registry();
    for record in &records {
        replay(&reg, record).unwrap_or_else(|e| {
            panic!(
                "witness replay diverged for {}: {e}",
                record.request.problem
            )
        });
    }
    let _ = std::fs::remove_file(&witness);
}

/// (b) The availability + determinism gate from the issue: two shards,
/// one killed mid-burst — zero failed client requests, and afterwards a
/// fresh single process replays every witnessed answer bit-identically.
#[test]
fn kill_shard_mid_burst_loses_nothing() {
    let b0 = start_backend();
    let b1 = start_backend();
    let witness = temp_witness("kill");
    let router = Router::start(
        RouterConfig {
            witness_path: Some(witness.clone()),
            health_interval_ms: 100,
            max_attempts: 2,
            cache_capacity: 0, // every request must really route
            ..RouterConfig::default()
        },
        vec![
            attach_spec("s0", b0.local_addr()),
            attach_spec("s1", b1.local_addr()),
        ],
    )
    .expect("router starts");

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 10;
    let ok = Arc::new(AtomicUsize::new(0));
    let addr = router.local_addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ok = Arc::clone(&ok);
            std::thread::spawn(move || {
                let mut conn = ClientConn::new(addr, Duration::from_secs(120));
                for i in 0..PER_CLIENT {
                    // Distinct seeds: no two requests share a witness key.
                    let body = solve_body("sort", 48, (c * PER_CLIENT + i) as u64, 1000 + c as u64);
                    let resp = conn
                        .request("POST", "/solve", Some(&body))
                        .expect("client request transports");
                    assert_eq!(resp.status, 200, "client {c} req {i}: {}", resp.body);
                    ok.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    // Kill one shard while the burst is in flight.
    std::thread::sleep(Duration::from_millis(30));
    b1.shutdown();

    for w in workers {
        w.join().expect("client thread");
    }
    assert_eq!(
        ok.load(Ordering::SeqCst),
        CLIENTS * PER_CLIENT,
        "zero failed client requests across the shard kill"
    );
    // The failover is visible: some requests were retried away from s1.
    let health = healthz(&router);
    let s0_served = shard_field(&health, "s0", "served").as_f64().unwrap();
    let s1_served = shard_field(&health, "s1", "served").as_f64().unwrap();
    assert_eq!(s0_served + s1_served, (CLIENTS * PER_CLIENT) as f64);
    assert!(s0_served > 0.0, "the surviving shard picked up the load");
    router.shutdown();
    b0.shutdown();

    // Replay the whole log in this (single, fresh) process: every answer
    // and trace must reproduce no matter which shard originally solved it.
    let records = read_log(&witness).expect("witness log loads");
    assert_eq!(records.len(), CLIENTS * PER_CLIENT);
    let reg = registry();
    for record in &records {
        replay(&reg, record)
            .unwrap_or_else(|e| panic!("replay diverged (shard {}): {e}", record.shard));
    }
    let _ = std::fs::remove_file(&witness);
}

/// (c) Drain: the shard stops receiving work, finishes what it has,
/// detaches (terminal), and the cluster keeps answering from the rest.
#[test]
fn drain_redirects_load_and_detaches_the_shard() {
    let b0 = start_backend();
    let b1 = start_backend();
    let router = Router::start(
        RouterConfig {
            health_interval_ms: 100,
            cache_capacity: 0,
            ..RouterConfig::default()
        },
        vec![
            attach_spec("s0", b0.local_addr()),
            attach_spec("s1", b1.local_addr()),
        ],
    )
    .expect("router starts");

    let mut conn = router_conn(&router);
    let resp = conn
        .request("POST", "/admin/drain", Some("{\"shard_id\":\"s1\"}"))
        .expect("drain request");
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The drain completes (no inflight work): s1 reaches `detached`.
    let t0 = Instant::now();
    loop {
        let state = shard_field(&healthz(&router), "s1", "state");
        if state.as_str() == Some("detached") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "s1 stuck in {}",
            state.write()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Everything now lands on s0, with zero failures.
    for i in 0..6 {
        let body = solve_body("scc", 40, i, 77);
        let resp = conn.request("POST", "/solve", Some(&body)).expect("solve");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-ri-shard"), Some("s0"));
    }
    // Draining an unknown shard is a structured 404; re-draining s1 is
    // reported, not re-run.
    let resp = conn
        .request("POST", "/admin/drain", Some("{\"shard_id\":\"nope\"}"))
        .expect("bad drain");
    assert_eq!(resp.status, 404);
    let resp = conn
        .request("POST", "/admin/drain", Some("{\"shard_id\":\"s1\"}"))
        .expect("re-drain");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"already_draining\":true"));

    router.shutdown();
    b0.shutdown();
    b1.shutdown();
}

/// (d) The router validates requests itself: malformed bodies are
/// rejected with the shared envelope shape without burning a backend
/// attempt, unknown paths 404, and an oversized upload written in full
/// gets its 413 envelope instead of a connection reset.
#[test]
fn router_rejects_malformed_requests_itself() {
    let b0 = start_backend();
    let router = Router::start(
        RouterConfig {
            health_interval_ms: 100,
            max_body_bytes: 4096,
            ..RouterConfig::default()
        },
        vec![attach_spec("s0", b0.local_addr())],
    )
    .expect("router starts");

    let mut conn = router_conn(&router);
    let resp = conn
        .request("POST", "/solve", Some("{not json"))
        .expect("bad body transports");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"error\""));
    assert!(resp.body.contains("\"retryable\":false"));

    let resp = conn.request("GET", "/nope", None).expect("404 path");
    assert_eq!(resp.status, 404);

    // 4 MB against a 4 KiB limit, within the 4 MiB drain bound: the
    // whole body is written and the 413 envelope is read back.
    let oversized = format!(
        "{{\"problem\":\"sort\",\"pad\":\"{}\"}}",
        "x".repeat(4_000_000)
    );
    let resp = conn
        .request("POST", "/solve", Some(&oversized))
        .expect("the 413 arrives instead of a reset");
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"body-too-large\""), "{}", resp.body);

    let health = healthz(&router);
    assert_eq!(shard_field(&health, "s0", "served").as_f64(), Some(0.0));
    assert_eq!(health.get("errored").and_then(Value::as_f64), Some(3.0));

    router.shutdown();
    b0.shutdown();
}
