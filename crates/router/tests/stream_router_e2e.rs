//! Streaming through the router, end to end: sticky routing by session
//! id, close-and-replay migration when a shard dies or drains with
//! sessions open, per-batch witnessing with bit-identical replay, and
//! retryable failure when no shard can take a session.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::{self, Value};
use ri_core::engine::session::BatchDelta;
use ri_core::engine::witness::{read_any_log, replay_stream, LogEntry, StreamBatchRecord};
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
        std::env::temp_dir().join(format!("ri-stream-e2e-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn open_body(n: usize, wseed: u64, session_id: &str) -> String {
    format!(
        "{{\"problem\":\"sort\",\"workload\":{{\"n\":{n},\"seed\":{wseed}}},\
         \"config\":{{\"seed\":5,\"mode\":\"parallel\"}},\"session_id\":\"{session_id}\"}}"
    )
}

fn parse(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("unparseable body `{body}`: {e}"))
}

/// Streams survive a shard kill: every session keeps answering (the ones
/// pinned to the dead shard migrate via close-and-replay), the delta
/// sequence matches a single-shard reference bit for bit, and the
/// witness log replays every batch — including the ones served across
/// the migration — in a fresh process.
#[test]
fn sticky_streams_survive_a_shard_kill_and_replay() {
    let b0 = start_backend();
    let b1 = start_backend();
    let witness = temp_witness("kill");
    let router = Router::start(
        RouterConfig {
            witness_path: Some(witness.clone()),
            health_interval_ms: 100,
            max_attempts: 2,
            ..RouterConfig::default()
        },
        vec![
            attach_spec("s0", b0.local_addr()),
            attach_spec("s1", b1.local_addr()),
        ],
    )
    .expect("router starts");

    const SESSIONS: usize = 8;
    let mut conn = ClientConn::new(router.local_addr(), Duration::from_secs(120));
    let mut homes = Vec::new();
    for i in 0..SESSIONS {
        let body = open_body(24, i as u64, &format!("sess-{i}"));
        let resp = conn
            .request("POST", "/stream", Some(&body))
            .expect("open transports");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let shard = resp.header("x-ri-shard").expect("shard header").to_string();
        homes.push(shard);
    }
    assert!(
        homes.iter().any(|s| s == "s0") && homes.iter().any(|s| s == "s1"),
        "the ring should spread {SESSIONS} sessions over both shards: {homes:?}"
    );

    // Batch 0 everywhere: sticky — each batch lands on its open shard.
    let mut deltas: Vec<Vec<BatchDelta>> = vec![Vec::new(); SESSIONS];
    for (i, home) in homes.iter().enumerate() {
        let resp = conn
            .request(
                "POST",
                &format!("/stream/sess-{i}/batch"),
                Some("{\"count\":8}"),
            )
            .expect("batch transports");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-ri-shard"), Some(home.as_str()), "sticky");
        deltas[i].push(BatchDelta::from_value(&parse(&resp.body)).unwrap());
    }

    // Kill s1 with its sessions open, then keep feeding every session.
    b1.shutdown();
    for round in 1..3 {
        for (i, delta_log) in deltas.iter_mut().enumerate() {
            let resp = conn
                .request(
                    "POST",
                    &format!("/stream/sess-{i}/batch"),
                    Some("{\"count\":8}"),
                )
                .expect("batch transports");
            assert_eq!(resp.status, 200, "session {i} round {round}: {}", resp.body);
            assert_eq!(
                resp.header("x-ri-shard"),
                Some("s0"),
                "everything lands on the survivor"
            );
            let delta = BatchDelta::from_value(&parse(&resp.body)).unwrap();
            assert_eq!(delta.batch, round, "the sequence continues unbroken");
            delta_log.push(delta);
        }
    }
    assert!(deltas.iter().all(|d| d.last().unwrap().complete));

    let health = parse(&conn.request("GET", "/healthz", None).expect("healthz").body);
    let sessions = health.get("sessions").expect("sessions in healthz");
    assert_eq!(
        sessions.get("open").and_then(Value::as_f64),
        Some(SESSIONS as f64)
    );
    let migrated = sessions.get("migrated").and_then(Value::as_f64).unwrap();
    let on_s1 = homes.iter().filter(|s| *s == "s1").count();
    assert_eq!(
        migrated, on_s1 as f64,
        "every s1 session migrated exactly once"
    );
    assert_eq!(
        sessions.get("stream_batches").and_then(Value::as_f64),
        Some((SESSIONS * 3) as f64),
        "migration re-feeds are not client-served batches"
    );

    // The migrated delta sequences equal a single-shard reference run.
    let reference = start_backend();
    let mut ref_conn = ClientConn::new(reference.local_addr(), Duration::from_secs(120));
    for (i, session_deltas) in deltas.iter().enumerate() {
        let body = open_body(24, i as u64, &format!("sess-{i}"));
        assert_eq!(
            ref_conn
                .request("POST", "/stream", Some(&body))
                .unwrap()
                .status,
            200
        );
        for want in session_deltas {
            let resp = ref_conn
                .request(
                    "POST",
                    &format!("/stream/sess-{i}/batch"),
                    Some("{\"count\":8}"),
                )
                .unwrap();
            let got = BatchDelta::from_value(&parse(&resp.body)).unwrap();
            assert_eq!(&got, want, "session {i} batch {} diverged", want.batch);
        }
    }
    reference.shutdown();

    // Close everything; the router drops its pins.
    for i in 0..SESSIONS {
        let resp = conn
            .request("DELETE", &format!("/stream/sess-{i}"), None)
            .expect("close transports");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let health = parse(&conn.request("GET", "/healthz", None).unwrap().body);
    assert_eq!(
        health
            .get("sessions")
            .and_then(|s| s.get("open"))
            .and_then(Value::as_f64),
        Some(0.0)
    );

    router.shutdown();
    b0.shutdown();

    // The witness gate: 3 records per session, contiguous, and the whole
    // streamed log replays bit-identically in this fresh process.
    let entries = read_any_log(&witness).expect("witness log loads");
    let mut by_session: Vec<(String, Vec<StreamBatchRecord>)> = Vec::new();
    for entry in entries {
        let LogEntry::Stream(record) = entry else {
            panic!("no /solve ran; the log should be all stream batches");
        };
        match by_session.iter_mut().find(|(id, _)| *id == record.session) {
            Some((_, records)) => records.push(record),
            None => by_session.push((record.session.clone(), vec![record])),
        }
    }
    assert_eq!(by_session.len(), SESSIONS);
    let reg = registry();
    for (id, records) in &by_session {
        assert_eq!(records.len(), 3, "{id}");
        replay_stream(&reg, records)
            .unwrap_or_else(|e| panic!("stream replay diverged for {id}: {e}"));
    }
    let _ = std::fs::remove_file(&witness);
}

/// Draining a shard migrates its open sessions before the shard
/// detaches: the next batch is served by a survivor with the sequence
/// intact, no client action needed.
#[test]
fn drain_migrates_open_sessions_before_detach() {
    let b0 = start_backend();
    let b1 = start_backend();
    let router = Router::start(
        RouterConfig {
            health_interval_ms: 100,
            ..RouterConfig::default()
        },
        vec![
            attach_spec("s0", b0.local_addr()),
            attach_spec("s1", b1.local_addr()),
        ],
    )
    .expect("router starts");

    // Probe ids until one session pins to s1 (the ring is deterministic,
    // so this is a fixed, small number of probes).
    let mut conn = ClientConn::new(router.local_addr(), Duration::from_secs(120));
    let mut on_s1 = None;
    for i in 0..32 {
        let id = format!("drain-{i}");
        let resp = conn
            .request("POST", "/stream", Some(&open_body(18, i, &id)))
            .expect("open transports");
        assert_eq!(resp.status, 200, "{}", resp.body);
        if resp.header("x-ri-shard") == Some("s1") {
            on_s1 = Some(id);
            break;
        }
        assert_eq!(
            conn.request("DELETE", &format!("/stream/{id}"), None)
                .unwrap()
                .status,
            200
        );
    }
    let id = on_s1.expect("some session id hashes to s1");
    let resp = conn
        .request(
            "POST",
            &format!("/stream/{id}/batch"),
            Some("{\"count\":6}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let resp = conn
        .request("POST", "/admin/drain", Some("{\"shard_id\":\"s1\"}"))
        .expect("drain request");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let t0 = Instant::now();
    loop {
        let health = parse(&conn.request("GET", "/healthz", None).unwrap().body);
        let state = health
            .get("shards")
            .and_then(Value::as_arr)
            .and_then(|shards| {
                shards
                    .iter()
                    .find(|s| s.get("shard_id").and_then(Value::as_str) == Some("s1"))
            })
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str)
            .map(str::to_string);
        if state.as_deref() == Some("detached") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "s1 stuck: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The session moved with the drain: batch 1 answers from s0.
    let resp = conn
        .request(
            "POST",
            &format!("/stream/{id}/batch"),
            Some("{\"count\":6}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-ri-shard"), Some("s0"));
    let delta = BatchDelta::from_value(&parse(&resp.body)).unwrap();
    assert_eq!(delta.batch, 1);

    let health = parse(&conn.request("GET", "/healthz", None).unwrap().body);
    assert!(
        health
            .get("sessions")
            .and_then(|s| s.get("migrated"))
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
    router.shutdown();
    b0.shutdown();
    b1.shutdown();
}

/// With a single shard there is nowhere to migrate: losing it turns
/// batches into retryable 503s (the client's recorded batches are safe
/// to re-drive elsewhere), while unknown sessions and bad methods keep
/// their structured 404/405 shapes.
#[test]
fn single_shard_loss_is_retryable_and_errors_are_structured() {
    let b0 = start_backend();
    let router = Router::start(
        RouterConfig {
            health_interval_ms: 100,
            ..RouterConfig::default()
        },
        vec![attach_spec("s0", b0.local_addr())],
    )
    .expect("router starts");

    let mut conn = ClientConn::new(router.local_addr(), Duration::from_secs(120));
    // No client id: the router assigns `rs-<seq>`.
    let resp = conn
        .request(
            "POST",
            "/stream",
            Some("{\"problem\":\"sort\",\"workload\":{\"n\":12,\"seed\":3}}"),
        )
        .expect("open transports");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let opened = parse(&resp.body);
    let id = opened.get("session").unwrap().as_str().unwrap().to_string();
    assert!(id.starts_with("rs-"), "router-assigned id, got `{id}`");

    // Structured edges while the shard is still alive.
    let info = conn.request("GET", &format!("/stream/{id}"), None).unwrap();
    assert_eq!(info.status, 200, "{}", info.body);
    assert_eq!(
        conn.request("GET", "/stream/absent", None).unwrap().status,
        404
    );
    assert_eq!(
        conn.request("PUT", &format!("/stream/{id}"), None)
            .unwrap()
            .status,
        405
    );
    let resp = conn
        .request(
            "POST",
            &format!("/stream/{id}/batch"),
            Some("{\"count\":4}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    b0.shutdown();
    let resp = conn
        .request(
            "POST",
            &format!("/stream/{id}/batch"),
            Some("{\"count\":4}"),
        )
        .expect("batch transports to the router");
    assert_eq!(resp.status, 503, "{}", resp.body);
    let err = parse(&resp.body);
    assert_eq!(
        err.get("error").unwrap().get("retryable"),
        Some(&Value::Bool(true)),
        "{}",
        resp.body
    );
    router.shutdown();
}

/// A shard that lost a session the router still pins (TTL eviction, a
/// restart) answers its next batch with 404. The router rebuilds the
/// session by close-and-replay and serves the batch instead of
/// forwarding the 404: the client sees the next batch index and the same
/// delta as an undisturbed session, and the witness log still replays.
#[test]
fn shard_side_eviction_is_rebuilt_and_served() {
    let b0 = start_backend();
    let witness = temp_witness("evicted");
    let router = Router::start(
        RouterConfig {
            witness_path: Some(witness.clone()),
            health_interval_ms: 100,
            ..RouterConfig::default()
        },
        vec![attach_spec("s0", b0.local_addr())],
    )
    .expect("router starts");
    let mut conn = ClientConn::new(router.local_addr(), Duration::from_secs(120));
    let migrated = |conn: &mut ClientConn| {
        parse(&conn.request("GET", "/healthz", None).expect("healthz").body)
            .get("sessions")
            .and_then(|s| s.get("migrated"))
            .and_then(Value::as_f64)
            .expect("sessions.migrated in healthz")
    };
    let batch = |conn: &mut ClientConn| {
        let resp = conn
            .request("POST", "/stream/evicted-0/batch", Some("{\"count\":8}"))
            .expect("batch transports");
        assert_eq!(resp.status, 200, "{}", resp.body);
        BatchDelta::from_value(&parse(&resp.body)).unwrap()
    };

    let body = open_body(24, 11, "evicted-0");
    let resp = conn
        .request("POST", "/stream", Some(&body))
        .expect("open transports");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let mut deltas = vec![batch(&mut conn)];
    let before = migrated(&mut conn);

    // Close the session on its shard, behind the router's back.
    let mut direct = ClientConn::new(b0.local_addr(), Duration::from_secs(120));
    let resp = direct
        .request("DELETE", "/stream/evicted-0", None)
        .expect("direct close transports");
    assert_eq!(resp.status, 200, "{}", resp.body);

    deltas.push(batch(&mut conn));
    assert_eq!(deltas[1].batch, 1, "the sequence continues unbroken");
    assert_eq!(migrated(&mut conn), before + 1.0, "exactly one rebuild");

    // An undisturbed single-shard session yields the same deltas.
    let reference = start_backend();
    let mut ref_conn = ClientConn::new(reference.local_addr(), Duration::from_secs(120));
    let resp = ref_conn.request("POST", "/stream", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    for want in &deltas {
        let resp = ref_conn
            .request("POST", "/stream/evicted-0/batch", Some("{\"count\":8}"))
            .unwrap();
        let got = BatchDelta::from_value(&parse(&resp.body)).unwrap();
        assert_eq!(&got, want, "batch {} diverged", want.batch);
    }
    reference.shutdown();
    router.shutdown();
    b0.shutdown();

    let records: Vec<StreamBatchRecord> = read_any_log(&witness)
        .expect("witness log loads")
        .into_iter()
        .filter_map(|entry| match entry {
            LogEntry::Stream(record) => Some(record),
            LogEntry::Solve(_) => None,
        })
        .collect();
    assert_eq!(records.len(), 2, "one record per client-served batch");
    replay_stream(&registry(), &records).expect("bit-identical replay after the rebuild");
    let _ = std::fs::remove_file(&witness);
}
