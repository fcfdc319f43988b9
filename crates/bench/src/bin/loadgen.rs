//! `loadgen` — the serving-layer load generator: fire N concurrent
//! `/solve` requests at an `ri-serve` instance (or, with `--router`, an
//! `ri-router` fronted fleet) and record latency percentiles to
//! `BENCH_PR4.json` / `BENCH_PR6.json`. The CI performance artifact:
//! runs briefly against an in-process target and fails on any non-2xx
//! response or unparseable body.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency C] [--n SIZE]
//!         [--problems a,b,c] [--mix benign|hostile] [--threads K]
//!         [--executors E] [--out PATH]
//!         [--router] [--shards S] [--witness PATH]
//!         [--stream] [--sessions S] [--rps R] [--batches B]
//!         [--batch-count C] [--gate-p99 MS] [--chaos PROFILE]
//! ```
//!
//! `--mix` draws each request's workload shape from the `ri-testgen`
//! vocabulary instead of every problem's default: `benign` cycles the
//! benign families, `hostile` the adversarial ones (degenerate
//! geometry, hostile arrival orders, deep digraphs) — the serving tier
//! under the workloads the tail gates sweep. In `--stream` mode the
//! session capacity is read back from the open response, so shapes
//! that deduplicate their instance (`duplicate-heavy`) still stream to
//! completion.
//!
//! Without `--addr`, an in-process server is booted on an ephemeral port
//! (sized by `--threads`/`--executors`) and shut down gracefully at the
//! end — the one-command CI path. With `--addr`, an already-running
//! server is targeted and `--threads`/`--executors` are ignored.
//!
//! With `--router`, the in-process target is a full front tier:
//! `--shards` backends plus a router, each request carrying a distinct
//! workload seed (so every request really routes — nothing collapses
//! into the result cache), and clients reuse keep-alive connections.
//! The output gains a `router` section: per-shard request counts, retry
//! counts, and cache statistics straight from the router's `/healthz`.
//! `--witness PATH` additionally captures the run's witness log,
//! replayable with `ri witness replay PATH`.
//!
//! In plain mode requests round-robin over the problem list (default:
//! every registered problem), all with workload size `--n`, one
//! connection per request — concurrency C exercises C simultaneous
//! solves end to end: admission, queueing, the server's width, response
//! serialization.
//!
//! With `--stream`, the generator drives the streaming session protocol
//! instead: `--sessions` concurrent sessions (one keep-alive connection
//! each, capacity `--batches × --batch-count`), with batch sends paced
//! **open-loop** across the sessions at a global `--rps` target — each
//! batch has a wall-clock deadline `t0 + i/rps` fixed up front, and the
//! generator reports both per-batch latency percentiles and *lateness*
//! (how far behind schedule each send fired, the open-loop backpressure
//! signal a closed loop would hide). Results land in `BENCH_PR7.json`;
//! `--gate-p99 MS` makes the run fail when the p99 batch latency
//! exceeds the budget — the CI regression gate for the streaming path.
//! `--stream` composes with `--router` (sticky sessions over the fleet)
//! and `--witness` (the streamed log replays with `ri witness replay`).
//!
//! `--chaos PROFILE` runs the burst as a chaos soak: a deterministic
//! [`FaultPlan`] is installed on every target shard via
//! `POST /admin/chaos` before the burst (profiles `latency`, `stall`,
//! `drop`, `error`, `crash`, `mixed`, or a raw `seed=...` spec), the
//! client honors `Retry-After`/`X-RI-Retry-After-Ms` hints on retryable
//! errors (and re-sends idempotent solves on transport failures — a
//! dropped response never loses a request), and results default to
//! `BENCH_PR10.json` with retry/breaker/deadline counters folded in.
//! Under `--router` the fleet's circuit breakers, backoff, and deadline
//! propagation absorb the injected faults; the soak fails on any
//! unrecovered request.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::faults::FaultPlan;
use ri_core::engine::json::{self, Value};
use ri_core::engine::{ServeRequest, ServeResponse, WorkloadSpec};
use ri_router::{BackendSpec, BackendTarget, Router, RouterConfig};
use ri_serve::{http, ServeConfig, Server};

struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    n: usize,
    problems: Option<Vec<String>>,
    mix: Option<String>,
    threads: usize,
    executors: usize,
    out: Option<String>,
    router: bool,
    shards: usize,
    witness: Option<String>,
    stream: bool,
    sessions: usize,
    rps: f64,
    batches: usize,
    batch_count: usize,
    gate_p99: Option<f64>,
    chaos: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        requests: 64,
        concurrency: 8,
        n: 512,
        problems: None,
        mix: None,
        threads: 0,
        executors: 2,
        out: None,
        router: false,
        shards: 2,
        witness: None,
        stream: false,
        sessions: 4,
        rps: 40.0,
        batches: 6,
        batch_count: 32,
        gate_p99: None,
        chaos: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("bad --concurrency: {e}"))?
            }
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?,
            "--problems" => {
                args.problems = Some(
                    value("--problems")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--mix" => args.mix = Some(value("--mix")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--executors" => {
                args.executors = value("--executors")?
                    .parse()
                    .map_err(|e| format!("bad --executors: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--router" => args.router = true,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?
            }
            "--witness" => args.witness = Some(value("--witness")?),
            "--stream" => args.stream = true,
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("bad --sessions: {e}"))?
            }
            "--rps" => {
                args.rps = value("--rps")?
                    .parse()
                    .map_err(|e| format!("bad --rps: {e}"))?
            }
            "--batches" => {
                args.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("bad --batches: {e}"))?
            }
            "--batch-count" => {
                args.batch_count = value("--batch-count")?
                    .parse()
                    .map_err(|e| format!("bad --batch-count: {e}"))?
            }
            "--gate-p99" => {
                args.gate_p99 = Some(
                    value("--gate-p99")?
                        .parse()
                        .map_err(|e| format!("bad --gate-p99: {e}"))?,
                )
            }
            "--chaos" => args.chaos = Some(value("--chaos")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.requests == 0 || args.concurrency == 0 || args.executors == 0 {
        return Err("--requests, --concurrency and --executors must be positive".into());
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if args.stream
        && (args.sessions == 0 || args.batches == 0 || args.batch_count == 0 || !positive(args.rps))
    {
        return Err("--sessions, --batches, --batch-count and --rps must be positive".into());
    }
    if args.gate_p99.is_some_and(|g| !positive(g)) {
        return Err("--gate-p99 must be a positive millisecond budget".into());
    }
    if args.router && args.addr.is_some() {
        return Err("--router boots its own in-process fleet; drop --addr".into());
    }
    if args.router && args.shards == 0 {
        return Err("--shards must be positive".into());
    }
    if let Some(mix) = &args.mix {
        if mix != "benign" && mix != "hostile" {
            return Err(format!("--mix must be `benign` or `hostile`, got `{mix}`"));
        }
    }
    if let Some(profile) = &args.chaos {
        chaos_spec(profile)?; // validate up front, before booting anything
    }
    Ok(args)
}

/// Resolve a `--chaos` profile name to a deterministic [`FaultPlan`]
/// spec (a raw `seed=...` spec is validated and passed through). Each
/// named profile pins its own seed so a profile names one reproducible
/// fault schedule, not a family of them.
fn chaos_spec(profile: &str) -> Result<String, String> {
    let spec = if profile.contains('=') {
        profile.to_string()
    } else {
        match profile {
            "latency" => "seed=42,latency=0.3:40".to_string(),
            "stall" => "seed=42,stall=0.15:120".to_string(),
            "drop" => "seed=42,drop=0.15".to_string(),
            "error" | "503" => "seed=42,error=0.25".to_string(),
            "crash" => "seed=42,crash-after=200".to_string(),
            "mixed" => "seed=42,latency=0.15:30,drop=0.08,error=0.12".to_string(),
            other => {
                return Err(format!(
                    "unknown --chaos profile `{other}` (latency|stall|drop|error|crash|mixed \
                     or a raw seed=... spec)"
                ))
            }
        }
    };
    match FaultPlan::parse(&spec) {
        Ok(Some(_)) => Ok(spec),
        Ok(None) => Err("--chaos spec resolves to no faults".into()),
        Err(e) => Err(format!("bad --chaos spec `{spec}`: {e}")),
    }
}

/// Install the chaos plan on every target shard via `POST /admin/chaos`
/// (the shards inject the faults; the router in between is what the
/// soak exercises).
fn install_chaos(addrs: &[SocketAddr], spec: &str) {
    let body = Value::Obj(vec![("spec".into(), Value::Str(spec.into()))]).write();
    for &addr in addrs {
        match http::request(
            addr,
            "POST",
            "/admin/chaos",
            Some(&body),
            Duration::from_secs(10),
        ) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => fail(format!(
                "installing chaos on {addr}: status {}: {}",
                resp.status, resp.body
            )),
            Err(e) => fail(format!("installing chaos on {addr}: {e}")),
        }
    }
    eprintln!(
        "loadgen: chaos plan `{spec}` installed on {} shard(s)",
        addrs.len()
    );
}

/// Cap on any single client-side Retry-After sleep, so a pathological
/// hint cannot wedge the generator.
const MAX_CLIENT_RETRY_SLEEP_MS: u64 = 2_000;

/// Re-sends per request before a chaos soak gives up on it. High enough
/// that the heaviest profile (`error=0.25` straight at one shard) fails
/// a request with probability ~`0.25^9`.
const CLIENT_MAX_RETRIES: usize = 8;

/// Send via `send`, honoring `Retry-After` on retryable error envelopes
/// with up to `max_retries` re-sends. With `retry_transport` (idempotent
/// requests under chaos: a dropped response must not lose the request),
/// transport errors are also retried after a short fixed pause. Every
/// re-send is counted into `retries`.
fn with_retry_after(
    mut send: impl FnMut() -> std::io::Result<http::HttpResponse>,
    retry_transport: bool,
    max_retries: usize,
    retries: &AtomicUsize,
) -> std::io::Result<http::HttpResponse> {
    let mut taken = 0usize;
    loop {
        let outcome = send();
        let pause_ms = match &outcome {
            Ok(resp) if resp.status != 200 && resp.retryable() => Some(
                resp.retry_hint_ms()
                    .unwrap_or(50)
                    .min(MAX_CLIENT_RETRY_SLEEP_MS),
            ),
            Err(_) if retry_transport => Some(25),
            _ => None,
        };
        match pause_ms {
            Some(ms) if taken < max_retries => {
                std::thread::sleep(Duration::from_millis(ms));
                taken += 1;
                retries.fetch_add(1, Ordering::Relaxed);
            }
            _ => return outcome,
        }
    }
}

/// The shape cycle `--mix` draws from for `problem`: the testgen
/// vocabulary's benign or hostile families. Empty (→ default shape)
/// when no mix is requested or the problem has no vocabulary entry.
fn mix_shapes(mix: Option<&str>, problem: &str) -> &'static [&'static str] {
    match (mix, ri_testgen::vocabulary(problem)) {
        (Some("benign"), Some(v)) => v.benign,
        (Some("hostile"), Some(v)) => v.hostile,
        _ => &[],
    }
}

/// One completed request's record.
struct Sample {
    problem: String,
    latency: Duration,
    ok: bool,
    detail: Option<String>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}

/// The router's cluster view, folded into the output document.
fn router_stats_value(router: &Router) -> Value {
    let resp = http::request(
        router.local_addr(),
        "GET",
        "/healthz",
        None,
        Duration::from_secs(10),
    )
    .unwrap_or_else(|e| fail(format!("router healthz: {e}")));
    let health = json::parse(&resp.body)
        .unwrap_or_else(|e| fail(format!("unparseable router healthz: {e}")));
    let pick = |key: &str| health.get(key).cloned().unwrap_or(Value::Null);
    Value::Obj(vec![
        ("shards".into(), pick("shards")),
        ("retries".into(), pick("retries")),
        ("routed".into(), pick("routed")),
        ("errored".into(), pick("errored")),
        ("robustness".into(), pick("robustness")),
        ("sessions".into(), pick("sessions")),
        ("cache".into(), pick("cache")),
        ("witness".into(), pick("witness")),
    ])
}

/// One streamed batch's record.
struct StreamSample {
    latency_ms: f64,
    /// How far behind its open-loop deadline the send fired.
    lateness_ms: f64,
    ok: bool,
    detail: Option<String>,
}

/// Drive `--sessions` streaming sessions at a global open-loop `--rps`
/// batch target: every batch's send deadline is fixed up front as
/// `t0 + i/rps` (batches interleave round-robin across sessions), so a
/// slow server shows up as *lateness* rather than silently stretching
/// the schedule. Returns the result document (sans the `router`/`gate`
/// sections), the failure count, and the observed p99 batch latency.
fn run_stream(args: &Args, addr: SocketAddr, problem: &str) -> (Value, usize, f64) {
    let capacity = args.batches * args.batch_count;
    let interval = Duration::from_secs_f64(1.0 / args.rps);
    let client_retries = AtomicUsize::new(0);
    // The schedule starts shortly after every session thread has opened.
    let t0 = Instant::now() + Duration::from_millis(50);
    let results: Vec<(Vec<StreamSample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|s| {
                let client_retries = &client_retries;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut lifecycle = Vec::new();
                    let mut conn = http::ClientConn::new(addr, Duration::from_secs(120));
                    let mut req = ServeRequest::new(problem.to_string());
                    req.workload = WorkloadSpec::new(capacity, s as u64);
                    let shapes = mix_shapes(args.mix.as_deref(), problem);
                    if !shapes.is_empty() {
                        req.workload = req.workload.shape(shapes[s % shapes.len()]);
                    }
                    req.config.seed = 7;
                    let open_body = req.to_json();
                    // Session opens and batches retry only on *retryable*
                    // error envelopes (never blind transport re-sends: a
                    // duplicate open leaks a session, a duplicate batch
                    // corrupts the sequence).
                    let opened = match with_retry_after(
                        || conn.request("POST", "/stream", Some(&open_body)),
                        false,
                        CLIENT_MAX_RETRIES,
                        client_retries,
                    ) {
                        Ok(resp) if resp.status == 200 => {
                            json::parse(&resp.body).ok().and_then(|v| {
                                let id = v
                                    .get("session")
                                    .and_then(Value::as_str)
                                    .map(str::to_string)?;
                                // Shapes that deduplicate their instance
                                // open below the requested capacity; the
                                // schedule follows the server's number.
                                let cap = v
                                    .get("capacity")
                                    .and_then(Value::as_usize)
                                    .unwrap_or(capacity);
                                Some((id, cap))
                            })
                        }
                        Ok(resp) => {
                            lifecycle.push(format!(
                                "session {s}: open status {}: {}",
                                resp.status, resp.body
                            ));
                            None
                        }
                        Err(e) => {
                            lifecycle.push(format!("session {s}: open transport: {e}"));
                            None
                        }
                    };
                    let Some((id, cap)) = opened else {
                        return (samples, lifecycle);
                    };
                    // Spread the actual capacity evenly over the batch
                    // schedule; with the default capacity this is exactly
                    // `--batch-count` per batch.
                    let sizes: Vec<usize> = (0..args.batches)
                        .map(|j| cap / args.batches + usize::from(j < cap % args.batches))
                        .filter(|&c| c > 0)
                        .collect();
                    let path = format!("/stream/{id}/batch");
                    for (j, count) in sizes.into_iter().enumerate() {
                        let body = format!("{{\"count\":{count}}}");
                        let scheduled = t0 + interval.mul_f64((j * args.sessions + s) as f64);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let send = Instant::now();
                        let lateness_ms =
                            send.saturating_duration_since(scheduled).as_secs_f64() * 1000.0;
                        let outcome = with_retry_after(
                            || conn.request("POST", &path, Some(&body)),
                            false,
                            CLIENT_MAX_RETRIES,
                            client_retries,
                        );
                        let latency_ms = send.elapsed().as_secs_f64() * 1000.0;
                        let (ok, detail) = match outcome {
                            Ok(resp) if resp.status == 200 => match json::parse(&resp.body) {
                                Ok(v) if v.get("batch").and_then(Value::as_usize) == Some(j) => {
                                    (true, None)
                                }
                                Ok(_) => (
                                    false,
                                    Some(format!(
                                        "session {id} batch {j}: out-of-sequence delta: {}",
                                        resp.body
                                    )),
                                ),
                                Err(e) => (
                                    false,
                                    Some(format!("session {id} batch {j}: unparseable delta: {e}")),
                                ),
                            },
                            Ok(resp) => (
                                false,
                                Some(format!(
                                    "session {id} batch {j}: status {}: {}",
                                    resp.status, resp.body
                                )),
                            ),
                            Err(e) => (
                                false,
                                Some(format!("session {id} batch {j}: transport: {e}")),
                            ),
                        };
                        samples.push(StreamSample {
                            latency_ms,
                            lateness_ms,
                            ok,
                            detail,
                        });
                    }
                    match conn.request("DELETE", &format!("/stream/{id}"), None) {
                        Ok(resp) if resp.status == 200 => {}
                        Ok(resp) => lifecycle.push(format!(
                            "session {id}: close status {}: {}",
                            resp.status, resp.body
                        )),
                        Err(e) => lifecycle.push(format!("session {id}: close transport: {e}")),
                    }
                    (samples, lifecycle)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let wall = (Instant::now() - t0).as_secs_f64().max(1e-9);

    let mut samples = Vec::new();
    let mut lifecycle_failures = Vec::new();
    for (s, l) in results {
        samples.extend(s);
        lifecycle_failures.extend(l);
    }
    let batch_failures = samples.iter().filter(|s| !s.ok).count();
    for s in samples.iter().filter(|s| !s.ok) {
        eprintln!(
            "loadgen: FAILED {}",
            s.detail.as_deref().unwrap_or("unknown")
        );
    }
    for msg in &lifecycle_failures {
        eprintln!("loadgen: FAILED {msg}");
    }
    let failed = batch_failures + lifecycle_failures.len();

    let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let mut late: Vec<f64> = samples.iter().map(|s| s.lateness_ms).collect();
    late.sort_by(|a, b| a.total_cmp(b));
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let p99 = percentile(&lat, 0.99);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = Value::Obj(vec![
        (
            "machine".into(),
            Value::Obj(vec![("cores".into(), Value::Num(cores as f64))]),
        ),
        (
            "config".into(),
            Value::Obj(vec![
                ("stream".into(), Value::Bool(true)),
                ("problem".into(), Value::Str(problem.into())),
                (
                    "mix".into(),
                    args.mix
                        .as_deref()
                        .map(|m| Value::Str(m.into()))
                        .unwrap_or(Value::Null),
                ),
                ("sessions".into(), Value::Num(args.sessions as f64)),
                ("rps".into(), Value::Num(args.rps)),
                ("batches".into(), Value::Num(args.batches as f64)),
                ("batch_count".into(), Value::Num(args.batch_count as f64)),
                ("capacity".into(), Value::Num(capacity as f64)),
                ("executors".into(), Value::Num(args.executors as f64)),
                ("in_process_server".into(), Value::Bool(args.addr.is_none())),
                ("router".into(), Value::Bool(args.router)),
                (
                    "shards".into(),
                    if args.router {
                        Value::Num(args.shards as f64)
                    } else {
                        Value::Null
                    },
                ),
            ]),
        ),
        (
            "totals".into(),
            Value::Obj(vec![
                ("batches".into(), Value::Num(samples.len() as f64)),
                (
                    "ok".into(),
                    Value::Num((samples.len() - batch_failures) as f64),
                ),
                ("failed".into(), Value::Num(failed as f64)),
                (
                    "client_retries".into(),
                    Value::Num(client_retries.load(Ordering::Relaxed) as f64),
                ),
                ("wall_seconds".into(), Value::Num(round3(wall))),
                (
                    "achieved_rps".into(),
                    Value::Num(round3(samples.len() as f64 / wall)),
                ),
            ]),
        ),
        (
            "latency_ms".into(),
            Value::Obj(vec![
                ("mean".into(), Value::Num(round3(mean))),
                ("p50".into(), Value::Num(round3(percentile(&lat, 0.50)))),
                ("p90".into(), Value::Num(round3(percentile(&lat, 0.90)))),
                ("p99".into(), Value::Num(round3(p99))),
                (
                    "max".into(),
                    Value::Num(round3(lat.last().copied().unwrap_or(0.0))),
                ),
            ]),
        ),
        (
            "lateness_ms".into(),
            Value::Obj(vec![
                ("p50".into(), Value::Num(round3(percentile(&late, 0.50)))),
                ("p99".into(), Value::Num(round3(percentile(&late, 0.99)))),
                (
                    "max".into(),
                    Value::Num(round3(late.last().copied().unwrap_or(0.0))),
                ),
            ]),
        ),
    ]);
    (doc, failed, p99)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(e));
    let out = args.out.clone().unwrap_or_else(|| {
        if args.chaos.is_some() {
            "BENCH_PR10.json".to_string()
        } else if args.stream {
            "BENCH_PR7.json".to_string()
        } else if args.router {
            "BENCH_PR6.json".to_string()
        } else {
            "BENCH_PR4.json".to_string()
        }
    });

    // Target: an external server, an in-process one, or (--router) an
    // in-process fleet of shards behind a router — all shut down
    // gracefully after the run.
    let mut in_process: Option<Server> = None;
    let mut fleet: Option<(Router, Vec<Server>)> = None;
    let addr: SocketAddr = if args.router {
        let backends: Vec<Server> = (0..args.shards)
            .map(|i| {
                Server::start(
                    registry(),
                    ServeConfig {
                        threads: args.threads,
                        executors: args.executors,
                        shard_id: format!("s{i}"),
                        ..ServeConfig::default()
                    },
                )
                .unwrap_or_else(|e| fail(format!("starting shard {i}: {e}")))
            })
            .collect();
        let specs = backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendSpec {
                shard_id: format!("s{i}"),
                target: BackendTarget::Attach(b.local_addr()),
            })
            .collect();
        let router = Router::start(
            RouterConfig {
                witness_path: args.witness.clone().map(Into::into),
                health_interval_ms: 200,
                ..RouterConfig::default()
            },
            specs,
        )
        .unwrap_or_else(|e| fail(format!("starting router: {e}")));
        let addr = router.local_addr();
        eprintln!(
            "loadgen: in-process router on {addr} fronting {} shards",
            args.shards
        );
        fleet = Some((router, backends));
        addr
    } else {
        match &args.addr {
            // Resolve through ToSocketAddrs so hostnames (`localhost:8077`)
            // work exactly as they do for `ri-serve --addr`.
            Some(addr) => std::net::ToSocketAddrs::to_socket_addrs(addr.as_str())
                .unwrap_or_else(|e| fail(format!("bad --addr: {e}")))
                .next()
                .unwrap_or_else(|| fail(format!("--addr `{addr}` resolved to nothing"))),
            None => {
                let server = Server::start(
                    registry(),
                    ServeConfig {
                        threads: args.threads,
                        executors: args.executors,
                        ..ServeConfig::default()
                    },
                )
                .unwrap_or_else(|e| fail(format!("starting in-process server: {e}")));
                let addr = server.local_addr();
                eprintln!(
                    "loadgen: in-process server on {addr} (pool width {}, {} executors)",
                    server.pool_width(),
                    args.executors
                );
                in_process = Some(server);
                addr
            }
        }
    };

    // Chaos soak: install the fault plan on every shard before the
    // burst. In `--router` mode the faults land behind the front tier
    // (the breakers/backoff/deadlines under test); otherwise they land
    // on the single target server and the *client's* Retry-After
    // handling is what recovers.
    let chaos = args
        .chaos
        .as_deref()
        .map(|p| chaos_spec(p).unwrap_or_else(|e| fail(e)));
    if let Some(spec) = &chaos {
        let targets: Vec<SocketAddr> = match &fleet {
            Some((_, backends)) => backends.iter().map(|b| b.local_addr()).collect(),
            None => vec![addr],
        };
        install_chaos(&targets, spec);
    }
    let chaos_value = || {
        chaos
            .as_deref()
            .map(|s| Value::Str(s.into()))
            .unwrap_or(Value::Null)
    };

    if args.stream {
        let problem = args
            .problems
            .as_ref()
            .and_then(|p| p.first().cloned())
            .unwrap_or_else(|| "sort".to_string());
        eprintln!(
            "loadgen: streaming {} sessions x {} batches of {} ({}) at {} batches/s open-loop",
            args.sessions, args.batches, args.batch_count, problem, args.rps
        );
        let (mut doc, failed, p99) = run_stream(&args, addr, &problem);
        let router_stats = fleet.as_ref().map(|(router, _)| router_stats_value(router));
        if let Some(server) = in_process.take() {
            server.shutdown();
        }
        if let Some((router, backends)) = fleet.take() {
            router.shutdown();
            for backend in backends {
                backend.shutdown();
            }
        }
        let gate = match args.gate_p99 {
            Some(limit) => Value::Obj(vec![
                ("p99_ms_limit".into(), Value::Num(round3(limit))),
                ("p99_ms".into(), Value::Num(round3(p99))),
                ("passed".into(), Value::Bool(p99 <= limit)),
            ]),
            None => Value::Null,
        };
        if let Value::Obj(members) = &mut doc {
            if let Some((_, Value::Obj(cfg))) = members.iter_mut().find(|(k, _)| k == "config") {
                cfg.push(("chaos".into(), chaos_value()));
            }
            members.push(("gate".into(), gate));
            members.push(("router".into(), router_stats.unwrap_or(Value::Null)));
        }
        std::fs::write(&out, format!("{}\n", doc.write()))
            .unwrap_or_else(|e| fail(format!("writing {out}: {e}")));
        eprintln!(
            "loadgen: {} sessions, {} batches, {} failed, p99 {:.1}ms, wrote {}",
            args.sessions,
            args.sessions * args.batches,
            failed,
            p99,
            out
        );
        if failed > 0 {
            std::process::exit(1);
        }
        if let Some(limit) = args.gate_p99 {
            if p99 > limit {
                eprintln!("loadgen: p99 {p99:.1}ms exceeds the --gate-p99 {limit:.1}ms budget");
                std::process::exit(1);
            }
        }
        return;
    }

    let problems: Vec<String> = match &args.problems {
        Some(list) => list.clone(),
        None => registry().names().iter().map(|s| s.to_string()).collect(),
    };
    if problems.is_empty() {
        fail("no problems to request");
    }

    // Pre-render the request bodies. Plain mode: one per problem,
    // round-robined. Router mode: one per *request* with a distinct
    // workload seed, so every request carries a fresh witness key and
    // really routes (the result cache would otherwise absorb repeats
    // and the per-shard counts would measure nothing).
    let shaped = |p: &str, wseed: u64, round: usize| -> (String, String) {
        let mut req = ServeRequest::new(p.to_string());
        req.workload = WorkloadSpec::new(args.n, wseed);
        let shapes = mix_shapes(args.mix.as_deref(), p);
        if !shapes.is_empty() {
            req.workload = req.workload.shape(shapes[round % shapes.len()]);
        }
        req.config.seed = 7;
        (p.to_string(), req.to_json())
    };
    let bodies: Vec<(String, String)> = if args.router {
        (0..args.requests)
            .map(|i| {
                let p = &problems[i % problems.len()];
                shaped(p, i as u64, i / problems.len())
            })
            .collect()
    } else if args.mix.is_some() {
        // One body per (problem, shape) pair so a short burst still
        // touches the whole requested family mix.
        problems
            .iter()
            .flat_map(|p| {
                let shapes = mix_shapes(args.mix.as_deref(), p);
                (0..shapes.len().max(1)).map(|round| shaped(p, 1, round))
            })
            .collect()
    } else {
        problems.iter().map(|p| shaped(p, 1, 0)).collect()
    };

    let next = AtomicUsize::new(0);
    let client_retries = AtomicUsize::new(0);
    let bodies = Arc::new(bodies);
    let total = args.requests;
    let use_keep_alive = args.router;
    // Solves are idempotent (same request ⇒ same deterministic result),
    // so under chaos a transport failure is also safe to re-send.
    let retry_transport = chaos.is_some();
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.concurrency)
            .map(|_| {
                let bodies = Arc::clone(&bodies);
                let next = &next;
                let client_retries = &client_retries;
                s.spawn(move || {
                    // Router mode: one keep-alive connection per client
                    // thread, reused across its whole share of the burst.
                    let mut conn = use_keep_alive
                        .then(|| http::ClientConn::new(addr, Duration::from_secs(120)));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let (problem, body) = &bodies[i % bodies.len()];
                        let t = Instant::now();
                        let outcome = with_retry_after(
                            || match conn.as_mut() {
                                Some(c) => c.request("POST", "/solve", Some(body)),
                                None => http::request(
                                    addr,
                                    "POST",
                                    "/solve",
                                    Some(body),
                                    Duration::from_secs(120),
                                ),
                            },
                            retry_transport,
                            CLIENT_MAX_RETRIES,
                            client_retries,
                        );
                        let latency = t.elapsed();
                        let (ok, detail) = match outcome {
                            Ok(resp) if resp.status == 200 => {
                                match ServeResponse::from_json(&resp.body) {
                                    Ok(r) if r.problem == *problem => (true, None),
                                    Ok(r) => {
                                        (false, Some(format!("echoed problem `{}`", r.problem)))
                                    }
                                    Err(e) => (false, Some(format!("unparseable response: {e}"))),
                                }
                            }
                            Ok(resp) => (
                                false,
                                Some(format!("status {}: {}", resp.status, resp.body)),
                            ),
                            Err(e) => (false, Some(format!("transport: {e}"))),
                        };
                        local.push(Sample {
                            problem: problem.clone(),
                            latency,
                            ok,
                            detail,
                        });
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    // Router mode: capture the cluster view (per-shard request counts,
    // retries, cache stats, witness info) before tearing the fleet down.
    let router_stats: Option<Value> = fleet.as_ref().map(|(router, _)| router_stats_value(router));

    if let Some(server) = in_process.take() {
        server.shutdown();
    }
    if let Some((router, backends)) = fleet.take() {
        router.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }

    let failures: Vec<&Sample> = samples.iter().filter(|s| !s.ok).collect();
    for f in &failures {
        eprintln!(
            "loadgen: FAILED {} ({})",
            f.problem,
            f.detail.as_deref().unwrap_or("unknown")
        );
    }

    let mut all_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1000.0)
        .collect();
    all_ms.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = all_ms.iter().sum::<f64>() / all_ms.len().max(1) as f64;

    let mut per_problem: Vec<(String, Value)> = Vec::new();
    for problem in &problems {
        let mut ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.problem == *problem)
            .map(|s| s.latency.as_secs_f64() * 1000.0)
            .collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        per_problem.push((
            problem.clone(),
            Value::Obj(vec![
                ("count".into(), Value::Num(ms.len() as f64)),
                ("p50_ms".into(), Value::Num(round3(percentile(&ms, 0.50)))),
                (
                    "max_ms".into(),
                    Value::Num(round3(ms.last().copied().unwrap_or(0.0))),
                ),
            ]),
        ));
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = Value::Obj(vec![
        (
            "machine".into(),
            Value::Obj(vec![("cores".into(), Value::Num(cores as f64))]),
        ),
        (
            "config".into(),
            Value::Obj(vec![
                ("requests".into(), Value::Num(args.requests as f64)),
                ("concurrency".into(), Value::Num(args.concurrency as f64)),
                ("n".into(), Value::Num(args.n as f64)),
                (
                    "mix".into(),
                    args.mix
                        .as_deref()
                        .map(|m| Value::Str(m.into()))
                        .unwrap_or(Value::Null),
                ),
                ("executors".into(), Value::Num(args.executors as f64)),
                ("in_process_server".into(), Value::Bool(args.addr.is_none())),
                ("router".into(), Value::Bool(args.router)),
                (
                    "shards".into(),
                    if args.router {
                        Value::Num(args.shards as f64)
                    } else {
                        Value::Null
                    },
                ),
                ("chaos".into(), chaos_value()),
            ]),
        ),
        (
            "totals".into(),
            Value::Obj(vec![
                ("requests".into(), Value::Num(samples.len() as f64)),
                (
                    "ok".into(),
                    Value::Num((samples.len() - failures.len()) as f64),
                ),
                ("failed".into(), Value::Num(failures.len() as f64)),
                (
                    "client_retries".into(),
                    Value::Num(client_retries.load(Ordering::Relaxed) as f64),
                ),
                ("wall_seconds".into(), Value::Num(round3(wall))),
                (
                    "throughput_rps".into(),
                    Value::Num(round3(samples.len() as f64 / wall.max(1e-9))),
                ),
            ]),
        ),
        (
            "latency_ms".into(),
            Value::Obj(vec![
                ("mean".into(), Value::Num(round3(mean_ms))),
                ("p50".into(), Value::Num(round3(percentile(&all_ms, 0.50)))),
                ("p90".into(), Value::Num(round3(percentile(&all_ms, 0.90)))),
                ("p99".into(), Value::Num(round3(percentile(&all_ms, 0.99)))),
                (
                    "max".into(),
                    Value::Num(round3(all_ms.last().copied().unwrap_or(0.0))),
                ),
            ]),
        ),
        ("per_problem".into(), Value::Obj(per_problem)),
        ("router".into(), router_stats.unwrap_or(Value::Null)),
    ]);

    std::fs::write(&out, format!("{}\n", doc.write()))
        .unwrap_or_else(|e| fail(format!("writing {}: {e}", out)));
    eprintln!(
        "loadgen: {} requests, {} ok, p50 {:.1}ms p99 {:.1}ms, wrote {}",
        samples.len(),
        samples.len() - failures.len(),
        percentile(&all_ms, 0.50),
        percentile(&all_ms, 0.99),
        out
    );

    if !failures.is_empty() {
        std::process::exit(1);
    }
}
