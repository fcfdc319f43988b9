//! The `serve-mixed` traffic: an open-loop generator against a running
//! `ri-router`, plus the direct-to-shard phase of the per-layer sweep.
//!
//! Each generator thread owns one keep-alive connection and its own
//! slice of a fixed schedule (send `i` is due at `i / rate` seconds and
//! goes to thread `i % threads`). A send that finds its connection still
//! busy goes out late; latency is timed from the due time, so the wait
//! counts against the system, and the lateness itself is reported.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ri_core::engine::json::{self, Value};
use ri_core::engine::{
    BatchDelta, BatchRequest, Registry, ServeRequest, ServeResponse, StreamSpec, WorkloadSpec,
};
use ri_serve::http::{ClientConn, HttpResponse};

use crate::solve::{config, derive_seed, fingerprint, sequential};
use crate::stats::{geomean, median, quantile, ratio, Metrics};
use crate::trace::Spans;

/// Every request's instance size.
pub const MIX_N: usize = 2048;
/// Elements per stream batch: four batches fill a session.
const BATCH: usize = 512;
const BATCHES: usize = MIX_N / BATCH;
/// The registered problems, in registry order.
pub const PROBLEMS: [&str; 9] = [
    "sort",
    "sort-batch",
    "delaunay",
    "lp",
    "lp-d",
    "closest-pair",
    "enclosing",
    "le-lists",
    "scc",
];
/// Generator threads, each with one connection (the host has two cores).
pub const THREADS: usize = 2;
/// Offered load in sends per second: about half the closed-loop capacity
/// of this mix measured on the calibration host
/// (`perfbench/calibration.json`).
pub const OFFERED_RATE: f64 = 150.0;
/// A run whose sends went out later than this at the 99th percentile
/// measured the generator, not the fleet, and is reported invalid.
pub const LATENESS_LIMIT_MS: f64 = 250.0;
const TIMEOUT: Duration = Duration::from_secs(30);

/// One thread's repeating cycle of twelve sends: a session open, its four
/// batches, and seven one-shot solves, so a third of sends are batches.
const CYCLE: [Slot; 12] = [
    Slot::Open,
    Slot::Solve,
    Slot::Batch(0),
    Slot::Solve,
    Slot::Solve,
    Slot::Batch(1),
    Slot::Solve,
    Slot::Solve,
    Slot::Batch(2),
    Slot::Solve,
    Slot::Batch(3),
    Slot::Solve,
];

#[derive(Clone, Copy)]
enum Slot {
    Open,
    Solve,
    Batch(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Solve,
    Repeat,
    Open,
    Batch,
    Close,
}

/// One scheduled send.
#[derive(Clone)]
struct Op {
    due: f64,
    kind: Kind,
    problem: usize,
    spec: WorkloadSpec,
    run_seed: u64,
    session: String,
    batch: usize,
}

/// What one send observed. `body` is kept for the answer check after the
/// run (or parsed at once when traced).
pub struct Outcome {
    pub kind: Kind,
    pub problem: usize,
    pub latency: f64,
    pub lateness: f64,
    pub ok: bool,
    check: Option<Check>,
}

/// An answer to verify against the sequential reference.
struct Check {
    problem: usize,
    spec: WorkloadSpec,
    run_seed: u64,
    batch: usize,
    body: String,
}

/// The schedule for `count` sends at `rate` per second (`rate` infinite
/// makes every send due at once: the closed-loop capacity probe).
fn plan(seed: u64, phase: u64, count: usize, rate: f64) -> Vec<Vec<Op>> {
    let mut per_thread: Vec<Vec<Op>> = vec![Vec::new(); THREADS];
    for (t, ops) in per_thread.iter_mut().enumerate() {
        let mut fresh: Vec<(usize, WorkloadSpec, u64)> = Vec::new();
        let mut solves = 0u64;
        let mut session = (0usize, WorkloadSpec::new(MIX_N, 0), 0u64, String::new());
        for j in 0.. {
            let i = j * THREADS + t;
            if i >= count {
                break;
            }
            let due = if rate.is_finite() {
                i as f64 / rate
            } else {
                0.0
            };
            let cycle = j / CYCLE.len();
            let op = match CYCLE[j % CYCLE.len()] {
                Slot::Open => {
                    let global = (cycle * THREADS + t) as u64;
                    session = (
                        global as usize % PROBLEMS.len(),
                        WorkloadSpec::new(MIX_N, derive_seed(seed, 10 + phase, global)),
                        derive_seed(seed, 20 + phase, global),
                        format!("pb{seed}p{phase}s{global}"),
                    );
                    Op {
                        due,
                        kind: Kind::Open,
                        problem: session.0,
                        spec: session.1.clone(),
                        run_seed: session.2,
                        session: session.3.clone(),
                        batch: 0,
                    }
                }
                Slot::Batch(b) => Op {
                    due,
                    kind: Kind::Batch,
                    problem: session.0,
                    spec: session.1.clone(),
                    run_seed: session.2,
                    session: session.3.clone(),
                    batch: b,
                },
                Slot::Solve => {
                    solves += 1;
                    let pick = ri_pram::hash_u64(derive_seed(seed, 30 + phase, solves));
                    if solves.is_multiple_of(4) && !fresh.is_empty() {
                        // Repeat one of this thread's recent keys, well
                        // inside the router's result cache.
                        let recent = fresh.len().min(16);
                        let (problem, spec, run_seed) =
                            fresh[fresh.len() - 1 - (pick as usize % recent)].clone();
                        Op {
                            due,
                            kind: Kind::Repeat,
                            problem,
                            spec,
                            run_seed,
                            session: String::new(),
                            batch: 0,
                        }
                    } else {
                        let index = ((t as u64) << 40) | fresh.len() as u64;
                        let problem = fresh.len() % PROBLEMS.len();
                        let spec = WorkloadSpec::new(MIX_N, derive_seed(seed, 40 + phase, index));
                        let run_seed = derive_seed(seed, 50 + phase, index);
                        fresh.push((problem, spec.clone(), run_seed));
                        Op {
                            due,
                            kind: Kind::Solve,
                            problem,
                            spec,
                            run_seed,
                            session: String::new(),
                            batch: 0,
                        }
                    }
                }
            };
            ops.push(op);
        }
    }
    per_thread
}

fn solve_body(problem: usize, spec: &WorkloadSpec, run_seed: u64) -> String {
    ServeRequest {
        problem: PROBLEMS[problem].to_string(),
        workload: spec.clone(),
        config: config(run_seed, 0),
    }
    .to_json()
}

/// The canonical answer carried by a `/solve` response or a batch delta
/// (`None` for an unparseable body, a batch out of sequence, or a batch
/// that is not the last of its session).
fn answer_of(kind: Kind, batch: usize, body: &str) -> Result<Option<String>, ()> {
    match kind {
        Kind::Solve | Kind::Repeat => ServeResponse::from_json(body)
            .map(|r| Some(fingerprint(r.summary.answer())))
            .map_err(drop),
        Kind::Batch => {
            let d = BatchDelta::from_json(body).map_err(drop)?;
            if d.batch != batch || d.cumulative != (batch + 1) * BATCH {
                return Err(());
            }
            Ok(d.complete.then(|| fingerprint(&d.answer)))
        }
        Kind::Open | Kind::Close => Ok(None),
    }
}

fn ok_response(resp: &std::io::Result<HttpResponse>) -> bool {
    matches!(resp, Ok(r) if r.status == 200)
}

/// Run one generator thread's schedule against `addr`.
fn drive(addr: SocketAddr, ops: Vec<Op>, epoch: Instant, traced: bool) -> (Vec<Outcome>, Spans) {
    let mut conn = ClientConn::new(addr, TIMEOUT);
    let mut spans = Spans::new();
    let mut out = Vec::with_capacity(ops.len() + ops.len() / 12);
    let mut broken: Option<String> = None;
    for op in ops {
        let body = match op.kind {
            Kind::Solve | Kind::Repeat => solve_body(op.problem, &op.spec, op.run_seed),
            Kind::Open => StreamSpec {
                problem: PROBLEMS[op.problem].to_string(),
                workload: op.spec.clone(),
                config: config(op.run_seed, 0),
                session_id: Some(op.session.clone()),
            }
            .to_json(),
            _ => BatchRequest::new(BATCH).to_json(),
        };
        let due = epoch + Duration::from_secs_f64(op.due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let lateness = start.saturating_duration_since(due).as_secs_f64();
        let record = |ok: bool, end: Instant, check: Option<Check>| Outcome {
            kind: op.kind,
            problem: op.problem,
            latency: end.saturating_duration_since(due).as_secs_f64(),
            lateness,
            ok,
            check,
        };
        if op.kind == Kind::Batch && broken.as_deref() == Some(op.session.as_str()) {
            // The session's open or an earlier batch failed: its later
            // batches cannot run and count as failed sends.
            out.push(record(false, start, None));
            continue;
        }
        let resp = match op.kind {
            Kind::Solve | Kind::Repeat => conn.request("POST", "/solve", Some(&body)),
            Kind::Open => conn.request_with("POST", "/stream", Some(&body), &[], false),
            _ => {
                let path = format!("/stream/{}/batch", op.session);
                conn.request_with("POST", &path, Some(&body), &[], false)
            }
        };
        let end = Instant::now();
        let mut ok = ok_response(&resp);
        let mut check = None;
        if ok && matches!(op.kind, Kind::Solve | Kind::Repeat | Kind::Batch) {
            let body = resp.as_ref().map(|r| r.body.clone()).unwrap_or_default();
            if traced {
                let t0 = Instant::now();
                let parsed = answer_of(op.kind, op.batch, &body);
                spans.record("envelope.parse", t0, t0.elapsed().as_secs_f64());
                ok = parsed.is_ok();
            }
            check = Some(Check {
                problem: op.problem,
                spec: op.spec.clone(),
                run_seed: op.run_seed,
                batch: op.batch,
                body,
            });
        }
        if traced {
            let layer = match op.kind {
                Kind::Solve => "client.solve",
                Kind::Repeat => "client.repeat",
                Kind::Open => "client.open",
                _ => "client.batch",
            };
            spans.record(layer, start, end.duration_since(start).as_secs_f64());
        }
        if !ok && matches!(op.kind, Kind::Open | Kind::Batch) {
            broken = Some(op.session.clone());
        }
        out.push(record(ok, end, check));
        if ok && op.kind == Kind::Batch && op.batch + 1 == BATCHES {
            let t0 = Instant::now();
            let path = format!("/stream/{}", op.session);
            let closed = conn.request_with("DELETE", &path, None, &[], false);
            out.push(Outcome {
                kind: Kind::Close,
                problem: op.problem,
                latency: t0.elapsed().as_secs_f64(),
                lateness: 0.0,
                ok: ok_response(&closed),
                check: None,
            });
        }
    }
    (out, spans)
}

/// Run `count` sends at `rate` against the router and return every
/// outcome (answers not yet checked) plus the traced spans.
pub fn run(
    router: SocketAddr,
    seed: u64,
    phase: u64,
    count: usize,
    rate: f64,
    traced: bool,
) -> (Vec<Outcome>, Spans) {
    let schedule = plan(seed, phase, count, rate);
    let epoch = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Outcome>, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = schedule
            .into_iter()
            .map(|ops| s.spawn(move || drive(router, ops, epoch, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::new();
    let mut spans = Spans::new();
    for (o, s) in results {
        outcomes.extend(o);
        spans.merge(s);
    }
    (outcomes, spans)
}

/// Sequential in-process references, cached by key.
#[derive(Default)]
pub struct References(HashMap<(usize, u64, u64), String>);

impl References {
    pub fn get(
        &mut self,
        reg: &Registry,
        problem: usize,
        spec: &WorkloadSpec,
        run_seed: u64,
    ) -> String {
        self.0
            .entry((problem, spec.seed, run_seed))
            .or_insert_with(|| match reg.construct(PROBLEMS[problem], spec) {
                Ok(p) => fingerprint(p.solve_erased(&sequential(run_seed)).0.answer()),
                Err(e) => format!("construct failed: {e}"),
            })
            .clone()
    }
}

/// Check every kept answer; a wrong or unparseable one marks its outcome
/// failed. Returns how many were wrong.
pub fn verify(reg: &Registry, refs: &mut References, outcomes: &mut [Outcome]) -> u64 {
    let mut wrong = 0;
    for o in outcomes.iter_mut() {
        let Some(c) = o.check.take() else { continue };
        let good = match answer_of(o.kind, c.batch, &c.body) {
            Ok(Some(answer)) => answer == refs.get(reg, c.problem, &c.spec, c.run_seed),
            Ok(None) => true,
            Err(()) => false,
        };
        if !good {
            o.ok = false;
            wrong += 1;
        }
    }
    wrong
}

fn latencies_ms(outcomes: &[Outcome], keep: impl Fn(&Outcome) -> bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| keep(o))
        .map(|o| o.latency * 1e3)
        .collect()
}

/// The end-to-end metrics of a mix run (`setup_s` and `peak_rss_mb` come
/// from the fleet's owner).
pub fn mix_metrics(outcomes: &[Outcome]) -> Metrics {
    let solve = |o: &Outcome| matches!(o.kind, Kind::Solve | Kind::Repeat);
    let per_problem: Vec<f64> = (0..PROBLEMS.len())
        .map(|p| median(&latencies_ms(outcomes, |o| solve(o) && o.problem == p)) / 1e3)
        .collect();
    let solves = latencies_ms(outcomes, solve);
    let batches = latencies_ms(outcomes, |o| o.kind == Kind::Batch);
    let failed = outcomes.iter().filter(|o| !o.ok).count() as u64;
    let rates: Vec<f64> = per_problem.iter().map(|s| 1.0 / s).collect();
    let mut m = Metrics::default();
    m.put("solve_geomean_per_s", geomean(&rates), "1/s");
    m.put("suite_s", per_problem.iter().sum(), "s");
    m.put(
        "ok_ratio",
        crate::solve::ok_ratio(outcomes.len() as u64, failed),
        "ratio",
    );
    m.put("solve_latency_p50_ms", quantile(&solves, 0.5), "ms");
    m.put("solve_latency_p99_ms", quantile(&solves, 0.99), "ms");
    m.put("batch_latency_p50_ms", quantile(&batches, 0.5), "ms");
    m.put("batch_latency_p99_ms", quantile(&batches, 0.99), "ms");
    m
}

pub fn lateness_p99_ms(outcomes: &[Outcome]) -> f64 {
    let late: Vec<f64> = outcomes.iter().map(|o| o.lateness * 1e3).collect();
    quantile(&late, 0.99)
}

/// `session.*` and `client.*` from a mix run.
pub fn session_client_metrics(reg: &Registry, outcomes: &[Outcome]) -> Metrics {
    let batch = |native: bool| {
        latencies_ms(outcomes, |o| {
            o.kind == Kind::Batch && reg.has_incremental(PROBLEMS[o.problem]) == native
        })
    };
    let mut m = Metrics::default();
    m.put(
        "session.open_p50_ms",
        median(&latencies_ms(outcomes, |o| o.kind == Kind::Open)),
        "ms",
    );
    m.put("session.native_batch_p50_ms", median(&batch(true)), "ms");
    m.put("session.fallback_batch_p50_ms", median(&batch(false)), "ms");
    m.put("client.lateness_p99_ms", lateness_p99_ms(outcomes), "ms");
    m.put("client.sent", outcomes.len() as f64, "count");
    m.put(
        "client.failed",
        outcomes.iter().filter(|o| !o.ok).count() as f64,
        "count",
    );
    m
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let resp = ri_serve::http::request(addr, "GET", path, None, TIMEOUT)
        .map_err(|e| format!("GET {path} on {addr}: {e}"))?;
    json::parse(&resp.body).map_err(|e| format!("GET {path} on {addr}: {e}"))
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The shard addresses behind a router, from its `/healthz`.
pub fn shard_addrs(router: SocketAddr) -> Result<Vec<SocketAddr>, String> {
    let health = get_json(router, "/healthz")?;
    health
        .get("shards")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|s| {
            s.get("addr")
                .and_then(Value::as_str)
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| "router /healthz lists a shard without an address".to_string())
        })
        .collect()
}

/// Solve each problem once on every shard, untimed, so that the first
/// timed requests do not pay for cold caches and scratch arenas.
pub fn warm_up(router: SocketAddr, seed: u64) -> Result<(), String> {
    for (s, addr) in shard_addrs(router)?.into_iter().enumerate() {
        let mut conn = ClientConn::new(addr, TIMEOUT);
        for problem in 0..PROBLEMS.len() {
            let key = (s * PROBLEMS.len() + problem) as u64;
            let spec = WorkloadSpec::new(MIX_N, derive_seed(seed, 80, key));
            let body = solve_body(problem, &spec, derive_seed(seed, 81, key));
            match conn.request("POST", "/solve", Some(&body)) {
                Ok(r) if r.status == 200 => {}
                other => return Err(format!("warm-up solve on {addr} failed: {other:?}")),
            }
        }
    }
    Ok(())
}

/// Router counters at one instant: cache hits, misses, retries, and each
/// shard's solves plus batches served.
pub struct RouterCounters {
    hits: f64,
    misses: f64,
    retries: f64,
    served: Vec<f64>,
}

pub fn router_counters(router: SocketAddr) -> Result<RouterCounters, String> {
    let h = get_json(router, "/healthz")?;
    let served = h
        .get("shards")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|s| num(s, &["served"]) + num(s, &["batches_served"]))
        .collect();
    Ok(RouterCounters {
        hits: num(&h, &["cache", "hits"]),
        misses: num(&h, &["cache", "misses"]),
        retries: num(&h, &["retries"]),
        served,
    })
}

/// `router.cache_hit_ratio`, `router.retries` and `router.shard_skew`
/// over the interval between two counter snapshots.
pub fn router_metrics(before: &RouterCounters, after: &RouterCounters) -> Metrics {
    let served: Vec<f64> = after
        .served
        .iter()
        .zip(&before.served)
        .map(|(a, b)| a - b)
        .collect();
    let max = served.iter().cloned().fold(0.0, f64::max);
    let min = served.iter().cloned().fold(f64::INFINITY, f64::min);
    let hits = after.hits - before.hits;
    let mut m = Metrics::default();
    m.put(
        "router.cache_hit_ratio",
        ratio(hits, hits + after.misses - before.misses),
        "ratio",
    );
    m.put("router.retries", after.retries - before.retries, "count");
    m.put("router.shard_skew", ratio(max, min.max(1.0)), "ratio");
    m
}

/// The direct-to-shard phase: fresh one-shot solves sent alternately
/// through the router and straight to a shard, each direct one also
/// solved in-process at width 1, for `budget`. Yields `serve.direct_*`,
/// `serve.overhead_p50_ms`, `router.hop_*` and the shards' error counters;
/// returns `(metrics, attempted, failed)`.
pub fn direct_phase(
    reg: &Registry,
    refs: &mut References,
    router: SocketAddr,
    seed: u64,
    budget: Duration,
) -> Result<(Metrics, u64, u64), String> {
    let shards = shard_addrs(router)?;
    let mut via_router = ClientConn::new(router, TIMEOUT);
    let mut direct: Vec<ClientConn> = shards
        .iter()
        .map(|&a| ClientConn::new(a, TIMEOUT))
        .collect();
    let (mut routed_ms, mut direct_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || i < 2 * PROBLEMS.len() as u64 {
        let problem = i as usize % PROBLEMS.len();
        for (leg, conn) in [
            (0u64, &mut via_router),
            (1, &mut direct[i as usize % shards.len()]),
        ] {
            let spec = WorkloadSpec::new(MIX_N, derive_seed(seed, 60 + leg, i));
            let run_seed = derive_seed(seed, 70 + leg, i);
            let body = solve_body(problem, &spec, run_seed);
            let t0 = Instant::now();
            let resp = conn.request("POST", "/solve", Some(&body));
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            attempted += 1;
            let answer = match &resp {
                Ok(r) if r.status == 200 => answer_of(Kind::Solve, 0, &r.body).ok().flatten(),
                _ => None,
            };
            if answer != Some(refs.get(reg, problem, &spec, run_seed)) {
                failed += 1;
            }
            if leg == 0 {
                routed_ms.push(dt);
                continue;
            }
            direct_ms.push(dt);
            let t0 = Instant::now();
            let solved = reg
                .construct(PROBLEMS[problem], &spec)
                .map(|p| p.solve_erased(&config(run_seed, 1)));
            std::hint::black_box(&solved);
            overhead_ms.push(dt - t0.elapsed().as_secs_f64() * 1e3);
        }
        i += 1;
    }
    let (mut rejected, mut deadline) = (0.0, 0.0);
    for &addr in &shards {
        let h = get_json(addr, "/healthz")?;
        let expired = num(&h, &["deadline_expired"]);
        rejected += num(&h, &["errored"]) - expired;
        deadline += expired;
    }
    let mut m = Metrics::default();
    m.put("serve.direct_p50_ms", quantile(&direct_ms, 0.5), "ms");
    m.put("serve.direct_p99_ms", quantile(&direct_ms, 0.99), "ms");
    m.put("serve.overhead_p50_ms", median(&overhead_ms), "ms");
    m.put("serve.rejected", rejected, "count");
    m.put("serve.deadline_exceeded", deadline, "count");
    m.put(
        "router.hop_p50_ms",
        quantile(&routed_ms, 0.5) - quantile(&direct_ms, 0.5),
        "ms",
    );
    m.put(
        "router.hop_p99_ms",
        quantile(&routed_ms, 0.99) - quantile(&direct_ms, 0.99),
        "ms",
    );
    Ok((m, attempted, failed))
}
