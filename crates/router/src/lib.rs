//! # `ri-router` — the sharded front tier over `ri-serve` backends
//!
//! A std-only, `#![forbid(unsafe_code)]` HTTP router that turns N
//! `ri-serve` processes into one deterministic serving surface:
//!
//! * **Consistent-hash routing** — `POST /solve` hashes the request's
//!   determinism key (problem, workload, seed, mode — the witness key)
//!   onto a virtual-node ring ([`ring::HashRing`]); the walk order from
//!   that point is both the home-shard assignment and the failover
//!   sequence.
//! * **Health-checked backends** — a poller aggregates per-shard
//!   `GET /healthz` (verifying each shard answers with the expected
//!   `shard_id`) into the cluster view the router's own `/healthz`
//!   serves.
//! * **One request path** — every hop to a shard goes through one
//!   `send` (a pooled keep-alive connection, in-flight accounting, and
//!   what remains of the request's deadline budget as both socket
//!   timeout and forwarded `X-RI-Deadline-Ms`), and every request that
//!   may fail over goes through one retry loop, `proxy`, which
//!   classifies each attempt once — served, shed-retryable, structured
//!   error, or lost — and records it in the shard's
//!   [`breaker::CircuitBreaker`]. The endpoint picks the recovery:
//!   solves and session opens are `Retry` (next distinct shard on the
//!   ring, breaker-gated, spaced by deterministic backoff floored by the
//!   shard's `Retry-After`); stream batches are `RebuildThenRetry`
//!   (close-and-replay the session, then retry once). Safe by
//!   construction: an answer depends only on its determinism key and a
//!   session only on its spec and batch counts. The budget is the
//!   ingress `X-RI-Deadline-Ms` clamped to `request_timeout_ms`; once it
//!   is spent the router answers a structured `504`.
//! * **Sticky streaming sessions** — `POST /stream` assigns the session
//!   an id (`rs-<seq>` unless the client names one), consistent-hashes
//!   *the id* onto the ring, and pins every later `/stream/<id>/...`
//!   request to that shard. Because sessions are deterministic replayable
//!   state (a fixed [`StreamSpec`] plus the batch counts served so far),
//!   a dead or draining shard is survivable: the router *migrates* the
//!   session — close on the old shard (best-effort), reopen under the
//!   same id on the next routable shard, re-feed the recorded batch
//!   counts — and the rebuilt session is bit-identical to the lost one.
//!   Re-fed batches are never re-witnessed; only client-served batches
//!   land in the log.
//! * **Drain** — `POST /admin/drain {"shard_id": ...}` stops routing to
//!   a shard, waits out its in-flight requests, migrates its streaming
//!   sessions to surviving shards, then stops it (killing the child when
//!   the router spawned it).
//! * **The witness log + result cache** — every 200 routed is persisted
//!   as a [`WitnessRecord`] (`{request, seed, shard, answer, trace}`)
//!   and its body cached under the witness key. `ri witness replay`
//!   re-executes the log anywhere and asserts bit-identical answers and
//!   round traces — the cross-shard determinism gate; the cache serves
//!   repeat keys without compute (`X-RI-Cache: hit`), sound for exactly
//!   the same reason replay is.
//!
//! The router runs the same thread-per-connection keep-alive front end
//! as `ri-serve` ([`ri_serve::http::spawn_acceptor`]) and has no solve
//! queue of its own — admission control lives in the backends, whose
//! `503 overloaded` the router converts into failover rather than
//! client-visible failure (until every shard has shed it).

#![forbid(unsafe_code)]

pub mod backend;
pub mod breaker;
pub mod cache;
pub mod ring;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ri_core::engine::envelope::{ServeError, ServeErrorKind, ServeRequest, ServeResponse};
use ri_core::engine::faults::{backoff_jitter_ms, DEADLINE_HEADER, RETRY_AFTER_MS_HEADER};
use ri_core::engine::json::{self, Value};
use ri_core::engine::session::{BatchDelta, BatchRequest, StreamSpec};
use ri_core::engine::witness::{witness_key, StreamBatchRecord, WitnessLog, WitnessRecord};
use ri_serve::http::{
    self, write_response_opts, ClientConn, Front, HttpRequest, HttpResponse, Service,
};

pub use backend::{Backend, BackendSpec, BackendState, BackendTarget};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::ResultCache;
pub use ring::HashRing;

/// Router tuning knobs; every field defaults to something sensible for
/// a small local fleet.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address, `host:port` (`port` 0 = ephemeral).
    pub addr: String,
    /// Virtual points per shard on the hash ring.
    pub replicas: usize,
    /// Maximum *distinct shards* tried per `/solve` before answering
    /// `503` (clamped to the shard count).
    pub max_attempts: usize,
    /// Health-poll period.
    pub health_interval_ms: u64,
    /// Timeout for connect + each read/write on a proxied request. This
    /// bounds a whole backend solve, so it is generous by default.
    pub request_timeout_ms: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Append witness records here (`None` disables witnessing).
    pub witness_path: Option<PathBuf>,
    /// Maximum accepted request body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum simultaneous connection-handler threads.
    pub max_connections: usize,
    /// Per-shard circuit breaker: sliding-window size in outcomes.
    pub breaker_window: usize,
    /// Per-shard circuit breaker: minimum failures in the window before
    /// it may open (failures must also be ≥ half the window).
    pub breaker_min_failures: usize,
    /// Per-shard circuit breaker: cooldown (ms) an open breaker sheds
    /// traffic before allowing a half-open probe.
    pub breaker_open_ms: u64,
    /// Backoff before retry attempt k: `base · 2^(k-1)` plus
    /// deterministic jitter in `[0, base)`, capped at `backoff_cap_ms`.
    pub backoff_base_ms: u64,
    /// Upper bound (ms) on any single inter-retry backoff sleep.
    pub backoff_cap_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 32,
            max_attempts: 3,
            health_interval_ms: 500,
            request_timeout_ms: 120_000,
            cache_capacity: 256,
            witness_path: None,
            max_body_bytes: 1 << 20,
            max_connections: 256,
            breaker_window: 16,
            breaker_min_failures: 5,
            breaker_open_ms: 500,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
        }
    }
}

/// The router's record of one pinned streaming session: which shard owns
/// it, the exact open body to replay it from, and the batch counts served
/// so far. Together these rebuild the session bit-identically anywhere —
/// the whole basis of close-and-replay migration.
struct StickySession {
    /// Index into `Shared::backends` of the shard holding the session.
    shard: usize,
    /// The forwarded open body (client's spec + the assigned
    /// `session_id`), replayed verbatim on migration.
    open_body: String,
    /// Counts of the batches served to the client, in order.
    batches: Vec<usize>,
    /// Shard-side state is unknown: a batch's response was lost in
    /// transit, so the batch may or may not have executed on the shard.
    /// The session must be rebuilt (close-and-replay, restoring exactly
    /// `batches`) before another batch may run — proxying to a dirty
    /// session could double-execute the lost batch and skew the delta
    /// sequence the client observes.
    dirty: bool,
}

struct Shared {
    cfg: RouterConfig,
    backends: Vec<Backend>,
    ring: HashRing,
    cache: ResultCache,
    witness: Option<WitnessLog>,
    /// Open streaming sessions pinned to shards. The per-session mutex
    /// serializes batches (and migration) within a session; distinct
    /// sessions never contend past the brief map lookup.
    sticky: Mutex<HashMap<String, Arc<Mutex<StickySession>>>>,
    /// Sequence for router-assigned session ids (`rs-<seq>`).
    session_seq: AtomicU64,
    /// Sessions rebuilt on another shard via close-and-replay.
    sessions_migrated: AtomicU64,
    /// Stream batches answered 200 to clients (migration re-feeds are
    /// internal and not counted).
    stream_batches: AtomicU64,
    /// `/solve` requests answered 200 (cache hits included).
    routed: AtomicU64,
    /// Failover attempts: a shard was tried and the request moved on.
    retries: AtomicU64,
    /// `/solve` requests answered with an error envelope.
    errored: AtomicU64,
    /// Requests answered `504` because their deadline budget ran out.
    deadline_expired: AtomicU64,
    /// Inter-retry backoff sleeps taken.
    backoff_sleeps: AtomicU64,
    /// Total milliseconds spent in inter-retry backoff sleeps.
    backoff_total_ms: AtomicU64,
    /// Connection cap, body limit, and the draining flag.
    front: Front,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running router: owns the acceptor and health-poller threads plus
/// every backend handle (spawned children die with it).
pub struct Router {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Resolve every backend spec (spawning children where asked), build
    /// the ring, bind, and start the acceptor + health poller.
    pub fn start(cfg: RouterConfig, specs: Vec<BackendSpec>) -> io::Result<Router> {
        if specs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let mut ids: Vec<&str> = specs.iter().map(|s| s.shard_id.as_str()).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend shard ids must be unique",
            ));
        }

        let mut backends = Vec::with_capacity(specs.len());
        for spec in &specs {
            let backend = match &spec.target {
                BackendTarget::Attach(addr) => Backend::attach(&spec.shard_id, *addr),
                BackendTarget::Spawn {
                    serve_bin,
                    threads,
                    executors,
                } => Backend::spawn(&spec.shard_id, serve_bin, *threads, *executors)?,
            };
            backends.push(backend);
        }

        let shard_ids: Vec<String> = backends.iter().map(|b| b.shard_id().to_string()).collect();
        let ring = HashRing::new(&shard_ids, cfg.replicas);
        let witness = match &cfg.witness_path {
            Some(path) => Some(WitnessLog::open(path)?),
            None => None,
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.cache_capacity),
            witness,
            ring,
            backends,
            sticky: Mutex::new(HashMap::new()),
            session_seq: AtomicU64::new(0),
            sessions_migrated: AtomicU64::new(0),
            stream_batches: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            backoff_sleeps: AtomicU64::new(0),
            backoff_total_ms: AtomicU64::new(0),
            // Socket timeouts derive from the request budget (floored at
            // 10 s for idle keep-alive reads): a fleet tuned for long
            // solves must not have the router's own sockets cut them short.
            front: Front::new(
                cfg.max_connections,
                cfg.max_body_bytes,
                Duration::from_millis(cfg.request_timeout_ms.max(10_000)),
            ),
            cfg,
        });

        // Backends are built with default breaker tunables; apply the
        // router's configured ones now that cfg is settled.
        let breaker_cfg = BreakerConfig {
            window: shared.cfg.breaker_window.max(1),
            min_failures: shared.cfg.breaker_min_failures.max(1),
            open_ms: shared.cfg.breaker_open_ms,
        };
        for backend in &shared.backends {
            backend.breaker().reconfigure(breaker_cfg.clone());
        }

        // Prime the health view synchronously once, so requests arriving
        // right after start() don't race an all-Unknown fleet.
        poll_health_once(&shared);

        // A failed spawn returns the error: dropping `shared` drops the
        // backends, whose `Drop` kills every spawned shard.
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ri-router-health".into())
                .spawn(move || health_loop(&shared))?
        };
        let acceptor = http::spawn_acceptor("ri-router", listener, Arc::clone(&shared))?;

        Ok(Router {
            shared,
            addr,
            acceptor: Some(acceptor),
            health: Some(health),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live backend handles, in spec order.
    pub fn backends(&self) -> &[Backend] {
        &self.shared.backends
    }

    /// Failover attempts so far.
    pub fn retries(&self) -> u64 {
        self.shared.retries.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, join the poller, detach every
    /// backend (killing spawned children).
    pub fn shutdown(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.shared.front.stop(self.addr, acceptor);
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
        self.shared.front.wait_idle();
        for backend in &self.shared.backends {
            backend.detach();
        }
    }
}

fn health_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.cfg.health_interval_ms.max(10));
    while !shared.front.draining() {
        std::thread::sleep(interval);
        if shared.front.draining() {
            break;
        }
        poll_health_once(shared);
    }
}

/// One health sweep: `GET /healthz` against every still-routable shard.
/// A response only counts as healthy if it parses and, when the shard
/// advertises an id, that id matches what the router expects — catching
/// port reuse and misconfigured fleets, not just dead sockets.
fn poll_health_once(shared: &Shared) {
    // Health checks use a short timeout: /healthz is served off the
    // connection thread and never waits behind solves.
    let timeout = Duration::from_millis(shared.cfg.health_interval_ms.clamp(10, 2_000));
    for backend in &shared.backends {
        if matches!(
            backend.state(),
            BackendState::Draining | BackendState::Detached
        ) {
            continue;
        }
        let mut conn = ClientConn::new(backend.addr(), timeout);
        let healthy = match conn.request("GET", "/healthz", None) {
            Ok(resp) if resp.status == 200 => match json::parse(&resp.body) {
                Ok(v) => {
                    // Fold the shard's self-reported session stats into
                    // the router's cluster view while we're here.
                    let stat = |key: &str| {
                        v.get(key).and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64
                    };
                    backend.record_session_stats(stat("sessions_open"), stat("batches_served"));
                    match v.get("shard_id").and_then(Value::as_str) {
                        Some(id) if !id.is_empty() => id == backend.shard_id(),
                        _ => true, // a shard that doesn't name itself is trusted
                    }
                }
                Err(_) => false,
            },
            _ => false,
        };
        backend.observe(healthy);
    }
}

impl Service for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// The router's route table.
    fn handle(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        request: &HttpRequest,
        keep_alive: bool,
    ) -> bool {
        let shared = self;
        let budget = Budget::new(
            request
                .header(DEADLINE_HEADER)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map_or(shared.cfg.request_timeout_ms, |b| {
                    b.min(shared.cfg.request_timeout_ms)
                }),
        );
        let body = &request.body;
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/solve") => handle_solve(shared, stream, body, keep_alive, &budget),
            ("POST", "/stream") => handle_stream_open(shared, stream, body, keep_alive, &budget),
            (method, path) if path.strip_prefix("/stream/").is_some_and(|r| !r.is_empty()) => {
                handle_stream_session(shared, stream, method, path, body, keep_alive, &budget)
            }
            ("GET", "/healthz") => {
                let body = health_value(shared).write();
                let _ = write_response_opts(stream, 200, keep_alive, &[], &body);
            }
            ("GET", "/problems") => handle_problems(shared, stream, keep_alive, &budget),
            ("POST", "/admin/drain") => handle_drain(shared, stream, body, keep_alive),
            (method, path @ ("/solve" | "/stream" | "/healthz" | "/problems" | "/admin/drain")) => {
                let err = ServeError::new(
                    ServeErrorKind::MethodNotAllowed,
                    format!("{method} is not supported on {path}"),
                );
                respond_error(shared, stream, &err, keep_alive);
            }
            (_, path) => {
                let err = ServeError::new(
                    ServeErrorKind::NotFound,
                    format!(
                        "no such path `{path}`; try POST /solve, POST /stream, GET /problems, \
                         GET /healthz, POST /admin/drain"
                    ),
                );
                respond_error(shared, stream, &err, keep_alive);
            }
        }
        true
    }

    fn reject(&self, stream: &mut TcpStream, err: &ServeError) {
        respond_error(self, stream, err, false);
    }
}

/// One request's deadline budget, fixed at ingress: the client's
/// `X-RI-Deadline-Ms` clamped to `request_timeout_ms`, else that timeout.
/// Every backend hop the request causes — attempts, backoff sleeps,
/// session rebuilds — spends from it, and each hop takes what remains as
/// its socket timeout and forwards it to the shard, so the whole chain
/// shares one clock.
struct Budget {
    start: Instant,
    ms: u64,
}

impl Budget {
    fn new(ms: u64) -> Budget {
        Budget {
            start: Instant::now(),
            ms,
        }
    }

    fn remaining(&self) -> Duration {
        Duration::from_millis(self.ms).saturating_sub(self.start.elapsed())
    }

    fn expired(&self) -> bool {
        self.remaining() < Duration::from_millis(1)
    }
}

/// `POST /solve`: validate, check the cache, then [`proxy`] along the
/// ring from the determinism key's home shard.
fn handle_solve(
    shared: &Shared,
    stream: &mut TcpStream,
    body: &[u8],
    keep_alive: bool,
    budget: &Budget,
) {
    // Parse with the same envelope code the backends use, so the router
    // rejects malformed requests itself instead of burning a backend
    // attempt on them (and so error shapes match shard-direct calls).
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            let err = ServeError::bad_request("request body is not UTF-8");
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let request = match ServeRequest::from_json(text) {
        Ok(r) => r,
        Err(err) => {
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let key = witness_key(&request.problem, &request.workload, &request.config);

    if let Some(cached) = shared.cache.get(&key) {
        shared.routed.fetch_add(1, Ordering::SeqCst);
        let _ = write_response_opts(stream, 200, keep_alive, &[("X-RI-Cache", "hit")], &cached);
        return;
    }

    let idem = Idempotency::Retry { key: &key };
    match proxy(shared, "/solve", text, budget, idem) {
        Ok((index, resp)) => {
            let backend = &shared.backends[index];
            record_witness(shared, backend.shard_id(), &key, &resp.body);
            backend.count_served();
            shared.routed.fetch_add(1, Ordering::SeqCst);
            let _ = write_response_opts(
                stream,
                200,
                keep_alive,
                &[("X-RI-Shard", backend.shard_id()), ("X-RI-Cache", "miss")],
                &resp.body,
            );
        }
        Err(failure) => respond_failure(shared, stream, failure, keep_alive, "the request"),
    }
}

/// How [`proxy`] recovers from a failed attempt. Each endpoint picks its
/// own; no client input selects it.
enum Idempotency<'a> {
    /// Every shard gives the same answer (a solve, or a session open,
    /// which holds no state yet): walk the ring from `key`'s home shard
    /// under breaker admission and backoff, up to `max_attempts` shards.
    Retry { key: &'a str },
    /// The request advances a pinned session (a batch): rebuild the
    /// session by close-and-replay — first when it is dirty or its shard
    /// unroutable, and after a failed attempt — and retry once.
    RebuildThenRetry {
        id: &'a str,
        sess: &'a mut StickySession,
    },
}

/// Why [`proxy`] has no 200 to return.
enum Failure {
    /// A shard's own error envelope, which the client must see: a
    /// non-retryable error, or the last retryable one when attempts ran
    /// out (it carries the best hint).
    Forward { index: usize, resp: HttpResponse },
    /// Every attempt was lost in transit (`sent > 0`), or every routable
    /// shard's breaker shed the request (`sent == 0`).
    Exhausted { sent: usize },
    /// The request's deadline budget (`budget_ms`) ran out before any
    /// shard answered.
    DeadlineExpired { budget_ms: u64 },
    /// No routable shard could take the request.
    NoCandidates,
}

/// The router's one retry loop: `POST path` with `body` until a shard
/// answers 200, within the request's budget. Every attempt goes through
/// [`send`] and is classified once — served, shed-retryable, structured
/// error, or lost — and recorded in the shard's breaker; `idem` decides
/// where the next attempt goes. Returns the serving shard and its 200.
fn proxy(
    shared: &Shared,
    path: &str,
    body: &str,
    budget: &Budget,
    mut idem: Idempotency,
) -> Result<(usize, HttpResponse), Failure> {
    let retry = matches!(idem, Idempotency::Retry { .. });
    let (mut ring, max_attempts) = match &idem {
        Idempotency::Retry { key } => (
            shared.ring.order(key).into_iter(),
            shared.cfg.max_attempts.max(1),
        ),
        Idempotency::RebuildThenRetry { .. } => (Vec::new().into_iter(), 2),
    };
    let mut sent = 0usize;
    let mut hint_ms: Option<u64> = None;
    let mut saw_routable = false;
    let mut last_shed: Option<(usize, HttpResponse)> = None;

    while sent < max_attempts {
        let index = match &mut idem {
            Idempotency::Retry { key } => {
                let Some(index) = ring.next() else { break };
                if !shared.backends[index].routable() {
                    continue;
                }
                saw_routable = true;
                if sent > 0 {
                    // Space retries out instead of hammering the next
                    // shard the instant the previous one failed; the
                    // sleep never overruns the budget.
                    let jitter_key = ring::fnv1a(key.as_bytes());
                    let delay = backoff_delay_ms(&shared.cfg, jitter_key, sent as u32, hint_ms);
                    let sleep = Duration::from_millis(delay).min(budget.remaining());
                    if !sleep.is_zero() {
                        shared.backoff_sleeps.fetch_add(1, Ordering::SeqCst);
                        shared
                            .backoff_total_ms
                            .fetch_add(sleep.as_millis() as u64, Ordering::SeqCst);
                        std::thread::sleep(sleep);
                    }
                }
                index
            }
            Idempotency::RebuildThenRetry { id, sess } => {
                // A dirty session's shard-side state is unknown (a lost
                // batch response may have executed): only a rebuild from
                // the recorded history makes another batch safe.
                let stale = sess.dirty || !shared.backends[sess.shard].routable();
                if (sent > 0 || stale) && !migrate_session(shared, id, sess, budget) {
                    break;
                }
                saw_routable = true;
                sess.shard
            }
        };
        if budget.expired() {
            let budget_ms = budget.ms;
            return Err(Failure::DeadlineExpired { budget_ms });
        }
        let backend = &shared.backends[index];
        // Admission comes after the deadline check, so a half-open probe
        // slot is never claimed and then abandoned unsent.
        if retry && backend.breaker().admit() == Admission::Shed {
            continue;
        }
        if sent > 0 {
            shared.retries.fetch_add(1, Ordering::SeqCst);
        }
        let outcome = send(backend, "POST", path, Some(body), budget);
        sent += 1;
        match outcome {
            Ok(resp) if resp.status == 200 => {
                backend.breaker().record(true);
                return Ok((index, resp));
            }
            Ok(resp) if resp.retryable() => {
                // The shard shed the request without running it: note its
                // retry hint and move on.
                backend.breaker().record(false);
                backend.count_failed();
                hint_ms = resp.retry_hint_ms().or(hint_ms);
                last_shed = Some((index, resp));
            }
            // A pinned session the shard no longer has (TTL eviction, a
            // restart, or a migration whose close outlived its reopen):
            // the router holds the full history, so rebuild rather than
            // forward a terminal 404 for a recoverable session.
            Ok(resp) if resp.status == 404 && !retry => backend.breaker().record(true),
            Ok(resp) => {
                // A structured error: the shard is responsive (the breaker
                // sees success) and the client must see the answer.
                backend.breaker().record(true);
                return Err(Failure::Forward { index, resp });
            }
            Err(_) => {
                // Lost in transit. A batch may or may not have executed,
                // so the session is dirty until a rebuild restores it.
                backend.breaker().record(false);
                backend.count_failed();
                if let Idempotency::RebuildThenRetry { sess, .. } = &mut idem {
                    sess.dirty = true;
                }
            }
        }
    }
    match last_shed {
        Some((index, resp)) => Err(Failure::Forward { index, resp }),
        None if !saw_routable => Err(Failure::NoCandidates),
        None => Err(Failure::Exhausted { sent }),
    }
}

/// Send one request to `backend` over a pooled keep-alive connection —
/// the only code that talks to a shard on a client request's behalf.
/// The hop's socket timeout and its forwarded `X-RI-Deadline-Ms` are what
/// remains of `budget`; the in-flight count covers the hop, so a drain
/// waits it out; and a transport failure marks the shard unhealthy until
/// a health poll clears it. A stale pooled connection is re-sent on only
/// for idempotent requests: a batch advances session state and may have
/// executed even though no response came back.
fn send(
    backend: &Backend,
    method: &str,
    path: &str,
    body: Option<&str>,
    budget: &Budget,
) -> io::Result<HttpResponse> {
    if budget.expired() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    let remaining = budget.remaining();
    let deadline = remaining.as_millis().to_string();
    let extra = [(DEADLINE_HEADER, deadline.as_str())];
    let idempotent = !path.ends_with("/batch");
    backend.begin_request();
    let mut conn = backend.checkout(remaining);
    let result = conn.request_with(method, path, body, &extra, idempotent);
    backend.end_request();
    match &result {
        Ok(_) => backend.checkin(conn),
        Err(_) => backend.observe(false),
    }
    result
}

/// The deterministic inter-retry backoff: `base · 2^(k-1)` plus seeded
/// jitter in `[0, base)`, capped at `backoff_cap_ms`, then floored by
/// the shard's own `Retry-After` hint (itself capped, so a pathological
/// hint cannot eat the whole budget sleeping).
fn backoff_delay_ms(
    cfg: &RouterConfig,
    jitter_key: u64,
    attempt: u32,
    hint_ms: Option<u64>,
) -> u64 {
    let base = cfg.backoff_base_ms;
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    let jitter = backoff_jitter_ms(jitter_key, attempt, base);
    let hint = hint_ms.unwrap_or(0).min(cfg.backoff_cap_ms);
    exp.saturating_add(jitter).min(cfg.backoff_cap_ms).max(hint)
}

/// Answer a request [`proxy`] could not serve; `what` names it in the
/// synthesized messages. A forwarded envelope keeps the shard's retry
/// hints (or the fallback `Retry-After: 1`) and names the shard.
fn respond_failure(
    shared: &Shared,
    stream: &mut TcpStream,
    failure: Failure,
    keep_alive: bool,
    what: &str,
) {
    let overloaded = |msg: String| ServeError::new(ServeErrorKind::Overloaded, msg);
    let err = match failure {
        Failure::Forward { index, resp } => {
            shared.errored.fetch_add(1, Ordering::SeqCst);
            if resp.status == 504 {
                shared.deadline_expired.fetch_add(1, Ordering::SeqCst);
            }
            let mut extra = vec![("X-RI-Shard", shared.backends[index].shard_id())];
            if resp.status == 503 {
                extra.push(("Retry-After", resp.header("retry-after").unwrap_or("1")));
                if let Some(ms) = resp.header(RETRY_AFTER_MS_HEADER) {
                    extra.push((RETRY_AFTER_MS_HEADER, ms));
                }
            }
            let _ = write_response_opts(stream, resp.status, keep_alive, &extra, &resp.body);
            return;
        }
        Failure::DeadlineExpired { budget_ms } => ServeError::new(
            ServeErrorKind::DeadlineExceeded,
            format!("deadline budget of {budget_ms} ms exhausted before any shard answered"),
        ),
        Failure::Exhausted { sent: 0 } => overloaded(format!(
            "every routable shard's circuit breaker is open for {what}; retry later"
        )),
        Failure::Exhausted { sent } => overloaded(format!(
            "every candidate shard failed {what} (tried {sent}); retry later"
        )),
        Failure::NoCandidates => {
            overloaded(format!("no routable shard could take {what}; retry later"))
        }
    };
    respond_error(shared, stream, &err, keep_alive);
}

/// `POST /stream`: assign the session id, pick its home shard by
/// consistent-hashing *the id*, and open it there (failing over along
/// the ring like `/solve` — an open has no state to lose yet).
fn handle_stream_open(
    shared: &Shared,
    stream: &mut TcpStream,
    body: &[u8],
    keep_alive: bool,
    budget: &Budget,
) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            let err = ServeError::bad_request("request body is not UTF-8");
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    // Validate with the same envelope code the backends use, and take
    // over id assignment: the router must know the id *before* the
    // session exists anywhere, because the id is the routing key.
    let mut spec = match StreamSpec::from_json(text) {
        Ok(s) => s,
        Err(err) => {
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let id = spec.session_id.clone().unwrap_or_else(|| {
        format!(
            "rs-{}",
            shared.session_seq.fetch_add(1, Ordering::SeqCst) + 1
        )
    });
    if lock(&shared.sticky).contains_key(&id) {
        let err = ServeError::bad_request(format!("session `{id}` is already open"));
        respond_error(shared, stream, &err, keep_alive);
        return;
    }
    spec.session_id = Some(id.clone());
    let open_body = spec.to_json();

    let idem = Idempotency::Retry { key: &id };
    match proxy(shared, "/stream", &open_body, budget, idem) {
        Ok((index, resp)) => {
            lock(&shared.sticky).insert(
                id,
                Arc::new(Mutex::new(StickySession {
                    shard: index,
                    open_body,
                    batches: Vec::new(),
                    dirty: false,
                })),
            );
            let extra = [("X-RI-Shard", shared.backends[index].shard_id())];
            let _ = write_response_opts(stream, 200, keep_alive, &extra, &resp.body);
        }
        Err(failure) => respond_failure(shared, stream, failure, keep_alive, "the session open"),
    }
}

/// `/stream/<id>[/batch]`: sticky-route to the session's pinned shard,
/// migrating the session first when that shard is gone.
fn handle_stream_session(
    shared: &Shared,
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
    budget: &Budget,
) {
    let rest = path.strip_prefix("/stream/").unwrap_or_default();
    let (id, action) = match rest.strip_suffix("/batch") {
        Some(id) => (id, "batch"),
        None => (rest, ""),
    };
    if id.is_empty() || id.contains('/') {
        let err = ServeError::new(
            ServeErrorKind::NotFound,
            format!("no such path `{path}`; stream paths are /stream/<id> and /stream/<id>/batch"),
        );
        respond_error(shared, stream, &err, keep_alive);
        return;
    }
    match (method, action) {
        ("POST", "batch") => handle_stream_batch(shared, stream, id, body, keep_alive, budget),
        ("GET" | "DELETE", "") => {
            handle_stream_pinned(shared, stream, method, id, keep_alive, budget)
        }
        _ => {
            let err = ServeError::new(
                ServeErrorKind::MethodNotAllowed,
                format!("{method} is not supported on {path}"),
            );
            respond_error(shared, stream, &err, keep_alive);
        }
    }
}

fn respond_no_session(shared: &Shared, stream: &mut TcpStream, id: &str, keep_alive: bool) {
    let err = ServeError::new(
        ServeErrorKind::NotFound,
        format!("no open session `{id}` (closed, evicted, or never opened here)"),
    );
    respond_error(shared, stream, &err, keep_alive);
}

/// `POST /stream/<id>/batch`: [`proxy`] the batch to the pinned shard,
/// rebuilding the session by close-and-replay when needed. The
/// per-session lock is held throughout, so batches within a session are
/// strictly ordered and migration never races a batch.
fn handle_stream_batch(
    shared: &Shared,
    stream: &mut TcpStream,
    id: &str,
    body: &[u8],
    keep_alive: bool,
    budget: &Budget,
) {
    let request = match std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not UTF-8"))
        .and_then(BatchRequest::from_json)
    {
        Ok(r) => r,
        Err(err) => {
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let Some(entry) = lock(&shared.sticky).get(id).cloned() else {
        respond_no_session(shared, stream, id, keep_alive);
        return;
    };
    let mut sess = lock(&entry);
    let path = format!("/stream/{id}/batch");
    let idem = Idempotency::RebuildThenRetry {
        id,
        sess: &mut sess,
    };
    match proxy(shared, &path, &request.to_json(), budget, idem) {
        Ok((index, resp)) => {
            let backend = &shared.backends[index];
            sess.batches.push(request.count);
            backend.count_served();
            shared.stream_batches.fetch_add(1, Ordering::SeqCst);
            record_stream_witness(shared, &sess, id, backend.shard_id(), &resp.body);
            let extra = [("X-RI-Shard", backend.shard_id())];
            let _ = write_response_opts(stream, 200, keep_alive, &extra, &resp.body);
        }
        Err(failure) => respond_failure(shared, stream, failure, keep_alive, "the batch"),
    }
}

/// `GET /stream/<id>` (info) and `DELETE /stream/<id>` (close): one hop
/// to the pinned shard. A close drops the pin even when the shard is
/// unreachable — the client wants the session gone, and the shard's own
/// idle TTL reaps the orphan if the shard is merely slow, not dead.
fn handle_stream_pinned(
    shared: &Shared,
    stream: &mut TcpStream,
    method: &str,
    id: &str,
    keep_alive: bool,
    budget: &Budget,
) {
    let close = method == "DELETE";
    let entry = if close {
        lock(&shared.sticky).remove(id)
    } else {
        lock(&shared.sticky).get(id).cloned()
    };
    let Some(entry) = entry else {
        respond_no_session(shared, stream, id, keep_alive);
        return;
    };
    let sess = lock(&entry);
    let backend = &shared.backends[sess.shard];
    let extra = [("X-RI-Shard", backend.shard_id())];
    match send(backend, method, &format!("/stream/{id}"), None, budget) {
        Ok(resp) => {
            let _ = write_response_opts(stream, resp.status, keep_alive, &extra, &resp.body);
        }
        Err(_) if close => {
            let body = Value::Obj(vec![
                ("session".into(), Value::Str(id.into())),
                ("closed".into(), Value::Bool(true)),
                ("shard_lost".into(), Value::Bool(true)),
            ])
            .write();
            let _ = write_response_opts(stream, 200, keep_alive, &extra, &body);
        }
        Err(_) => {
            let err = ServeError::new(
                ServeErrorKind::Overloaded,
                format!("session `{id}`'s shard did not answer; retry later"),
            );
            respond_error(shared, stream, &err, keep_alive);
        }
    }
}

/// Close-and-replay migration: best-effort close on the old shard, reopen
/// under the same id on the next routable shard along the session's ring
/// walk, and re-feed the recorded batch counts, every hop within
/// `budget`. Determinism makes the rebuilt session bit-identical to the
/// lost one, so re-feeds are internal bookkeeping: they are neither
/// witnessed nor counted as client-served batches, and they stay out of
/// breaker accounting. The old shard itself is the last-resort rebuild
/// target (its copy was just closed, so reopening there is clean) —
/// without it, a single-survivor fleet could strand a session forever.
/// Returns false when no shard could take it (stickiness is kept, so a
/// later batch retries migration); on success the rebuilt state is known
/// exactly, so the session's dirty flag is cleared.
fn migrate_session(shared: &Shared, id: &str, sess: &mut StickySession, budget: &Budget) -> bool {
    let old = sess.shard;
    let path = format!("/stream/{id}");
    let batch_path = format!("{path}/batch");
    // The old shard may be draining rather than dead: free its slot.
    let _ = send(&shared.backends[old], "DELETE", &path, None, budget);
    let mut candidates: Vec<usize> = shared
        .ring
        .order(id)
        .into_iter()
        .filter(|&index| index != old && shared.backends[index].routable())
        .collect();
    if shared.backends[old].routable() {
        candidates.push(old);
    }
    let served = |resp: io::Result<HttpResponse>| matches!(resp, Ok(r) if r.status == 200);
    for index in candidates {
        let backend = &shared.backends[index];
        // A previous migration attempt may have left an orphan copy here
        // (its open succeeded but the response was lost): close it first
        // so the reopen never collides with a half-built ghost.
        let _ = send(backend, "DELETE", &path, None, budget);
        let opened = send(backend, "POST", "/stream", Some(&sess.open_body), budget);
        if !served(opened) {
            continue; // admission-full, draining mid-open, or gone: next shard
        }
        let refed = sess.batches.iter().all(|&count| {
            let body = format!("{{\"count\":{count}}}");
            served(send(backend, "POST", &batch_path, Some(&body), budget))
        });
        if !refed {
            // Leave the half-rebuilt session to the shard's TTL sweep.
            let _ = send(backend, "DELETE", &path, None, budget);
            continue;
        }
        sess.shard = index;
        sess.dirty = false;
        shared.sessions_migrated.fetch_add(1, Ordering::SeqCst);
        return true;
    }
    false
}

/// Migrate every session pinned to `index` (drain integration): called
/// after the shard's in-flight requests settle, before it is detached.
fn migrate_shard_sessions(shared: &Shared, index: usize) {
    let pinned: Vec<(String, Arc<Mutex<StickySession>>)> = lock(&shared.sticky)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    for (id, entry) in pinned {
        let mut sess = lock(&entry);
        if sess.shard == index {
            // No client request is waiting: a fresh budget per session.
            let budget = Budget::new(shared.cfg.request_timeout_ms);
            let _ = migrate_session(shared, &id, &mut sess, &budget);
        }
    }
}

/// Persist one client-served stream batch to the witness log: session id,
/// the opening spec (parsed back from the replay body, so it carries the
/// client's own config), the serving shard, and the full delta. `ri
/// witness replay` re-feeds these per session and compares with `==`.
fn record_stream_witness(
    shared: &Shared,
    sess: &StickySession,
    id: &str,
    shard_id: &str,
    body: &str,
) {
    let Some(log) = &shared.witness else { return };
    let (Ok(spec), Ok(delta)) = (
        StreamSpec::from_json(&sess.open_body),
        json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|v| BatchDelta::from_value(&v).map_err(|e| e.to_string())),
    ) else {
        return; // an unparseable 200 is a backend bug; never witnessed
    };
    let _ = log.append_stream(&StreamBatchRecord {
        session: id.to_string(),
        spec,
        shard: shard_id.to_string(),
        delta,
    });
}

/// Persist a routed 200 to the witness log (when enabled) and the cache.
/// A body the router cannot parse is a backend bug; it is still returned
/// to the client verbatim but never witnessed or cached.
fn record_witness(shared: &Shared, shard_id: &str, key: &str, body: &str) {
    if let Ok(resp) = ServeResponse::from_json(body) {
        if let Some(log) = &shared.witness {
            let _ = log.append(&WitnessRecord::from_response(&resp, shard_id));
        }
        shared.cache.insert(key, body);
    }
}

/// `GET /problems`: proxied from the first shard that answers — the
/// registry is identical across the fleet by construction.
fn handle_problems(shared: &Shared, stream: &mut TcpStream, keep_alive: bool, budget: &Budget) {
    for backend in shared.backends.iter().filter(|b| b.routable()) {
        if let Ok(resp) = send(backend, "GET", "/problems", None, budget) {
            let _ = write_response_opts(stream, resp.status, keep_alive, &[], &resp.body);
            return;
        }
    }
    let err = ServeError::new(ServeErrorKind::Overloaded, "no shard answered /problems");
    respond_error(shared, stream, &err, keep_alive);
}

/// `POST /admin/drain {"shard_id": "..."}`: stop routing to the shard,
/// then (off-thread) wait out its in-flight requests and stop it.
fn handle_drain(shared: &Arc<Shared>, stream: &mut TcpStream, body: &[u8], keep_alive: bool) {
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok());
    let shard_id = match parsed
        .as_ref()
        .and_then(|v| v.get("shard_id"))
        .and_then(Value::as_str)
    {
        Some(id) => id.to_string(),
        None => {
            let err = ServeError::bad_request("drain body must be {\"shard_id\": \"...\"}");
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let Some(index) = shared
        .backends
        .iter()
        .position(|b| b.shard_id() == shard_id)
    else {
        let err = ServeError::new(
            ServeErrorKind::NotFound,
            format!("no shard named `{shard_id}`"),
        );
        respond_error(shared, stream, &err, keep_alive);
        return;
    };

    let already = !shared.backends[index].begin_drain();
    if !already {
        // Finish the drain off-thread: new requests already avoid the
        // shard; once its in-flight count hits zero it is detached (and
        // a spawned child killed).
        let drain_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("ri-router-drain-{shard_id}"))
            .spawn(move || {
                let backend = &drain_shared.backends[index];
                let t0 = Instant::now();
                while backend.inflight() > 0 && t0.elapsed() < Duration::from_secs(300) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                // The shard is quiet and unroutable but still up: move
                // its streaming sessions somewhere routable while the
                // old copies can still be closed gracefully.
                migrate_shard_sessions(&drain_shared, index);
                backend.detach();
            });
    }
    let body = Value::Obj(vec![
        ("status".into(), Value::Str("draining".into())),
        ("shard_id".into(), Value::Str(shard_id)),
        ("already_draining".into(), Value::Bool(already)),
    ])
    .write();
    let _ = write_response_opts(stream, 200, keep_alive, &[], &body);
}

fn respond_error(shared: &Shared, stream: &mut impl io::Write, err: &ServeError, keep_alive: bool) {
    shared.errored.fetch_add(1, Ordering::SeqCst);
    if err.kind == ServeErrorKind::DeadlineExceeded {
        shared.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }
    let status = err.http_status();
    let extra: &[(&str, &str)] = if status == 503 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let _ = write_response_opts(stream, status, keep_alive, extra, &err.to_json());
}

/// The router's `/healthz`: the cluster view. `status` is `ok` when every
/// routable shard is healthy, `degraded` when at least one healthy shard
/// remains, `down` when none does (draining reports `draining`).
fn health_value(shared: &Shared) -> Value {
    let mut shards = Vec::with_capacity(shared.backends.len());
    let mut healthy = 0usize;
    let mut routable = 0usize;
    for backend in &shared.backends {
        let state = backend.state();
        if backend.routable() {
            routable += 1;
        }
        if state == BackendState::Healthy {
            healthy += 1;
        }
        let (opened, half_opened, reclosed, rejected) = backend.breaker().counters();
        shards.push(Value::Obj(vec![
            ("shard_id".into(), Value::Str(backend.shard_id().into())),
            ("addr".into(), Value::Str(backend.addr().to_string())),
            ("state".into(), Value::Str(state.as_str().into())),
            ("inflight".into(), Value::Num(backend.inflight() as f64)),
            ("served".into(), Value::Num(backend.served() as f64)),
            ("failed".into(), Value::Num(backend.failed() as f64)),
            (
                "sessions_open".into(),
                Value::Num(backend.sessions_open() as f64),
            ),
            (
                "batches_served".into(),
                Value::Num(backend.batches_served() as f64),
            ),
            (
                "breaker".into(),
                Value::Obj(vec![
                    (
                        "state".into(),
                        Value::Str(backend.breaker().state().as_str().into()),
                    ),
                    ("opened".into(), Value::Num(opened as f64)),
                    ("half_opened".into(), Value::Num(half_opened as f64)),
                    ("reclosed".into(), Value::Num(reclosed as f64)),
                    ("rejected".into(), Value::Num(rejected as f64)),
                ]),
            ),
        ]));
    }
    let status = if shared.front.draining() {
        "draining"
    } else if healthy == routable && routable > 0 {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "down"
    };
    let witness = match &shared.witness {
        Some(log) => Value::Obj(vec![
            ("path".into(), Value::Str(log.path().display().to_string())),
            ("appended".into(), Value::Num(log.appended() as f64)),
        ]),
        None => Value::Null,
    };
    Value::Obj(vec![
        ("status".into(), Value::Str(status.into())),
        (
            "version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("shards".into(), Value::Arr(shards)),
        (
            "routed".into(),
            Value::Num(shared.routed.load(Ordering::SeqCst) as f64),
        ),
        (
            "retries".into(),
            Value::Num(shared.retries.load(Ordering::SeqCst) as f64),
        ),
        (
            "errored".into(),
            Value::Num(shared.errored.load(Ordering::SeqCst) as f64),
        ),
        (
            "robustness".into(),
            Value::Obj(vec![
                (
                    "deadline_expired".into(),
                    Value::Num(shared.deadline_expired.load(Ordering::SeqCst) as f64),
                ),
                (
                    "backoff_sleeps".into(),
                    Value::Num(shared.backoff_sleeps.load(Ordering::SeqCst) as f64),
                ),
                (
                    "backoff_total_ms".into(),
                    Value::Num(shared.backoff_total_ms.load(Ordering::SeqCst) as f64),
                ),
                (
                    "breakers_open".into(),
                    Value::Num(
                        shared
                            .backends
                            .iter()
                            .filter(|b| b.breaker().state() != BreakerState::Closed)
                            .count() as f64,
                    ),
                ),
            ]),
        ),
        (
            "sessions".into(),
            Value::Obj(vec![
                ("open".into(), Value::Num(lock(&shared.sticky).len() as f64)),
                (
                    "migrated".into(),
                    Value::Num(shared.sessions_migrated.load(Ordering::SeqCst) as f64),
                ),
                (
                    "stream_batches".into(),
                    Value::Num(shared.stream_batches.load(Ordering::SeqCst) as f64),
                ),
            ]),
        ),
        (
            "cache".into(),
            Value::Obj(vec![
                ("hits".into(), Value::Num(shared.cache.hits() as f64)),
                ("misses".into(), Value::Num(shared.cache.misses() as f64)),
                ("size".into(), Value::Num(shared.cache.len() as f64)),
            ]),
        ),
        ("witness".into(), witness),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_hint_floored() {
        let cfg = RouterConfig::default();
        let key = ring::fnv1a(b"some-witness-key");
        // Deterministic: the same (key, attempt) always yields the same
        // delay, and jitter stays under one base step.
        for attempt in 1..=4u32 {
            let a = backoff_delay_ms(&cfg, key, attempt, None);
            let b = backoff_delay_ms(&cfg, key, attempt, None);
            assert_eq!(a, b);
            let exp = cfg.backoff_base_ms << (attempt - 1);
            assert!(
                a >= exp && a < exp + cfg.backoff_base_ms,
                "attempt {attempt}: {a}"
            );
        }
        // Capped.
        assert!(backoff_delay_ms(&cfg, key, 12, None) <= cfg.backoff_cap_ms);
        // A shard's Retry-After hint floors the delay (capped too).
        assert!(backoff_delay_ms(&cfg, key, 1, Some(400)) >= 400);
        assert!(backoff_delay_ms(&cfg, key, 1, Some(60_000)) <= cfg.backoff_cap_ms);
    }
}
