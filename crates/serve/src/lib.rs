//! # `ri-serve` — the batched serving layer over the problem registry
//!
//! The ROADMAP's serving milestone: an HTTP/1.1-over-TCP transport for the
//! `{problem, workload, config}` → `{summary, report}` contract the `ri`
//! CLI fixed, running every solve at one server-wide width. std-only,
//! dependency-free, `#![forbid(unsafe_code)]`.
//!
//! ## Endpoints
//!
//! * `POST /solve` — a [`ServeRequest`] JSON body; answers with a
//!   [`ServeResponse`] (200) or a structured [`ServeError`] (4xx/5xx).
//! * `POST /stream` — open a streaming session from a [`StreamSpec`]
//!   body; `POST /stream/<id>/batch` feeds it (a [`BatchRequest`] body,
//!   answered with the batch's delta + per-batch trace), `GET
//!   /stream/<id>` inspects it, `DELETE /stream/<id>` closes it. See
//!   [`session`] for lifecycle, admission and eviction.
//! * `GET /problems` — the registry listing (names + descriptions).
//! * `POST /admin/chaos` / `GET /admin/chaos` — install, clear, or
//!   inspect the deterministic fault-injection plan
//!   ([`ri_core::engine::faults::FaultPlan`]): seeded per-request
//!   latency/stall/drop/503/crash faults for chaos soaks. Admin and
//!   health paths are never themselves faulted.
//! * `GET /healthz` — liveness plus queue observability (depth, inflight,
//!   served counts), session counters (`sessions_open`,
//!   `sessions_evicted`, `batches_served`, scratch rollups), the
//!   server's `shard_id` and build `version`; served directly by the
//!   connection thread, so it never waits behind in-flight solves.
//!
//! Connections are persistent: the handler honors HTTP/1.1
//! `Connection: keep-alive` (and advertises it back), serving any number
//! of requests per connection — what lets the `ri-router` front tier and
//! `loadgen` reuse one TCP connection per backend instead of paying a
//! connect per solve. The accept and keep-alive loop lives in [`http`]
//! and is shared with `ri-router`; this crate supplies the route table.
//!
//! ## The batching executor
//!
//! The paper's algorithms tolerate batched, out-of-order execution — the
//! whole point of the low-dependence-depth analysis — which is what makes
//! concurrent requests safe to multiplex onto shared compute. The server
//! exploits that with a three-stage design:
//!
//! 1. **Admission**: each `POST /solve` passes a `max_inflight` gate
//!    (everything admitted but not yet answered counts); past it, the
//!    request is rejected immediately with `503 overloaded` rather than
//!    queued without bound.
//! 2. **The MPSC queue**: admitted requests are enqueued with their
//!    arrival time. A fixed set of **executor threads** drains the queue;
//!    a request that waited past `deadline_ms` is answered
//!    `504 deadline-exceeded` without being solved.
//! 3. **One width per server**: at startup the server resolves
//!    `cfg.threads` to a width through [`Runner::pool`] (which measures
//!    that width's region cost once); every parallel solve is clamped to
//!    that width, whatever width its client asked for. The width is
//!    explicit per-[`ServeConfig`], not first-call-wins process state:
//!    several in-process servers (as the router tests spawn) can pin
//!    different widths.
//!
//! Shutdown is graceful: the acceptor stops, queued requests drain
//! through the executors (each still gets its response), and worker
//! threads are joined.

#![forbid(unsafe_code)]

pub mod http;
pub mod session;

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ri_core::engine::envelope::{ServeError, ServeErrorKind, ServeRequest, ServeResponse};
use ri_core::engine::faults::{FaultKind, FaultPlan, DEADLINE_HEADER, RETRY_AFTER_MS_HEADER};
use ri_core::engine::json::{self, Value};
use ri_core::engine::session::{BatchRequest, StreamSpec};
use ri_core::engine::{ExecMode, Registry, Runner};

use http::{write_response_opts, Front, HttpRequest, Service};
use session::{SessionConfig, SessionManager};

/// Server tuning knobs. Every field has a serving-sensible default;
/// `addr` `"127.0.0.1:0"` binds an ephemeral port (read it back from
/// [`Server::local_addr`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `host:port` (`port` 0 = ephemeral).
    pub addr: String,
    /// Width every solve runs at (`0` = machine default). Parallel
    /// requests are clamped to this width; the echoed `config.threads`
    /// documents the effective value.
    pub threads: usize,
    /// Executor threads draining the solve queue (how many solves run
    /// concurrently).
    pub executors: usize,
    /// Admission gate: maximum requests admitted but not yet answered
    /// (queued + executing). Beyond it, `/solve` answers `503`.
    pub max_inflight: usize,
    /// Queue-wait deadline: a request still queued after this many
    /// milliseconds is answered `504` without being solved.
    pub deadline_ms: u64,
    /// Maximum accepted `/solve` body size in bytes (larger bodies are
    /// answered `413` without being read).
    pub max_body_bytes: usize,
    /// Maximum simultaneous connection-handler threads. Connections
    /// beyond it are answered `503` directly from the acceptor, so the
    /// admission gate cannot be bypassed by opening sockets that never
    /// reach `/solve`.
    pub max_connections: usize,
    /// This server's shard identity, echoed in `/healthz` (empty for a
    /// standalone server; the `ri-router` front tier assigns one per
    /// backend and verifies it on health polls).
    pub shard_id: String,
    /// Maximum simultaneously open streaming sessions (`POST /stream`
    /// past it answers `503`).
    pub max_sessions: usize,
    /// Idle streaming sessions are evicted after this many milliseconds.
    pub session_ttl_ms: u64,
    /// Per-session resident-byte cap for streaming state.
    pub session_bytes: usize,
    /// Initial fault-injection plan (the `--chaos` flag); also settable
    /// at runtime via `POST /admin/chaos`. `None` = no chaos.
    pub chaos: Option<FaultPlan>,
    /// Whether a `crash-after` fault exits the process (the `ri-serve`
    /// binary does; in-process test servers emulate the crash by going
    /// dark — dropping every connection without a byte — instead).
    pub chaos_exit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            executors: 2,
            max_inflight: 64,
            deadline_ms: 30_000,
            max_body_bytes: 1 << 20,
            max_connections: 256,
            shard_id: String::new(),
            max_sessions: 64,
            session_ttl_ms: 300_000,
            session_bytes: 64 << 20,
            chaos: None,
            chaos_exit: false,
        }
    }
}

/// One queued solve: the parsed request, when it was admitted, its
/// effective queue-wait deadline (the server default clamped by any
/// propagated `X-RI-Deadline-Ms` budget), and the channel its response
/// goes back on.
struct Job {
    request: ServeRequest,
    enqueued: Instant,
    deadline_ms: u64,
    reply: SyncSender<Result<ServeResponse, ServeError>>,
}

/// Runtime fault-injection state: the active plan (swappable via
/// `POST /admin/chaos`), the monotone request index that keys the
/// schedule, and the per-class injection counters surfaced in
/// `/healthz`. Installing a plan resets the index, so a chaos phase
/// always starts at schedule position 0.
struct ChaosState {
    plan: Mutex<Option<Arc<FaultPlan>>>,
    index: AtomicU64,
    injected_latency: AtomicU64,
    injected_stall: AtomicU64,
    injected_drop: AtomicU64,
    injected_error: AtomicU64,
    /// Set once a `crash-after` budget is exhausted: the shard goes dark
    /// (every connection dropped without a byte) until a new plan is
    /// installed in-process or the process is restarted.
    crashed: AtomicBool,
}

impl ChaosState {
    fn new(plan: Option<FaultPlan>) -> Self {
        ChaosState {
            plan: Mutex::new(plan.map(Arc::new)),
            index: AtomicU64::new(0),
            injected_latency: AtomicU64::new(0),
            injected_stall: AtomicU64::new(0),
            injected_drop: AtomicU64::new(0),
            injected_error: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }
    }

    /// Swap the active plan (None clears), resetting the schedule index,
    /// the injection counters, and an emulated crash.
    fn install(&self, plan: Option<FaultPlan>) {
        *lock(&self.plan) = plan.map(Arc::new);
        self.index.store(0, Ordering::SeqCst);
        self.injected_latency.store(0, Ordering::SeqCst);
        self.injected_stall.store(0, Ordering::SeqCst);
        self.injected_drop.store(0, Ordering::SeqCst);
        self.injected_error.store(0, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Draw the fault for the next faultable request (if a plan is
    /// active), advancing the schedule index and counting the injection.
    fn next_fault(&self) -> Option<FaultKind> {
        let plan = lock(&self.plan).clone()?;
        let index = self.index.fetch_add(1, Ordering::SeqCst);
        let fault = plan.fault_for(index)?;
        match fault {
            FaultKind::Latency { .. } => &self.injected_latency,
            FaultKind::Stall { .. } => &self.injected_stall,
            FaultKind::DropMidResponse => &self.injected_drop,
            FaultKind::Err503 => &self.injected_error,
            FaultKind::Crash => {
                self.crashed.store(true, Ordering::SeqCst);
                return Some(fault);
            }
        }
        .fetch_add(1, Ordering::SeqCst);
        Some(fault)
    }
}

/// State shared by the acceptor, connection threads and executors.
struct Shared {
    registry: Registry,
    cfg: ServeConfig,
    /// Effective solve width (resolved from `cfg.threads`).
    pool_width: usize,
    /// Sender side of the solve queue; taken (set to `None`) at shutdown
    /// so executors see disconnect once the queue drains and late
    /// arrivals are answered `503`.
    queue_tx: Mutex<Option<Sender<Job>>>,
    /// Jobs enqueued but not yet picked up by an executor.
    queue_depth: AtomicUsize,
    /// Requests admitted but not yet answered (queued + executing).
    inflight: AtomicUsize,
    /// Successfully solved requests.
    served: AtomicUsize,
    /// Requests answered with an error envelope.
    errored: AtomicUsize,
    /// Connection cap, body limit, and the draining flag (set once
    /// shutdown begins; health reports `draining`).
    front: Front,
    /// The streaming session store (`/stream` endpoints).
    sessions: SessionManager,
    /// Fault-injection state (`--chaos` / `POST /admin/chaos`).
    chaos: ChaosState,
    /// Cumulative wall-milliseconds executors spent inside solves — the
    /// numerator of the mean-service-time estimate behind the
    /// pressure-derived `Retry-After`.
    busy_ms: AtomicU64,
    /// Requests answered `504 deadline-exceeded` (queue wait or an
    /// exhausted propagated budget).
    deadline_expired: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running server: owns the acceptor and executor threads. Dropping a
/// `Server` without calling [`Server::shutdown`] detaches them (the
/// process-exit path for the `ri-serve` binary); `shutdown` stops
/// accepting, drains the queue, and joins everything.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, fix the solve width, and start the acceptor and
    /// executor threads. Returns once the listener is accepting.
    pub fn start(registry: Registry, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        // ONE width for this server, fixed (and its region cost measured)
        // now rather than on the first request. It comes from this config
        // alone (0 = machine default) — other servers in the same process
        // are free to pin different widths.
        let pool = Runner::pool(cfg.threads);
        let pool_width = pool.current_num_threads();

        let (tx, rx) = mpsc::channel::<Job>();
        let sessions = SessionManager::new(SessionConfig {
            max_sessions: cfg.max_sessions,
            idle_ttl_ms: cfg.session_ttl_ms,
            max_session_bytes: cfg.session_bytes,
        });
        let chaos = ChaosState::new(cfg.chaos.clone());
        let shared = Arc::new(Shared {
            registry,
            pool_width,
            queue_tx: Mutex::new(Some(tx)),
            queue_depth: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            errored: AtomicUsize::new(0),
            // Socket timeouts derive from the queue deadline: a client is
            // given at least the full deadline window to feed or drain a
            // request before the socket gives up on it.
            front: Front::new(
                cfg.max_connections,
                cfg.max_body_bytes,
                Duration::from_millis(cfg.deadline_ms.max(10_000)),
            ),
            sessions,
            chaos,
            busy_ms: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            cfg,
        });

        let rx = Arc::new(Mutex::new(rx));
        let mut executors = Vec::new();
        for i in 0..shared.cfg.executors.max(1) {
            let (exec_shared, rx) = (Arc::clone(&shared), Arc::clone(&rx));
            let spawned = std::thread::Builder::new()
                .name(format!("ri-serve-exec-{i}"))
                .spawn(move || executor_loop(&exec_shared, &rx));
            match spawned {
                Ok(exec) => executors.push(exec),
                // The executors already started would wait on the queue
                // forever: close it, so they exit, and join them.
                Err(e) => {
                    *lock(&shared.queue_tx) = None;
                    executors.into_iter().for_each(|exec| drop(exec.join()));
                    return Err(e);
                }
            }
        }

        let acceptor = http::spawn_acceptor("ri-serve", listener, Arc::clone(&shared))?;

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            executors,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The width every solve runs at.
    pub fn pool_width(&self) -> usize {
        self.shared.pool_width
    }

    /// Install (or clear, with `""`/`"off"`) a fault-injection plan —
    /// the in-process equivalent of `POST /admin/chaos`. Resets the
    /// schedule index, injection counters, and any emulated crash.
    pub fn set_chaos(&self, spec: &str) -> Result<(), String> {
        let plan = FaultPlan::parse(spec)?;
        self.shared.chaos.install(plan);
        Ok(())
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// admitted (the executors drain the queue), and join all threads.
    pub fn shutdown(mut self) {
        // Late /solve arrivals now get `503 overloaded`; dropping the
        // sole sender means the executors see disconnect — and exit —
        // as soon as the already-queued jobs are drained and answered.
        *lock(&self.shared.queue_tx) = None;
        if let Some(acceptor) = self.acceptor.take() {
            self.shared.front.stop(self.addr, acceptor);
        }
        for exec in self.executors.drain(..) {
            let _ = exec.join();
        }
        self.shared.front.wait_idle();
    }
}

impl Service for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// Route one request, applying this request's fault (if any) first.
    fn handle(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        request: &HttpRequest,
        keep_alive: bool,
    ) -> bool {
        let shared = self;
        // An emulated crash (in-process `crash-after`): the shard is
        // dark — drop the connection without a byte, exactly like a dead
        // process's RSTs look to the peer.
        if shared.chaos.crashed.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }

        // The propagated end-to-end budget (router ingress sets it,
        // decrementing per hop): clamps this request's queue deadline.
        let budget_ms = request
            .header(DEADLINE_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok());

        // Fault injection applies to the request-serving paths only —
        // never to health polls or chaos administration, so an operator
        // (and the router's health loop) can always see and steer a
        // chaotic shard.
        let method = request.method.as_str();
        let path = request.path.as_str();
        let faultable = matches!((method, path), ("POST", "/solve") | ("POST", "/stream"))
            || (method == "POST"
                && path.strip_prefix("/stream/").is_some_and(|r| !r.is_empty())
                && path.ends_with("/batch"));
        let fault = if faultable {
            shared.chaos.next_fault()
        } else {
            None
        };
        let mut write_fault = None;
        match fault {
            Some(FaultKind::Crash) => {
                if shared.cfg.chaos_exit {
                    std::process::exit(3);
                }
                let _ = stream.shutdown(Shutdown::Both);
                return false;
            }
            Some(FaultKind::Latency { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultKind::Err503) => {
                let err = ServeError::new(
                    ServeErrorKind::Overloaded,
                    "chaos: injected spurious 503; retry elsewhere",
                );
                respond_error(shared, stream, &err, keep_alive);
                return true;
            }
            Some(f @ (FaultKind::Stall { .. } | FaultKind::DropMidResponse)) => {
                write_fault = Some(f);
            }
            None => {}
        }

        // All responses for this request flow through one chaos-aware
        // writer, so stall/drop faults apply uniformly wherever the
        // handler answers from.
        let mut out = ChaosWriter::new(stream, write_fault);
        match (method, path) {
            ("POST", "/solve") => {
                handle_solve(shared, &mut out, &request.body, keep_alive, budget_ms)
            }
            ("POST", "/stream") => handle_stream_open(shared, &mut out, &request.body, keep_alive),
            (method, path) if path.strip_prefix("/stream/").is_some_and(|r| !r.is_empty()) => {
                handle_stream_session(shared, &mut out, method, path, &request.body, keep_alive)
            }
            ("GET", "/healthz") => {
                let body = health_value(shared).write();
                let _ = write_response_opts(&mut out, 200, keep_alive, &[], &body);
            }
            ("GET", "/problems") => {
                let body = problems_value(&shared.registry).write();
                let _ = write_response_opts(&mut out, 200, keep_alive, &[], &body);
            }
            ("POST", "/admin/chaos") => {
                handle_chaos_admin(shared, &mut out, &request.body, keep_alive)
            }
            ("GET", "/admin/chaos") => {
                let body = chaos_value(shared).write();
                let _ = write_response_opts(&mut out, 200, keep_alive, &[], &body);
            }
            (_, "/solve")
            | (_, "/stream")
            | (_, "/healthz")
            | (_, "/problems")
            | (_, "/admin/chaos") => {
                let err = ServeError::new(
                    ServeErrorKind::MethodNotAllowed,
                    format!("{method} is not supported on {path}"),
                );
                respond_error(shared, &mut out, &err, keep_alive);
            }
            (_, path) => {
                let err = ServeError::new(
                    ServeErrorKind::NotFound,
                    format!(
                        "no such path `{path}`; try POST /solve, POST /stream, \
                         GET /problems, GET /healthz"
                    ),
                );
                respond_error(shared, &mut out, &err, keep_alive);
            }
        }
        !out.severed()
    }

    fn reject(&self, stream: &mut TcpStream, err: &ServeError) {
        respond_error(self, stream, err, false);
    }
}

/// A per-request response writer that can inject write-side faults: it
/// buffers the response and applies the fault at flush — `Stall` writes
/// the head, holds, then completes; `DropMidResponse` writes the head
/// plus half the body and severs the connection, leaving the peer with
/// a truncated `Content-Length` frame (a transport error, not a
/// structured envelope — exactly what a mid-response crash looks like).
struct ChaosWriter<'a> {
    stream: &'a TcpStream,
    fault: Option<FaultKind>,
    buf: Vec<u8>,
    severed: bool,
}

impl<'a> ChaosWriter<'a> {
    fn new(stream: &'a TcpStream, fault: Option<FaultKind>) -> Self {
        ChaosWriter {
            stream,
            fault,
            buf: Vec::new(),
            severed: false,
        }
    }

    /// Whether a drop fault severed the connection (the keep-alive loop
    /// must end; there is no usable framing left).
    fn severed(&self) -> bool {
        self.severed
    }
}

impl Write for ChaosWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let data = std::mem::take(&mut self.buf);
        if data.is_empty() {
            return Ok(());
        }
        let head_end = data
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |p| p + 4);
        let mut out = self.stream;
        match self.fault.take() {
            Some(FaultKind::Stall { ms }) => {
                out.write_all(&data[..head_end])?;
                out.flush()?;
                std::thread::sleep(Duration::from_millis(ms));
                out.write_all(&data[head_end..])?;
                out.flush()
            }
            Some(FaultKind::DropMidResponse) => {
                let cut = head_end + (data.len() - head_end) / 2;
                let _ = out.write_all(&data[..cut]);
                let _ = out.flush();
                let _ = self.stream.shutdown(Shutdown::Both);
                self.severed = true;
                Ok(())
            }
            _ => {
                out.write_all(&data)?;
                out.flush()
            }
        }
    }
}

/// `POST /admin/chaos`: install or clear the fault plan at runtime. The
/// body is either `{"spec": "..."}` or a bare spec string; an empty /
/// `"off"` spec clears. Answers with the applied plan (or `null`).
fn handle_chaos_admin(shared: &Arc<Shared>, out: &mut impl Write, body: &[u8], keep_alive: bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t.trim(),
        Err(_) => {
            let err = ServeError::bad_request("request body is not UTF-8");
            respond_error(shared, out, &err, keep_alive);
            return;
        }
    };
    let spec = match json::parse(text) {
        Ok(v) => match v.get("spec").and_then(|s| s.as_str()) {
            Some(s) => s.to_string(),
            None => {
                let err = ServeError::bad_request("chaos body wants {\"spec\": \"...\"}");
                respond_error(shared, out, &err, keep_alive);
                return;
            }
        },
        // Not JSON: treat the raw body as the spec itself.
        Err(_) => text.to_string(),
    };
    match FaultPlan::parse(&spec) {
        Ok(plan) => {
            shared.chaos.install(plan);
            let body = chaos_value(shared).write();
            let _ = write_response_opts(out, 200, keep_alive, &[], &body);
        }
        Err(msg) => {
            let err = ServeError::bad_request(msg);
            respond_error(shared, out, &err, keep_alive);
        }
    }
}

/// The `/admin/chaos` document: the active plan (or `null`) plus the
/// schedule index and per-class injection counters.
fn chaos_value(shared: &Shared) -> Value {
    let plan = lock(&shared.chaos.plan)
        .as_ref()
        .map_or(Value::Null, |p| p.to_value());
    Value::Obj(vec![
        ("chaos".into(), plan),
        (
            "index".into(),
            Value::Num(shared.chaos.index.load(Ordering::SeqCst) as f64),
        ),
        (
            "injected_latency".into(),
            Value::Num(shared.chaos.injected_latency.load(Ordering::SeqCst) as f64),
        ),
        (
            "injected_stall".into(),
            Value::Num(shared.chaos.injected_stall.load(Ordering::SeqCst) as f64),
        ),
        (
            "injected_drop".into(),
            Value::Num(shared.chaos.injected_drop.load(Ordering::SeqCst) as f64),
        ),
        (
            "injected_error".into(),
            Value::Num(shared.chaos.injected_error.load(Ordering::SeqCst) as f64),
        ),
        (
            "crashed".into(),
            Value::Bool(shared.chaos.crashed.load(Ordering::SeqCst)),
        ),
    ])
}

/// `POST /solve`: parse, admit, enqueue, wait for the executor's answer.
/// `budget_ms` is the propagated `X-RI-Deadline-Ms` budget (if any): it
/// clamps the queue-wait deadline, and a budget that arrives already
/// exhausted is answered `504` without touching the queue.
fn handle_solve(
    shared: &Arc<Shared>,
    stream: &mut impl Write,
    body: &[u8],
    keep_alive: bool,
    budget_ms: Option<u64>,
) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            let err = ServeError::bad_request("request body is not UTF-8");
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    let deadline_ms = budget_ms.map_or(shared.cfg.deadline_ms, |b| b.min(shared.cfg.deadline_ms));
    if deadline_ms == 0 {
        let err = ServeError::new(
            ServeErrorKind::DeadlineExceeded,
            "deadline budget exhausted before the request could be queued",
        );
        respond_error(shared, stream, &err, keep_alive);
        return;
    }
    let mut request = match ServeRequest::from_json(text) {
        Ok(r) => r,
        Err(err) => {
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    // Clamp multi-threaded solves (parallel and relaxed alike) to the
    // server's width, whatever widths clients ask for. The response's
    // config echo documents the effective width.
    if request.config.mode != ExecMode::Sequential {
        request.config.threads = Some(shared.pool_width);
    }

    // Admission gate: bound what is queued + executing.
    if !admit(shared) {
        let err = ServeError::new(
            ServeErrorKind::Overloaded,
            format!(
                "{} requests already in flight (limit {}); retry later",
                shared.inflight.load(Ordering::SeqCst),
                shared.cfg.max_inflight
            ),
        );
        respond_error(shared, stream, &err, keep_alive);
        return;
    }

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job {
        request,
        enqueued: Instant::now(),
        deadline_ms,
        reply: reply_tx,
    };
    let sent = {
        let tx = lock(&shared.queue_tx);
        match tx.as_ref() {
            Some(tx) => {
                shared.queue_depth.fetch_add(1, Ordering::SeqCst);
                tx.send(job).is_ok()
            }
            None => false,
        }
    };
    if !sent {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        let err = ServeError::new(ServeErrorKind::Overloaded, "server is draining");
        respond_error(shared, stream, &err, keep_alive);
        return;
    }

    // The executor always replies (deadline misses and panics included);
    // the generous timeout only guards against executor-thread death.
    let deadline = Duration::from_millis(deadline_ms);
    match reply_rx.recv_timeout(deadline + Duration::from_secs(600)) {
        Ok(Ok(response)) => {
            shared.served.fetch_add(1, Ordering::SeqCst);
            let _ = write_response_opts(stream, 200, keep_alive, &[], &response.to_json());
        }
        Ok(Err(err)) => respond_error(shared, stream, &err, keep_alive),
        Err(_) => {
            let err = ServeError::new(ServeErrorKind::Internal, "executor did not answer");
            respond_error(shared, stream, &err, keep_alive);
        }
    }
}

/// `POST /stream`: open a streaming session. Admission, duplicate-id
/// and byte-cap checks live in the [`SessionManager`]; this handler
/// parses, clamps the config to the server's width (like `/solve`), and
/// answers with the session-info document.
fn handle_stream_open(
    shared: &Arc<Shared>,
    stream: &mut impl Write,
    body: &[u8],
    keep_alive: bool,
) {
    // A draining server sheds state-advancing stream requests with a
    // retryable error, so a router reopens the session elsewhere instead
    // of parking new state on a shard about to disappear.
    if shared.front.draining() {
        let err = ServeError::new(ServeErrorKind::Overloaded, "server is draining");
        respond_error(shared, stream, &err, keep_alive);
        return;
    }
    let parsed = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not UTF-8"))
        .and_then(StreamSpec::from_json);
    let mut spec = match parsed {
        Ok(s) => s,
        Err(err) => {
            respond_error(shared, stream, &err, keep_alive);
            return;
        }
    };
    if spec.config.mode != ExecMode::Sequential {
        spec.config.threads = Some(shared.pool_width);
    }
    match shared.sessions.open(&shared.registry, spec) {
        Ok(info) => {
            let _ = write_response_opts(stream, 200, keep_alive, &[], &info.write());
        }
        Err(err) => respond_error(shared, stream, &err, keep_alive),
    }
}

/// `/stream/<id>` and `/stream/<id>/batch`: feed, inspect or close one
/// session. Batches run here, on the connection thread — consecutive
/// batches over a keep-alive connection reuse its warm per-thread
/// scratch pools — bounded by the session store's own admission, not
/// the one-shot solve queue.
fn handle_stream_session(
    shared: &Arc<Shared>,
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) {
    let rest = path.strip_prefix("/stream/").unwrap_or_default();
    let (id, action) = match rest.strip_suffix("/batch") {
        Some(id) => (id, "batch"),
        None => (rest, ""),
    };
    if id.is_empty() || id.contains('/') {
        let err = ServeError::new(
            ServeErrorKind::NotFound,
            format!("no such path `{path}`; try /stream/<id> or /stream/<id>/batch"),
        );
        respond_error(shared, stream, &err, keep_alive);
        return;
    }
    let outcome = match (method, action) {
        // Batches advance session state, so a draining server sheds them
        // retryably (reads and closes below still work — closing frees
        // state, which is exactly what a drain wants). The batch never
        // ran, so a router can safely replay the session elsewhere.
        ("POST", "batch") if shared.front.draining() => Err(ServeError::new(
            ServeErrorKind::Overloaded,
            "server is draining",
        )),
        ("POST", "batch") => std::str::from_utf8(body)
            .map_err(|_| ServeError::bad_request("request body is not UTF-8"))
            .and_then(BatchRequest::from_json)
            .and_then(|req| shared.sessions.batch(id, req.count))
            .map(|delta| {
                let mut members = vec![("session".to_string(), Value::Str(id.to_string()))];
                if let Value::Obj(rest) = delta.to_value() {
                    members.extend(rest);
                }
                Value::Obj(members)
            }),
        ("GET", "") => shared.sessions.info(id),
        ("DELETE", "") => shared.sessions.close(id),
        _ => Err(ServeError::new(
            ServeErrorKind::MethodNotAllowed,
            format!("{method} is not supported on {path}"),
        )),
    };
    match outcome {
        Ok(doc) => {
            let _ = write_response_opts(stream, 200, keep_alive, &[], &doc.write());
        }
        Err(err) => respond_error(shared, stream, &err, keep_alive),
    }
}

fn admit(shared: &Shared) -> bool {
    let mut current = shared.inflight.load(Ordering::SeqCst);
    loop {
        if current >= shared.cfg.max_inflight {
            return false;
        }
        match shared.inflight.compare_exchange(
            current,
            current + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return true,
            Err(now) => current = now,
        }
    }
}

/// An executor thread: drain the queue until every sender is gone (which
/// is shutdown's drain-then-exit signal), answering each job exactly once.
fn executor_loop(shared: &Arc<Shared>, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself, so the
        // other executors pick up jobs while this one solves.
        let job = match lock(rx).recv() {
            Ok(job) => job,
            Err(_) => break, // disconnected: queue drained + shutdown
        };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let outcome = run_job(shared, &job);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        // The connection thread may have timed out and gone; that's its
        // loss, not an executor error.
        let _ = job.reply.send(outcome);
    }
}

fn run_job(shared: &Shared, job: &Job) -> Result<ServeResponse, ServeError> {
    let waited = job.enqueued.elapsed();
    let deadline = Duration::from_millis(job.deadline_ms);
    if waited > deadline {
        return Err(ServeError::new(
            ServeErrorKind::DeadlineExceeded,
            format!(
                "request waited {}ms in the queue (deadline {}ms)",
                waited.as_millis(),
                deadline.as_millis()
            ),
        ));
    }
    let req = &job.request;
    let t0 = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        shared
            .registry
            .solve(&req.problem, &req.workload, &req.config)
    }));
    // Feed the mean-service-time estimate behind the pressure-derived
    // `Retry-After` (failures included: they occupied an executor too).
    shared
        .busy_ms
        .fetch_add(t0.elapsed().as_millis() as u64, Ordering::SeqCst);
    match solved {
        Ok(Ok((summary, report))) => Ok(ServeResponse {
            problem: req.problem.clone(),
            workload: req.workload.clone(),
            config: req.config.clone(),
            summary,
            report,
        }),
        Ok(Err(registry_err)) => Err(ServeError::from(registry_err)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solve panicked".into());
            Err(ServeError::new(
                ServeErrorKind::Internal,
                format!("solve panicked: {msg}"),
            ))
        }
    }
}

/// Estimated wait (in milliseconds) until an executor frees up: queue
/// depth × mean service time ÷ executor width, clamped to a sane band.
/// This is what `Retry-After` on a `503` reports — actual queue
/// pressure, not a constant — so a client that honors it returns when
/// the queue has plausibly drained instead of hammering immediately.
fn retry_after_ms(shared: &Shared) -> u64 {
    let served = shared.served.load(Ordering::SeqCst) as u64;
    let busy = shared.busy_ms.load(Ordering::SeqCst);
    // Before any solve completes there is no estimate; assume a short
    // service time rather than a punitive one.
    let mean_ms = busy
        .checked_div(served)
        .map_or(25, |mean| mean.clamp(1, 10_000));
    let waiting = shared.queue_depth.load(Ordering::SeqCst) as u64 + 1;
    let executors = shared.cfg.executors.max(1) as u64;
    (waiting * mean_ms).div_ceil(executors).clamp(25, 30_000)
}

/// Write an error envelope and count it — the ONE counting point for
/// `errored` (and `deadline_expired`), so a failed solve is not
/// double-counted by the executor and the connection thread. Retryable
/// rejections (`503 overloaded`) carry a pressure-derived `Retry-After`
/// (whole seconds, per HTTP) plus the millisecond-precision
/// `X-RI-Retry-After-Ms` the router's backoff and `loadgen` honor.
fn respond_error(shared: &Shared, stream: &mut impl Write, err: &ServeError, keep_alive: bool) {
    shared.errored.fetch_add(1, Ordering::SeqCst);
    if err.kind == ServeErrorKind::DeadlineExceeded {
        shared.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }
    let status = err.http_status();
    let (secs, ms);
    let hint_headers;
    let extra: &[(&str, &str)] = if status == 503 {
        let hint = retry_after_ms(shared);
        secs = hint.div_ceil(1000).max(1).to_string();
        ms = hint.to_string();
        hint_headers = [
            ("Retry-After", secs.as_str()),
            (RETRY_AFTER_MS_HEADER, ms.as_str()),
        ];
        &hint_headers
    } else {
        &[]
    };
    let _ = write_response_opts(stream, status, keep_alive, extra, &err.to_json());
}

/// The `/healthz` document. Assembled from atomics plus one brief
/// session-map lock (never held across a solve or a batch), so health
/// stays responsive under full load.
fn health_value(shared: &Shared) -> Value {
    let status = if shared.front.draining() {
        "draining"
    } else {
        "ok"
    };
    let mut members = vec![
        ("status".into(), Value::Str(status.into())),
        ("shard_id".into(), Value::Str(shared.cfg.shard_id.clone())),
        (
            "version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("pool_threads".into(), Value::Num(shared.pool_width as f64)),
        (
            "executors".into(),
            Value::Num(shared.cfg.executors.max(1) as f64),
        ),
        (
            "queue_depth".into(),
            Value::Num(shared.queue_depth.load(Ordering::SeqCst) as f64),
        ),
        (
            "inflight".into(),
            Value::Num(shared.inflight.load(Ordering::SeqCst) as f64),
        ),
        (
            "max_inflight".into(),
            Value::Num(shared.cfg.max_inflight as f64),
        ),
        (
            "served".into(),
            Value::Num(shared.served.load(Ordering::SeqCst) as f64),
        ),
        (
            "errored".into(),
            Value::Num(shared.errored.load(Ordering::SeqCst) as f64),
        ),
        (
            "deadline_expired".into(),
            Value::Num(shared.deadline_expired.load(Ordering::SeqCst) as f64),
        ),
        (
            "retry_after_ms".into(),
            Value::Num(retry_after_ms(shared) as f64),
        ),
    ];
    members.extend(shared.sessions.health_members());
    if lock(&shared.chaos.plan).is_some() || shared.chaos.crashed.load(Ordering::SeqCst) {
        members.push(("chaos".into(), chaos_value(shared)));
    }
    Value::Obj(members)
}

/// The `/problems` document: registry names + descriptions, in
/// registration order.
fn problems_value(registry: &Registry) -> Value {
    Value::Obj(vec![(
        "problems".into(),
        Value::Arr(
            registry
                .descriptions()
                .into_iter()
                .map(|(name, description)| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(name.into())),
                        ("description".into(), Value::Str(description.into())),
                    ])
                })
                .collect(),
        ),
    )])
}
