//! The server-side session store for streaming: a bounded, TTL-evicted
//! map of open [`ErasedIncremental`] instances.
//!
//! A session is opened by `POST /stream` with a [`StreamSpec`], holds
//! its problem's incremental state (the full fixed instance plus
//! whatever the adapter maintains between batches), and is fed by
//! `POST /stream/<id>/batch`. Batches run **on the connection thread**
//! rather than through the one-shot solve queue: a streaming client
//! keeps its connection alive, so consecutive batches land on the same
//! thread and reuse its warm per-thread `RoundScratch` pools — the
//! long-lived-runner shape the ROADMAP's streaming item asks for (the
//! solve pool itself is the server-wide shared one; width is clamped at
//! open).
//!
//! Bounds, all enforced here:
//! * `max_sessions` — admission: opening past the cap answers
//!   `503 overloaded` (retryable — another shard may have room).
//! * `idle_ttl_ms` — sessions idle past the TTL are evicted by the
//!   sweep that runs on every open/batch; a busy session (batch in
//!   flight) is never evicted.
//! * `max_session_bytes` — a session whose state estimate exceeds the
//!   cap is rejected at open (it can never fit) and evicted if an
//!   adapter outgrows the cap mid-stream.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ri_core::engine::envelope::{ServeError, ServeErrorKind};
use ri_core::engine::json::Value;
use ri_core::engine::registry::ErasedIncremental;
use ri_core::engine::session::{BatchDelta, StreamSpec};
use ri_core::engine::Registry;

/// Session-store tuning knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Maximum simultaneously open sessions; `POST /stream` past it
    /// answers `503`.
    pub max_sessions: usize,
    /// Idle eviction TTL in milliseconds: a session untouched for this
    /// long is closed by the next sweep.
    pub idle_ttl_ms: u64,
    /// Per-session resident-byte cap (adapter estimate).
    pub max_session_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 64,
            idle_ttl_ms: 300_000,
            max_session_bytes: 64 << 20,
        }
    }
}

/// One open session: identity, the opening spec (config already clamped
/// to the server pool), and the adapter state behind a mutex — batches
/// within a session are serialized, sessions are independent.
struct Session {
    id: String,
    spec: StreamSpec,
    inner: Mutex<SessionInner>,
}

struct SessionInner {
    inc: Box<dyn ErasedIncremental>,
    batches: usize,
    last_used: Instant,
}

impl Session {
    /// The session-info document (`POST /stream` response and
    /// `GET /stream/<id>`): identity + progress + the effective spec.
    fn info(&self, inner: &SessionInner) -> Value {
        Value::Obj(vec![
            ("session".into(), Value::Str(self.id.clone())),
            ("problem".into(), Value::Str(self.spec.problem.clone())),
            ("capacity".into(), Value::Num(inner.inc.capacity() as f64)),
            ("absorbed".into(), Value::Num(inner.inc.absorbed() as f64)),
            ("batches".into(), Value::Num(inner.batches as f64)),
            ("native".into(), Value::Bool(inner.inc.native())),
            (
                "complete".into(),
                Value::Bool(inner.inc.absorbed() == inner.inc.capacity()),
            ),
            (
                "approx_bytes".into(),
                Value::Num(inner.inc.approx_bytes() as f64),
            ),
            ("workload".into(), self.spec.workload.to_value()),
            ("config".into(), self.spec.config.to_value()),
        ])
    }
}

/// The bounded session store plus its lifetime counters (all surfaced
/// in `/healthz`).
pub struct SessionManager {
    cfg: SessionConfig,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    next_id: AtomicU64,
    opened: AtomicU64,
    evicted: AtomicU64,
    closed: AtomicU64,
    batches: AtomicU64,
    scratch_hits: AtomicU64,
    scratch_misses: AtomicU64,
}

impl SessionManager {
    /// An empty store under `cfg`.
    pub fn new(cfg: SessionConfig) -> Self {
        SessionManager {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            scratch_hits: AtomicU64::new(0),
            scratch_misses: AtomicU64::new(0),
        }
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Session>>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a session for `spec` (config already clamped by the caller).
    /// The id is the spec's `session_id` when present (how the router
    /// pins a session to its hash ring before the backend exists), a
    /// fresh `s-<seq>` otherwise. Returns the session-info document.
    pub fn open(&self, registry: &Registry, spec: StreamSpec) -> Result<Value, ServeError> {
        self.sweep();
        let inc = registry
            .construct_incremental(&spec.problem, &spec.workload)
            .map_err(ServeError::from)?;
        if inc.approx_bytes() > self.cfg.max_session_bytes {
            return Err(ServeError::bad_request(format!(
                "session state of ~{} bytes exceeds the per-session cap of {} bytes",
                inc.approx_bytes(),
                self.cfg.max_session_bytes
            )));
        }
        let id = match &spec.session_id {
            Some(id) => id.clone(),
            None => format!("s-{}", self.next_id.fetch_add(1, Ordering::SeqCst) + 1),
        };
        let session = Arc::new(Session {
            id: id.clone(),
            spec,
            inner: Mutex::new(SessionInner {
                inc,
                batches: 0,
                last_used: Instant::now(),
            }),
        });
        let mut sessions = self.lock_sessions();
        if sessions.contains_key(&id) {
            return Err(ServeError::bad_request(format!(
                "session `{id}` is already open"
            )));
        }
        if sessions.len() >= self.cfg.max_sessions {
            return Err(ServeError::new(
                ServeErrorKind::Overloaded,
                format!(
                    "{} sessions already open (limit {}); retry later or elsewhere",
                    sessions.len(),
                    self.cfg.max_sessions
                ),
            ));
        }
        let info = session.info(&session.inner.lock().unwrap_or_else(|e| e.into_inner()));
        sessions.insert(id, session);
        self.opened.fetch_add(1, Ordering::SeqCst);
        Ok(info)
    }

    /// Feed `count` elements to session `id` on the calling thread,
    /// returning the delta. Counts the batch and rolls the batch
    /// report's scratch reuse counters into the store-wide totals.
    pub fn batch(&self, id: &str, count: usize) -> Result<BatchDelta, ServeError> {
        self.sweep();
        let session = self
            .lock_sessions()
            .get(id)
            .cloned()
            .ok_or_else(|| self.no_such_session(id))?;
        let mut inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (delta, report) = inner
            .inc
            .feed(count, &session.spec.config)
            .map_err(ServeError::bad_request)?;
        inner.batches += 1;
        inner.last_used = Instant::now();
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.scratch_hits
            .fetch_add(report.scratch_hits, Ordering::SeqCst);
        self.scratch_misses
            .fetch_add(report.scratch_misses, Ordering::SeqCst);
        if inner.inc.approx_bytes() > self.cfg.max_session_bytes {
            // The adapter outgrew the cap mid-stream: answer this batch
            // (the work is done) but evict the session so the next batch
            // reopens elsewhere.
            drop(inner);
            self.lock_sessions().remove(&session.id);
            self.evicted.fetch_add(1, Ordering::SeqCst);
        }
        Ok(delta)
    }

    /// The info document for session `id`.
    pub fn info(&self, id: &str) -> Result<Value, ServeError> {
        let session = self
            .lock_sessions()
            .get(id)
            .cloned()
            .ok_or_else(|| self.no_such_session(id))?;
        let inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(session.info(&inner))
    }

    /// Close session `id`, returning its final info document.
    pub fn close(&self, id: &str) -> Result<Value, ServeError> {
        let session = self
            .lock_sessions()
            .remove(id)
            .ok_or_else(|| self.no_such_session(id))?;
        self.closed.fetch_add(1, Ordering::SeqCst);
        let inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(session.info(&inner))
    }

    /// Evict sessions idle past the TTL. A session whose lock is held
    /// (batch in flight) is by definition not idle and is skipped.
    pub fn sweep(&self) {
        let ttl = std::time::Duration::from_millis(self.cfg.idle_ttl_ms);
        let mut sessions = self.lock_sessions();
        let before = sessions.len();
        sessions.retain(|_, s| match s.inner.try_lock() {
            Ok(inner) => inner.last_used.elapsed() <= ttl,
            Err(_) => true,
        });
        let evicted = before - sessions.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::SeqCst);
        }
    }

    /// Open-session count.
    pub fn open_count(&self) -> usize {
        self.lock_sessions().len()
    }

    /// The `/healthz` members this store contributes (flat keys, so the
    /// router's cluster fold can sum them across shards).
    pub fn health_members(&self) -> Vec<(String, Value)> {
        let count = |x: &AtomicU64| Value::Num(x.load(Ordering::SeqCst) as f64);
        vec![
            ("sessions_open".into(), Value::Num(self.open_count() as f64)),
            ("sessions_opened".into(), count(&self.opened)),
            ("sessions_evicted".into(), count(&self.evicted)),
            ("sessions_closed".into(), count(&self.closed)),
            ("batches_served".into(), count(&self.batches)),
            ("session_scratch_hits".into(), count(&self.scratch_hits)),
            ("session_scratch_misses".into(), count(&self.scratch_misses)),
            (
                "max_sessions".into(),
                Value::Num(self.cfg.max_sessions as f64),
            ),
        ]
    }

    fn no_such_session(&self, id: &str) -> ServeError {
        ServeError::new(
            ServeErrorKind::NotFound,
            format!("no open session `{id}` (it may have been evicted or never opened)"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::{OutputSummary, WorkloadSpec};
    use ri_core::engine::RunReport;

    fn toy_registry() -> Registry {
        let mut reg = Registry::new();
        reg.register(
            "toy",
            "toy",
            |spec| Ok(spec.n),
            |&n, _cfg| {
                let mut s = OutputSummary::new();
                s.answer_num("n", n as f64);
                let mut report = RunReport::new("toy");
                report.scratch_hits = 3;
                report.scratch_misses = 1;
                (s, report)
            },
        );
        reg
    }

    fn spec(n: usize, id: Option<&str>) -> StreamSpec {
        let mut s = StreamSpec::new("toy");
        s.workload = WorkloadSpec::new(n, 1);
        s.session_id = id.map(String::from);
        s
    }

    #[test]
    fn lifecycle_open_batch_close() {
        let reg = toy_registry();
        let mgr = SessionManager::new(SessionConfig::default());
        let info = mgr.open(&reg, spec(8, None)).unwrap();
        let id = info.get("session").unwrap().as_str().unwrap().to_string();
        assert_eq!(mgr.open_count(), 1);

        let delta = mgr.batch(&id, 5).unwrap();
        assert_eq!((delta.batch, delta.cumulative), (0, 5));
        let delta = mgr.batch(&id, 3).unwrap();
        assert!(delta.complete);
        assert!(mgr.batch(&id, 1).is_err(), "overfeed is a client error");

        let closed = mgr.close(&id).unwrap();
        assert_eq!(closed.get("batches"), Some(&Value::Num(2.0)));
        assert_eq!(mgr.open_count(), 0);
        assert!(mgr
            .batch(&id, 1)
            .unwrap_err()
            .to_json()
            .contains("not-found"));

        // Scratch counters rolled up from the batch reports.
        let health = mgr.health_members();
        let get = |k: &str| {
            health
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_f64().unwrap())
                .unwrap()
        };
        assert_eq!(get("batches_served"), 2.0);
        assert_eq!(get("session_scratch_hits"), 6.0);
        assert_eq!(get("session_scratch_misses"), 2.0);
        assert_eq!(get("sessions_closed"), 1.0);
    }

    #[test]
    fn admission_duplicate_and_ttl() {
        let reg = toy_registry();
        let mgr = SessionManager::new(SessionConfig {
            max_sessions: 2,
            idle_ttl_ms: 0, // everything idle is instantly stale
            ..SessionConfig::default()
        });
        // TTL 0: each open sweeps the previous session away first.
        mgr.open(&reg, spec(8, Some("a"))).unwrap();
        mgr.open(&reg, spec(8, Some("a"))).unwrap(); // evicted + reopened
        assert_eq!(mgr.open_count(), 1);
        let health = mgr.health_members();
        let evicted = health
            .iter()
            .find(|(k, _)| k == "sessions_evicted")
            .map(|(_, v)| v.as_f64().unwrap())
            .unwrap();
        assert!(evicted >= 1.0);

        let mgr = SessionManager::new(SessionConfig {
            max_sessions: 2,
            ..SessionConfig::default()
        });
        mgr.open(&reg, spec(8, Some("a"))).unwrap();
        let dup = mgr.open(&reg, spec(8, Some("a"))).unwrap_err();
        assert!(dup.to_json().contains("already open"));
        mgr.open(&reg, spec(8, Some("b"))).unwrap();
        let full = mgr.open(&reg, spec(8, Some("c"))).unwrap_err();
        assert!(full.to_json().contains("overloaded"));
        assert!(full.retryable, "another shard may have room");
    }

    #[test]
    fn byte_cap_rejects_oversized_sessions() {
        let reg = toy_registry();
        let mgr = SessionManager::new(SessionConfig {
            max_session_bytes: 16, // the fallback estimates 64n
            ..SessionConfig::default()
        });
        let err = mgr.open(&reg, spec(1024, None)).unwrap_err();
        assert!(err.to_json().contains("per-session cap"));
    }
}
