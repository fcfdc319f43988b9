//! `ri-serve` — serve the problem registry over HTTP/1.1.
//!
//! ```text
//! ri-serve [--addr HOST:PORT] [--threads K] [--executors E]
//!          [--max-inflight N] [--deadline-ms MS] [--max-body-bytes B]
//!          [--max-connections C] [--shard-id ID] [--max-sessions S]
//!          [--session-ttl-ms MS] [--session-bytes B] [--chaos SPEC]
//! ```
//!
//! Prints `listening on ADDR` once the listener is up (scripts wait on
//! that line), then serves until killed. Endpoints: `POST /solve`,
//! `POST /stream` (+ `/stream/<id>/batch`, `GET`/`DELETE /stream/<id>`),
//! `GET /problems`, `GET /healthz` — see the `ri_serve` crate docs for
//! the batching/admission model and the streaming session lifecycle.

use parallel_ri::registry;
use ri_serve::{ServeConfig, Server};

fn usage_text() -> &'static str {
    "usage: ri-serve [--addr HOST:PORT] [--threads K] [--executors E]\n\
     \x20              [--max-inflight N] [--deadline-ms MS] [--max-body-bytes B]\n\
     \x20              [--max-connections C] [--shard-id ID] [--max-sessions S]\n\
     \x20              [--session-ttl-ms MS] [--session-bytes B] [--chaos SPEC]\n\
     \n\
     Serves POST /solve ({problem, workload, config} JSON -> {summary, report}),\n\
     POST /stream (+ /stream/<id>/batch, GET/DELETE /stream/<id>),\n\
     GET /problems and GET /healthz. --addr defaults to 127.0.0.1:8077; port 0\n\
     binds an ephemeral port (printed on the `listening on` line). --threads\n\
     sets the one width every solve runs at (0 = machine default); --executors\n\
     bounds concurrent solves; --max-inflight is the admission gate; --deadline-ms\n\
     bounds queue wait; --max-body-bytes bounds request bodies;\n\
     --max-connections bounds simultaneous connection handlers; --shard-id\n\
     names this process in /healthz (set by ri-router when it spawns shards);\n\
     --max-sessions bounds open streaming sessions, --session-ttl-ms their\n\
     idle eviction, --session-bytes each session's resident state. --chaos\n\
     installs a deterministic fault-injection plan (e.g.\n\
     `seed=42,latency=0.2:25,drop=0.1,error=0.1,crash-after=500`; also\n\
     settable at runtime via POST /admin/chaos); a crash-after fault exits\n\
     the process with code 3."
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ri-serve: {msg}");
    std::process::exit(2);
}

fn parse_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:8077".into(),
        // A real process honors crash-after by exiting (in-process test
        // servers emulate the crash by going dark instead).
        chaos_exit: true,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--threads" => {
                cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--executors" => {
                cfg.executors = value("--executors")?
                    .parse()
                    .map_err(|e| format!("bad --executors: {e}"))?
            }
            "--max-inflight" => {
                cfg.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight: {e}"))?
            }
            "--deadline-ms" => {
                cfg.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("bad --deadline-ms: {e}"))?
            }
            "--max-body-bytes" => {
                cfg.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --max-body-bytes: {e}"))?
            }
            "--max-connections" => {
                cfg.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("bad --max-connections: {e}"))?
            }
            "--shard-id" => cfg.shard_id = value("--shard-id")?,
            "--max-sessions" => {
                cfg.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("bad --max-sessions: {e}"))?
            }
            "--session-ttl-ms" => {
                cfg.session_ttl_ms = value("--session-ttl-ms")?
                    .parse()
                    .map_err(|e| format!("bad --session-ttl-ms: {e}"))?
            }
            "--session-bytes" => {
                cfg.session_bytes = value("--session-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --session-bytes: {e}"))?
            }
            "--chaos" => {
                cfg.chaos = ri_core::engine::faults::FaultPlan::parse(&value("--chaos")?)
                    .map_err(|e| format!("bad --chaos: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.executors == 0 || cfg.max_inflight == 0 || cfg.max_connections == 0 {
        return Err("--executors, --max-inflight and --max-connections must be positive".into());
    }
    if cfg.max_sessions == 0 {
        return Err("--max-sessions must be positive".into());
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return;
    }
    let cfg = parse_config(&args).unwrap_or_else(|e| fail(e));
    let server = Server::start(registry(), cfg).unwrap_or_else(|e| fail(format!("bind: {e}")));
    println!("listening on {}", server.local_addr());
    eprintln!(
        "ri-serve: pool width {}, endpoints: POST /solve, POST /stream, GET /problems, GET /healthz",
        server.pool_width()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until the process is killed; the acceptor and executors are
    // detached by parking this thread forever.
    loop {
        std::thread::park();
    }
}
