//! Minimal HTTP/1.1 message handling over any `Read`/`Write` stream.
//!
//! The server speaks the smallest useful HTTP subset, std-only:
//! `Content-Length` bodies only (no chunked transfer), a bounded header
//! section, and — since the router PR — **persistent connections**:
//! requests are read through a caller-held carry buffer
//! ([`read_request_buffered`]) so bytes that arrive beyond one request's
//! body (a pipelined next request) are kept for the next read instead of
//! being dropped, and responses advertise `Connection: keep-alive`
//! whenever the request allows it. Responses are always JSON.
//!
//! Server side: [`spawn_acceptor`] runs the one accept loop and
//! keep-alive request loop that both `ri-serve` and `ri-router` use; each
//! plugs in only its route table and error writer as a [`Service`].
//!
//! Client side: [`request`] performs a one-shot request (connect, send
//! with `Connection: close`, read, close) and [`ClientConn`] holds one
//! keep-alive connection open across requests — what the router's
//! backend proxying uses so a proxied solve does not pay a TCP connect.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ri_core::engine::envelope::{ServeError, ServeErrorKind};
use ri_core::engine::faults::RETRY_AFTER_MS_HEADER;

/// Hard cap on the request head (request line + headers): a head this
/// large is never legitimate for this API.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The HTTP version token (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client allows the connection to stay open after the
    /// response: an explicit `Connection` header wins; absent one,
    /// HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(c) if c.eq_ignore_ascii_case("close") => false,
            Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before sending any byte of
    /// a (next) request — the normal end of a keep-alive connection, not
    /// a protocol error.
    Closed,
    /// The bytes were not a well-formed HTTP/1.1 request (or used an
    /// unsupported feature such as chunked transfer encoding).
    BadRequest(String),
    /// The declared body length exceeds the server's limit.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
        /// Body bytes that had already arrived with the head (the caller
        /// must not re-read them when draining the remainder).
        buffered: usize,
    },
    /// The underlying stream failed (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ReadError::BodyTooLarge {
                declared, limit, ..
            } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read and parse one HTTP/1.1 request from `stream` (one-shot form: no
/// carry buffer, so any pipelined bytes beyond the first request are
/// dropped). See [`read_request_buffered`] for the keep-alive form.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<HttpRequest, ReadError> {
    let mut carry = Vec::new();
    read_request_buffered(stream, &mut carry, max_body)
}

/// Read and parse one HTTP/1.1 request, carrying excess bytes between
/// calls: `carry` holds bytes already read from the stream but beyond the
/// previous request's body (a pipelined next request). The head is capped
/// at [`MAX_HEAD_BYTES`]; the declared body length is checked against
/// `max_body` *before* the body is read, so an oversized upload is
/// rejected without buffering it.
pub fn read_request_buffered(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
    max_body: usize,
) -> Result<HttpRequest, ReadError> {
    // Accumulate until the blank line that ends the head, starting from
    // whatever the previous request left behind.
    let mut buf = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Clean close between requests: the keep-alive peer is
                // simply done.
                return Err(ReadError::Closed);
            }
            return Err(ReadError::BadRequest(
                "connection closed before the request head completed".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::BadRequest(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = HttpRequest {
        method,
        path,
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::BadRequest(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }

    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest(format!("bad Content-Length `{v}`")))?,
    };
    let body_start = (head_end + 4).min(buf.len());
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
            buffered: buf.len() - body_start,
        });
    }

    // The body may have arrived partly (or wholly) with the head; bytes
    // beyond it belong to the next pipelined request and go back into the
    // carry buffer.
    let available = buf.len() - body_start;
    if available >= content_length {
        request.body = buf[body_start..body_start + content_length].to_vec();
        carry.extend_from_slice(&buf[body_start + content_length..]);
    } else {
        let mut body = buf[body_start..].to_vec();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[available..])?;
        request.body = body;
    }
    Ok(request)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Upper bound on the bytes of an oversized upload read and discarded
/// before answering its `413`.
const MAX_DRAIN_BYTES: usize = 4 << 20;

/// Connection-level state of a keep-alive front end: the connection cap,
/// the body limit, socket timeouts, and the draining flag.
#[derive(Debug)]
pub struct Front {
    max_connections: usize,
    max_body_bytes: usize,
    io_timeout: Duration,
    draining: AtomicBool,
    connections: AtomicUsize,
}

impl Front {
    /// A front end's limits; `io_timeout` bounds each socket read and
    /// write (including the idle wait between keep-alive requests).
    pub fn new(max_connections: usize, max_body_bytes: usize, io_timeout: Duration) -> Front {
        Front {
            max_connections,
            max_body_bytes,
            io_timeout,
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        }
    }

    /// Whether shutdown has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stop accepting: flag draining, wake the acceptor's blocking accept
    /// with a throwaway connection (answered with a quick `503`), and
    /// join it. Only join if a wake attempt landed — otherwise the
    /// acceptor may still be parked in accept() and joining would hang;
    /// left detached, it exits on the next connection.
    pub fn stop(&self, addr: SocketAddr, acceptor: JoinHandle<()>) {
        self.draining.store(true, Ordering::SeqCst);
        let woken =
            (0..3).any(|_| TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok());
        if woken {
            let _ = acceptor.join();
        }
    }

    /// Give open connections (e.g. a client still reading its response)
    /// up to 5 s to finish.
    pub fn wait_idle(&self) {
        let t0 = Instant::now();
        while self.connections.load(Ordering::SeqCst) > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// What a server plugs into the shared connection loop: its route table
/// and its error writer.
pub trait Service: Send + Sync + 'static {
    /// The connection-level state this service runs under.
    fn front(&self) -> &Front;

    /// Answer one request. Returns false when the connection must close
    /// even though keep-alive would allow another request (a fault
    /// severed it).
    fn handle(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        request: &HttpRequest,
        keep_alive: bool,
    ) -> bool;

    /// Write (and count) `err` as a connection-closing error envelope:
    /// the answer to a rejected connection or an unframeable request.
    fn reject(&self, stream: &mut TcpStream, err: &ServeError);
}

/// Start the accept loop on a `{name}-accept` thread: one `{name}-conn`
/// thread per connection up to the cap, and a quick `503` envelope —
/// never a silent drop — for connections past the cap or arriving while
/// draining (the shutdown wake-up included, after which the loop exits).
pub fn spawn_acceptor<S: Service>(
    name: &str,
    listener: TcpListener,
    service: Arc<S>,
) -> io::Result<JoinHandle<()>> {
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || accept_loop(&service, listener, &conn_name))
}

fn accept_loop<S: Service>(service: &Arc<S>, listener: TcpListener, conn_name: &str) {
    let front = service.front();
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else {
            if front.draining() {
                break;
            }
            continue;
        };
        // Whether this is the shutdown wake-up or a real client that raced
        // the drain flag, answer rather than drop. The cap exists because
        // admission gates cannot protect thread and memory budgets from
        // connections that never send a request.
        let draining = front.draining();
        if draining || front.connections.load(Ordering::SeqCst) >= front.max_connections {
            let why = if draining {
                "draining; retry later"
            } else {
                "connection limit reached; retry later"
            };
            // A short write timeout: the acceptor must never block on a
            // slow peer.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            service.reject(
                &mut stream,
                &ServeError::new(ServeErrorKind::Overloaded, why),
            );
            if draining {
                break;
            }
            continue;
        }
        front.connections.fetch_add(1, Ordering::SeqCst);
        let conn_service = Arc::clone(service);
        let spawned = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || {
                serve_connection(&conn_service, stream);
                conn_service
                    .front()
                    .connections
                    .fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Thread exhaustion: shed the connection instead of dying.
            front.connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Per-connection protocol: read requests for as long as the client keeps
/// the connection alive (the carry buffer keeps pipelined bytes between
/// reads) and hand each to the service. A framing error is answered with
/// a structured envelope — never a silent drop — and closes the
/// connection, since framing beyond a malformed request is unknowable.
fn serve_connection<S: Service>(service: &Arc<S>, mut stream: TcpStream) {
    let front = service.front();
    let _ = stream.set_read_timeout(Some(front.io_timeout));
    let _ = stream.set_write_timeout(Some(front.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let err = loop {
        match read_request_buffered(&mut stream, &mut carry, front.max_body_bytes) {
            Ok(request) => {
                // Honor the client's keep-alive preference, but a draining
                // front closes after this response.
                let keep_alive = request.keep_alive() && !front.draining();
                if !service.handle(&mut stream, &request, keep_alive) || !keep_alive {
                    return;
                }
            }
            // A clean close between requests, or a socket error (the idle
            // keep-alive timeout included): no client left to answer.
            Err(ReadError::Closed | ReadError::Io(_)) => return,
            Err(ReadError::BodyTooLarge {
                declared,
                limit,
                buffered,
            }) => {
                // Drain (bounded) what the client is still sending, so the
                // 413 is not lost to a connection reset mid-upload. Body
                // bytes that arrived with the head are already consumed.
                let unread = declared.saturating_sub(buffered);
                drain(&mut stream, unread.min(MAX_DRAIN_BYTES));
                break ServeError::new(
                    ServeErrorKind::BodyTooLarge,
                    format!("body of {declared} bytes exceeds the {limit}-byte limit"),
                );
            }
            Err(ReadError::BadRequest(msg)) => break ServeError::bad_request(msg),
        }
    };
    service.reject(&mut stream, &err);
}

/// Read and discard up to `limit` bytes (stops on error or EOF).
fn drain(stream: &mut impl Read, limit: usize) {
    let mut remaining = limit;
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let take = remaining.min(buf.len());
        match stream.read(&mut buf[..take]) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining -= n,
        }
    }
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one JSON response with `Connection: close` semantics (the
/// one-shot form; keep-alive servers use [`write_response_opts`]).
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_response_opts(stream, status, false, &[], body)
}

/// Write one JSON response, advertising `Connection: keep-alive` when
/// `keep_alive` is set (the connection stays usable for the next
/// request) and emitting any `extra` headers (e.g. `Retry-After` on a
/// 503, or the router's shard/cache annotations).
pub fn write_response_opts(
    stream: &mut impl Write,
    status: u16,
    keep_alive: bool,
    extra: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A client-side response: status code, headers and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The response status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server will keep the connection open after this
    /// response (`Connection: keep-alive`).
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("keep-alive"))
    }

    /// Whether this non-200 answer means "never ran, safe to re-send":
    /// the envelope's `retryable` field when the body parses, else the
    /// status code (503/504).
    pub fn retryable(&self) -> bool {
        match ServeError::from_json(&self.body) {
            Ok(err) => err.retryable,
            Err(_) => matches!(self.status, 503 | 504),
        }
    }

    /// The server's retry hint in milliseconds: the ms-precision
    /// `X-RI-Retry-After-Ms` when present, else `Retry-After` seconds.
    pub fn retry_hint_ms(&self) -> Option<u64> {
        let parse = |name| self.header(name).and_then(|v| v.trim().parse::<u64>().ok());
        parse(RETRY_AFTER_MS_HEADER)
            .or_else(|| parse("retry-after").map(|s| s.saturating_mul(1000)))
    }
}

/// Perform one HTTP request against `addr` (connect, send with
/// `Connection: close`, read the full response, close), with `timeout`
/// applied to connect and to each read. The one-shot client; for
/// connection reuse see [`ClientConn`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A server may reject mid-upload (e.g. 413 on the declared length)
    // and close its read side; keep any write error aside and try to read
    // the response anyway — it is only fatal if no response arrived.
    let written = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .and_then(|_| stream.flush());

    let mut raw = Vec::new();
    let read = stream.read_to_end(&mut raw);
    if raw.is_empty() {
        written?;
        read?;
    }
    parse_response(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn parse_response_head(head: &str) -> Result<(u16, Vec<(String, String)>), String> {
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed response header `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((status, headers))
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let head_end = find_head_end(raw).ok_or("response head never completed")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head not UTF-8")?;
    let (status, headers) = parse_response_head(head)?;
    let body = std::str::from_utf8(&raw[head_end + 4..])
        .map_err(|_| "response body not UTF-8")?
        .to_string();
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Read one `Content-Length`-framed response from a keep-alive stream
/// (cannot read to EOF — the connection stays open). Bytes read beyond
/// this response stay in `carry` for the next read.
fn read_response(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<HttpResponse> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut buf = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(invalid("response head too large".into()));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response head completed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| invalid("response head not UTF-8".into()))?;
    let (status, headers) = parse_response_head(head).map_err(invalid)?;
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| invalid("keep-alive response without Content-Length".into()))?;
    let body_start = (head_end + 4).min(buf.len());
    let available = buf.len() - body_start;
    let body = if available >= content_length {
        carry.extend_from_slice(&buf[body_start + content_length..]);
        buf[body_start..body_start + content_length].to_vec()
    } else {
        let mut body = buf[body_start..].to_vec();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[available..])?;
        body
    };
    let body = String::from_utf8(body).map_err(|_| invalid("response body not UTF-8".into()))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// One keep-alive client connection: requests sent through it reuse the
/// TCP connection as long as the server allows, reconnecting lazily when
/// the server closed it in between (an idle-timeout race every keep-alive
/// client must tolerate). The stale-connection retry re-sends at most
/// once, and only when the failed attempt ran on a *reused* connection —
/// a fresh connection's failure is reported, not retried. Safe for
/// idempotent requests (deterministic solves, reads); **non-idempotent**
/// requests — a stream batch advances session state — must go through
/// [`ClientConn::request_with`] with `retry_stale: false`, so a failure
/// surfaces as a transport error the caller recovers from by
/// close-and-replay instead of a blind re-send that could execute twice.
#[derive(Debug)]
pub struct ClientConn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
}

impl ClientConn {
    /// A (not yet connected) keep-alive client for `addr`; `timeout`
    /// applies to connect, each read, and each write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        ClientConn {
            addr,
            timeout,
            stream: None,
            carry: Vec::new(),
        }
    }

    /// The target address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Update the timeout for subsequent requests: applied to the held
    /// stream immediately and to any future reconnect. This is what lets
    /// a *pooled* connection honor a per-request deadline budget instead
    /// of the timeout it was created with (zero is clamped up to 1 ms —
    /// `set_read_timeout(Some(0))` is an error).
    pub fn set_timeout(&mut self, timeout: Duration) {
        let timeout = timeout.max(Duration::from_millis(1));
        self.timeout = timeout;
        if let Some(stream) = &self.stream {
            if stream.set_read_timeout(Some(timeout)).is_err()
                || stream.set_write_timeout(Some(timeout)).is_err()
            {
                self.stream = None;
            }
        }
    }

    /// Perform one request, reusing the held connection when possible
    /// (idempotent form: a stale reused connection is retried once).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        self.request_with(method, path, body, &[], true)
    }

    /// [`ClientConn::request`] with extra request headers (e.g. the
    /// propagated `X-RI-Deadline-Ms` budget) and explicit stale-retry
    /// control: pass `retry_stale: false` for non-idempotent requests
    /// (stream batches), so a mid-request connection failure is
    /// reported instead of blindly re-sent — the request may already
    /// have executed server-side even though no response arrived.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, &str)],
        retry_stale: bool,
    ) -> io::Result<HttpResponse> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, body, extra) {
            Ok(resp) => Ok(resp),
            Err(e) if reused && retry_stale => {
                // The held connection was stale (server idle-closed it);
                // retry exactly once on a fresh one.
                self.stream = None;
                let _ = e;
                self.request_once(method, path, body, extra)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                stream.set_nodelay(true)?;
                self.carry.clear();
                self.stream.insert(stream)
            }
        };
        let body = body.unwrap_or("");
        use std::fmt::Write as _;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in extra {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let result = stream
            .write_all(head.as_bytes())
            .and_then(|_| stream.write_all(body.as_bytes()))
            .and_then(|_| stream.flush())
            .and_then(|_| read_response(stream, &mut self.carry));
        // A failed exchange or a server closing the connection drops it.
        if !result.as_ref().is_ok_and(HttpResponse::keep_alive) {
            self.stream = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /solve?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..], 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..], 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn keep_alive_honors_connection_header_and_version() {
        let close = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &close[..], 64).unwrap().keep_alive());
        let ka10 = b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &ka10[..], 64).unwrap().keep_alive());
        let plain10 = b"GET /x HTTP/1.0\r\n\r\n";
        assert!(!read_request(&mut &plain10[..], 64).unwrap().keep_alive());
    }

    #[test]
    fn carry_buffer_preserves_pipelined_requests() {
        let raw =
            b"POST /solve HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
        let mut stream = &raw[..];
        let mut carry = Vec::new();
        let first = read_request_buffered(&mut stream, &mut carry, 1024).unwrap();
        assert_eq!(first.body, b"abc");
        assert!(!carry.is_empty(), "pipelined bytes stay in the carry");
        let second = read_request_buffered(&mut stream, &mut carry, 1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(carry.is_empty());
        // A clean close after the last request reads as Closed.
        assert!(matches!(
            read_request_buffered(&mut stream, &mut carry, 1024),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let raw = b"POST /solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match read_request(&mut &raw[..], 1024) {
            Err(ReadError::BodyTooLarge {
                declared,
                limit,
                buffered,
            }) => {
                assert_eq!(declared, 999999);
                assert_eq!(limit, 1024);
                assert_eq!(buffered, 0);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }

        // Body bytes that arrived with the head are reported so the
        // caller's drain does not re-request (and stall on) them.
        let coalesced = b"POST /solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\nabcdefgh";
        match read_request(&mut &coalesced[..], 1024) {
            Err(ReadError::BodyTooLarge { buffered, .. }) => assert_eq!(buffered, 8),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_and_unsupported_features() {
        for raw in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        ] {
            assert!(
                matches!(
                    read_request(&mut &raw[..], 1024),
                    Err(ReadError::BadRequest(_))
                ),
                "input: {}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn response_writer_and_parser_agree() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}").unwrap();
        let resp = parse_response(&out).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}");
        assert!(!resp.keep_alive());
        assert!(String::from_utf8_lossy(&out).contains("Connection: close"));
    }

    #[test]
    fn keep_alive_responses_carry_extra_headers_and_frame_by_length() {
        let mut out = Vec::new();
        write_response_opts(&mut out, 503, true, &[("Retry-After", "1")], "{}").unwrap();
        let mut carry = Vec::new();
        let resp = read_response(&mut &out[..], &mut carry).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.keep_alive());
        assert_eq!(resp.body, "{}");

        // Two framed responses on one stream read back one at a time
        // (the over-read second response survives in the carry).
        let mut two = Vec::new();
        write_response_opts(&mut two, 200, true, &[], "{\"a\":1}").unwrap();
        write_response_opts(&mut two, 200, true, &[], "{\"b\":2}").unwrap();
        let mut stream = &two[..];
        let mut carry = Vec::new();
        let first = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(first.body, "{\"a\":1}");
        let second = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(second.body, "{\"b\":2}");
        assert!(carry.is_empty());
    }

    fn resp(status: u16, headers: &[(&str, &str)], body: &str) -> HttpResponse {
        HttpResponse {
            status,
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                .collect(),
            body: body.to_string(),
        }
    }

    #[test]
    fn retryable_classification_trusts_the_envelope() {
        // A parseable envelope decides retryability regardless of status.
        let shed = ServeError::new(ServeErrorKind::Overloaded, "queue full");
        assert!(resp(503, &[], &shed.to_json()).retryable());
        let expired = ServeError::new(ServeErrorKind::DeadlineExceeded, "too slow");
        assert!(resp(504, &[], &expired.to_json()).retryable());
        // An envelope explicitly marked non-retryable wins even on 503.
        let pinned = ServeError::new(ServeErrorKind::Overloaded, "nope").retryable(false);
        assert!(!resp(503, &[], &pinned.to_json()).retryable());
        // A non-retryable kind stays non-retryable.
        let bad = ServeError::bad_request("unknown problem");
        assert!(!resp(400, &[], &bad.to_json()).retryable());
    }

    #[test]
    fn retryable_classification_falls_back_to_the_status_code() {
        assert!(resp(503, &[], "not json at all").retryable());
        assert!(resp(504, &[], "").retryable());
        assert!(!resp(500, &[], "not json").retryable());
        assert!(!resp(200, &[], "{}").retryable());
    }

    #[test]
    fn retry_hints_prefer_the_ms_header() {
        let both = resp(
            503,
            &[("Retry-After", "2"), (RETRY_AFTER_MS_HEADER, "350")],
            "{}",
        );
        assert_eq!(both.retry_hint_ms(), Some(350));
        let secs_only = resp(503, &[("Retry-After", "2")], "{}");
        assert_eq!(secs_only.retry_hint_ms(), Some(2_000));
        assert_eq!(resp(503, &[], "{}").retry_hint_ms(), None);
    }
}
