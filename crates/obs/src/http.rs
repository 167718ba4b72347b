//! A dependency-free HTTP/1.1 endpoint for live observability.
//!
//! The paper's profiler runs *alongside* a live training job; serve mode
//! gives this reproduction the matching scrape surface. [`MetricsServer`]
//! binds a `std::net::TcpListener`, accepts on a dedicated thread, and
//! hands each connection to a short-lived handler thread so one stalled
//! client can never block another scrape.
//!
//! Each request is read by one parser over `BufRead` with a bounded
//! head, a bounded body and one read deadline; a malformed, oversized or
//! late request is answered with a 4xx (400, 408, 413 or 431) instead of
//! reaching the handler. Query strings are split off the path before the
//! handler sees it (`GET /metrics?job=x` arrives as path `/metrics`).
//!
//! The server owns no routes: every well-formed request goes to the one
//! handler the caller binds, so `crates/obs` stays dependency-free and the
//! serving layer owns its whole route table (the fleet's lives in
//! `tpupoint::fleet`). [`Health`] is the degradation-aware `/healthz`
//! verdict that table serves.

use std::io;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::MetricsSnapshot;

/// Total wall-clock budget for reading one request (request line, headers,
/// and body). The per-read timeout alone would let a client trickle one
/// byte per 1.9s forever; this bounds the whole read.
const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(5);

/// Upper bound on concurrently-handled connections; requests beyond it
/// receive a fast `503` instead of queueing unboundedly.
const MAX_IN_FLIGHT: usize = 64;

/// Largest request body the server will buffer (the `/jobs` submit API
/// posts small JSON documents; anything larger is hostile).
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Largest request head (request line plus headers) the server reads.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Degradation-aware health of a serving run, as reported by
/// `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Health {
    /// One human-readable `name value` line per active degradation;
    /// empty means healthy.
    pub degradations: Vec<String>,
}

impl Health {
    /// A clean bill of health.
    pub fn healthy() -> Health {
        Health::default()
    }

    /// Whether no degradation is active (HTTP 200 vs 503).
    pub fn is_healthy(&self) -> bool {
        self.degradations.is_empty()
    }

    /// Derives health from a metrics snapshot: store errors, shed
    /// records, a pending spill backlog, and seal-queue backpressure all
    /// degrade the run.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Health {
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
        let mut degradations = Vec::new();
        let mut flag = |name: &str, value: u64| {
            if value > 0 {
                degradations.push(format!("{name} {value}"));
            }
        };
        flag("store_errors", counter("profiler.store_errors"));
        flag("records_shed", counter("profiler.records_shed"));
        flag(
            "store_spill_depth",
            gauge("profiler.store_spill_depth") as u64,
        );
        flag(
            "seal_backpressure_waits",
            counter("profiler.seal_backpressure_waits"),
        );
        Health { degradations }
    }

    /// The `/healthz` body: `ok`, or `degraded` plus one line per cause.
    pub fn body(&self) -> String {
        if self.is_healthy() {
            return "ok\n".to_owned();
        }
        let mut out = String::from("degraded\n");
        for degradation in &self.degradations {
            out.push_str(degradation);
            out.push('\n');
        }
        out
    }
}

/// A parsed inbound request, as the handler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path with the query string already stripped (`/jobs/a`).
    pub path: String,
    /// Raw query string without the leading `?` (empty when absent).
    pub query: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: String,
}

/// A response produced by the handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json".to_owned(),
            body: body.into(),
        }
    }

    /// A JSON response with an explicit status code.
    pub fn json_status(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_owned(),
            body: body.into(),
        }
    }

    /// A plain-text response with an explicit status code.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: body.into(),
        }
    }
}

/// Maps a status code to the HTTP/1.1 status line text.
fn status_line(status: u16) -> &'static str {
    match status {
        200 => "200 OK",
        201 => "201 Created",
        202 => "202 Accepted",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        408 => "408 Request Timeout",
        409 => "409 Conflict",
        413 => "413 Payload Too Large",
        429 => "429 Too Many Requests",
        431 => "431 Request Header Fields Too Large",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

/// Answers one parsed request. It runs on a short-lived per-connection
/// thread, once per request, so it must be `Send + Sync` and cheap to
/// call concurrently.
type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// The live observability endpoint; see the module docs.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// answering on a background accept thread; each accepted connection
    /// is served on its own short-lived thread, which passes its request
    /// to `handler`.
    ///
    /// # Errors
    ///
    /// Returns the bind/spawn error.
    pub fn bind(
        addr: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handler: Arc<Handler> = Arc::new(handler);
        let thread = std::thread::Builder::new()
            .name("tpupoint-metrics-http".to_owned())
            .spawn(move || accept_loop(&listener, &handler, &accept_stop))?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake so it can
        // observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Decrements the in-flight counter when the handler thread finishes (or
/// when a failed spawn drops the closure unrun).
struct InFlightGuard(Arc<AtomicUsize>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, handler: &Arc<Handler>, stop: &Arc<AtomicBool>) {
    let in_flight = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        if in_flight.fetch_add(1, Ordering::SeqCst) >= MAX_IN_FLIGHT {
            in_flight.fetch_sub(1, Ordering::SeqCst);
            let body = "busy\n";
            let _ = write!(
                stream,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            continue;
        }
        let guard = InFlightGuard(Arc::clone(&in_flight));
        let conn_handler = Arc::clone(handler);
        // Handling happens off the accept thread so a stalled client can
        // never block other scrapes; if thread spawn itself fails (fd or
        // memory pressure) the connection is dropped rather than risking
        // an inline stall of the accept loop.
        let _ = std::thread::Builder::new()
            .name("tpupoint-http-conn".to_owned())
            .spawn(move || {
                let _guard = guard;
                handle(stream, &*conn_handler);
            });
    }
}

/// A connection whose reads share one deadline: each read waits at most
/// for what is left of [`REQUEST_READ_DEADLINE`], so a client trickling
/// bytes cannot hold its handler past it.
struct DeadlineReader {
    stream: TcpStream,
    started: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = REQUEST_READ_DEADLINE
            .checked_sub(self.started.elapsed())
            .filter(|left| !left.is_zero())
            .ok_or(io::ErrorKind::TimedOut)?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

/// Why a request could not be read; each maps to the 4xx it is answered
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BadRequest {
    /// Not a well-formed HTTP/1.x request (400).
    Malformed(&'static str),
    /// The client did not send its request within the deadline (408).
    Timeout,
    /// A `Content-Length` beyond [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// A head beyond [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
}

impl BadRequest {
    fn from_io(err: &io::Error) -> BadRequest {
        match err.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => BadRequest::Timeout,
            io::ErrorKind::UnexpectedEof => BadRequest::Malformed("truncated body"),
            _ => BadRequest::Malformed("unreadable request"),
        }
    }

    fn response(self) -> Response {
        match self {
            BadRequest::Malformed(why) => Response::text(400, format!("bad request: {why}\n")),
            BadRequest::Timeout => Response::text(408, "request not received in time\n"),
            BadRequest::BodyTooLarge => {
                Response::text(413, format!("request body over {MAX_BODY_BYTES} bytes\n"))
            }
            BadRequest::HeadTooLarge => {
                Response::text(431, format!("request head over {MAX_HEAD_BYTES} bytes\n"))
            }
        }
    }
}

/// Reads one head line (request line or header) within the head's byte
/// budget, without its `\n` or `\r\n` terminator.
fn read_head_line(head: &mut Take<impl BufRead>) -> Result<String, BadRequest> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line)
        .map_err(|err| BadRequest::from_io(&err))?;
    if line.pop() != Some(b'\n') {
        return Err(if head.limit() == 0 {
            BadRequest::HeadTooLarge
        } else {
            BadRequest::Malformed("truncated request head")
        });
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| BadRequest::Malformed("request head is not UTF-8"))
}

/// Reads one request: a `METHOD /target HTTP/1.x` line, headers up to a
/// blank line, and a body of exactly `Content-Length` bytes. It reads at
/// most [`MAX_HEAD_BYTES`] of head and [`MAX_BODY_BYTES`] of body, and
/// nothing past the body.
fn read_request(reader: &mut impl BufRead) -> Result<Request, BadRequest> {
    let mut head = reader.take(MAX_HEAD_BYTES);
    let request_line = read_head_line(&mut head)?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(BadRequest::Malformed("request line"));
    };
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !target.starts_with('/')
        || !version.starts_with("HTTP/1.")
    {
        return Err(BadRequest::Malformed("request line"));
    }
    // Real Prometheus scrape configs append query params; route on the
    // bare path.
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut content_length: Option<usize> = None;
    loop {
        let header = read_head_line(&mut head)?;
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or(BadRequest::Malformed("header without a colon"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| BadRequest::Malformed("content-length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(BadRequest::Malformed("conflicting content-length"));
            }
            content_length = Some(length);
        }
    }
    let length = content_length.unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(BadRequest::BodyTooLarge);
    }
    let mut raw = vec![0u8; length];
    reader
        .read_exact(&mut raw)
        .map_err(|err| BadRequest::from_io(&err))?;
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        body: String::from_utf8_lossy(&raw).into_owned(),
    })
}

fn handle(mut stream: TcpStream, handler: &Handler) {
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(DeadlineReader {
        stream: clone,
        started: Instant::now(),
    });
    let request = read_request(&mut reader);
    crate::metrics().counter("obs.http_requests").inc();
    let response = match request {
        Ok(request) => handler(&request),
        Err(bad) => bad.response(),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status_line(response.status),
        response.content_type,
        response.body.len(),
        response.body
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;
    use proptest::prelude::*;
    use std::io::Read;

    /// Serves one scrape body for every request.
    fn scrape_server() -> MetricsServer {
        MetricsServer::bind("127.0.0.1:0", |_: &Request| {
            Response::text(200, "tpupoint_up 1\n")
        })
        .unwrap()
    }

    /// A route table shaped like a serving layer's: scrape, health,
    /// status, phases and quit, with 404 for everything else.
    fn routing_server(quit_flag: Arc<AtomicBool>) -> MetricsServer {
        MetricsServer::bind("127.0.0.1:0", move |request: &Request| {
            match (request.method.as_str(), request.path.as_str()) {
                ("GET", "/metrics") => Response::text(200, "tpupoint_up 1\n"),
                ("GET", "/healthz") => Response::text(200, Health::healthy().body()),
                ("GET", "/status") => Response::json("{\"step\":7}"),
                ("GET", "/phases") => Response::json(crate::PhasesReport::default().to_json()),
                ("POST", "/quit") => {
                    quit_flag.store(true, Ordering::SeqCst);
                    Response::text(200, "quitting\n")
                }
                (method, path) => Response::text(404, format!("no route for {method} {path}\n")),
            }
        })
        .unwrap()
    }

    fn request(addr: SocketAddr, line: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "{line} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        let status = head.lines().next().unwrap_or("").to_owned();
        (status, body.to_owned())
    }

    #[test]
    fn routes_serve_their_hooks() {
        let quit = Arc::new(AtomicBool::new(false));
        let server = routing_server(Arc::clone(&quit));
        let addr = server.local_addr();
        let (status, body) = request(addr, "GET /metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "tpupoint_up 1\n");
        let (status, body) = request(addr, "GET /healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");
        let (status, body) = request(addr, "GET /status");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"step\":7}");
        let (status, body) = request(addr, "GET /phases");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"phases\": []"), "{body}");
        assert!(body.contains("\"stability\": 0"), "{body}");
        let (status, body) = request(addr, "GET /nowhere");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        assert_eq!(body, "no route for GET /nowhere\n");
        assert!(!quit.load(Ordering::SeqCst));
        let (status, body) = request(addr, "POST /quit");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "quitting\n");
        assert!(quit.load(Ordering::SeqCst));
        server.shutdown();
    }

    #[test]
    fn query_strings_are_stripped_before_routing() {
        let server = routing_server(Arc::new(AtomicBool::new(false)));
        let addr = server.local_addr();
        // Prometheus scrape configs append query params; they must not 404.
        let (status, body) = request(addr, "GET /metrics?job=x&instance=y");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "tpupoint_up 1\n");
        let (status, _) = request(addr, "GET /healthz?verbose=1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        server.shutdown();
    }

    #[test]
    fn stalled_client_does_not_block_other_scrapes() {
        let server = scrape_server();
        let addr = server.local_addr();
        // A client that opens a connection and trickles a partial request
        // line without ever finishing it. Before per-connection handler
        // threads this parked the accept loop for the whole read timeout,
        // freezing every other scrape.
        let mut stalled = TcpStream::connect(addr).expect("connect stalled client");
        stalled.write_all(b"GET /metr").expect("partial write");
        stalled.flush().unwrap();
        let started = Instant::now();
        let (status, body) = request(addr, "GET /metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "tpupoint_up 1\n");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "concurrent scrape stalled behind a slow client: {:?}",
            started.elapsed()
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn route_hook_extends_the_table_and_sees_bodies() {
        let handler = |request: &Request| match request.path.as_str() {
            "/jobs" if request.method == "POST" => {
                Response::json_status(201, format!("{{\"echo\":{}}}", request.body.trim().len()))
            }
            "/jobs" if request.method == "GET" => {
                Response::json(format!("{{\"q\":\"{}\"}}", request.query))
            }
            _ => Response::text(404, "no route\n"),
        };
        let server = MetricsServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        let body = "{\"tenant\":\"a\"}";
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 201 Created"), "{response}");
        assert!(
            response.ends_with(&format!("{{\"echo\":{}}}", body.len())),
            "{response}"
        );
        let (status, body) = request(addr, "GET /jobs?tenant=a");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"q\":\"tenant=a\"}");
        let (status, _) = request(addr, "GET /jobs/missing/phases");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        server.shutdown();
    }

    #[test]
    fn degraded_health_serves_503_with_causes() {
        let health = Health {
            degradations: vec!["store_errors 4".to_owned()],
        };
        let server = MetricsServer::bind("127.0.0.1:0", move |_: &Request| {
            Response::text(503, health.body())
        })
        .unwrap();
        let (status, body) = request(server.local_addr(), "GET /healthz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert_eq!(body, "degraded\nstore_errors 4\n");
    }

    #[test]
    fn health_derives_from_degradation_metrics() {
        let metrics = Metrics::new();
        assert!(Health::from_snapshot(&metrics.snapshot()).is_healthy());
        metrics.counter("profiler.store_errors").add(4);
        metrics.counter("profiler.seal_backpressure_waits").add(2);
        metrics.gauge("profiler.store_spill_depth").set(3.0);
        let health = Health::from_snapshot(&metrics.snapshot());
        assert!(!health.is_healthy());
        assert_eq!(
            health.degradations,
            vec![
                "store_errors 4".to_owned(),
                "store_spill_depth 3".to_owned(),
                "seal_backpressure_waits 2".to_owned(),
            ]
        );
        assert!(health.body().starts_with("degraded\n"));
    }

    #[test]
    fn zeroed_degradation_metrics_stay_healthy() {
        let metrics = Metrics::new();
        metrics.counter("profiler.store_errors");
        metrics.gauge("profiler.store_spill_depth");
        let health = Health::from_snapshot(&metrics.snapshot());
        assert!(health.is_healthy());
        assert_eq!(health.body(), "ok\n");
    }

    /// Parses `bytes` as one request; also returns how many bytes the
    /// parser consumed.
    fn parse(bytes: &[u8]) -> (Result<Request, BadRequest>, u64) {
        let mut cursor = io::Cursor::new(bytes);
        let outcome = read_request(&mut cursor);
        (outcome, cursor.position())
    }

    #[test]
    fn request_parser_reads_well_formed_requests_exactly() {
        let bytes =
            b"POST /jobs?tenant=a HTTP/1.1\r\nHost: t\r\ncontent-length: 5\r\n\r\nhello tail";
        let (request, consumed) = parse(bytes);
        let request = request.expect("well formed");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/jobs");
        assert_eq!(request.query, "tenant=a");
        assert_eq!(request.body, "hello");
        assert_eq!(consumed, bytes.len() as u64 - " tail".len() as u64);
        // Bare LF line ends and a repeated, agreeing length are fine.
        let (request, _) =
            parse(b"GET /metrics HTTP/1.0\nContent-Length: 0\nContent-Length: 0\n\n");
        assert_eq!(request.expect("well formed").path, "/metrics");
    }

    #[test]
    fn request_parser_answers_each_malformed_request_with_a_4xx() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES as usize)
        );
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-Pad: padding\r\n".repeat(2000)
        );
        let huge_body = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let cases: [(&[u8], u16); 17] = [
            (b"", 400),
            (b"GET /metrics HTTP/1.1\r\nHost: t\r\n", 400),
            (b"GET /metrics HTTP/1.1", 400),
            (b"GET /metrics\r\n\r\n", 400),
            (b"get /metrics HTTP/1.1\r\n\r\n", 400),
            (b"GET metrics HTTP/1.1\r\n\r\n", 400),
            (b"GET /metrics HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /\xff HTTP/1.1\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                400,
            ),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
                400,
            ),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400),
            (huge_body.as_bytes(), 413),
            (long_line.as_bytes(), 431),
            (many_headers.as_bytes(), 431),
        ];
        for (bytes, status) in cases {
            let (outcome, consumed) = parse(bytes);
            let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(80)]).into_owned();
            let bad = outcome.expect_err(&shown);
            assert_eq!(bad.response().status, status, "{shown}: {bad:?}");
            assert!(consumed <= MAX_HEAD_BYTES, "{shown}: read {consumed} bytes");
        }
    }

    /// A request with a body that every strict prefix truncates, and an
    /// arbitrary byte.
    fn valid_request(body_len: usize) -> Vec<u8> {
        let body = "b".repeat(body_len);
        format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {body_len}\r\n\r\n{body}")
            .into_bytes()
    }

    /// Byte strings a client might send, each with whether it is surely
    /// malformed: arbitrary bytes, truncated requests, oversized lines,
    /// and garbage `Content-Length` values.
    fn hostile_bytes() -> impl Strategy<Value = (Vec<u8>, bool)> {
        let byte = (0u64..256).prop_map(|b| b as u8);
        prop_oneof![
            proptest::collection::vec(byte, 0..600).prop_map(|bytes| (bytes, false)),
            (1usize..200, 0.0f64..1.0).prop_map(|(body_len, cut)| {
                let mut bytes = valid_request(body_len);
                bytes.truncate((cut * bytes.len() as f64) as usize);
                (bytes, true)
            }),
            (0usize..3, 1usize..40_000).prop_map(|(line, len)| {
                let pad = "a".repeat(len + MAX_HEAD_BYTES as usize);
                let bytes = match line {
                    0 => format!("GET /{pad} HTTP/1.1\r\n\r\n"),
                    1 => format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
                    _ => pad,
                };
                (bytes.into_bytes(), true)
            }),
            (
                proptest::collection::vec((0u64..128).prop_map(|b| b as u8), 0..30),
                0usize..3
            )
                .prop_map(|(junk, sign)| {
                    let value = String::from_utf8_lossy(&junk).replace(['\r', '\n'], "");
                    let value = match sign {
                        0 => format!("-{}", value.len() + 1),
                        1 => format!("{value}x"),
                        _ => format!("{}", MAX_BODY_BYTES + 1 + value.len()),
                    };
                    let bytes =
                        format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{junk:?}");
                    (bytes.into_bytes(), true)
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn request_parser_rejects_garbage_without_panicking(case in hostile_bytes()) {
            let (bytes, malformed) = case;
            let (outcome, consumed) = parse(&bytes);
            prop_assert!(
                consumed <= MAX_HEAD_BYTES + MAX_BODY_BYTES as u64,
                "read {consumed} bytes"
            );
            match outcome {
                Ok(request) => {
                    prop_assert!(!malformed, "accepted {request:?}");
                    prop_assert!(request.path.starts_with('/'), "{request:?}");
                }
                Err(bad) => {
                    let status = bad.response().status;
                    prop_assert!((400..500).contains(&status), "{bad:?} -> {status}");
                }
            }
        }
    }

    #[test]
    fn malformed_requests_get_their_status_over_the_wire() {
        let server = scrape_server();
        for (bytes, status) in [
            (&b"\x00\xffnonsense\r\n\r\n"[..], "HTTP/1.1 400 Bad Request"),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
                "HTTP/1.1 413 Payload Too Large",
            ),
        ] {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream.write_all(bytes).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with(status), "{response}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let server = scrape_server();
        let addr = server.local_addr();
        server.shutdown();
        // The listener is gone: a fresh bind of the same port succeeds.
        let rebound = TcpListener::bind(addr).expect("port released");
        drop(rebound);
    }
}
