//! The accept pool and request router.
//!
//! Threading model: `workers` OS threads share one `TcpListener`
//! (via `try_clone`), each blocking in `accept` and handling one
//! connection at a time — a bounded pool, so a flood of clients queues
//! in the kernel backlog instead of spawning unbounded threads. The
//! one exception is `GET /events`: a connection-lifetime SSE stream
//! would pin its worker forever, so after the request parses the
//! connection is handed to a dedicated thread (capped at
//! [`MAX_SSE_CLIENTS`]; beyond that the request gets `503`) and the
//! worker returns to `accept`. Every response closes its connection.
//! A handler panic costs its request, not its worker: the worker counts
//! it as an error, answers `500` if the client is still there, and
//! returns to `accept`.
//! Shutdown sets a stop flag, pokes the listener with dummy connects so
//! blocked `accept` calls return, joins the pool, then waits for the
//! SSE threads (which poll the flag every [`SSE_TICK`]) to drain.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uarch_obs::ledger::KindFilter;

use crate::host::ServeHost;
use crate::http::{self, ParseError, Request};

/// Environment variable naming the listen address for `icost-obs serve`
/// (e.g. `127.0.0.1:9f17`... any `host:port`; port `0` picks one).
pub const SERVE_ADDR_ENV: &str = "ICOST_SERVE_ADDR";

/// Default listen address when neither flag nor env var names one.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Default accept-pool size.
pub const DEFAULT_WORKERS: usize = 4;

/// Per-connection socket read timeout: a stalled client cannot pin an
/// accept-pool thread for longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the SSE loop waits for a ledger record before emitting a
/// keepalive comment (which doubles as the disconnect/stop probe).
const SSE_TICK: Duration = Duration::from_millis(250);

/// Per-SSE-client queue bound, in ledger lines (drop-oldest beyond).
const SSE_QUEUE_CAPACITY: usize = 4096;

/// Cap on concurrent `GET /events` streams (each holds a dedicated
/// thread); further subscribers are turned away with `503`.
pub const MAX_SSE_CLIENTS: usize = 32;

/// How long an accept-pool worker backs off after `accept()` errors.
/// Persistent errors (EMFILE under fd exhaustion, say) would otherwise
/// turn the worker into a 100% CPU busy-spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// How long shutdown waits for dedicated SSE threads to notice the
/// stop flag (they poll it every [`SSE_TICK`]).
const SSE_DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// The count of live dedicated SSE threads, shared between the router
/// (slot reservation) and shutdown (drain wait).
#[derive(Debug, Default)]
struct SseSlots {
    active: AtomicUsize,
}

/// A running HTTP server; dropping it (or calling
/// [`Server::shutdown`]) stops the accept pool.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    sse: Arc<SseSlots>,
}

impl Server {
    /// Bind `addr` and start `workers` accept threads serving `host`.
    /// Flips the host's ready flag once the pool is listening.
    pub fn start(
        host: Arc<ServeHost>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sse = Arc::new(SseSlots::default());
        let mut spawned = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let worker = listener.try_clone().and_then(|listener| {
                let host = host.clone();
                let stop = stop.clone();
                let sse = sse.clone();
                std::thread::Builder::new()
                    .name(format!("icost-serve-{i}"))
                    .spawn(move || accept_loop(&listener, &host, &stop, &sse))
            });
            match worker {
                Ok(handle) => spawned.push(handle),
                Err(e) => {
                    // A mid-loop clone/spawn failure must not leak the
                    // workers already blocked in accept(): stop them,
                    // wake them, and join before surfacing the error
                    // (which also lets every listener clone close).
                    stop.store(true, Ordering::SeqCst);
                    wake_and_join(addr, &mut spawned);
                    return Err(e);
                }
            }
        }
        host.set_ready(true);
        Ok(Server {
            addr,
            stop,
            workers: spawned,
            sse,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake blocked workers, and join the pool.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        wake_and_join(self.addr, &mut self.workers);
        // SSE threads are detached; they observe the stop flag within
        // one SSE_TICK and release their slot on exit.
        let deadline = Instant::now() + SSE_DRAIN_DEADLINE;
        while self.sse.active.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Wake every worker blocked in `accept()` (which has no timeout) with
/// dummy connects, then join them. Callers must have set the stop flag
/// first.
fn wake_and_join(addr: SocketAddr, workers: &mut Vec<JoinHandle<()>>) {
    let wake = match addr.ip() {
        ip if ip.is_unspecified() => SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port()),
        _ => addr,
    };
    for _ in 0..workers.len() {
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(200));
    }
    for handle in workers.drain(..) {
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    host: &Arc<ServeHost>,
    stop: &Arc<AtomicBool>,
    sse: &Arc<SseSlots>,
) {
    while !stop.load(Ordering::SeqCst) {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // The host's shared state survives an unwind: every lock it
        // takes recovers from poisoning.
        let handled = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(host, &mut stream, stop, sse)
        }));
        if handled.is_err() {
            host.count_error();
            let _ = http::write_response(&mut stream, 500, "text/plain", b"internal error\n");
        }
    }
}

/// Serve one connection: parse the request, route it, respond; the
/// caller closes it. `GET /events` is the exception — it hands the
/// stream to a dedicated thread so the accept-pool worker stays
/// available.
fn handle_connection(
    host: &Arc<ServeHost>,
    stream: &mut TcpStream,
    stop: &Arc<AtomicBool>,
    sse: &Arc<SseSlots>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(ParseError::Eof) => return,
        Err(ParseError::Io(_)) => return,
        Err(ParseError::Malformed(msg)) => {
            host.count_request();
            host.count_error();
            let _ = http::write_response(stream, 400, "text/plain", format!("{msg}\n").as_bytes());
            return;
        }
        Err(ParseError::TooLarge(what)) => {
            host.count_request();
            host.count_error();
            let status = if what == "body" { 413 } else { 431 };
            let _ = http::write_response(
                stream,
                status,
                "text/plain",
                format!("{what} too large\n").as_bytes(),
            );
            return;
        }
    };
    host.count_request();
    if !host.authorize(&request) {
        // Auth gates every endpoint, including the SSE stream — the
        // ledger leaks workload structure just as surely as /query.
        host.count_error();
        let _ = http::write_response_with(
            stream,
            401,
            "text/plain",
            &[("WWW-Authenticate", "Bearer realm=\"icost-serve\"")],
            b"unauthorized\n",
        );
        return;
    }
    if (request.method.as_str(), request.path.as_str()) == ("GET", "/events") {
        let kinds = parse_kinds_filter(request.query.as_deref());
        spawn_sse(host, stream, stop, sse, kinds);
        return;
    }
    // Analysis endpoints run under a causal trace context: adopted from
    // the client's `x-icost-trace` header, or minted here. The guard
    // scopes it to this handler; everything the request causes — the
    // runner's spans, pool workers, every ledger record — carries its
    // trace id (see `uarch_obs::causal`).
    let traced = matches!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/query" | "/ingest" | "/explain")
    );
    let ctx = traced.then(|| {
        request
            .header(uarch_obs::causal::TRACE_HEADER)
            .and_then(uarch_obs::TraceCtx::parse)
            .unwrap_or_else(uarch_obs::TraceCtx::mint)
    });
    let _guard = ctx.map(uarch_obs::causal::set_current);
    let _request_sp = ctx.map(|ctx| {
        uarch_obs::global().span_with(
            "serve",
            format!("serve.{}", request.path.trim_start_matches('/')),
            vec![("trace", ctx.trace_hex())],
        )
    });
    route(host, stream, &request);
}

/// Parse the `secs=` query parameter of `GET /profile`: how far back
/// the span-fold window reaches. Defaults to 60, clamped to
/// `1..=3600`; unparseable values fall back to the default.
fn parse_profile_secs(query: Option<&str>) -> u64 {
    query
        .and_then(|q| {
            q.split('&')
                .find_map(|param| param.strip_prefix("secs="))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(60)
        .clamp(1, 3600)
}

/// Parse the `kinds=` query parameter of `GET /events` (see
/// [`KindFilter::parse`]); an absent parameter admits every kind.
fn parse_kinds_filter(query: Option<&str>) -> KindFilter {
    let value = query.and_then(|q| q.split('&').find_map(|param| param.strip_prefix("kinds=")));
    KindFilter::parse(value.unwrap_or_default())
}

/// Move a `GET /events` connection onto a dedicated thread, bounded by
/// [`MAX_SSE_CLIENTS`]; over the cap (or if the spawn fails) the client
/// gets `503` and the worker moves on either way.
fn spawn_sse(
    host: &Arc<ServeHost>,
    stream: &mut TcpStream,
    stop: &Arc<AtomicBool>,
    sse: &Arc<SseSlots>,
    kinds: KindFilter,
) {
    let reserved = sse
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < MAX_SSE_CLIENTS).then_some(n + 1)
        })
        .is_ok();
    if !reserved {
        host.count_error();
        let _ = http::write_response(stream, 503, "text/plain", b"too many event streams\n");
        return;
    }
    let thread_host = host.clone();
    let stop = stop.clone();
    let slots = sse.clone();
    let spawned = stream.try_clone().and_then(|mut stream| {
        std::thread::Builder::new()
            .name("icost-serve-sse".into())
            .spawn(move || {
                stream_events(&thread_host, &mut stream, &stop, &kinds);
                slots.active.fetch_sub(1, Ordering::SeqCst);
            })
    });
    if spawned.is_err() {
        sse.active.fetch_sub(1, Ordering::SeqCst);
        host.count_error();
        let _ = http::write_response(stream, 503, "text/plain", b"cannot start event stream\n");
    }
}

fn route(host: &ServeHost, stream: &mut TcpStream, request: &Request) {
    #[cfg(test)]
    if request.path == tests::PANIC_PATH {
        panic!("handler panic requested by a test");
    }
    // Traced endpoints echo the request's trace binding so clients can
    // correlate without parsing the body.
    let trace_header = uarch_obs::causal::current().map(|ctx| ctx.header_value());
    let trace_extra: Vec<(&str, &str)> = trace_header
        .as_deref()
        .map(|v| (uarch_obs::causal::TRACE_HEADER, v))
        .into_iter()
        .collect();
    // `GET /trace/<id>` carries the id in the path, so it routes by
    // prefix instead of the exact-path match below.
    if let Some(id) = request.path.strip_prefix("/trace/") {
        if request.method != "GET" {
            host.count_error();
            let _ = http::write_response(stream, 405, "text/plain", b"method not allowed\n");
            return;
        }
        if id == "slow" {
            let body = host.slow_json();
            let _ = http::write_response(stream, 200, "application/json", body.as_bytes());
            return;
        }
        match host.trace_json(id) {
            Some(body) => {
                let _ = http::write_response(stream, 200, "application/json", body.as_bytes());
            }
            None => {
                host.count_error();
                let _ = http::write_response(stream, 404, "text/plain", b"unknown trace id\n");
            }
        }
        return;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => {
            let body = host.render_metrics();
            let _ = http::write_response(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => {
            let _ = http::write_response(
                stream,
                200,
                "application/json",
                host.health_json().as_bytes(),
            );
        }
        ("GET", "/readyz") => {
            if host.is_ready() {
                let _ = http::write_response(
                    stream,
                    200,
                    "application/json",
                    host.ready_json().as_bytes(),
                );
            } else {
                host.count_error();
                let _ = http::write_response(stream, 503, "text/plain", b"starting\n");
            }
        }
        ("POST", "/query") => match host.handle_query(&request.body) {
            Ok(body) => {
                let _ = http::write_response_with(
                    stream,
                    200,
                    "application/json",
                    &trace_extra,
                    body.as_bytes(),
                );
            }
            Err(msg) => {
                host.count_error();
                let _ =
                    http::write_response(stream, 400, "text/plain", format!("{msg}\n").as_bytes());
            }
        },
        ("POST", "/explain") => {
            let start = Instant::now();
            match host.handle_explain(&request.body) {
                Ok(mut body) => {
                    host.finish_traced("explain", start.elapsed().as_micros() as u64, &mut body);
                    let _ = http::write_response_with(
                        stream,
                        200,
                        "application/json",
                        &trace_extra,
                        body.as_bytes(),
                    );
                }
                Err(msg) => {
                    host.count_error();
                    let _ = http::write_response(
                        stream,
                        400,
                        "text/plain",
                        format!("{msg}\n").as_bytes(),
                    );
                }
            }
        }
        ("POST", "/ingest") => {
            let start = Instant::now();
            match host.handle_ingest(&request.body) {
                Ok(outcome) => {
                    let mut body = outcome.to_json();
                    host.finish_traced("ingest", start.elapsed().as_micros() as u64, &mut body);
                    let _ = http::write_response_with(
                        stream,
                        200,
                        "application/json",
                        &trace_extra,
                        body.as_bytes(),
                    );
                }
                Err(msg) => {
                    host.count_error();
                    let _ = http::write_response(
                        stream,
                        400,
                        "text/plain",
                        format!("{msg}\n").as_bytes(),
                    );
                }
            }
        }
        ("GET", "/profile") => {
            let secs = parse_profile_secs(request.query.as_deref());
            match host.profile_text(secs) {
                Some(body) => {
                    let _ = http::write_response(
                        stream,
                        200,
                        "text/plain; charset=utf-8",
                        body.as_bytes(),
                    );
                }
                None => {
                    host.count_error();
                    let _ = http::write_response(
                        stream,
                        503,
                        "text/plain",
                        b"tracing disabled (set ICOST_TRACE_FILE)\n",
                    );
                }
            }
        }
        (
            _,
            "/metrics" | "/healthz" | "/readyz" | "/events" | "/query" | "/explain" | "/ingest"
            | "/profile",
        ) => {
            host.count_error();
            let _ = http::write_response(stream, 405, "text/plain", b"method not allowed\n");
        }
        _ => {
            host.count_error();
            let _ = http::write_response(stream, 404, "text/plain", b"not found\n");
        }
    }
}

/// `GET /events`: subscribe to the global ledger and stream every
/// record line as one SSE `data:` frame, in append order. A
/// `?kinds=window,job` query restricts the stream to those record
/// kinds; the filter drops whole lines after the subscription queue,
/// so filtered and unfiltered clients see byte-identical frames for
/// the records they share.
///
/// Back-pressure: the subscription queue holds [`SSE_QUEUE_CAPACITY`]
/// lines; a client that reads slower than the runner appends loses
/// oldest-first (counted on `ledger.events.dropped`) rather than
/// blocking the run. Keepalive comments flow every [`SSE_TICK`] so
/// disconnects and server shutdown are noticed promptly.
fn stream_events(host: &ServeHost, stream: &mut TcpStream, stop: &AtomicBool, kinds: &KindFilter) {
    let subscription = uarch_obs::ledger::global().subscribe(SSE_QUEUE_CAPACITY);
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    host.sse_clients_delta(1);
    while !stop.load(Ordering::SeqCst) {
        let frame = match subscription.recv_timeout(SSE_TICK) {
            Some(line) if kinds.admits(&line) => format!("data: {line}\n\n"),
            // A filtered-out record still resets nothing: the periodic
            // keepalive below keeps the disconnect probe flowing.
            Some(_) => continue,
            None => ": keepalive\n\n".to_string(),
        };
        if stream.write_all(frame.as_bytes()).is_err() || stream.flush().is_err() {
            break;
        }
    }
    host.sse_clients_delta(-1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use uarch_obs::json;
    use uarch_runner::{Query, Runner};
    use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

    use crate::host::ServeContext;

    /// Requests for this path panic inside the handler.
    pub(super) const PANIC_PATH: &str = "/test/panic";

    /// Send one request and return `(status, body)`; status 0 when the
    /// server closed without answering.
    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream
            .write_all(format!("{head}{body}").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        (status, body.to_string())
    }

    #[test]
    fn a_handler_panic_costs_its_request_not_its_worker() {
        let mut b = TraceBuilder::new();
        for k in 0..40u64 {
            b.load(Reg::int(1), 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[Reg::int(1)]);
        }
        let (config, trace) = (MachineConfig::table6(), b.finish());
        let ctx = ServeContext::new("panics", config.clone(), trace.clone());
        let host = Arc::new(ServeHost::new(Runner::new().with_threads(1), ctx));
        let workers = 2;
        let server = Server::start(host.clone(), "127.0.0.1:0", workers).expect("start");
        let addr = server.addr();

        // One more panic than there are workers: without recovery the
        // last one would find no worker left to answer it.
        for _ in 0..=workers {
            assert_eq!(request(addr, "GET", PANIC_PATH, "").0, 500);
        }
        let errors = host.serve_metrics().snapshot().counter("serve.http_errors");
        assert_eq!(errors, workers as u64 + 1);

        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"workload\":\"panics\""), "{body}");
        let (status, body) = request(addr, "POST", "/query", r#"{"queries":[{"cost":"dmiss"}]}"#);
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("JSON body");
        let answers = doc
            .get("answers")
            .and_then(json::Value::as_arr)
            .expect("answers");
        let dmiss = Query::Cost(EventSet::single(EventClass::Dmiss));
        let (want, _) = Runner::new().run(&config, &trace, &[dmiss]);
        assert_eq!(answers[0].as_num(), Some(want[0] as f64));
        server.shutdown();
    }
}
