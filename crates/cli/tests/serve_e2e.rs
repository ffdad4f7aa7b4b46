//! End-to-end test of `icost-obs serve`: a real server process with a
//! file-backed ledger, a raw-socket client, and the acceptance check
//! that SSE-streamed records are byte-equivalent to the
//! `ICOST_LEDGER_FILE` lines for the same run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_icost-obs");

struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    ledger_path: PathBuf,
}

impl ServerProcess {
    /// Spawn `icost-obs serve` on an ephemeral port with a fresh ledger
    /// file, and parse the bound address from its startup line.
    fn spawn() -> ServerProcess {
        ServerProcess::spawn_with(&[], "main")
    }

    /// [`ServerProcess::spawn_with`] plus extra environment variables.
    fn spawn_with_env(extra_args: &[&str], tag: &str, envs: &[(&str, &str)]) -> ServerProcess {
        ServerProcess::spawn_inner(extra_args, tag, envs)
    }

    /// [`ServerProcess::spawn`] with extra CLI arguments and a distinct
    /// ledger file per `tag` (tests run in one process; sharing a
    /// ledger file would interleave their records).
    fn spawn_with(extra_args: &[&str], tag: &str) -> ServerProcess {
        ServerProcess::spawn_inner(extra_args, tag, &[])
    }

    fn spawn_inner(extra_args: &[&str], tag: &str, envs: &[(&str, &str)]) -> ServerProcess {
        let dir = std::env::temp_dir().join(format!("icost-serve-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger_path = dir.join(format!("serve-{tag}.jsonl"));
        let _ = std::fs::remove_file(&ledger_path);
        let mut child = Command::new(BIN)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workload",
                "gzip",
                "--insts",
                "3000",
                "--threads",
                "2",
            ])
            .args(extra_args)
            .envs(envs.iter().copied())
            .env("ICOST_LEDGER_FILE", &ledger_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn icost-obs serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .expect("startup line")
            .expect("readable stdout")
            .strip_prefix("listening on ")
            .expect("startup line format")
            .parse()
            .expect("socket address");
        ServerProcess {
            child,
            addr,
            ledger_path,
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send one request, return `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    request_with(addr, method, path, "", body)
}

/// [`request`] with extra header lines (each ending `\r\n`).
fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &str,
    body: &str,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status = response
        .split_whitespace()
        .nth(1)
        .expect("status")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_process_answers_scrapes_and_streams_the_ledger() {
    let server = ServerProcess::spawn();
    let addr = server.addr;

    // Probes come up with the server.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"workload\":\"gzip\""), "{health}");
    let (status, _) = request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);

    // Subscribe to /events BEFORE the batch so every record streams.
    let mut events = TcpStream::connect(addr).expect("connect events");
    events
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    events
        .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request events");
    let mut streamed = String::new();
    read_until(&mut events, &mut streamed, |s| s.contains("\r\n\r\n"));
    let head_end = streamed.find("\r\n\r\n").unwrap() + 4;
    let head: String = streamed.drain(..head_end).collect();
    assert!(head.contains("text/event-stream"), "{head}");

    // The quickstart batch.
    let batch = r#"{"queries":[{"cost":"dmiss"},{"icost":"dmiss+win"}]}"#;
    let (status, body) = request(addr, "POST", "/query", batch);
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(&body).expect("response is JSON");
    assert_eq!(
        doc.get("answers").and_then(|v| v.as_arr()).map(<[_]>::len),
        Some(2)
    );

    // The scrape carries runner and stall series and passes the checker.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    uarch_obs::prom::check(&metrics).expect("exposition parses");
    for needle in ["runner_sims_run", "sim_stall_", "ledger_records"] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // Acceptance: the SSE stream is byte-equivalent to the ledger file.
    // run_warmed flushes the ledger at batch end, so the file is
    // complete once the POST returned.
    let ledger_text = std::fs::read_to_string(&server.ledger_path).expect("ledger file");
    let ledger_lines: Vec<&str> = ledger_text.lines().collect();
    assert!(ledger_lines.len() >= 2, "run header + jobs:\n{ledger_text}");
    read_until(&mut events, &mut streamed, |s| {
        data_lines(s).len() >= ledger_lines.len()
    });
    assert_eq!(
        data_lines(&streamed),
        ledger_lines,
        "SSE records must match the ICOST_LEDGER_FILE lines byte-for-byte"
    );
}

/// A token-protected server process: every endpoint 401s without the
/// bearer token, works normally with it, and `backend:"auto"` batches
/// come back with per-answer provenance/confidence plus `plan_*`
/// metrics — the same surface CI smoke-tests over HTTP.
#[test]
fn serve_process_enforces_bearer_token_and_answers_auto_batches() {
    let server = ServerProcess::spawn_with(&["--token", "hunter2"], "auth");
    let addr = server.addr;

    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 401, "no token → 401");
    let (status, _) = request_with(
        addr,
        "GET",
        "/metrics",
        "Authorization: Bearer nope\r\n",
        "",
    );
    assert_eq!(status, 401, "wrong token → 401");

    let auth = "Authorization: Bearer hunter2\r\n";
    let (status, health) = request_with(addr, "GET", "/healthz", auth, "");
    assert_eq!(status, 200, "{health}");

    let batch = r#"{"backend":"auto","queries":[{"cost":"dmiss"},{"icost":"dmiss+win"}]}"#;
    let (status, body) = request_with(addr, "POST", "/query", auth, batch);
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(&body).expect("response is JSON");
    assert_eq!(doc.get("backend").and_then(|v| v.as_str()), Some("auto"));
    let prov = doc
        .get("provenance")
        .and_then(|v| v.as_arr())
        .expect("provenance array");
    assert_eq!(prov.len(), 2, "{body}");
    let conf = doc
        .get("confidence")
        .and_then(|v| v.as_arr())
        .expect("confidence array");
    assert_eq!(conf.len(), 2, "{body}");

    let (status, metrics) = request_with(addr, "GET", "/metrics", auth, "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("plan_queries"),
        "missing plan_queries in:\n{metrics}"
    );

    // The auth failures were counted as HTTP errors.
    assert!(metrics.contains("serve_http_errors"), "{metrics}");
}

/// Live attach end to end: chunked `POST /ingest` batches retire
/// windows whose `window` records stream over SSE byte-identical to
/// the `ICOST_LEDGER_FILE` lines, `icost-obs watch` renders them (in
/// both SSE-tail and ledger-tail modes), and `/metrics` carries the
/// `ingest_*`/`window_*` series.
#[test]
fn streamed_ingest_matches_ledger_and_watch_renders_windows() {
    let server = ServerProcess::spawn_with(&[], "ingest");
    let addr = server.addr;

    // A watch client tailing only window records over SSE, started
    // before any ingest so nothing slips past it. Its first stderr
    // line confirms the subscription is live.
    let mut watch_sse = Command::new(BIN)
        .args(["watch", "--addr", &addr.to_string(), "--limit", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn watch --addr");
    let mut watch_err = BufReader::new(watch_sse.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    watch_err.read_line(&mut line).expect("watch stderr");
    assert!(line.contains("watching"), "{line}");

    // A raw SSE subscriber with the same server-side kinds filter.
    let mut events = TcpStream::connect(addr).expect("connect events");
    events
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    events
        .write_all(b"GET /events?kinds=window HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request events");
    let mut streamed = String::new();
    read_until(&mut events, &mut streamed, |s| s.contains("\r\n\r\n"));
    let head_end = streamed.find("\r\n\r\n").unwrap() + 4;
    streamed.drain(..head_end);

    // Stream a 100-instruction connected trace in three chunked POSTs
    // against a 24-instruction window: 4 full windows retire in-stream,
    // `done` flushes the 4-instruction tail as the fifth.
    let mut b = uarch_trace::TraceBuilder::new();
    let r1 = uarch_trace::Reg::int(1);
    let r2 = uarch_trace::Reg::int(2);
    b.counted_loop(25, r2, |b, k| {
        b.load(r1, 0x4000 + (k as u64 % 5) * 64);
        b.alu(r2, &[r1]);
        b.store(r2, 0x9000 + (k as u64 % 3) * 8);
    });
    let insts: Vec<uarch_trace::Inst> = b.finish().insts()[..100].to_vec();
    for (i, chunk) in insts.chunks(40).enumerate() {
        let done = (i + 1) * 40 >= 100;
        let encoded: Vec<String> = chunk.iter().map(uarch_serve::inst_to_json).collect();
        let body = format!(
            "{{\"session\":\"e2e\",\"window\":24,\"insts\":[{}],\"done\":{done}}}",
            encoded.join(","),
        );
        let (status, response) = request(addr, "POST", "/ingest", &body);
        assert_eq!(status, 200, "{response}");
        if done {
            let doc = uarch_obs::json::parse(&response).expect("ingest response JSON");
            assert_eq!(doc.get("ingested").and_then(|v| v.as_num()), Some(100.0));
            assert_eq!(doc.get("windows").and_then(|v| v.as_num()), Some(5.0));
        }
    }

    // Acceptance: SSE window records ≡ the ledger file's window lines.
    let ledger_text = std::fs::read_to_string(&server.ledger_path).expect("ledger file");
    let window_lines: Vec<&str> = ledger_text
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"window\""))
        .collect();
    assert_eq!(window_lines.len(), 5, "{ledger_text}");
    let records = uarch_obs::ledger::parse_ledger(&window_lines.join("\n")).expect("parses");
    let tiles: Vec<(u64, u64)> = records
        .iter()
        .map(|r| match r {
            uarch_obs::ledger::LedgerRecord::Window(w) => (w.start, w.end),
            other => panic!("not a window record: {other:?}"),
        })
        .collect();
    assert_eq!(tiles, [(0, 24), (24, 48), (48, 72), (72, 96), (96, 100)]);
    read_until(&mut events, &mut streamed, |s| data_lines(s).len() >= 5);
    assert_eq!(
        data_lines(&streamed),
        window_lines,
        "SSE window records must match the ICOST_LEDGER_FILE lines byte-for-byte"
    );

    // The SSE watch client saw the same five windows and exited at its
    // --limit, rendering a breakdown table per window.
    let out = watch_sse.wait_with_output().expect("watch --addr exits");
    assert!(out.status.success(), "{out:?}");
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert_eq!(rendered.matches("baseline").count(), 5, "{rendered}");
    assert!(rendered.contains("insts [0,24)"), "{rendered}");
    assert!(rendered.contains("insts [96,100)"), "{rendered}");

    // Ledger-tail mode renders the same windows from the file.
    let out = Command::new(BIN)
        .args(["watch", "--ledger"])
        .arg(&server.ledger_path)
        .args(["--limit", "5"])
        .output()
        .expect("watch --ledger exits");
    assert!(out.status.success(), "{out:?}");
    let tailed = String::from_utf8_lossy(&out.stdout);
    assert_eq!(tailed, rendered, "both watch modes render identically");

    // The new series are on /metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "ingest_sessions{registry=\"ingest\"} 0",
        "ingest_insts{registry=\"ingest\"} 100",
        "window_evals{registry=\"ingest\"} 5",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // And /readyz reports build/runtime info as JSON.
    let (status, ready) = request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let doc = uarch_obs::json::parse(ready.trim()).expect("readyz JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ready"));
    assert!(doc.get("version").is_some(), "{ready}");
    assert_eq!(
        doc.get("ledger_sink"),
        Some(&uarch_obs::json::Value::Bool(true))
    );
}

/// The audit plane end to end: `POST /explain` answers with the audit
/// record itself (plus provenance fields), the identical record lands
/// in the ledger and on `/events?kinds=audit`, `icost-obs audit`
/// renders the byte-identical waterfall and gates on the refuted rate,
/// `/metrics` carries the `audit_*` series, and `/readyz` reports the
/// audit subsystem state.
#[test]
fn explain_and_cli_audit_produce_identical_waterfalls() {
    let server = ServerProcess::spawn_with_env(&[], "audit", &[("ICOST_AUDIT", "1")]);
    let addr = server.addr;

    // `icost-obs audit --addr` tails the audit stream, started before
    // any audit so nothing slips past it; its first stderr line
    // confirms the subscription is live.
    let mut audit_sse = Command::new(BIN)
        .args(["audit", "--addr", &addr.to_string(), "--limit", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn audit --addr");
    let mut audit_err = BufReader::new(audit_sse.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    audit_err.read_line(&mut line).expect("audit stderr");
    assert!(line.contains("watching"), "{line}");

    // Subscribe to audit records before provoking any.
    let mut events = TcpStream::connect(addr).expect("connect events");
    events
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    events
        .write_all(b"GET /events?kinds=audit HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request events");
    let mut streamed = String::new();
    read_until(&mut events, &mut streamed, |s| s.contains("\r\n\r\n"));
    let head_end = streamed.find("\r\n\r\n").unwrap() + 4;
    streamed.drain(..head_end);

    // Whole-run explain: the response body IS the ledger record, with
    // workload/provenance spliced in for the HTTP consumer.
    let (status, body) = request(addr, "POST", "/explain", "");
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(body.trim()).expect("explain JSON");
    assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("audit"));
    assert_eq!(doc.get("workload").and_then(|v| v.as_str()), Some("gzip"));
    assert_eq!(
        doc.get("provenance").and_then(|v| v.as_str()),
        Some("graph+counters")
    );
    assert_eq!(doc.get("scope").and_then(|v| v.as_str()), Some("run"));
    // Unknown-field tolerance makes the response parse as exactly the
    // ledger's audit record.
    let (records, _) = uarch_obs::ledger::parse_ledger_lenient(body.trim()).expect("parses");
    let uarch_obs::ledger::LedgerRecord::Audit(from_http) = &records[0] else {
        panic!("not an audit record: {body}");
    };
    let http_waterfall = uarch_audit::render_waterfall(from_http);
    assert!(http_waterfall.contains("category"), "{http_waterfall}");

    // Sub-range explain and request validation.
    let (status, ranged) = request(addr, "POST", "/explain", r#"{"start":0,"end":1000}"#);
    assert_eq!(status, 200, "{ranged}");
    let doc = uarch_obs::json::parse(ranged.trim()).expect("ranged JSON");
    assert_eq!(
        doc.get("scope").and_then(|v| v.as_str()),
        Some("range 0..1000")
    );
    let (status, _) = request(addr, "POST", "/explain", r#"{"start":5}"#);
    assert_eq!(status, 400, "start without end must be rejected");
    let (status, _) = request(addr, "POST", "/explain", r#"{"start":0,"end":999999}"#);
    assert_eq!(status, 400, "out-of-range end must be rejected");

    // Acceptance: the CLI renders the identical waterfall from the
    // ledger file, and its --max-refuted gate passes at the lax bound.
    let ledger_text = std::fs::read_to_string(&server.ledger_path).expect("ledger file");
    let audit_lines: Vec<&str> = ledger_text
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"audit\""))
        .collect();
    assert_eq!(audit_lines.len(), 2, "{ledger_text}");
    let out = Command::new(BIN)
        .arg("audit")
        .arg(&server.ledger_path)
        .args(["--max-refuted", "1.0"])
        .output()
        .expect("icost-obs audit runs");
    assert!(out.status.success(), "{out:?}");
    let cli = String::from_utf8_lossy(&out.stdout);
    assert!(
        cli.contains(&http_waterfall),
        "CLI waterfall must be byte-identical to the /explain one.\nCLI:\n{cli}\nHTTP:\n{http_waterfall}"
    );
    let gate_note = String::from_utf8_lossy(&out.stderr);
    assert!(gate_note.contains("2 audit record(s)"), "{gate_note}");

    // The SSE path renders the same two waterfalls, then stops at --limit.
    let streamed_out = audit_sse.wait_with_output().expect("audit --addr exits");
    assert!(streamed_out.status.success(), "{streamed_out:?}");
    assert_eq!(String::from_utf8_lossy(&streamed_out.stdout), cli);
    line.clear();
    audit_err.read_line(&mut line).expect("audit stderr");
    assert!(line.contains("2 audit record(s)"), "{line}");

    // The SSE subscriber saw the same records the ledger file holds.
    read_until(&mut events, &mut streamed, |s| data_lines(s).len() >= 2);
    assert_eq!(
        data_lines(&streamed),
        audit_lines,
        "SSE audit records must match the ICOST_LEDGER_FILE lines byte-for-byte"
    );

    // audit_* series are on /metrics.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    uarch_obs::prom::check(&metrics).expect("exposition parses");
    for needle in ["audit_checks", "audit_confirmed", "audit_residual_pm_dmiss"] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // /readyz reports the audit plane enabled with its running state.
    let (status, ready) = request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let doc = uarch_obs::json::parse(ready.trim()).expect("readyz JSON");
    let audit_state = doc.get("audit").expect("audit state in readyz");
    assert_eq!(
        audit_state.get("enabled"),
        Some(&uarch_obs::json::Value::Bool(true)),
        "{ready}"
    );
    assert!(audit_state.get("refuted_rate").is_some(), "{ready}");
}

#[test]
fn unopenable_ledger_file_is_reported_on_stderr() {
    // A regular file where the ledger's directory should be.
    let dir = std::env::temp_dir().join(format!("icost-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"").unwrap();
    let ledger_path = blocker.join("ledger.jsonl");
    let open_error = std::fs::create_dir_all(&blocker).unwrap_err().to_string();
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--workload", "gzip"])
        .args(["--insts", "500", "--threads", "1"])
        .env("ICOST_LEDGER_FILE", &ledger_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn icost-obs serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let addr: SocketAddr = stdout
        .next()
        .expect("startup line")
        .expect("readable stdout")
        .strip_prefix("listening on ")
        .expect("startup line format")
        .parse()
        .expect("socket address");
    // /readyz reads the global ledger, so it has been opened (or not).
    let (status, ready) = request(addr, "GET", "/readyz", "");
    let _ = child.kill();
    let _ = child.wait();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .unwrap();
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(status, 200, "{ready}");
    assert!(ready.contains("\"ledger_sink\":false"), "{ready}");
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("ICOST_LEDGER_FILE"))
        .collect();
    assert_eq!(warnings.len(), 1, "one stderr line expected:\n{stderr}");
    assert!(
        warnings[0].contains(&ledger_path.display().to_string()),
        "{}",
        warnings[0]
    );
    assert!(warnings[0].contains(&open_error), "{}", warnings[0]);
}

/// The payloads of complete `data:` frames, in order.
fn data_lines(streamed: &str) -> Vec<&str> {
    streamed
        .split("\n\n")
        .filter_map(|frame| frame.trim_start_matches('\n').strip_prefix("data: "))
        .collect()
}

/// Append socket bytes to `buf` until `done(buf)` or a 30s deadline.
fn read_until(stream: &mut TcpStream, buf: &mut String, done: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut chunk = [0u8; 4096];
    while !done(buf) {
        assert!(Instant::now() < deadline, "timed out; got:\n{buf}");
        match stream.read(&mut chunk) {
            Ok(0) => panic!("stream closed early; got:\n{buf}"),
            Ok(n) => buf.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(_) => {} // read-timeout tick; re-check the predicate
        }
    }
}
