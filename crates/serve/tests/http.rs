//! In-process endpoint tests: a real server on an ephemeral port, a
//! raw-socket client, and assertions over every route.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use uarch_runner::Runner;
use uarch_serve::{ServeContext, ServeHost, Server};
use uarch_trace::MachineConfig;

fn test_host() -> Arc<ServeHost> {
    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("mcf").expect("profile"),
        4_000,
        2003,
    );
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    Arc::new(ServeHost::new(Runner::new().with_threads(2), ctx))
}

/// Send one request (optional extra header lines, no trailing CRLF);
/// return the raw response text.
fn raw_request(addr: SocketAddr, method: &str, path: &str, extra: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// Send one request, return `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let response = raw_request(addr, method, path, "", body);
    let status: u16 = response
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
fn endpoints_serve_health_metrics_and_errors() {
    let host = test_host();
    let server = Server::start(host.clone(), "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"workload\":\"mcf\""), "{body}");

    let (status, body) = request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let ready = uarch_obs::json::parse(body.trim()).expect("readyz is JSON");
    assert_eq!(ready.get("status").and_then(|v| v.as_str()), Some("ready"));
    assert_eq!(
        ready.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION")),
        "{body}"
    );
    for key in ["uptime_s", "ingest_sessions", "ledger_sink"] {
        assert!(ready.get(key).is_some(), "missing {key} in {body}");
    }

    let (status, _) = request(addr, "GET", "/nowhere", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/metrics", "");
    assert_eq!(status, 405);

    // A streamed ingest batch retires windows and closes its session.
    let ingest = r#"{"session":"t","window":2,"insts":[
        {"pc":0,"op":"alu","dst":"r1","next_pc":4},
        {"pc":4,"op":"alu","dst":"r2","srcs":["r1"],"next_pc":8},
        {"pc":8,"op":"ld","dst":"r1","srcs":["r2"],"mem":4096,"next_pc":12},
        {"pc":12,"op":"alu","next_pc":16}],"done":true}"#;
    let (status, body) = request(addr, "POST", "/ingest", ingest);
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(body.trim()).expect("ingest response is JSON");
    assert_eq!(doc.get("ingested").and_then(|v| v.as_num()), Some(4.0));
    assert_eq!(doc.get("windows").and_then(|v| v.as_num()), Some(2.0));
    let (status, err) = request(addr, "POST", "/ingest", "{}");
    assert_eq!(status, 400);
    assert!(err.contains("session"), "{err}");

    // A metrics scrape renders a checkable exposition document.
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    uarch_obs::prom::check(&text).expect("exposition passes the checker");
    assert!(text.contains("serve_requests"), "{text}");
    for needle in ["ingest_sessions{registry=\"ingest\"}", "window_evals"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    server.shutdown();
}

/// A body nested far past the JSON reader's depth bound is a client
/// error on every endpoint that parses JSON, not a stack overflow that
/// aborts the process, and the server answers the next query as before.
#[test]
fn deeply_nested_bodies_are_client_errors() {
    let server = Server::start(test_host(), "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();
    let answers = |body: &str| {
        let doc = uarch_obs::json::parse(body).expect("response is JSON");
        format!("{:?}", doc.get("answers").expect("answers"))
    };
    let query = r#"{"queries":[{"cost":"dmiss"},{"icost":"dmiss+win"}]}"#;
    let (status, before) = request(addr, "POST", "/query", query);
    assert_eq!(status, 200, "{before}");

    let deep = 100_000;
    for (path, body) in [
        ("/query", "[".repeat(deep)),
        (
            "/ingest",
            format!(r#"{{"session":"deep","insts":{}"#, "[".repeat(deep)),
        ),
        ("/explain", r#"{"start":"#.repeat(deep)),
    ] {
        let (status, err) = request(addr, "POST", path, &body);
        assert_eq!(status, 400, "{path}: {err}");
        assert!(
            err.contains("invalid JSON: nesting deeper than"),
            "{path}: {err}"
        );
    }

    let (status, after) = request(addr, "POST", "/query", query);
    assert_eq!(status, 200, "{after}");
    assert_eq!(answers(&after), answers(&before));
    server.shutdown();
}

/// Long-lived `/events` streams must not occupy accept-pool workers:
/// with a single-worker pool and more SSE clients than workers, plain
/// endpoints must still answer (before the fix, the streams pinned the
/// pool and every other request sat in the kernel backlog forever).
#[test]
fn event_streams_do_not_starve_the_accept_pool() {
    let host = test_host();
    let server = Server::start(host, "127.0.0.1:0", 1).expect("start");
    let addr = server.addr();

    let mut streams = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).expect("connect sse");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("request events");
        // Wait for the stream head so we know the handoff happened and
        // the worker is (or is not) free again.
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            match s.read(&mut byte) {
                Ok(1) => head.push(byte[0]),
                _ => panic!("no SSE head; got {:?}", String::from_utf8_lossy(&head)),
            }
        }
        assert!(
            String::from_utf8_lossy(&head).contains("text/event-stream"),
            "{head:?}"
        );
        streams.push(s);
    }

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    drop(streams);
    server.shutdown();
}

#[test]
fn query_batches_answer_on_both_backends_and_feed_metrics() {
    let host = test_host();
    let server = Server::start(host.clone(), "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();

    let batch =
        r#"{"queries":[{"cost":"dmiss"},{"icost":"dmiss+win"},{"icost_units":["dmiss","win"]}]}"#;
    let (status, body) = request(addr, "POST", "/query", batch);
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(&body).expect("response is JSON");
    let answers = doc
        .get("answers")
        .and_then(|v| v.as_arr())
        .expect("answers");
    assert_eq!(answers.len(), 3);
    assert_eq!(
        doc.get("backend").and_then(|v| v.as_str()),
        Some("sim"),
        "{body}"
    );
    assert!(doc.get("report").is_some());

    // The identical batch again is answered entirely from the shared
    // cache: same answers, byte-identical "answers" array.
    let (_, body2) = request(addr, "POST", "/query", batch);
    let doc2 = uarch_obs::json::parse(&body2).expect("JSON");
    assert_eq!(
        format!("{:?}", doc.get("answers")),
        format!("{:?}", doc2.get("answers")),
        "cached replay answers identically"
    );

    // The graph backend answers the same shapes and is deterministic.
    let graph_batch = r#"{"backend":"graph","queries":[{"cost":"dmiss"},{"icost":"dmiss+win"}]}"#;
    let (status, gbody) = request(addr, "POST", "/query", graph_batch);
    assert_eq!(status, 200, "{gbody}");
    let gdoc = uarch_obs::json::parse(&gbody).expect("JSON");
    assert_eq!(gdoc.get("backend").and_then(|v| v.as_str()), Some("graph"));
    let (_, gbody2) = request(addr, "POST", "/query", graph_batch);
    let gdoc2 = uarch_obs::json::parse(&gbody2).expect("JSON");
    assert_eq!(
        format!("{:?}", gdoc.get("answers")),
        format!("{:?}", gdoc2.get("answers")),
        "graph backend answers deterministically"
    );

    // Malformed batches are client errors, not 500s.
    let (status, err) = request(addr, "POST", "/query", r#"{"queries":[{"cost":"nope"}]}"#);
    assert_eq!(status, 400);
    assert!(err.contains("nope"), "{err}");

    // Every backend now reports per-answer provenance and confidence;
    // the exact backends claim certainty.
    let prov: Vec<&str> = doc
        .get("provenance")
        .and_then(|v| v.as_arr())
        .expect("provenance")
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(prov, vec!["sim", "sim", "sim"], "{body}");
    let conf = gdoc
        .get("confidence")
        .and_then(|v| v.as_arr())
        .expect("graph confidence");
    assert_eq!(conf.len(), 2, "{gbody}");

    // After real work, /metrics carries runner, stall, graph, cache and
    // serve series.
    let (_, text) = request(addr, "GET", "/metrics", "");
    uarch_obs::prom::check(&text).expect("exposition passes the checker");
    for needle in [
        "runner_queries{registry=\"runner\"}",
        "runner_sims_run",
        "sim_stall_",
        "graph_lanes",
        "cache_",
        "serve_queries_answered",
        "serve_scrapes",
        "runner_sim_cycles_p50",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    server.shutdown();
}

/// The `auto` backend routes through the planner: a cold batch is
/// answered exactly (cache/sim — the calibrator has no history, so
/// nothing may be served from the graph), a repeat batch comes straight
/// from the cache, answers always match the sim backend bit-for-bit,
/// and the routing shows up as `plan_*` series on `/metrics`.
#[test]
fn auto_backend_reports_provenance_and_escalates_when_uncalibrated() {
    let host = test_host();
    let server = Server::start(host.clone(), "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();

    let batch = r#"{"backend":"auto","queries":[{"cost":"dmiss"},{"icost":"dmiss+win"},{"icost_units":["dmiss","win"]}]}"#;
    let parse_strings = |doc: &uarch_obs::json::Value, key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("missing {key}"))
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    };

    let (status, body) = request(addr, "POST", "/query", batch);
    assert_eq!(status, 200, "{body}");
    let doc = uarch_obs::json::parse(&body).expect("JSON");
    assert_eq!(doc.get("backend").and_then(|v| v.as_str()), Some("auto"));
    let prov = parse_strings(&doc, "provenance");
    assert_eq!(prov.len(), 3);
    assert!(
        prov.iter().all(|p| p == "cache" || p == "sim"),
        "uncalibrated planner must serve only exact rungs, got {prov:?}"
    );
    let conf = doc
        .get("confidence")
        .and_then(|v| v.as_arr())
        .expect("confidence");
    assert!(
        conf.iter()
            .all(|c| c.as_num().is_some_and(|c| (c - 1.0).abs() < 1e-9)),
        "exact rungs claim certainty: {body}"
    );

    // The same batch through the sim backend answers identically.
    let sim_batch = batch.replace("\"auto\"", "\"sim\"");
    let (_, sim_body) = request(addr, "POST", "/query", &sim_batch);
    let sim_doc = uarch_obs::json::parse(&sim_body).expect("JSON");
    assert_eq!(
        format!("{:?}", doc.get("answers")),
        format!("{:?}", sim_doc.get("answers")),
        "auto answers are bit-identical to ground truth"
    );

    // Replaying the batch finds everything in the shared cache.
    let (_, body2) = request(addr, "POST", "/query", batch);
    let doc2 = uarch_obs::json::parse(&body2).expect("JSON");
    assert_eq!(
        parse_strings(&doc2, "provenance"),
        vec!["cache", "cache", "cache"],
        "{body2}"
    );
    assert_eq!(
        format!("{:?}", doc.get("answers")),
        format!("{:?}", doc2.get("answers"))
    );

    // The routing decisions surface on /metrics.
    let (_, text) = request(addr, "GET", "/metrics", "");
    uarch_obs::prom::check(&text).expect("exposition passes the checker");
    for needle in [
        "plan_queries{registry=\"plan\"}",
        "plan_answers_cache",
        "plan_escalations",
        "plan_confidence_pct",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    server.shutdown();
}

/// The `graph` and `auto` backends key the served graph's answers the
/// same way, so an `auto` batch after a `graph` batch over the same
/// queries finds every graph answer already cached.
#[test]
fn graph_and_auto_backends_share_one_graph_cache_key() {
    let host = test_host();
    let graph_evals = || -> f64 {
        let text = host.render_metrics();
        let line = text
            .lines()
            .find(|l| l.starts_with("plan_graph_evals{"))
            .unwrap_or_else(|| panic!("no plan_graph_evals in:\n{text}"));
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("value")
    };
    let queries =
        r#""queries":[{"cost":"dmiss"},{"icost":"dmiss+win"},{"icost_units":["dmiss","bw"]}]"#;
    host.handle_query(format!(r#"{{"backend":"graph",{queries}}}"#).as_bytes())
        .expect("graph batch");
    let before = graph_evals();
    // Cold calibrator: every graph answer escalates, but only after the
    // graph rung has answered from the cache.
    host.handle_query(format!(r#"{{"backend":"auto",{queries}}}"#).as_bytes())
        .expect("auto batch");
    assert_eq!(
        graph_evals(),
        before,
        "the auto batch re-evaluated graph sets the graph batch had cached"
    );
}

/// The `sim` and `auto` backends key ground truth under the same
/// context, so a `sim` batch after an escalating `auto` batch over the
/// same queries finds every answer already cached.
#[test]
fn sim_and_auto_backends_share_one_sim_cache_key() {
    let host = test_host();
    let queries =
        r#""queries":[{"cost":"dmiss"},{"icost":"dmiss+win"},{"icost_units":["dmiss","bw"]}]"#;
    let auto = host
        .handle_query(format!(r#"{{"backend":"auto",{queries}}}"#).as_bytes())
        .expect("auto batch");
    // Cold calibrator: every query escalates to ground truth.
    assert!(
        auto.contains(r#""provenance":["sim","sim","sim"]"#),
        "{auto}"
    );
    let sim = host
        .handle_query(format!(r#"{{"backend":"sim",{queries}}}"#).as_bytes())
        .expect("sim batch");
    let doc = uarch_obs::json::parse(&sim).expect("JSON");
    let sims_run = doc
        .get("report")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("runner.sims_run"))
        .and_then(|v| v.as_num());
    assert_eq!(
        sims_run,
        Some(0.0),
        "the sim batch re-simulated sets the auto batch had cached: {sim}"
    );
}

/// With a token configured, every endpoint (including the SSE stream)
/// answers 401 + `WWW-Authenticate` unless the exact bearer token is
/// presented; with it, everything works as before.
#[test]
fn bearer_token_gates_every_endpoint() {
    let w = uarch_workloads::generate(
        uarch_workloads::BenchProfile::by_name("mcf").expect("profile"),
        2_000,
        2003,
    );
    let mut ctx = ServeContext::new(w.name.clone(), MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    let host = Arc::new(
        ServeHost::new(Runner::new().with_threads(2), ctx).with_token(Some("s3cr3t".into())),
    );
    let server = Server::start(host, "127.0.0.1:0", 2).expect("start");
    let addr = server.addr();

    for (method, path) in [
        ("GET", "/healthz"),
        ("GET", "/readyz"),
        ("GET", "/metrics"),
        ("GET", "/events"),
        ("POST", "/query"),
        ("POST", "/ingest"),
    ] {
        let response = raw_request(addr, method, path, "", "");
        assert!(
            response.starts_with("HTTP/1.1 401 "),
            "{method} {path} must 401 without a token: {response}"
        );
        assert!(
            response.contains("WWW-Authenticate: Bearer"),
            "401 carries the challenge: {response}"
        );
        let response = raw_request(addr, method, path, "Authorization: Bearer wrong\r\n", "");
        assert!(
            response.starts_with("HTTP/1.1 401 "),
            "{method} {path} must 401 on a wrong token: {response}"
        );
    }

    let auth = "Authorization: Bearer s3cr3t\r\n";
    let response = raw_request(addr, "GET", "/healthz", auth, "");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let response = raw_request(
        addr,
        "POST",
        "/query",
        auth,
        r#"{"backend":"graph","queries":[{"cost":"dmiss"}]}"#,
    );
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    assert!(
        response.contains("\"provenance\":[\"graph\"]"),
        "{response}"
    );

    server.shutdown();
}
