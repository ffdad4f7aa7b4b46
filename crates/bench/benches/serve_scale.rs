//! Serving-plane scaling: the same table7-style pair-icost sweep driven
//! through `uarch-serve` twice — once with the HTTP plane idle, once
//! with a scraper thread hammering `GET /metrics` — to bound the cost of
//! live telemetry.
//!
//! Each pass gets its own host (fresh runner, fresh cache) so the two
//! sweeps do identical simulation work; both are submitted as real
//! `POST /query` batches over sockets, so the comparison includes the
//! full parse/answer/publish path. Gates: a scrape under a running sweep
//! completes in under 10ms at the median, and continuous scraping
//! perturbs sweep wall-time by less than 3% (with the usual 50ms
//! absolute escape hatch for sub-millisecond noise on shared boxes).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icost_bench::{workload, Shape};
use uarch_obs::json::Value;
use uarch_runner::Runner;
use uarch_serve::{ServeContext, ServeHost, Server};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::Workload;

/// Send one request to `addr` and return the full response text (the
/// server closes the connection after each response).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    request_with(addr, method, path, "", body)
}

/// `request` plus extra header lines (each ending in `\r\n`).
fn request_with(addr: SocketAddr, method: &str, path: &str, extra: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\n{extra}Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// The body of a response (after the header block).
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default()
}

/// One host + server over a fresh runner (fresh cache), so each sweep
/// pass simulates from scratch.
fn start_server(w: &Workload, cfg: &MachineConfig) -> (Arc<ServeHost>, Server) {
    let mut ctx = ServeContext::new(w.name.clone(), cfg.clone(), w.trace.clone());
    ctx.warm_data = w.warm_data.clone();
    ctx.warm_code = w.warm_code.clone();
    let host = Arc::new(ServeHost::new(Runner::new(), ctx));
    let server = Server::start(Arc::clone(&host), "127.0.0.1:0", 4).expect("bind server");
    (host, server)
}

/// Drive the sweep through `POST /query`, one batch per focus round.
/// With `trace_ids`, round `i` adopts the i-th id via `x-icost-trace`
/// (so the pass exercises receipts and trace-id stamping end to end).
/// Returns (answer strings in order, wall time).
fn http_sweep(addr: SocketAddr, rounds: &[String], trace_ids: &[String]) -> (Vec<i64>, Duration) {
    let start = Instant::now();
    let mut answers: Vec<i64> = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        let header = trace_ids
            .get(i)
            .map_or(String::new(), |id| format!("x-icost-trace: {id}-{id}\r\n"));
        let response = request_with(addr, "POST", "/query", &header, round);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let doc = uarch_obs::json::parse(body_of(&response)).expect("response JSON");
        let batch = doc.get("answers").and_then(Value::as_arr).expect("answers");
        answers.extend(
            batch
                .iter()
                .map(|v| v.as_num().expect("numeric answer") as i64),
        );
    }
    (answers, start.elapsed())
}

fn main() {
    let _flush = uarch_obs::flush_guard();
    let n = icost_bench::bench_insts_or(12_000);
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let w = workload("gcc", n, icost_bench::DEFAULT_SEED);
    let mut shape = Shape::new();

    // One POST /query batch per focus class: the icost of every pair
    // containing the focus — the table7 sweep shape, as JSON bodies.
    let rounds: Vec<String> = EventClass::ALL
        .iter()
        .map(|&focus| {
            let queries: Vec<String> = EventClass::ALL
                .iter()
                .filter(|&&c| c != focus)
                .map(|&c| format!("{{\"icost\":\"{}\"}}", EventSet::from([focus, c])))
                .collect();
            format!("{{\"queries\":[{}]}}", queries.join(","))
        })
        .collect();
    let pair_count = rounds.len() * (EventClass::ALL.len() - 1);
    println!(
        "Serve scaling — {} POST /query rounds, {pair_count} pair icosts, gcc @ {n} insts\n",
        rounds.len()
    );

    // Pass 1: HTTP plane up but unscraped. This is the wall-time
    // baseline the perturbation gate compares against.
    let (_bare_host, bare_server) = start_server(&w, &cfg);
    let (bare_answers, bare_wall) = http_sweep(bare_server.addr(), &rounds, &[]);
    println!("sweep:  {bare_wall:>10.3?}  (no scraper)");
    drop(bare_server);

    // Pass 2: identical sweep on a fresh host — every round under an
    // adopted trace binding — while a scraper thread polls GET /metrics
    // as fast as it can (1ms breather between scrapes), timing each
    // scrape end to end at the client, and a second thread hammers
    // GET /trace/<id> of the first round the same way (404 until that
    // round's receipt lands, 200 after).
    let trace_ids: Vec<String> = (0..rounds.len())
        .map(|i| format!("{:016x}", 0xb000 + i as u64))
        .collect();
    let (host, server) = start_server(&w, &cfg);
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut latencies: Vec<Duration> = Vec::new();
            let mut last_scrape = String::new();
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                last_scrape = request(addr, "GET", "/metrics", "");
                latencies.push(start.elapsed());
                std::thread::sleep(Duration::from_millis(1));
            }
            (latencies, last_scrape)
        })
    };
    let trace_path = format!("/trace/{}", trace_ids[0]);
    let trace_poller = {
        let stop = Arc::clone(&stop);
        let path = trace_path.clone();
        std::thread::spawn(move || {
            let mut latencies: Vec<Duration> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                let response = request(addr, "GET", &path, "");
                if response.starts_with("HTTP/1.1 200") {
                    latencies.push(start.elapsed());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            latencies
        })
    };
    let (scraped_answers, scraped_wall) = http_sweep(addr, &rounds, &trace_ids);
    stop.store(true, Ordering::Relaxed);
    let (mut latencies, _) = scraper.join().expect("scraper thread");
    let mut trace_latencies = trace_poller.join().expect("trace poller thread");
    // On a fast box the sweep can end before the poller lands many 200s;
    // top the sample up so the median below is always meaningful.
    while trace_latencies.len() < 20 {
        let start = Instant::now();
        let response = request(addr, "GET", &trace_path, "");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        trace_latencies.push(start.elapsed());
    }
    // The post-sweep scrape sees the full exposition (all rounds
    // published) and is what the series checks below inspect.
    let final_scrape = request(addr, "GET", "/metrics", "");
    let final_trace = request(addr, "GET", &trace_path, "");

    latencies.sort_unstable();
    let median = latencies
        .get(latencies.len() / 2)
        .copied()
        .unwrap_or_default();
    let p95 = latencies
        .get(
            latencies
                .len()
                .saturating_sub(1)
                .min(latencies.len() * 95 / 100),
        )
        .copied()
        .unwrap_or_default();
    let overhead = scraped_wall.as_secs_f64() / bare_wall.as_secs_f64().max(1e-9) - 1.0;
    let delta = scraped_wall.saturating_sub(bare_wall);
    trace_latencies.sort_unstable();
    let trace_median = trace_latencies
        .get(trace_latencies.len() / 2)
        .copied()
        .unwrap_or_default();
    println!(
        "sweep:  {scraped_wall:>10.3?}  ({} scrapes riding along)",
        latencies.len()
    );
    println!("scrape latency: median {median:.3?}, p95 {p95:.3?}");
    println!(
        "trace lookup latency: median {trace_median:.3?} over {} hits",
        trace_latencies.len()
    );
    println!("scrape perturbation: {:+.2}%\n", 100.0 * overhead);
    println!(
        "serve telemetry:\n{}",
        host.serve_metrics().snapshot().to_table()
    );

    shape.check(
        "scraped sweep answers are identical to the unscraped sweep",
        scraped_answers == bare_answers && !bare_answers.is_empty(),
    );
    shape.check(
        "the scraper completed scrapes while the sweep ran",
        latencies.len() >= 10,
    );
    shape.check(
        "a /metrics scrape under load completes in under 10ms (median)",
        median < Duration::from_millis(10),
    );
    shape.check(
        "a GET /trace/<id> lookup completes in under 10ms (median)",
        trace_median < Duration::from_millis(10),
    );
    shape.check(
        "the traced round's receipt and span tree are served back",
        body_of(&final_trace).contains(&trace_ids[0])
            && body_of(&final_trace).contains("\"receipt\""),
    );
    shape.check(
        "scraping perturbs sweep wall-time under 3% (or < 50ms absolute)",
        overhead < 0.03 || delta < Duration::from_millis(50),
    );
    let exposition = body_of(&final_scrape);
    shape.check(
        "the exposition passes the Prometheus line checker",
        uarch_obs::prom::check(exposition).is_ok(),
    );
    shape.check(
        "the exposition carries runner, stall, cache, and serve series",
        ["runner_sims_run", "sim_stall_", "cache_", "serve_scrapes"]
            .iter()
            .all(|needle| exposition.contains(needle)),
    );

    std::process::exit(i32::from(!shape.finish("Serve scaling")));
}
