//! Speed gates: the wall-clock claims of the sim engine, the lane
//! kernel, the runner and the serving plane, as one CI pass/fail
//! artifact.
//!
//! Every timed run first checks its answers bit for bit against a
//! reference, so a fast-but-wrong build fails before any time is
//! compared. Every comparison is relative, on one binary and one
//! machine, so the gates survive noisy CI hosts. The deterministic
//! properties of the same layers live in the crates' tests
//! (`engine_equiv`, `equivalence`, `ledger`, `stream_equiv`, `ladder`,
//! ...), and each layer's cost over time in `perfbench`.
//!
//! Sizes: the engine and lane-kernel sections run at
//! `ICOST_BENCH_INSTS` (default 60k); the runner and serve sections
//! replay a >100-simulation pair sweep, so they default to 12k.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icost::{icost, MultiSimOracle};
use icost_bench::{bench_insts, bench_insts_or, observe_workload, workload, Shape, DEFAULT_SEED};
use uarch_graph::{LaneScratch, MAX_LANES};
use uarch_obs::json::Value;
use uarch_obs::{global, install_global, Tracer};
use uarch_runner::{Query, RunReport, Runner};
use uarch_serve::{ServeContext, ServeHost, Server};
use uarch_sim::{EngineMode, Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder};
use uarch_workloads::{generate, pointer_chase, BenchProfile, Workload};

/// Best-of-`reps` wall time of one closure; the minimum is the least
/// noise-contaminated estimate of the true cost on a shared CI host.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// `loaded` is within 3% of `bare`, or within 50ms absolute: on a noisy
/// box a sub-second pass can miss the relative bound without the thing
/// under test being at fault. Returns (overhead fraction, verdict).
fn overhead_ok(bare: Duration, loaded: Duration) -> (f64, bool) {
    let overhead = loaded.as_secs_f64() / bare.as_secs_f64().max(1e-9) - 1.0;
    let delta = loaded.saturating_sub(bare);
    (
        overhead,
        overhead < 0.03 || delta < Duration::from_millis(50),
    )
}

/// Full architectural bit-identity (everything except the run-loop
/// telemetry, which is *supposed* to differ between engines).
fn bit_identical(a: &SimResult, b: &SimResult) -> bool {
    a.cycles == b.cycles && a.counts == b.counts && a.stalls == b.stalls && a.records == b.records
}

/// Time both engines on one workload, gating bit-identity first.
/// Returns (ticking, events) best-of wall times.
fn race(
    shape: &mut Shape,
    sim: &Simulator,
    trace: &Trace,
    warm: Option<(&[u64], &[u64])>,
    what: &str,
) -> (Duration, Duration) {
    let run = |mode: EngineMode| match warm {
        Some((wd, wc)) => sim.run_warmed_with_mode(trace, Idealization::none(), wd, wc, mode),
        None => sim.run_with_mode(trace, Idealization::none(), mode),
    };
    let ticking = run(EngineMode::Ticking);
    let events = run(EngineMode::Events);
    shape.check(
        &format!("{what}: event engine bit-identical to ticking engine"),
        bit_identical(&ticking, &events),
    );
    let t_tick = best_of(5, || {
        run(EngineMode::Ticking);
    });
    let t_ev = best_of(5, || {
        run(EngineMode::Events);
    });
    println!(
        "{what:<28} ticking {t_tick:>8.2?}  events {t_ev:>8.2?}  ({:.2}x, skipped {}/{} cycles)",
        t_tick.as_secs_f64() / t_ev.as_secs_f64().max(1e-9),
        events.engine.skipped_cycles,
        ticking.cycles,
    );
    (t_tick, t_ev)
}

/// The discrete-event run loop against the cycle-ticking reference:
/// ≥3x on a memory-bound chase, within 5% where nothing can be
/// skipped, and an issue-saturated ALU soup under a per-instruction
/// ceiling.
fn engine(shape: &mut Shape, n: usize) {
    let cfg = MachineConfig::table6();
    let sim = Simulator::new(&cfg);
    println!("Engine — event scheduler vs cycle ticking @ {n} insts\n");

    // A serial chase where every load misses to memory (~4 insts per
    // iteration; cold caches are the point).
    let chase = pointer_chase(n / 4);
    let (t_tick, t_ev) = race(shape, &sim, &chase, None, "pointer_chase (mcf-like)");
    let speedup = t_tick.as_secs_f64() / t_ev.as_secs_f64().max(1e-9);
    shape.check("memory-bound speedup is at least 3x", speedup >= 3.0);

    // High-IPC profiles: the scheduler has nothing to skip and must
    // cost nothing.
    for name in ["gzip", "gap"] {
        let profile = BenchProfile::by_name(name).expect("suite profile");
        let w = generate(profile, n, DEFAULT_SEED);
        let warm = Some((w.warm_data.as_slice(), w.warm_code.as_slice()));
        let what = format!("{name} (compute-bound)");
        let (t_tick, t_ev) = race(shape, &sim, &w.trace, warm, &what);
        shape.check(
            &format!("{name}: event engine within 5% of ticking engine"),
            t_ev.as_secs_f64() <= t_tick.as_secs_f64() * 1.05,
        );
    }

    // Independent ALU ops across eight registers: every cycle issues at
    // machine width, so wall time is dispatch + issue + commit
    // bookkeeping. The ceiling is ~8x the current cost, so only a
    // structural regression of the issue path (a map probe per issue
    // attempt, a fresh Vec per fixpoint iteration) trips it.
    let mut b = TraceBuilder::new();
    for k in 0..n as u64 {
        b.alu(Reg::int(1 + (k % 8) as u8), &[]);
    }
    let soup = b.finish();
    let t_soup = best_of(5, || {
        sim.run_with_mode(&soup, Idealization::none(), EngineMode::Events);
    });
    let ns_per_inst = t_soup.as_nanos() as f64 / n as f64;
    println!("issue-saturated ALU soup: {ns_per_inst:.0} ns/inst\n");
    shape.check(
        "issue path stays under 400 ns per instruction",
        ns_per_inst < 400.0,
    );
}

/// The full 256-subset lattice over one gcc graph: one instruction
/// sweep per subset (`DepGraph::evaluate`) against the lane-batched
/// kernel (16 subsets per sweep), single-threaded, tracer off.
fn graph(shape: &mut Shape, n: usize) {
    let cfg = MachineConfig::table6();
    let (_, graph) = observe_workload(&workload("gcc", n, DEFAULT_SEED), &cfg);
    let sets: Vec<EventSet> = (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect();
    println!(
        "Lane kernel — {}-subset lattice over gcc @ {} graph insts\n",
        sets.len(),
        graph.len()
    );

    let start = Instant::now();
    let scalar: Vec<u64> = sets.iter().map(|&s| graph.evaluate(s)).collect();
    let scalar_wall = start.elapsed();
    let mut scratch = LaneScratch::new();
    let start = Instant::now();
    let batched = graph.eval_many_with(&sets, &mut scratch);
    let batched_wall = start.elapsed();
    let speedup = scalar_wall.as_secs_f64() / batched_wall.as_secs_f64().max(1e-9);
    println!("scalar:  {:>4} sweeps in {scalar_wall:>10.3?}", sets.len());
    println!(
        "batched: {:>4} sweeps in {batched_wall:>10.3?}  ({speedup:.2}x)\n",
        sets.len().div_ceil(MAX_LANES)
    );
    shape.check(
        "lane-batched times are bit-identical to per-set evaluation",
        batched == scalar,
    );
    shape.check(
        "lane batching is at least 4x faster than per-set sweeps",
        speedup >= 4.0,
    );
}

/// One analysis round per focus class: the icost of every pair
/// containing it (the table7 sweep shape). Rounds overlap heavily,
/// which is what the runner's dedup and cache exploit.
fn pair_rounds() -> Vec<Vec<EventSet>> {
    EventClass::ALL
        .iter()
        .map(|&focus| {
            EventClass::ALL
                .iter()
                .filter(|&&c| c != focus)
                .map(|&c| EventSet::from([focus, c]))
                .collect()
        })
        .collect()
}

/// One full sweep through a fresh runner (fresh cache), all rounds in
/// order. Returns (answers, telemetry, wall).
fn runner_sweep(w: &Workload, cfg: &MachineConfig) -> (Vec<i64>, RunReport, Duration) {
    let runner = Runner::new();
    let start = Instant::now();
    let mut answers = Vec::new();
    let mut report = RunReport::new(runner.threads());
    for round in pair_rounds() {
        let queries: Vec<Query> = round.into_iter().map(Query::Icost).collect();
        let (a, r) = runner.run(cfg, &w.trace, &queries);
        answers.extend(a);
        report.absorb(&r);
    }
    (answers, report, start.elapsed())
}

/// The pair sweep the pre-runner way (a fresh memoized oracle per
/// round, serial) against the runner, and the runner again with spans,
/// the ledger and a causal trace binding on, as a traced
/// `POST /query` would run.
fn runner(shape: &mut Shape, w: &Workload, cfg: &MachineConfig) {
    println!("Runner — pair-icost sweep, gcc @ {} insts\n", w.trace.len());
    let start = Instant::now();
    let mut serial_answers = Vec::new();
    let mut serial_sims = 0;
    for round in pair_rounds() {
        let mut oracle = MultiSimOracle::new(cfg, &w.trace);
        serial_answers.extend(round.into_iter().map(|pair| icost(&mut oracle, pair)));
        serial_sims += oracle.simulations() + 1; // + the baseline run
    }
    let serial_wall = start.elapsed();
    println!("serial:  {serial_sims:>4} simulations in {serial_wall:>10.3?}");

    let (answers, report, bare_wall) = runner_sweep(w, cfg);
    println!(
        "runner:  {:>4} simulations in {bare_wall:>10.3?}  (tracing off)",
        report.sims_run
    );

    global().set_enabled(true);
    uarch_obs::ledger::global().set_enabled(true);
    let trace_guard = uarch_obs::causal::set_current(uarch_obs::TraceCtx::mint());
    let (traced_answers, _, traced_wall) = runner_sweep(w, cfg);
    drop(trace_guard);
    global().set_enabled(false);
    uarch_obs::ledger::global().set_enabled(false);
    println!("runner:  same sweep in {traced_wall:>10.3?}  (tracing on)\n");

    let speedup = serial_wall.as_secs_f64() / bare_wall.as_secs_f64().max(1e-9);
    let (overhead, overhead_within) = overhead_ok(bare_wall, traced_wall);
    println!("wall-clock speedup: {speedup:.2}x");
    println!("observability overhead: {:+.2}%\n", 100.0 * overhead);
    shape.check(
        "runner answers are bit-identical to the serial oracle",
        answers == serial_answers,
    );
    shape.check(
        "traced pass computes the same answers",
        traced_answers == serial_answers,
    );
    shape.check("lattice sweep speedup is at least 2x", speedup >= 2.0);
    shape.check(
        "metrics + tracing + ledger overhead under 3% (or < 50ms absolute)",
        overhead_within,
    );
}

/// Send one request to `addr` (with extra header lines, each ending
/// `\r\n`) and return the full response; the server closes after each.
fn request(addr: SocketAddr, method: &str, path: &str, extra: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\n{extra}Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(format!("{head}{body}").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A host and server over a fresh runner, so each sweep simulates from
/// scratch.
fn start_server(w: &Workload, cfg: &MachineConfig) -> Server {
    let mut ctx = ServeContext::new(w.name.clone(), cfg.clone(), w.trace.clone());
    ctx.warm_data = w.warm_data.clone();
    ctx.warm_code = w.warm_code.clone();
    let host = Arc::new(ServeHost::new(Runner::new(), ctx));
    Server::start(host, "127.0.0.1:0", 4).expect("bind server")
}

/// The pair sweep as `POST /query` batches, one per round; round `i`
/// adopts `trace_ids[i]` via `x-icost-trace` when given. Returns
/// (answers in order, wall time).
fn http_sweep(addr: SocketAddr, trace_ids: &[String]) -> (Vec<i64>, Duration) {
    let start = Instant::now();
    let mut answers = Vec::new();
    for (i, round) in pair_rounds().into_iter().enumerate() {
        let queries: Vec<String> = round
            .iter()
            .map(|s| format!("{{\"icost\":\"{s}\"}}"))
            .collect();
        let body = format!("{{\"queries\":[{}]}}", queries.join(","));
        let header = trace_ids
            .get(i)
            .map_or(String::new(), |id| format!("x-icost-trace: {id}-{id}\r\n"));
        let response = request(addr, "POST", "/query", &header, &body);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        let doc = uarch_obs::json::parse(body).expect("response JSON");
        let batch = doc.get("answers").and_then(Value::as_arr).expect("answers");
        answers.extend(
            batch
                .iter()
                .map(|v| v.as_num().expect("numeric answer") as i64),
        );
    }
    (answers, start.elapsed())
}

/// Poll `GET path` until `stop`, 1ms apart; returns the client-side
/// latency of every 200.
fn poll(addr: SocketAddr, path: String, stop: Arc<AtomicBool>) -> Vec<Duration> {
    let mut latencies = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        if request(addr, "GET", &path, "", "").starts_with("HTTP/1.1 200") {
            latencies.push(start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    latencies
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or_default()
}

/// The pair sweep through `uarch-serve` twice, each on a fresh host:
/// once with the HTTP plane idle, once traced per round while one
/// thread scrapes `GET /metrics` and another polls `GET /trace/<id>`
/// of the first round.
fn serve(shape: &mut Shape, w: &Workload, cfg: &MachineConfig) {
    println!(
        "Serve — pair-icost sweep as POST /query, gcc @ {} insts\n",
        w.trace.len()
    );
    let bare_server = start_server(w, cfg);
    let (bare_answers, bare_wall) = http_sweep(bare_server.addr(), &[]);
    drop(bare_server);
    println!("sweep:  {bare_wall:>10.3?}  (no scraper)");

    let trace_ids: Vec<String> = (0..EventClass::ALL.len())
        .map(|i| format!("{:016x}", 0xb000 + i as u64))
        .collect();
    let server = start_server(w, cfg);
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let trace_path = format!("/trace/{}", trace_ids[0]);
    let scraper = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || poll(addr, "/metrics".to_string(), stop)
    });
    let trace_poller = std::thread::spawn({
        let (stop, path) = (Arc::clone(&stop), trace_path.clone());
        move || poll(addr, path, stop)
    });
    let (scraped_answers, scraped_wall) = http_sweep(addr, &trace_ids);
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    let mut lookups = trace_poller.join().expect("trace poller thread");
    // A fast sweep can end before the poller lands many 200s; top the
    // sample up so the median is always meaningful.
    while lookups.len() < 20 {
        let start = Instant::now();
        let response = request(addr, "GET", &trace_path, "", "");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        lookups.push(start.elapsed());
    }
    let scrape_count = scrapes.len();
    let (scrape_median, lookup_median) = (median(scrapes), median(lookups));
    let (overhead, perturbation_ok) = overhead_ok(bare_wall, scraped_wall);
    println!("sweep:  {scraped_wall:>10.3?}  ({scrape_count} scrapes riding along)");
    println!("scrape latency: median {scrape_median:.3?}");
    println!("trace lookup latency: median {lookup_median:.3?}");
    println!("scrape perturbation: {:+.2}%\n", 100.0 * overhead);
    shape.check(
        "scraped sweep answers are identical to the unscraped sweep",
        scraped_answers == bare_answers && !bare_answers.is_empty(),
    );
    shape.check(
        "the scraper completed scrapes while the sweep ran",
        scrape_count >= 10,
    );
    shape.check(
        "a /metrics scrape under load completes in under 10ms (median)",
        scrape_median < Duration::from_millis(10),
    );
    shape.check(
        "a GET /trace/<id> lookup completes in under 10ms (median)",
        lookup_median < Duration::from_millis(10),
    );
    shape.check(
        "scraping perturbs sweep wall-time under 3% (or < 50ms absolute)",
        perturbation_ok,
    );
}

fn main() -> ExitCode {
    let _flush = uarch_obs::flush_guard();
    // Each section runs under the tracer and ledger state it is gated
    // at. Serve runs before anything records: every `GET /trace/<id>`
    // copies the tracer's whole buffer, so spans left by the other
    // sections would slow the lookups it times. The ledger records
    // only the runner's traced pass.
    install_global(Tracer::enabled());
    global().set_enabled(false);
    let ledger_path = icost_bench::gate_ledger("speed_gates");
    uarch_obs::ledger::global().set_enabled(false);
    let mut shape = Shape::new();
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let w = workload("gcc", bench_insts_or(12_000), DEFAULT_SEED);

    serve(&mut shape, &w, &cfg);
    graph(&mut shape, bench_insts());
    global().set_enabled(true);
    engine(&mut shape, bench_insts());
    global().set_enabled(false);
    runner(&mut shape, &w, &cfg);

    println!("ledger written to {}\n", ledger_path.display());
    if shape.finish("Speed gates") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
