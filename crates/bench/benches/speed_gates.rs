//! Speed gates: the wall-clock claims of the sim engine, the lane
//! kernel, the JSON grammar, the runner and the serving plane, as one
//! CI pass/fail artifact.
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
//! replay a >100-simulation pair sweep, so they (and the warm-set
//! section beside them) default to 12k. The JSON section reads one
//! fixed 1,000-instruction ingest body.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icost::{icost, MultiSimOracle};
use icost_bench::{bench_insts, bench_insts_or, observe_workload, workload, Shape, DEFAULT_SEED};
use uarch_graph::{LaneScratch, MAX_LANES};
use uarch_obs::json::{self, Reader, Value};
use uarch_obs::{global, install_global, Tracer};
use uarch_runner::{Query, RunReport, Runner};
use uarch_serve::{inst_to_json, ServeContext, ServeHost, Server};
use uarch_sim::{EngineMode, Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder, WarmSet};
use uarch_workloads::{generate, pointer_chase, BenchProfile, Workload};

/// Best-of-`reps` wall time of one closure; the minimum is the least
/// noise-contaminated estimate of the true cost on a shared CI host.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    (0..reps)
        .map(|_| timed(&mut f))
        .min()
        .unwrap_or(Duration::MAX)
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

/// Timed samples of each engine mode in [`race`].
const RACE_REPS: usize = 15;

/// The shortest timed sample in [`race`]: a run shorter than this
/// repeats within its sample (the same count for both modes), so one
/// scheduler hiccup is a small share of any sample.
const RACE_SAMPLE: Duration = Duration::from_millis(20);

/// Passes of each side in the overhead and perturbation gates.
const OVERHEAD_REPS: usize = 5;

/// Passes of each side in the lane-kernel gate.
const LANE_REPS: usize = 9;

/// Passes of each side in the JSON grammar gate, and calls per pass.
const JSON_REPS: usize = 9;
const JSON_CALLS: usize = 10;

/// Passes of each side in the warm-set gate, and cached calls per pass.
const WARM_PASSES: usize = 15;
const WARM_CALLS: usize = 400;

/// `reps` calls of each of `a` and `b`, alternating, with the side that
/// goes first switching every round, so a burst of load on a shared
/// host lands on both. Returns each side's outputs in call order.
fn alternate<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Vec<A>, Vec<B>) {
    let (mut from_a, mut from_b) = (Vec::new(), Vec::new());
    for round in 0..reps {
        if round % 2 == 0 {
            from_a.push(a());
            from_b.push(b());
        } else {
            from_b.push(b());
            from_a.push(a());
        }
    }
    (from_a, from_b)
}

/// Wall time of one call.
fn timed(f: impl FnOnce()) -> Duration {
    timed_output(f).1
}

/// Output and wall time of one call.
fn timed_output<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let output = f();
    (output, t0.elapsed())
}

/// Time both engines on one workload, gating bit-identity first.
/// Returns the (ticking, events) per-run medians of [`RACE_REPS`]
/// samples each; a sample is as many runs as make [`RACE_SAMPLE`], the
/// modes' runs [`alternate`]d one by one.
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
    let one_run =
        timed(|| drop(run(EngineMode::Ticking))).min(timed(|| drop(run(EngineMode::Events))));
    let runs = ((RACE_SAMPLE.as_secs_f64() / one_run.as_secs_f64().max(1e-9)).ceil() as u32).max(1);
    // Each sample is `runs` runs of its mode, the two modes' runs
    // alternating one by one, so a burst of host load lands on both.
    let (ticks, evs): (Vec<Duration>, Vec<Duration>) = (0..RACE_REPS)
        .map(|_| {
            let (t, e) = alternate(
                runs as usize,
                || timed(|| drop(run(EngineMode::Ticking))),
                || timed(|| drop(run(EngineMode::Events))),
            );
            (
                t.iter().sum::<Duration>() / runs,
                e.iter().sum::<Duration>() / runs,
            )
        })
        .unzip();
    let (t_tick, t_ev) = (median(ticks), median(evs));
    println!(
        "{what:<28} ticking {t_tick:>8.2?}  events {t_ev:>8.2?}  ({:.2}x, skipped {}/{} cycles, {runs} runs per sample)",
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
/// kernel (16 subsets per sweep), single-threaded, tracer off. Medians
/// of [`LANE_REPS`] [`alternate`]d passes per side; every pass's times
/// must be bit-identical to the first scalar pass's.
fn graph(shape: &mut Shape, n: usize) {
    let cfg = MachineConfig::table6();
    let (_, graph) = observe_workload(&workload("gcc", n, DEFAULT_SEED), &cfg);
    let sets: Vec<EventSet> = (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect();
    println!(
        "Lane kernel — {}-subset lattice over gcc @ {} graph insts\n",
        sets.len(),
        graph.len()
    );

    let mut scratch = LaneScratch::new();
    let (scalar, batched) = alternate(
        LANE_REPS,
        || timed_output(|| sets.iter().map(|&s| graph.evaluate(s)).collect::<Vec<_>>()),
        || timed_output(|| graph.eval_many_with(&sets, &mut scratch)),
    );
    let reference = &scalar[0].0;
    let scalar_wall = median(scalar.iter().map(|(_, d)| *d));
    let batched_wall = median(batched.iter().map(|(_, d)| *d));
    let speedup = scalar_wall.as_secs_f64() / batched_wall.as_secs_f64().max(1e-9);
    println!("scalar:  {:>4} sweeps in {scalar_wall:>10.3?}", sets.len());
    println!(
        "batched: {:>4} sweeps in {batched_wall:>10.3?}  ({speedup:.2}x, medians of {LANE_REPS})\n",
        sets.len().div_ceil(MAX_LANES)
    );
    shape.check(
        "lane-batched times are bit-identical to per-set evaluation",
        scalar.iter().chain(&batched).all(|(t, _)| t == reference),
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
    println!(
        "Runner — pair-icost sweep, gcc @ {} insts (runner passes: medians of {OVERHEAD_REPS})\n",
        w.trace.len()
    );
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

    let traced_sweep = || {
        global().set_enabled(true);
        uarch_obs::ledger::global().set_enabled(true);
        let _trace = uarch_obs::causal::set_current(uarch_obs::TraceCtx::mint());
        let pass = runner_sweep(w, cfg);
        global().set_enabled(false);
        uarch_obs::ledger::global().set_enabled(false);
        pass
    };
    let (bare, traced) = alternate(OVERHEAD_REPS, || runner_sweep(w, cfg), traced_sweep);
    let bare_wall = median(bare.iter().map(|pass| pass.2));
    let traced_wall = median(traced.iter().map(|pass| pass.2));
    println!(
        "runner:  {:>4} simulations in {bare_wall:>10.3?}  (tracing off)",
        bare[0].1.sims_run
    );
    println!("runner:  same sweep in {traced_wall:>10.3?}  (tracing on)\n");

    let speedup = serial_wall.as_secs_f64() / bare_wall.as_secs_f64().max(1e-9);
    let (overhead, overhead_within) = overhead_ok(bare_wall, traced_wall);
    println!("wall-clock speedup: {speedup:.2}x");
    println!("observability overhead: {:+.2}%\n", 100.0 * overhead);
    shape.check(
        "runner answers are bit-identical to the serial oracle",
        bare.iter()
            .all(|(answers, _, _)| *answers == serial_answers),
    );
    shape.check(
        "traced pass computes the same answers",
        traced
            .iter()
            .all(|(answers, _, _)| *answers == serial_answers),
    );
    shape.check("lattice sweep speedup is at least 2x", speedup >= 2.0);
    shape.check(
        "metrics + tracing + ledger overhead under 3% (or < 50ms absolute)",
        overhead_within,
    );
}

/// The JSON grammar on the `POST /ingest` wire shape: `Reader::skip`
/// (the tokenizer alone) against `json::parse` (the same tokens plus a
/// tree) over one ingest body of 1,000 `mcf` instructions, medians of
/// [`JSON_REPS`] [`alternate`]d passes of [`JSON_CALLS`] calls. Each
/// call is timed alone and its result checked once the clock stops, so
/// every timed result is checked and no tree is freed inside a timing.
/// Building the tree costs allocations the tokenizer does not, so the
/// ratio grows as tokenizing gets cheaper: a tokenizer that peeks byte
/// by byte through `Option`s sits near 3.0x and fails, the
/// byte-scanning one near 5.2x. The ratio moves with the tree's cost
/// too, so the bound must be set again from measured medians whenever
/// `Value::read` changes.
fn json_grammar(shape: &mut Shape) {
    let profile = BenchProfile::by_name("mcf").expect("suite profile");
    let w = generate(profile, 1_000, DEFAULT_SEED);
    let insts: Vec<String> = w.trace.insts().iter().map(inst_to_json).collect();
    let body = format!(
        "{{\"session\":\"gate\",\"window\":1024,\"insts\":[{}],\"done\":false}}",
        insts.join(",")
    );
    let n = insts.len();
    println!(
        "JSON grammar — one ingest body of {n} mcf insts, {} bytes\n",
        body.len()
    );

    let reference = json::parse(&body).expect("the body is valid JSON");
    let skip = || {
        let mut r = Reader::new(&body);
        r.skip().and_then(|()| r.finish())
    };
    let (skips, trees) = alternate(
        JSON_REPS,
        || timed_calls(skip, |out| out.is_ok()),
        || {
            timed_calls(
                || json::parse(&body),
                |out| out.is_ok_and(|tree| tree == reference),
            )
        },
    );
    let per_inst = |d: Duration| d.as_nanos() as f64 / (JSON_CALLS * n) as f64;
    let skip_ns = per_inst(median(skips.iter().map(|(_, d)| *d)));
    let tree_ns = per_inst(median(trees.iter().map(|(_, d)| *d)));
    let ratio = tree_ns / skip_ns.max(1e-9);
    println!("Reader::skip  {skip_ns:>7.1} ns/inst");
    println!("json::parse   {tree_ns:>7.1} ns/inst  ({ratio:.2}x skip, medians of {JSON_REPS})\n");
    shape.check(
        "every timed skip validates and every timed parse equals the reference tree",
        skips.iter().chain(&trees).all(|(ok, _)| *ok),
    );
    shape.check(
        "tree parse costs at least 4x the tokenizer's skip",
        ratio >= 4.0,
    );
}

/// [`JSON_CALLS`] calls of `call`, each timed alone: whether every
/// result passed `ok` (checked, and dropped, once its clock stops) and
/// the calls' summed time.
fn timed_calls<T>(call: impl Fn() -> T, ok: impl Fn(T) -> bool) -> (bool, Duration) {
    (0..JSON_CALLS).fold((true, Duration::ZERO), |(all, total), _| {
        let (out, d) = timed_output(&call);
        (ok(out) && all, total + d)
    })
}

/// A cached single-query `run_warmed` call against the same call with
/// both warm sets 8x as long (seven more copies at distinct addresses):
/// fingerprinting the context must not walk the warm sets again once
/// they have been folded.
fn warm_sets(shape: &mut Shape, w: &Workload, cfg: &MachineConfig) {
    let widen = |set: &WarmSet| -> WarmSet {
        (0..8u64)
            .flat_map(|copy| set.iter().map(move |&a| a + (copy << 40)))
            .collect::<Vec<u64>>()
            .into()
    };
    let (wide_data, wide_code) = (widen(&w.warm_data), widen(&w.warm_code));
    println!(
        "Warm sets — cached run_warmed calls, gcc @ {} insts, {} vs {} warm addresses \
         (medians of {WARM_PASSES} passes of {WARM_CALLS} calls)\n",
        w.trace.len(),
        w.warm_data.len() + w.warm_code.len(),
        wide_data.len() + wide_code.len(),
    );
    let runner = Runner::new();
    let query = [Query::Cost(EventSet::single(EventClass::Dmiss))];
    let call =
        |data: &WarmSet, code: &WarmSet| runner.run_warmed(cfg, &w.trace, data, code, &query);
    let (own_answer, _) = call(&w.warm_data, &w.warm_code);
    let (wide_answer, _) = call(&wide_data, &wide_code);
    // (every call answered `want` from the cache, pass wall time)
    let pass = |data: &WarmSet, code: &WarmSet, want: &[i64]| {
        let mut cached = true;
        let wall = timed(|| {
            for _ in 0..WARM_CALLS {
                let (answers, report) = call(data, code);
                cached &= answers == want && report.sims_run == 0;
            }
        });
        (cached, wall)
    };
    let (own, wide) = alternate(
        WARM_PASSES,
        || pass(&w.warm_data, &w.warm_code, &own_answer),
        || pass(&wide_data, &wide_code, &wide_answer),
    );
    let per_call =
        |passes: &[(bool, Duration)]| median(passes.iter().map(|p| p.1)) / WARM_CALLS as u32;
    let (t_own, t_wide) = (per_call(&own), per_call(&wide));
    let ratio = t_wide.as_secs_f64() / t_own.as_secs_f64().max(1e-9);
    println!("own warm sets: {t_own:>10.2?} per cached call");
    println!("8x warm sets:  {t_wide:>10.2?} per cached call  ({ratio:.2}x)\n");
    shape.check(
        "cached calls answer from the cache, as the first call did",
        own.iter().chain(&wide).all(|p| p.0),
    );
    shape.check(
        "a cached call with 8x the warm addresses costs at most 1.5x",
        ratio <= 1.5,
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

fn median(v: impl IntoIterator<Item = Duration>) -> Duration {
    let mut v: Vec<Duration> = v.into_iter().collect();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or_default()
}

/// The pair sweep through `uarch-serve`, each pass on a fresh host:
/// [`OVERHEAD_REPS`] passes with the HTTP plane idle, [`alternate`]d
/// with as many traced per round (own trace ids each pass) while one
/// thread scrapes `GET /metrics` and another polls `GET /trace/<id>` of
/// the pass's first round.
fn serve(shape: &mut Shape, w: &Workload, cfg: &MachineConfig) {
    println!(
        "Serve — pair-icost sweep as POST /query, gcc @ {} insts (medians of {OVERHEAD_REPS})\n",
        w.trace.len()
    );
    let (mut scrapes, mut lookups, mut fewest_scrapes) = (Vec::new(), Vec::new(), usize::MAX);
    let mut pass = 0;
    // The server lives until the end of the statement, past the sweep.
    let bare_pass = || http_sweep(start_server(w, cfg).addr(), &[]);
    let scraped_pass = || {
        pass += 1;
        let trace_ids: Vec<String> = (0..EventClass::ALL.len() as u64)
            .map(|i| format!("{:016x}", 0xb000 + 0x100 * pass + i))
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
        let sweep = http_sweep(addr, &trace_ids);
        stop.store(true, Ordering::Relaxed);
        let pass_scrapes = scraper.join().expect("scraper thread");
        let mut pass_lookups = trace_poller.join().expect("trace poller thread");
        // A fast sweep can end before the poller lands many 200s; top the
        // sample up so the median is always meaningful.
        while pass_lookups.len() < 20 {
            let start = Instant::now();
            let response = request(addr, "GET", &trace_path, "", "");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            pass_lookups.push(start.elapsed());
        }
        fewest_scrapes = fewest_scrapes.min(pass_scrapes.len());
        scrapes.extend(pass_scrapes);
        lookups.extend(pass_lookups);
        sweep
    };
    let (bare, scraped) = alternate(OVERHEAD_REPS, bare_pass, scraped_pass);
    let bare_wall = median(bare.iter().map(|pass| pass.1));
    let scraped_wall = median(scraped.iter().map(|pass| pass.1));
    let (scrape_median, lookup_median) = (median(scrapes), median(lookups));
    let (overhead, perturbation_ok) = overhead_ok(bare_wall, scraped_wall);
    println!("sweep:  {bare_wall:>10.3?}  (no scraper)");
    println!("sweep:  {scraped_wall:>10.3?}  ({fewest_scrapes}+ scrapes riding along)");
    println!("scrape latency: median {scrape_median:.3?}");
    println!("trace lookup latency: median {lookup_median:.3?}");
    println!("scrape perturbation: {:+.2}%\n", 100.0 * overhead);
    let reference = &bare[0].0;
    shape.check(
        "scraped sweep answers are identical to the unscraped sweep",
        !reference.is_empty() && bare.iter().chain(&scraped).all(|(a, _)| a == reference),
    );
    shape.check(
        "the scraper completed scrapes while the sweep ran",
        fewest_scrapes >= 10,
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
    json_grammar(&mut shape);
    global().set_enabled(true);
    engine(&mut shape, bench_insts());
    global().set_enabled(false);
    runner(&mut shape, &w, &cfg);
    warm_sets(&mut shape, &w, &cfg);

    println!("ledger written to {}\n", ledger_path.display());
    if shape.finish("Speed gates") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
