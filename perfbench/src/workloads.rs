//! `serve` and `ingest`: closed-loop HTTP clients against an in-process
//! `Server` over loopback.
//!
//! `serve` is one client replaying the seeded query stream against a
//! warmed host, the steady state of a long-lived server whose callers
//! (CLI users, scripts) each wait for their reply. `ingest` adds a
//! second client beside it on the same host: thread A streams a seeded
//! `mcf` trace through `POST /ingest` in fixed-size chunks, while thread
//! B replays the query stream for as long as A runs. Each pass of A
//! opens the same session and closes it with `done:true`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uarch_graph::StreamingBuilder;
use uarch_obs::json::{self, Value};
use uarch_serve::inst_to_json;
use uarch_trace::{Inst, MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile};

use crate::client::post;
use crate::served::Served;
use crate::stats::{median_secs, Digest, Latencies, P99_WINDOW};
use crate::stream::{check_response, request_stream, sub_seed, References, Request, Rungs};
use crate::{set_up, Budget, Outcome, Scale};

/// Input tags for [`sub_seed`].
pub const HOST_TAG: u64 = 100;
pub const STREAM_TAG: u64 = 101;
const INGEST_TAG: u64 = 102;

/// The ingest session every pass of thread A opens and closes.
const SESSION: &str = "perfbench";

/// One closed-loop query client replaying the stream cyclically.
struct QueryClient<'a> {
    stream: &'a [Request],
    refs: &'a References,
    next: usize,
    lat: Latencies,
    rungs: Rungs,
    pass_start: Instant,
    /// Wall time of every complete replay of the stream.
    passes: Vec<Duration>,
    /// Digest of the first replay's answers.
    digest: Digest,
    outcome: Outcome,
}

impl<'a> QueryClient<'a> {
    fn new(stream: &'a [Request], refs: &'a References) -> QueryClient<'a> {
        QueryClient {
            stream,
            refs,
            next: 0,
            lat: Latencies::default(),
            rungs: Rungs::default(),
            pass_start: Instant::now(),
            passes: Vec::new(),
            digest: Digest::default(),
            outcome: Outcome::default(),
        }
    }

    /// Send the next request, time it from send to last byte, and check
    /// its answers.
    fn step(&mut self, addr: std::net::SocketAddr) {
        let req = &self.stream[self.next];
        let start = Instant::now();
        let response = post(addr, "/query", &req.body);
        let elapsed = start.elapsed();
        self.outcome.attempted += 1;
        match response {
            Ok(r) if r.status == 200 => {
                match check_response(&r.body, req, self.refs, &mut self.rungs) {
                    Ok(answers) => {
                        self.lat.ok(elapsed);
                        if self.passes.is_empty() {
                            answers.iter().for_each(|&a| self.digest.add(a));
                        }
                    }
                    Err(e) => {
                        self.lat.fail();
                        self.outcome.wrong += 1;
                        self.outcome.failure(e);
                    }
                }
            }
            Ok(r) => {
                self.lat.fail();
                self.outcome.failure(format!(
                    "POST /query answered {}: {}",
                    r.status,
                    r.body.trim()
                ));
            }
            Err(e) => {
                self.lat.fail();
                self.outcome.failure(format!("POST /query: {e}"));
            }
        }
        self.next += 1;
        if self.next == self.stream.len() {
            self.next = 0;
            self.passes.push(self.pass_start.elapsed());
            self.pass_start = Instant::now();
        }
    }

    /// Fold the client's counts into `outcome` and emit the query
    /// metrics, with `phase` as the throughput denominator.
    fn report(self, phase: Duration, outcome: &mut Outcome) -> Result<(), String> {
        outcome.attempted += self.outcome.attempted;
        outcome.failed += self.outcome.failed;
        outcome.wrong += self.outcome.wrong;
        outcome.notes.extend(self.outcome.notes);
        let p99 = self.lat.p99().ok_or("too few queries for a p99")?;
        outcome.note(format!(
            "queries: {} sent, {} failed, {} full stream replays, query_p99_ms from the quietest \
             of {} windows of {P99_WINDOW}, whole-run p99 {:.4}, auto rungs cache/graph/sim {}/{}/{}, \
             first-replay answer digest {}",
            self.lat.count(),
            self.lat.failed(),
            self.passes.len(),
            self.lat.p99_windows(),
            self.lat.p99_all(),
            self.rungs.cache,
            self.rungs.graph,
            self.rungs.sim,
            self.digest.hex()
        ));
        outcome.metric(
            "query_rps",
            (self.lat.count() - self.lat.failed()) as f64 / phase.as_secs_f64(),
            "1/s",
        );
        outcome.metric("query_p50_ms", self.lat.p50(), "ms");
        outcome.metric("query_p99_ms", p99, "ms");
        Ok(())
    }
}

/// The set-up both HTTP workloads share, repeated by [`set_up`]:
/// input generation, `ServeHost::new`, the warm-up and server start,
/// plus whatever `extra` adds. Returns the last set-up and the median
/// time.
fn set_up_served<T>(
    scale: &Scale,
    seed: u64,
    stream: &[Request],
    mut extra: impl FnMut() -> T,
) -> Result<((Served, T), f64), String> {
    set_up(|| {
        let served = Served::start(scale.serve_insts, sub_seed(seed, HOST_TAG), stream)?;
        Ok((served, extra()))
    })
}

/// The lines and metrics both HTTP workloads end with.
fn finish(
    outcome: &mut Outcome,
    refs: &References,
    served: &Served,
    cached_before: usize,
) -> Result<(), String> {
    let added = served.cached() - cached_before;
    outcome.note(format!(
        "host: gcc, {} cache entries, {added} added during the timed phase, reference digest {}, \
         graph_err_pm {:.4}",
        served.cached(),
        refs.digest().hex(),
        refs.graph_err_pm()
    ));
    outcome.peak_rss()
}

pub fn serve(scale: &Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let stream = request_stream(sub_seed(seed, STREAM_TAG), scale.stream_len);
    let ((served, ()), setup_s) = set_up_served(scale, seed, &stream, || ())?;
    let refs = References::compute(served.host.context());
    let cached_before = served.cached();
    let mut client = QueryClient::new(&stream, &refs);
    let budget = Budget::start(seconds);
    while client.passes.is_empty() || !budget.done(&[client.lat.count()]) {
        client.step(served.addr());
    }
    let phase = budget.elapsed();
    let mut outcome = Outcome::default();
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("wall_s", median_secs(&client.passes), "s");
    client.report(phase, &mut outcome)?;
    finish(&mut outcome, &refs, &served, cached_before)?;
    Ok(outcome)
}

/// What one `POST /ingest` must answer: `(ingested, windows, pending,
/// done)` after each chunk.
pub type Expected = (u64, u64, u64, bool);

/// The `mcf` trace and its ingest request bodies.
pub struct IngestInput {
    pub trace: Trace,
    pub bodies: Vec<String>,
}

pub fn ingest_input(scale: &Scale, seed: u64) -> IngestInput {
    let profile = BenchProfile::by_name("mcf").expect("mcf is in the suite");
    let w = generate(profile, scale.ingest_insts, sub_seed(seed, INGEST_TAG));
    let chunks: Vec<&[Inst]> = w.trace.insts().chunks(scale.chunk).collect();
    let bodies = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let insts: Vec<String> = chunk.iter().map(inst_to_json).collect();
            format!(
                "{{\"session\":\"{SESSION}\",\"window\":{},\"insts\":[{}],\"done\":{}}}",
                scale.window,
                insts.join(","),
                i + 1 == chunks.len()
            )
        })
        .collect();
    IngestInput {
        trace: w.trace,
        bodies,
    }
}

/// The reference outcomes: the same chunks through a fresh builder.
pub fn ingest_expected(scale: &Scale, trace: &Trace) -> Result<Vec<Expected>, String> {
    let mut builder = StreamingBuilder::new(&MachineConfig::table6(), scale.window);
    let chunks: Vec<&[Inst]> = trace.insts().chunks(scale.chunk).collect();
    let mut out = Vec::with_capacity(chunks.len());
    for (i, chunk) in chunks.iter().enumerate() {
        builder.push_batch(chunk)?;
        if i + 1 == chunks.len() {
            builder.finish();
            out.push((builder.ingested(), builder.windows_emitted(), 0, true));
        } else {
            out.push((
                builder.ingested(),
                builder.windows_emitted(),
                builder.frontier_lag(),
                false,
            ));
        }
    }
    Ok(out)
}

fn parse_outcome(body: &str) -> Result<Expected, String> {
    let doc = json::parse(body).map_err(|e| format!("ingest response is not JSON: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_num)
            .map(|n| n as u64)
            .ok_or(format!("ingest response lacks {k}"))
    };
    let done = matches!(doc.get("done"), Some(Value::Bool(true)));
    Ok((num("ingested")?, num("windows")?, num("pending")?, done))
}

pub fn ingest(scale: &Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let stream = request_stream(sub_seed(seed, STREAM_TAG), scale.stream_len);
    let ((served, input), setup_s) =
        set_up_served(scale, seed, &stream, || ingest_input(scale, seed))?;
    let refs = References::compute(served.host.context());
    let expected = ingest_expected(scale, &input.trace)?;
    let cached_before = served.cached();
    let addr = served.addr();
    let stop = AtomicBool::new(false);
    let queries_sent = AtomicUsize::new(0);
    let mut writer = Outcome::default();
    let mut ingest_lat = Latencies::default();
    let mut passes: Vec<Duration> = Vec::new();
    let mut digest = Digest::default();
    let budget = Budget::start(seconds);
    let mut client = QueryClient::new(&stream, &refs);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                client.step(addr);
                queries_sent.fetch_add(1, Ordering::Relaxed);
            }
        });
        while passes.is_empty()
            || !budget.done(&[ingest_lat.count(), queries_sent.load(Ordering::Relaxed)])
        {
            let start = Instant::now();
            for (body, want) in input.bodies.iter().zip(&expected) {
                let sent = Instant::now();
                let response = post(addr, "/ingest", body);
                let elapsed = sent.elapsed();
                writer.attempted += 1;
                let got = match response {
                    Ok(r) if r.status == 200 => parse_outcome(&r.body),
                    Ok(r) => Err(format!(
                        "POST /ingest answered {}: {}",
                        r.status,
                        r.body.trim()
                    )),
                    Err(e) => Err(format!("POST /ingest: {e}")),
                };
                match got {
                    Ok(got) if got == *want => {
                        ingest_lat.ok(elapsed);
                        if passes.is_empty() {
                            [got.0, got.1, got.2]
                                .iter()
                                .for_each(|&v| digest.add(v as i64));
                        }
                    }
                    Ok(got) => {
                        ingest_lat.fail();
                        writer.wrong += 1;
                        writer.failure(format!("ingest answered {got:?}, reference {want:?}"));
                    }
                    Err(e) => {
                        ingest_lat.fail();
                        writer.failure(e);
                    }
                }
            }
            passes.push(start.elapsed());
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("the query client thread panicked");
    });
    let phase = budget.elapsed();
    let mut outcome = writer;
    let wall = median_secs(&passes);
    let ingest_p99 = ingest_lat
        .p99()
        .ok_or("too few ingest requests for a p99")?;
    outcome.note(format!(
        "ingest: mcf, {} insts in {} chunks of {} (window {}), {} passes, ingest_kinst_per_s {:.1}, \
         ingest_p50_ms {:.4}, ingest_p99_ms {:.4} (quietest of {} windows; {} samples, whole-run {:.4}), \
         outcome digest {}",
        input.trace.len(),
        input.bodies.len(),
        scale.chunk,
        scale.window,
        passes.len(),
        input.trace.len() as f64 / 1e3 / wall,
        ingest_lat.p50(),
        ingest_p99,
        ingest_lat.p99_windows(),
        ingest_lat.count(),
        ingest_lat.p99_all(),
        digest.hex()
    ));
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("wall_s", wall, "s");
    client.report(phase, &mut outcome)?;
    finish(&mut outcome, &refs, &served, cached_before)?;
    Ok(outcome)
}
