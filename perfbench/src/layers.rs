//! The traced run (`--trace 1`): per-layer metrics, each timed around a
//! call into one crate's public functions from this file. The program
//! runs with tracing off; nothing is recorded inside it.
//!
//! Every workload's traced run takes the same probes on inputs derived
//! from its seed. `perfbench/interactions.json` names, for each metric,
//! the end-to-end metric and workload it should move. The warm-path
//! costs are measured at two trace sizes and fitted as `a + b·n`, which
//! separates a fixed per-request cost from one that grows with the
//! trace.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uarch_graph::{DepGraph, LaneScratch, StreamingBuilder};
use uarch_obs::json;
use uarch_plan::{Calibrator, Planner};
use uarch_runner::{Query, RunReport, Runner};
use uarch_serve::{parse_query_body, ServeContext, ServeHost, Server};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventSet, Inst, MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile};

use crate::client::post;
use crate::served;
use crate::stats::{fit_line, median};
use crate::stream::{
    answers_from, breakdown_queries, check_answers, check_response, cold_graph, err_pm,
    request_stream, sub_seed, Backend, References, Request, Rungs,
};
use crate::workloads::{ingest_expected, ingest_input, HOST_TAG, STREAM_TAG};
use crate::{Outcome, Scale, ACCEPT_WORKERS, RUNNER_THREADS};

/// Repetitions of each timed call.
const REPS: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

/// Count one checked operation into `out`.
fn check(out: &mut Outcome, result: Result<(), String>) {
    out.attempted += 1;
    if let Err(e) = result {
        out.wrong += 1;
        out.failure(e);
    }
}

pub fn run(workload: &str, scale: &Scale, seed: u64, _seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note(format!(
        "trace: layer probes on inputs from seed {seed} (the same probes for every workload; \
         {workload}'s layers are listed in perfbench/interactions.json)"
    ));
    engine(scale, seed, &mut out);
    serving(scale, seed, &mut out)?;
    ingest(scale, seed, &mut out)?;
    Ok(out)
}

/// `workloads`, `sim`, `graph` build and lanes, and the runner's cold
/// batch, on a compute-bound (`gzip`) and a memory-bound (`mcf`) trace.
fn engine(scale: &Scale, seed: u64, out: &mut Outcome) {
    let cfg = MachineConfig::table6();
    let n = scale.serve_insts;
    let breakdown = breakdown_queries();
    let all: Vec<EventSet> = (0..=255u8).map(EventSet::from_bits).collect();
    let mut distinct: Vec<EventSet> = breakdown.iter().flat_map(Query::required_sets).collect();
    distinct.sort_by_key(|s| s.bits());
    distinct.dedup();
    let (mut generate_ns, mut build_ns, mut lanes_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_ms, mut eff, mut dedup) = (Vec::new(), Vec::new(), Vec::new());
    let mut graph_err = Vec::new();
    for (tag, (class, name)) in [("compute", "gzip"), ("memory", "mcf")]
        .into_iter()
        .enumerate()
    {
        let profile = BenchProfile::by_name(name).expect("profile is in the suite");
        let gens: Vec<_> = (0..REPS)
            .map(|_| timed(|| generate(profile, n, sub_seed(seed, 200 + tag as u64))))
            .collect();
        generate_ns.extend(gens.iter().map(|(_, d)| ns_per(*d, n)));
        let w = &gens[0].0;

        let sim = Simulator::new(&cfg);
        let baseline =
            || sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
        let sims: Vec<_> = (0..REPS).map(|_| timed(baseline)).collect();
        let sim_ns: Vec<f64> = sims.iter().map(|(_, d)| ns_per(*d, n)).collect();
        let base = &sims[0].0;
        out.metric(
            format!("sim.ns_per_inst.{class}"),
            median(&sim_ns),
            "ns/inst",
        );
        let e = base.engine;
        let skip = e.skipped_cycles as f64 / (e.skipped_cycles + e.ticked_cycles) as f64;
        out.metric(format!("sim.skip_ratio.{class}"), skip, "ratio");

        let builds: Vec<_> = (0..REPS)
            .map(|_| timed(|| DepGraph::build(&w.trace, base, &cfg)))
            .collect();
        build_ns.extend(builds.iter().map(|(_, d)| ns_per(*d, n)));
        let graph = &builds[0].0;
        let mut scratch = LaneScratch::new();
        let mut times = Vec::new();
        for _ in 0..REPS {
            let (t, d) = timed(|| graph.eval_many_with(&all, &mut scratch));
            lanes_ns.push(ns_per(d, n * all.len()));
            times = t;
        }

        // The cold breakdown batch on a fresh runner, against the same
        // sets simulated one at a time.
        let mut cycles = BTreeMap::new();
        let (_, serial) = timed(|| {
            for &s in &distinct {
                let c =
                    sim.cycles_warmed(&w.trace, Idealization::from(s), &w.warm_data, &w.warm_code);
                cycles.insert(s.bits(), c as i64);
            }
        });
        let want = answers_from(|s| cycles[&0] - cycles[&s.bits()], &breakdown);
        let graph_answers = answers_from(
            |s| times[0] as i64 - times[s.bits() as usize] as i64,
            &breakdown,
        );
        graph_err.push(err_pm(&graph_answers, &want, cycles[&0] as u64));
        for _ in 0..3 {
            let runner = Runner::new().with_threads(RUNNER_THREADS);
            let ((answers, report), d) =
                timed(|| runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &breakdown));
            cold_ms.push(d.as_secs_f64() * 1e3);
            eff.push(serial.as_secs_f64() / (RUNNER_THREADS as f64 * d.as_secs_f64()));
            dedup.push(report.jobs_deduped as f64 / report.jobs_requested as f64);
            check(
                out,
                (answers == want).then_some(()).ok_or(format!(
                    "{name}: runner breakdown differs from one-at-a-time simulation"
                )),
            );
        }
    }
    out.metric(
        "workloads.generate_ns_per_inst",
        median(&generate_ns),
        "ns/inst",
    );
    out.metric("graph.build_ns_per_inst", median(&build_ns), "ns/inst");
    out.metric("graph.lanes_ns_per_inst_set", median(&lanes_ns), "ns");
    out.metric(
        "graph.err_pm",
        graph_err.iter().sum::<f64>() / graph_err.len() as f64,
        "permille",
    );
    out.metric("runner.cold_batch_ms", median(&cold_ms), "ms");
    out.metric("runner.parallel_eff", median(&eff), "ratio");
    out.metric("runner.dedup_ratio", median(&dedup), "ratio");
}

/// `runner` warm batches, `plan` and `serve` on served `gcc` hosts at two
/// trace sizes (fitted as `a + b·n`), then the host-time split and the
/// HTTP round trip at the larger size.
fn serving(scale: &Scale, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let stream = request_stream(sub_seed(seed, STREAM_TAG), scale.stream_len);
    let breakdown = breakdown_queries();
    let mut fits: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut last = None;
    for n in [scale.serve_insts / 4, scale.serve_insts] {
        let mut sample = |name: &str, d: Duration| {
            fits.entry(name.to_string())
                .or_default()
                .push((n as f64, us(d)));
        };
        let host = Arc::new(served::host(n, sub_seed(seed, HOST_TAG)));
        served::warm(&host, &stream)?;
        let ctx = host.context();
        let refs = References::compute(ctx);
        let graph = cold_graph(ctx);
        let runner = host.runner();
        let sim_batch = || {
            runner.run_warmed(
                &ctx.config,
                &ctx.trace,
                &ctx.warm_data,
                &ctx.warm_code,
                &breakdown,
            )
        };
        let graph_batch = || runner.run_graph(&graph, &breakdown);
        let (sim_answers, _) = sim_batch();
        let (graph_answers, _) = graph_batch();
        for _ in 0..4 * REPS {
            let ((a, _), d) = timed(sim_batch);
            check(out, same(&a, &sim_answers, "cached sim batch"));
            sample("runner.warm_batch_us", d);
            let ((a, _), d) = timed(graph_batch);
            check(out, same(&a, &graph_answers, "cached graph batch"));
            sample("runner.graph_warm_batch_us", d);
        }
        // Host time per request, from the second of two replays.
        let mut host_us = Vec::new();
        for pass in 0..2 {
            for req in &stream {
                let (response, d) = timed(|| host.handle_query(req.body.as_bytes()));
                let checked = response.and_then(|body| {
                    check_response(&body, req, &refs, &mut Rungs::default()).map(|_| ())
                });
                check(out, checked);
                if pass == 1 {
                    sample(&format!("serve.host_us.{}", req.backend.name()), d);
                    host_us.push(us(d));
                }
            }
        }
        last = Some((host, refs, graph, host_us));
    }
    for (name, points) in &fits {
        let at_full: Vec<f64> = points
            .iter()
            .filter(|p| p.0 == scale.serve_insts as f64)
            .map(|p| p.1)
            .collect();
        let (a, b) = fit_line(points);
        out.metric(name.clone(), median(&at_full), "us");
        out.metric(format!("{name}.fit_a"), a, "us");
        out.metric(format!("{name}.fit_b"), b * 1e3, "ns/inst");
    }
    let (host, refs, graph, host_us) = last.expect("two trace sizes");
    // The first replay settles the planner's calibration (and runs any
    // simulation its escalations need); the second is measured.
    let ctx = Context {
        host: &host,
        refs: &refs,
        graph: &graph,
        calibrator: Calibrator::new(),
    };
    split(&ctx, &stream, &mut Outcome::default())?;
    split(&ctx, &stream, out)?;
    http(host, &refs, &stream, &host_us, out)
}

fn same(got: &[i64], want: &[i64], what: &str) -> Result<(), String> {
    (got == want)
        .then_some(())
        .ok_or(format!("{what}: answers changed between calls"))
}

/// What the in-process replay runs against.
struct Context<'a> {
    host: &'a ServeHost,
    refs: &'a References,
    /// Built the way `ServeHost::new` builds its graph.
    graph: &'a DepGraph,
    /// Shared by every replayed `auto` request, as the host shares its own.
    calibrator: Calibrator,
}

/// Replay the stream in-process through the steps `handle_query` takes:
/// `parse_query_body`, the runner (`sim`, `graph`) or the planner
/// (`auto`), and rendering the response body around
/// `RunReport::to_json`.
fn split(cx: &Context, stream: &[Request], out: &mut Outcome) -> Result<(), String> {
    let ctx: &ServeContext = cx.host.context();
    let runner = cx.host.runner();
    let (mut parse_us, mut render_us) = (Vec::new(), Vec::new());
    let mut call_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rungs = Rungs::default();
    let mut total = RunReport::new(RUNNER_THREADS);
    for req in stream {
        let ((queries, _), parse) = match timed(|| parse_query_body(&req.body)) {
            (Ok(parsed), d) => (parsed, d),
            (Err(e), _) => return Err(format!("a stream request failed to parse: {e}")),
        };
        let (answers, provenance, report, call) = match req.backend {
            Backend::Sim => {
                let ((a, r), d) = timed(|| {
                    runner.run_warmed(
                        &ctx.config,
                        &ctx.trace,
                        &ctx.warm_data,
                        &ctx.warm_code,
                        &queries,
                    )
                });
                let p = vec!["sim"; a.len()];
                (a, p, r, d)
            }
            Backend::Graph => {
                let ((a, r), d) = timed(|| runner.run_graph(cx.graph, &queries));
                let p = vec!["graph"; a.len()];
                (a, p, r, d)
            }
            Backend::Auto => {
                let ((planned, r), d) = timed(|| {
                    Planner::new(
                        runner,
                        &ctx.config,
                        &ctx.trace,
                        &ctx.warm_data,
                        &ctx.warm_code,
                        cx.graph,
                    )
                    .with_calibrator(cx.calibrator.clone())
                    .plan(&queries)
                });
                let a = planned.iter().map(|p| p.value).collect();
                let p = planned.iter().map(|p| p.provenance.as_str()).collect();
                (a, p, r, d)
            }
        };
        check(
            out,
            check_answers(req, &answers, &provenance, cx.refs, &mut rungs),
        );
        total.absorb(&report);
        parse_us.push(us(parse));
        call_us
            .entry(req.backend.name())
            .or_default()
            .push(us(call));
        let (body, render) = timed(|| {
            let answers: Vec<String> = answers.iter().map(i64::to_string).collect();
            let provenance: Vec<String> = provenance.iter().map(|p| json::quote(p)).collect();
            format!(
                "{{\"backend\":\"{}\",\"answers\":[{}],\"provenance\":[{}],\"report\":{}}}\n",
                req.backend.name(),
                answers.join(","),
                provenance.join(","),
                report.to_json()
            )
        });
        std::hint::black_box(body);
        render_us.push(us(render));
    }
    let answered = (rungs.cache + rungs.graph + rungs.sim).max(1) as f64;
    let probes = (total.cache_hits + total.sims_run).max(1) as f64;
    out.metric("serve.parse_us", median(&parse_us), "us");
    out.metric("serve.split.call_us.sim", median(&call_us["sim"]), "us");
    out.metric("serve.split.call_us.graph", median(&call_us["graph"]), "us");
    out.metric("plan.decision_us", median(&call_us["auto"]), "us");
    out.metric("serve.split.render_us", median(&render_us), "us");
    out.metric(
        "runner.hit_ratio",
        total.cache_hits as f64 / probes,
        "ratio",
    );
    for (rung, count) in [
        ("cache", rungs.cache),
        ("graph", rungs.graph),
        ("sim", rungs.sim),
    ] {
        out.metric(
            format!("plan.rung_share.{rung}"),
            count as f64 / answered,
            "ratio",
        );
    }
    Ok(())
}

/// The stream over loopback against the larger host: the round trip
/// minus the host's own time is the HTTP layer's.
fn http(
    host: Arc<ServeHost>,
    refs: &References,
    stream: &[Request],
    host_us: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let server = Server::start(host, "127.0.0.1:0", ACCEPT_WORKERS)
        .map_err(|e| format!("starting the server: {e}"))?;
    let mut rtt_us = Vec::new();
    let mut non200 = 0u32;
    let mut rungs = Rungs::default();
    for _ in 0..2 {
        for req in stream {
            let (response, d) = timed(|| post(server.addr(), "/query", &req.body));
            let result = match response {
                Ok(r) if r.status == 200 => {
                    check_response(&r.body, req, refs, &mut rungs).map(|_| ())
                }
                Ok(r) => {
                    non200 += 1;
                    Err(format!("POST /query answered {}", r.status))
                }
                Err(e) => Err(e),
            };
            check(out, result);
            rtt_us.push(us(d));
        }
    }
    server.shutdown();
    out.metric("serve.http_us", median(&rtt_us) - median(host_us), "us");
    out.metric("serve.non200", f64::from(non200), "count");
    Ok(())
}

/// The write path: JSON decode, `handle_ingest`, and the window kernel
/// alone (`StreamingBuilder::push_batch`), on the ingest workload's
/// `mcf` trace.
fn ingest(scale: &Scale, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let cfg = MachineConfig::table6();
    let input = ingest_input(scale, seed);
    let expected = ingest_expected(scale, &input.trace)?;
    let chunks: Vec<&[Inst]> = input.trace.insts().chunks(scale.chunk).collect();
    let mut window_us = Vec::new();
    for _ in 0..3 {
        let mut builder = StreamingBuilder::new(&cfg, scale.window);
        let (windows, d) = timed(|| -> Result<usize, String> {
            let mut windows = 0;
            for chunk in &chunks {
                windows += builder.push_batch(chunk)?.len();
            }
            Ok(windows + usize::from(builder.finish().is_some()))
        });
        window_us.push(us(d) / windows? as f64);
    }
    out.metric("graph.window_us", median(&window_us), "us");

    let parse_ns: Vec<f64> = input
        .bodies
        .iter()
        .zip(&chunks)
        .map(|(body, chunk)| ns_per(timed(|| json::parse(body)).1, chunk.len()))
        .collect();
    out.metric("obs.json_parse_ns_per_inst", median(&parse_ns), "ns/inst");

    // A host over an empty trace: only its ingest table is used.
    let host = ServeHost::new(
        Runner::new().with_threads(RUNNER_THREADS),
        ServeContext::new("ingest", cfg, Trace::from_insts(Vec::new())),
    );
    let mut per_kinst = Vec::new();
    for _ in 0..3 {
        let mut total = Duration::ZERO;
        for (body, want) in input.bodies.iter().zip(&expected) {
            let (outcome, d) = timed(|| host.handle_ingest(body.as_bytes()));
            total += d;
            let got = outcome.map(|o| (o.ingested, o.windows, o.pending, o.done));
            check(
                out,
                got.and_then(|g| {
                    (g == *want)
                        .then_some(())
                        .ok_or(format!("ingest answered {g:?}, reference {want:?}"))
                }),
            );
        }
        per_kinst.push(us(total) / (input.trace.len() as f64 / 1e3));
    }
    out.metric("serve.ingest_us_per_kinst", median(&per_kinst), "us");
    Ok(())
}
