//! Runner scaling: the same table7-style interaction-lattice sweep
//! evaluated the pre-runner way (a fresh memoized oracle per analysis
//! round, serial simulation) and through the shared `uarch-runner` engine
//! (deduplicated parallel waves into one content-addressed cache).
//!
//! The sweep poses one analysis round per focus category: the icost of
//! every pair containing the focus. Rounds overlap heavily — every round
//! needs all the singletons, and each pair appears in two rounds — which
//! is exactly the structure the runner exploits. On a single core the
//! speedup comes entirely from dedup/cache reuse; with more cores the
//! parallel waves stack on top.
//!
//! The runner pass is executed twice — span tracing and the run ledger
//! off, then both on — to bound the observability overhead: the
//! instrumented run must stay within a few percent of the bare one.
//! Set `ICOST_TRACE_FILE` to also get the Chrome trace of the
//! instrumented pass; the ledger of that pass is parsed back and
//! structurally checked.

use std::time::{Duration, Instant};

use icost::{icost, MultiSimOracle};
use icost_bench::{workload, Shape};
use uarch_obs::ledger::{parse_ledger, LedgerRecord, Provenance};
use uarch_obs::{flush_global, global, install_global, Tracer};
use uarch_runner::{Query, RunReport, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig};

/// One full sweep through the runner: fresh engine, fresh cache, all
/// rounds in order. Returns (answers, telemetry, wall).
fn runner_sweep(
    cfg: &MachineConfig,
    trace: &uarch_trace::Trace,
    rounds: &[Vec<EventSet>],
) -> (Vec<i64>, RunReport, Duration) {
    let runner = Runner::new();
    let start = Instant::now();
    let mut answers: Vec<i64> = Vec::new();
    let mut report = RunReport::new(runner.threads());
    for round in rounds {
        let queries: Vec<Query> = round.iter().map(|&p| Query::Icost(p)).collect();
        let (a, r) = runner.run(cfg, trace, &queries);
        answers.extend(a);
        report.absorb(&r);
    }
    (answers, report, start.elapsed())
}

fn main() {
    let _flush = uarch_obs::flush_guard();
    // Own the global tracer so the two passes below can toggle recording;
    // if the environment already initialized it, toggle that one instead.
    install_global(Tracer::enabled());

    // Same for the ledger: a real file, so the instrumented pass
    // exercises (and the checks below validate) the file-append path.
    let ledger_path = icost_bench::gate_ledger("runner_scale");
    uarch_obs::ledger::global().set_enabled(false);

    // A deliberately modest trace: the sweep below runs >100 serial
    // simulations of it. Scale with ICOST_BENCH_INSTS as usual.
    let n = icost_bench::bench_insts_or(12_000);
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let w = workload("gcc", n, icost_bench::DEFAULT_SEED);
    let mut shape = Shape::new();

    // One analysis round per focus class: icost of every pair with it.
    let rounds: Vec<Vec<EventSet>> = EventClass::ALL
        .iter()
        .map(|&focus| {
            EventClass::ALL
                .iter()
                .filter(|&&c| c != focus)
                .map(|&c| EventSet::from([focus, c]))
                .collect()
        })
        .collect();
    let pair_count: usize = rounds.iter().map(Vec::len).sum();
    println!(
        "Runner scaling — {} focus rounds, {pair_count} pair icosts, gcc @ {n} insts\n",
        rounds.len()
    );

    // Serial path: exactly what the harness did before the runner — one
    // fresh memoized MultiSimOracle per analysis round (memoization never
    // survives a round, parallelism nonexistent). Unwarmed on both paths
    // so the comparison is like for like.
    let serial_start = Instant::now();
    let mut serial_answers: Vec<i64> = Vec::with_capacity(pair_count);
    let mut serial_sims = 0usize;
    for round in &rounds {
        let mut oracle = MultiSimOracle::new(&cfg, &w.trace);
        for &pair in round {
            serial_answers.push(icost(&mut oracle, pair));
        }
        serial_sims += oracle.simulations() + 1; // + the baseline run
    }
    let serial_wall = serial_start.elapsed();
    println!("serial:  {serial_sims:>4} simulations in {serial_wall:>10.3?}");

    // Runner path, observability off: same engine, spans dropped at one
    // atomic load each. This is the speedup comparison baseline.
    global().set_enabled(false);
    let (runner_answers, report, runner_wall) = runner_sweep(&cfg, &w.trace, &rounds);
    println!(
        "runner:  {:>4} simulations in {runner_wall:>10.3?}  (tracing off)",
        report.sims_run
    );

    // Runner path again, observability on: identical work (fresh cache),
    // every span recorded, every run and job appended to the ledger —
    // under a causal trace binding, as a traced POST /query would run,
    // so the overhead gate prices ctx propagation and id stamping too.
    global().set_enabled(true);
    uarch_obs::ledger::global().set_enabled(true);
    let ctx = uarch_obs::TraceCtx::mint();
    let trace_hex = ctx.trace_hex();
    let trace_guard = uarch_obs::causal::set_current(ctx);
    let (traced_answers, traced_report, traced_wall) = runner_sweep(&cfg, &w.trace, &rounds);
    drop(trace_guard);
    global().set_enabled(false);
    uarch_obs::ledger::global().set_enabled(false);
    println!(
        "runner:  {:>4} simulations in {traced_wall:>10.3?}  (tracing on, {} events)\n",
        traced_report.sims_run,
        global().len()
    );
    println!("runner telemetry:\n{report}");
    println!(
        "metrics snapshot (registry view):\n{}",
        report.to_registry().snapshot().to_table()
    );

    let speedup = serial_wall.as_secs_f64() / runner_wall.as_secs_f64().max(1e-9);
    let overhead = traced_wall.as_secs_f64() / runner_wall.as_secs_f64().max(1e-9) - 1.0;
    println!("wall-clock speedup: {speedup:.2}x");
    println!("observability overhead: {:+.2}%\n", 100.0 * overhead);

    match flush_global() {
        Ok(Some(path)) => println!("trace written to {}\n", path.display()),
        Ok(None) => {}
        Err(e) => println!("trace write failed: {e}\n"),
    }

    shape.check(
        "runner answers are bit-identical to the serial oracle",
        runner_answers == serial_answers,
    );
    shape.check(
        "traced pass computes the same answers",
        traced_answers == serial_answers,
    );
    shape.check(
        "runner reuses work (dedup + cache hits > 0)",
        report.jobs_deduped + report.cache_hits > 0,
    );
    shape.check(
        "runner simulates strictly fewer jobs than the serial path",
        (report.sims_run as usize) < serial_sims,
    );
    shape.check("lattice sweep speedup is at least 2x", speedup >= 2.0);
    // Absolute-delta escape hatch: on a noisy box a sub-millisecond sweep
    // can miss a 3% relative bound without the instrumentation being at
    // fault.
    let delta = traced_wall.saturating_sub(runner_wall);
    shape.check(
        "metrics + tracing + ledger overhead under 3% (or < 50ms absolute)",
        overhead < 0.03 || delta < Duration::from_millis(50),
    );

    // Structural checks on the ledger the instrumented pass wrote.
    let _ = uarch_obs::ledger::global().flush();
    let ledger_text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    match parse_ledger(&ledger_text) {
        Ok(records) => {
            let headers = records
                .iter()
                .filter(|r| matches!(r, LedgerRecord::Run(_)))
                .count();
            let computed = records
                .iter()
                .filter(
                    |r| matches!(r, LedgerRecord::Job(j) if j.provenance == Provenance::Computed),
                )
                .count();
            shape.check(
                "ledger has one run header per Runner::run",
                headers == rounds.len(),
            );
            shape.check(
                "ledger computed-job records match the telemetry sims_run",
                computed as u64 == traced_report.sims_run,
            );
            shape.check(
                "every ledger record carries the sweep's causal trace id",
                records
                    .iter()
                    .all(|r| r.trace().is_none_or(|t| t == trace_hex)),
            );
        }
        Err(e) => {
            println!("ledger parse error: {e}");
            shape.check("ledger parses cleanly", false);
        }
    }
    println!("ledger written to {}\n", ledger_path.display());

    std::process::exit(i32::from(!shape.finish("Runner scaling")));
}
