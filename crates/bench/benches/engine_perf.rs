//! Engine speed gate: the discrete-event run loop vs the cycle-ticking
//! reference, as a CI pass/fail artifact rather than a criterion sweep.
//!
//! Three claims are gated, all on the same binary and machine so the
//! comparisons are relative and survive noisy CI hosts:
//!
//! 1. **Memory-bound speedup** — on a serial pointer chase (the mcf
//!    shape: every load misses to memory and the machine drains), the
//!    event engine must be ≥3x faster than ticking every cycle.
//! 2. **Compute-bound parity** — on gzip/gap-like high-IPC profiles
//!    where almost every cycle makes progress (nothing to skip), the
//!    event engine must not regress more than 5%.
//! 3. **Bit-identity in-bench** — for every timed workload, the two
//!    engines' `SimResult`s (cycles, per-inst records, counts, stalls)
//!    are compared field-for-field before any wall-clock number is
//!    trusted; a fast-but-wrong engine fails here first.
//!
//! Plus the issue-path micro-assert pinning the hot-path rework (fu_busy
//! as a fixed array, scratch candidate buffer, sorted ready queue): an
//! issue-saturated ALU soup must stay under a coarse ns/instruction
//! ceiling that the allocation-per-cycle + HashMap-per-issue shape
//! comfortably exceeded.
//!
//! Also a ledger producer: with the tracer on, the runner answers two
//! queries per compute-bound profile, so the gate ledger carries real
//! run/job records (CI checks for both kinds).

use std::time::{Duration, Instant};

use icost_bench::{bench_insts, harness_runner, Shape, DEFAULT_SEED};
use uarch_obs::{install_global, Tracer};
use uarch_runner::Query;
use uarch_sim::{EngineMode, Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder};
use uarch_workloads::{generate, pointer_chase, BenchProfile};

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
    reps: usize,
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
    shape.check(
        &format!("{what}: ticked+skipped recompose the reference cycle count"),
        events.engine.ticked_cycles + events.engine.skipped_cycles == ticking.engine.ticked_cycles,
    );
    let t_tick = best_of(reps, || {
        run(EngineMode::Ticking);
    });
    let t_ev = best_of(reps, || {
        run(EngineMode::Events);
    });
    println!(
        "{what:<28} ticking {:>8.2?}  events {:>8.2?}  ({:.2}x, skipped {}/{} cycles)",
        t_tick,
        t_ev,
        t_tick.as_secs_f64() / t_ev.as_secs_f64().max(1e-9),
        events.engine.skipped_cycles,
        ticking.cycles,
    );
    (t_tick, t_ev)
}

/// Issue-saturated soup: independent ALU ops across eight registers, no
/// misses, no branches — every cycle issues at machine width, so wall
/// time is dominated by dispatch + issue_fixpoint + commit bookkeeping.
fn alu_soup(n: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for k in 0..n as u64 {
        b.alu(Reg::int(1 + (k % 8) as u8), &[]);
    }
    b.finish()
}

fn main() {
    let _flush = uarch_obs::flush_guard();
    install_global(Tracer::enabled());

    let ledger_path = icost_bench::gate_ledger("engine_perf");

    let n = bench_insts();
    let cfg = MachineConfig::table6();
    let sim = Simulator::new(&cfg);
    println!("Engine speed gate — event scheduler vs cycle ticking @ {n} insts\n");
    let mut shape = Shape::new();

    // 1. Memory-bound: a serial chase where every load misses to memory.
    // Each iteration is ~4 instructions; cold caches are the point.
    let chase = pointer_chase(n / 4);
    let (t_tick, t_ev) = race(
        &mut shape,
        &sim,
        &chase,
        None,
        "pointer_chase (mcf-like)",
        5,
    );
    let speedup = t_tick.as_secs_f64() / t_ev.as_secs_f64().max(1e-9);
    shape.check("memory-bound speedup is at least 3x", speedup >= 3.0);

    // 2. Compute-bound parity: high-IPC profiles where the scheduler has
    // nothing to skip and must cost nothing. The runner also answers two
    // queries per profile here so the gate ledger carries run/job
    // records.
    let runner = harness_runner();
    let dmiss = EventSet::single(EventClass::Dmiss);
    let queries = [
        Query::Cost(dmiss),
        Query::Icost(dmiss.union(EventSet::single(EventClass::Win))),
    ];
    for name in ["gzip", "gap"] {
        let profile = BenchProfile::by_name(name).expect("suite profile");
        let w = generate(profile, n, DEFAULT_SEED);
        let (t_tick, t_ev) = race(
            &mut shape,
            &sim,
            &w.trace,
            Some((&w.warm_data, &w.warm_code)),
            &format!("{name} (compute-bound)"),
            5,
        );
        shape.check(
            &format!("{name}: event engine within 5% of ticking engine"),
            t_ev.as_secs_f64() <= t_tick.as_secs_f64() * 1.05,
        );
        let (answers, _) = runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &queries);
        // cost(S) is non-negative by construction; icost(S) may be
        // negative (parallel interaction), so only the cost is gated.
        shape.check(
            &format!("{name}: runner cost answer is well-formed"),
            answers[0] >= 0,
        );
    }

    // 3. Issue-path micro-assert: the hot-path rework (fixed fu_busy
    // array, scratch candidate buffer, sorted ready queue) keeps an
    // issue-saturated run under a coarse per-instruction ceiling. The
    // pre-rework shape (HashMap probe per issue attempt + a fresh Vec
    // per fixpoint iteration) sat several times above the measured cost;
    // the ceiling is ~8x current so only a structural regression trips.
    let soup = alu_soup(n);
    let t_soup = best_of(5, || {
        sim.run_with_mode(&soup, Idealization::none(), EngineMode::Events);
    });
    let ns_per_inst = t_soup.as_nanos() as f64 / n as f64;
    println!("\nissue-saturated ALU soup: {ns_per_inst:.0} ns/inst");
    shape.check(
        "issue path stays under 400 ns per instruction",
        ns_per_inst < 400.0,
    );

    let _ = uarch_obs::ledger::global().flush();
    println!("ledger written to {}\n", ledger_path.display());

    std::process::exit(i32::from(!shape.finish("Engine speed gate")));
}
