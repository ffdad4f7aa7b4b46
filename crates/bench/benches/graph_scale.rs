//! Graph-kernel scaling: the full 8-event, 256-subset cost lattice over
//! one large dependence graph, answered three ways — per-set scalar
//! evaluation (`DepGraph::evaluate`, the pre-kernel path), the
//! lane-batched kernel (`DepGraph::eval_many`, up to 16 subsets per
//! instruction sweep), and the runner's graph-backend `Oracle` (the same
//! kernel on the runner substrate, with `graph.*` metrics and run-ledger
//! records).
//!
//! All three must be bit-identical; the kernel must beat per-set
//! evaluation by at least 4x on a single core — the win comes entirely
//! from amortizing instruction decode and frontier state across lanes,
//! not from threads.
//!
//! Set `ICOST_TRACE_FILE` to get the Chrome trace of the oracle pass;
//! its ledger is parsed back and structurally checked.

use std::time::Instant;

use icost::CostOracle;
use icost_bench::{bench_insts, observe_workload, workload, Shape, DEFAULT_SEED};
use uarch_graph::{LaneScratch, MAX_LANES};
use uarch_obs::ledger::{parse_ledger, LedgerRecord, Provenance};
use uarch_obs::{flush_global, global, install_global, Tracer};
use uarch_runner::{Backend, Runner};
use uarch_trace::{EventSet, MachineConfig};

fn main() {
    let _flush = uarch_obs::flush_guard();
    install_global(Tracer::enabled());

    // A real ledger file, so the oracle pass exercises (and the checks
    // below validate) the file-append path.
    let ledger_path = icost_bench::gate_ledger("graph_scale");
    uarch_obs::ledger::global().set_enabled(false);

    let n = bench_insts();
    let cfg = MachineConfig::table6();
    let w = workload("gcc", n, DEFAULT_SEED);
    let (_, graph) = observe_workload(&w, &cfg);
    let sets: Vec<EventSet> = (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect();
    println!(
        "Graph-kernel scaling — {}-subset lattice over gcc @ {} graph insts\n",
        sets.len(),
        graph.len()
    );
    let mut shape = Shape::new();

    // Timing passes run with observability off: the comparison is kernel
    // vs kernel, not instrumentation vs its absence.
    global().set_enabled(false);

    // Scalar path: one full instruction sweep per subset — exactly what
    // GraphOracle did for every breakdown before the lane kernel.
    let start = Instant::now();
    let scalar: Vec<u64> = sets.iter().map(|&s| graph.evaluate(s)).collect();
    let scalar_wall = start.elapsed();
    println!("scalar:  {:>4} sweeps in {scalar_wall:>10.3?}", sets.len());

    // Lane-batched kernel, single thread: ceil(256/16) sweeps.
    let mut scratch = LaneScratch::new();
    let start = Instant::now();
    let batched = graph.eval_many_with(&sets, &mut scratch);
    let batched_wall = start.elapsed();
    println!(
        "batched: {:>4} sweeps in {batched_wall:>10.3?}  ({} lanes/sweep)",
        sets.len().div_ceil(MAX_LANES),
        MAX_LANES
    );

    // Oracle pass, observability on: same kernel through the runner
    // substrate — graph.* counters, spans, and per-job ledger records.
    global().set_enabled(true);
    uarch_obs::ledger::global().set_enabled(true);
    let mut oracle = Runner::new().oracle(Backend::graph(&graph));
    let start = Instant::now();
    oracle.prefetch(&sets);
    let oracle_wall = start.elapsed();
    let oracle_costs: Vec<i64> = sets.iter().map(|&s| oracle.cost(s)).collect();
    let snap = oracle.graph_metrics().snapshot();
    global().set_enabled(false);
    uarch_obs::ledger::global().set_enabled(false);
    println!(
        "oracle:  {:>4} sweeps in {oracle_wall:>10.3?}  (instrumented, {} threads)\n",
        snap.counter("graph.sweeps"),
        oracle.report().threads
    );
    println!("oracle metrics:\n{}", snap.to_table());

    let speedup = scalar_wall.as_secs_f64() / batched_wall.as_secs_f64().max(1e-9);
    println!("lane-batching speedup: {speedup:.2}x\n");

    match flush_global() {
        Ok(Some(path)) => println!("trace written to {}\n", path.display()),
        Ok(None) => {}
        Err(e) => println!("trace write failed: {e}\n"),
    }

    let baseline = graph.evaluate(EventSet::EMPTY) as i64;
    let scalar_costs: Vec<i64> = sets
        .iter()
        .zip(&scalar)
        .map(|(&s, &t)| if s.is_empty() { 0 } else { baseline - t as i64 })
        .collect();

    shape.check(
        "lane-batched times are bit-identical to per-set evaluation",
        batched == scalar,
    );
    shape.check(
        "oracle costs are bit-identical to the scalar definition",
        oracle_costs == scalar_costs,
    );
    shape.check(
        "kernel packs the lattice into ceil(256/16) sweeps",
        snap.counter("graph.sweeps") == sets.len().div_ceil(MAX_LANES) as u64
            && snap.counter("graph.lanes") == (sets.len() - 1) as u64,
    );
    shape.check(
        "lane batching is at least 4x faster than per-set sweeps",
        speedup >= 4.0,
    );

    // Structural checks on the ledger the oracle pass wrote.
    let _ = uarch_obs::ledger::global().flush();
    let ledger_text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    match parse_ledger(&ledger_text) {
        Ok(records) => {
            let header_ok = records.iter().any(
                |r| matches!(r, LedgerRecord::Run(h) if h.ctx == oracle.context().to_string()),
            );
            let computed = records
                .iter()
                .filter(
                    |r| matches!(r, LedgerRecord::Job(j) if j.provenance == Provenance::Computed),
                )
                .count();
            let memo = records
                .iter()
                .filter(|r| matches!(r, LedgerRecord::Job(j) if j.provenance == Provenance::Memory))
                .count();
            shape.check(
                "ledger run header carries the graph-content context",
                header_ok,
            );
            shape.check(
                "ledger has one computed record per distinct non-empty set",
                computed == sets.len() - 1,
            );
            shape.check(
                "memo-served cost() answers are ledgered with memory provenance",
                memo == sets.len() - 1,
            );
        }
        Err(e) => {
            println!("ledger parse error: {e}");
            shape.check("ledger parses cleanly", false);
        }
    }
    println!("ledger written to {}\n", ledger_path.display());

    std::process::exit(i32::from(!shape.finish("Graph-kernel scaling")));
}
