//! Quickstart: measure costs and interaction costs of a microexecution.
//!
//! Builds the paper's motivating kernel — two completely parallel cache
//! misses — simulates it on the Table 6 machine, and shows why individual
//! costs mislead while interaction costs do not.
//!
//! Run with: `cargo run --release --example quickstart`

use icost::{icost, render_bar_chart, Breakdown, CostOracle, Interaction};
use uarch_graph::DepGraph;
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

fn main() {
    // Flush ICOST_TRACE_FILE / ICOST_LEDGER_FILE even if a step panics.
    let _flush = uarch_obs::flush_guard();
    // 1. Describe a microexecution: a hot loop with two independent
    //    missing loads per iteration (they overlap in the memory system).
    let mut b = TraceBuilder::new();
    b.counted_loop(300, Reg::int(9), |b, k| {
        let k = k as u64;
        b.load(Reg::int(1), 0x1000_0000 + k * 4096);
        b.load(Reg::int(2), 0x3000_0000 + k * 4096);
        b.alu(Reg::int(3), &[Reg::int(1), Reg::int(2)]);
    });
    let trace = b.finish();

    // 2. Simulate it on the paper's machine (Table 6).
    let config = MachineConfig::table6();
    let result = Simulator::new(&config).run(&trace, Idealization::none());
    println!(
        "baseline: {} cycles for {} instructions (IPC {:.2})",
        result.cycles,
        trace.len(),
        result.ipc()
    );

    // 3. Build the dependence graph and ask it questions — each answer
    //    would otherwise need a full re-simulation. The runner's graph
    //    oracle batches whole query lattices through the lane-batched
    //    kernel (up to 16 subsets per instruction sweep), memoizes them
    //    in the shared content-addressed cache, and records each graph
    //    job in the run ledger alongside the simulation jobs below.
    let graph = DepGraph::build(&trace, &result, &config);
    let runner = uarch_runner::Runner::new();
    let mut oracle = runner.oracle(uarch_runner::Backend::graph(&graph));

    let dmiss = EventSet::single(EventClass::Dmiss);
    let win = EventSet::single(EventClass::Win);
    println!(
        "cost(dmiss) = {} cycles ({:.1}% of execution)",
        oracle.cost(dmiss),
        oracle.cost_percent(dmiss)
    );
    println!(
        "cost(win)   = {} cycles ({:.1}% of execution)",
        oracle.cost(win),
        oracle.cost_percent(win)
    );

    // 4. The interaction cost reveals how they compose.
    let pair = dmiss.union(win);
    let ic = icost(&mut oracle, pair);
    println!(
        "icost(dmiss, win) = {ic} cycles -> {} interaction",
        Interaction::classify(ic, 10)
    );

    // 5. A parallelism-aware breakdown accounts for every cycle.
    let breakdown = Breakdown::full(
        &mut oracle,
        &[EventClass::Dmiss, EventClass::Win, EventClass::Bw],
    );
    println!("\nfull power-set breakdown (sums to exactly 100%):");
    print!("{}", breakdown.to_table("%"));
    println!("\n{}", render_bar_chart(&breakdown, 32));

    // 6. Ground truth on demand: the same answers by re-simulation,
    //    batched through the runner — the power-set lattice is expanded
    //    into distinct simulation jobs, deduplicated, executed in
    //    parallel and memoized in a content-addressed cache.
    let (answers, report) = runner.run(
        &config,
        &trace,
        &[
            uarch_runner::Query::Cost(dmiss),
            uarch_runner::Query::Icost(pair),
        ],
    );
    println!(
        "re-simulated cost(dmiss) = {} cycles (graph said {})",
        answers[0],
        oracle.cost(dmiss)
    );
    println!(
        "re-simulated icost(dmiss, win) = {} cycles (graph said {ic})",
        answers[1]
    );
    // The telemetry includes what the simulated machine was doing: every
    // idealized run's pipeline stalls, counted per cause.
    println!("\nrunner telemetry:\n{report}");

    // Asking again is free: the cache answers without simulating.
    let (_, again) = runner.run(&config, &trace, &[uarch_runner::Query::Icost(pair)]);
    println!(
        "repeat query: {} simulations, {} cache hits",
        again.sims_run, again.cache_hits
    );

    // 7. With ICOST_TRACE_FILE set, everything above was also recorded as
    //    spans — write the Chrome trace (load it at ui.perfetto.dev).
    if let Ok(Some(path)) = uarch_obs::flush_global() {
        println!("\ntrace written to {}", path.display());
    }
}
