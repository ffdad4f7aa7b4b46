//! De-optimization: shrink what doesn't matter.
//!
//! The paper's introduction points out that "events with cost zero may be
//! good targets for de-optimization (e.g., making a queue smaller without
//! affecting performance)" — the icost framework finds over-provisioned
//! resources as readily as bottlenecks. This example measures each
//! resource's cost on a workload, picks the cheapest ones, shrinks the
//! corresponding hardware, and re-simulates to confirm the lunch was
//! free.
//!
//! Run with: `cargo run --release --example deoptimizer`

use icost::CostOracle;
use uarch_graph::DepGraph;
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile, Workload};

fn cycles(w: &Workload, cfg: &MachineConfig) -> u64 {
    Simulator::new(cfg).cycles_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code)
}

fn main() {
    // gzip: L1-resident chains; its memory system beyond L1 and its FP
    // units are along for the ride.
    let w = generate(
        BenchProfile::by_name("gzip").expect("suite benchmark"),
        60_000,
        2003,
    );
    let cfg = MachineConfig::table6();
    let base = cycles(&w, &cfg);
    let result =
        Simulator::new(&cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &result, &cfg);
    let mut oracle = Runner::new().oracle(Backend::graph(&graph));

    println!("gzip stand-in: {base} cycles baseline\n");
    println!("resource costs (speedup if idealized):");
    for c in EventClass::ALL {
        println!(
            "  {:<6} {:>6.1}%",
            c.name(),
            oracle.cost_percent(EventSet::single(c))
        );
    }

    // Pick the cheap resources and shrink the hardware behind them.
    let lgalu = oracle.cost_percent(EventSet::single(EventClass::LongAlu));
    let imiss = oracle.cost_percent(EventSet::single(EventClass::Imiss));
    println!("\nde-optimization candidates: lgalu ({lgalu:.1}%), imiss ({imiss:.1}%)");

    let mut shrunk = cfg.clone();
    // Halve the FP/multiply hardware.
    shrunk.fu_fp_alu.count = (cfg.fu_fp_alu.count / 2).max(1);
    shrunk.fu_fp_mult.count = (cfg.fu_fp_mult.count / 2).max(1);
    shrunk.fu_int_mult.count = (cfg.fu_int_mult.count / 2).max(1);
    // Halve the instruction cache.
    shrunk.l1i.size_bytes /= 2;
    let after = cycles(&w, &shrunk);
    let delta = 100.0 * (after as f64 / base as f64 - 1.0);
    println!(
        "halved FP/mult units and halved L1I: {after} cycles ({delta:+.2}%) — \
         area and power saved{}",
        if delta.abs() < 1.0 { " for free" } else { "" }
    );

    // Control experiment: shrinking a resource that DOES matter hurts.
    let win = oracle.cost_percent(EventSet::single(EventClass::Win));
    let mut hobbled = cfg.clone();
    hobbled.rob_size /= 2;
    let worse = cycles(&w, &hobbled);
    let wdelta = 100.0 * (worse as f64 / base as f64 - 1.0);
    println!(
        "control: the window costs {win:.1}%, and halving it slows execution by {wdelta:+.1}%"
    );

    assert!(
        delta < wdelta,
        "the icost-guided shrink must hurt less than the naive one"
    );
    println!("\n=> cost-zero resources were safely de-optimized; the costly one was not.");
}
