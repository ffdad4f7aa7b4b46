//! Prefetch advisor: per-static-load cost analysis.
//!
//! The paper's introduction motivates interaction costs with software
//! prefetching: "a software prefetching optimization might consider the
//! set of events consisting of all cache misses from a single static
//! load." This example does exactly that — for every static load in an
//! mcf-like workload it idealizes *that load's* misses on the dependence
//! graph and reports the speedup, then checks pairs of the hottest loads
//! for parallel interactions (which would make prefetching only one of
//! them pointless).
//!
//! Run with: `cargo run --release --example prefetch_advisor`

use std::collections::HashMap;

use icost::CostOracle;
use uarch_graph::{DepGraph, InstIdealization};
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile};

/// Cost of idealizing "all cache misses from these static loads" (paper
/// Table 1, first row, per-PC): `t(∅)` of the graph minus `t(∅)` without them.
fn cost_of_static_loads(runner: &Runner, graph: &DepGraph, trace: &Trace, pcs: &[u64]) -> i64 {
    let ideal = graph.idealize_insts(|i, _| match trace.inst(i) {
        inst if inst.op.is_load() && pcs.contains(&inst.pc) => InstIdealization::MISSES,
        _ => InstIdealization::NONE,
    });
    let t = |g: &DepGraph| runner.oracle(Backend::graph(g)).baseline() as i64;
    t(graph) - t(&ideal)
}

fn main() {
    let w = generate(
        BenchProfile::by_name("mcf").expect("suite benchmark"),
        40_000,
        2003,
    );
    let cfg = MachineConfig::table6();
    let result =
        Simulator::new(&cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &result, &cfg);
    let runner = Runner::new();
    println!(
        "mcf stand-in: {} insts, {} cycles, {:.1}% of loads miss L1",
        w.trace.len(),
        result.cycles,
        100.0 * result.load_miss_rate().unwrap_or(0.0)
    );

    // Gather miss statistics per static load.
    let mut miss_count: HashMap<u64, u64> = HashMap::new();
    for (i, inst) in w.trace.iter().enumerate() {
        if inst.op.is_load() && result.records[i].dcache_level.is_miss() {
            *miss_count.entry(inst.pc).or_insert(0) += 1;
        }
    }
    let mut hot: Vec<(u64, u64)> = miss_count.into_iter().collect();
    hot.sort_by_key(|&(pc, c)| (std::cmp::Reverse(c), pc));
    hot.truncate(6);

    println!("\nper-static-load prefetch value (idealize that PC's misses):");
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "static pc", "misses", "cost(cyc)", "cyc/miss"
    );
    let mut costs: Vec<(u64, i64)> = Vec::new();
    for &(pc, misses) in &hot {
        let cost = cost_of_static_loads(&runner, &graph, &w.trace, &[pc]);
        println!(
            "{:#012x} {misses:>8} {cost:>10} {:>10.1}",
            pc,
            cost as f64 / misses.max(1) as f64
        );
        costs.push((pc, cost));
    }

    // Pairwise interactions of the two most valuable loads.
    costs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    if costs.len() >= 2 {
        let (a, ca) = costs[0];
        let (b, cb) = costs[1];
        let joint = cost_of_static_loads(&runner, &graph, &w.trace, &[a, b]);
        let icost = joint - ca - cb;
        println!(
            "\njoint prefetch of {a:#x} and {b:#x}: cost {joint} \
             (individual {ca} + {cb}, icost {icost})"
        );
        if icost > 10 {
            println!("=> parallel interaction: prefetch BOTH loads or see little of this gain");
        } else if icost < -10 {
            println!("=> serial interaction: prefetching one largely covers the other");
        } else {
            println!("=> independent: each prefetch pays for itself separately");
        }
    }

    // Slack view: which loads are not worth prefetching at all.
    let slack = graph.slack();
    let mut slackful = 0;
    let mut critical = 0;
    for (i, inst) in w.trace.iter().enumerate() {
        if inst.op.is_load() && result.records[i].dcache_level.is_miss() {
            if slack.slack[i] > 20 {
                slackful += 1;
            } else if slack.slack[i] == 0 {
                critical += 1;
            }
        }
    }
    println!(
        "\nslack check: {critical} missing loads are critical (prefetch candidates), \
         {slackful} have >20 cycles of slack (leave them alone)"
    );
}
