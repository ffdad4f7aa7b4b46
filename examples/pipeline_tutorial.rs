//! The Section 4 tutorial: optimizing a long pipeline with interaction
//! costs.
//!
//! Walks the paper's three critical loops — the level-one data-cache
//! access loop, the issue-wakeup loop, and the branch-misprediction loop —
//! on a synthetic `vortex` workload, and derives the same design guidance:
//! a serial interaction means attacking either side helps; a parallel
//! interaction means both must be attacked together.
//!
//! Run with: `cargo run --release --example pipeline_tutorial`

use icost::Breakdown;
use uarch_graph::DepGraph;
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile, Workload};

fn breakdown(w: &Workload, cfg: &MachineConfig, focus: EventClass) -> Breakdown {
    let result =
        Simulator::new(cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &result, cfg);
    let mut oracle = Runner::new().oracle(Backend::graph(&graph));
    Breakdown::with_focus(&mut oracle, &EventClass::ALL, focus)
}

fn interpret(b: &Breakdown, focus: &str, other: &str) {
    let label = format!("{focus}+{other}");
    let Some(pct) = b.percent(&label) else { return };
    let verdict = if pct < -0.5 {
        format!(
            "serial: improving {other} also hides the {focus} loop — attack whichever is cheaper"
        )
    } else if pct > 0.5 {
        format!("parallel: only improving {focus} AND {other} together recovers these cycles")
    } else {
        format!("independent: optimize {focus} and {other} separately")
    };
    println!("  {label:<12} {pct:+6.1}%  -> {verdict}");
}

fn main() {
    let w = generate(
        BenchProfile::by_name("vortex").expect("suite benchmark"),
        60_000,
        2003,
    );

    // --- Loop 1: the level-one data-cache access loop (Section 4.1). ---
    // Circuit constraints forced a 4-cycle L1 access. What mitigates it?
    println!("== the level-one data-cache loop (L1 latency forced to 4 cycles) ==");
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let b = breakdown(&w, &cfg, EventClass::Dl1);
    println!(
        "dl1 costs {:.1}% of execution; its interactions:",
        b.percent("dl1").unwrap_or(0.0)
    );
    for other in ["win", "bw", "bmisp", "dmiss", "shalu"] {
        interpret(&b, "dl1", other);
    }
    println!("=> the strongest serial partner is the instruction window: growing it");
    println!("   hides the slow cache — confirmed by the Figure 3 sensitivity study.\n");

    // --- Loop 2: the issue-wakeup loop (Section 4.2). ---
    println!("== the issue-wakeup loop (2-cycle wakeup) ==");
    let cfg = MachineConfig::table6().with_issue_wakeup(2);
    let b = breakdown(&w, &cfg, EventClass::ShortAlu);
    println!(
        "shalu costs {:.1}% of execution; its interactions:",
        b.percent("shalu").unwrap_or(0.0)
    );
    for other in ["win", "bw", "bmisp", "dl1"] {
        interpret(&b, "shalu", other);
    }
    println!();

    // --- Loop 3: the branch-misprediction loop (Section 4.2). ---
    println!("== the branch-misprediction loop (15-cycle recovery) ==");
    let cfg = MachineConfig::table6().with_misp_loop(15);
    let b = breakdown(&w, &cfg, EventClass::Bmisp);
    println!(
        "bmisp costs {:.1}% of execution; its interactions:",
        b.percent("bmisp").unwrap_or(0.0)
    );
    for other in ["win", "dmiss", "dl1"] {
        interpret(&b, "bmisp", other);
    }
    println!("=> unlike the other loops, bmisp+win is parallel: a bigger window");
    println!("   cannot hide misprediction recovery — both must be attacked.\n");

    // --- The Figure 2 view: node times of one dynamic snippet. ---
    println!("== dependence-graph node times for the first loop iterations ==");
    let cfg = MachineConfig::table6();
    let result =
        Simulator::new(&cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &result, &cfg);
    let times = graph.node_times(EventSet::EMPTY);
    println!(
        "{:<5} {:<6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "#", "op", "D", "R", "E", "P", "C"
    );
    for (i, t) in times.iter().enumerate().take(12) {
        println!(
            "{:<5} {:<6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            i,
            w.trace.inst(i).op.to_string(),
            t.d,
            t.r,
            t.e,
            t.p,
            t.c
        );
    }
    let crit = graph.critical_path(EventSet::EMPTY);
    println!("\ncritical-path composition (cycles per edge class):");
    for (kind, cycles, _count) in crit.iter() {
        if cycles > 0 {
            println!(
                "  {kind:<4} {cycles:>8} ({:.1}%)",
                100.0 * crit.fraction(kind)
            );
        }
    }
}
