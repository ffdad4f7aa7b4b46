//! Table 7: validating the graph model and the shotgun profiler against
//! ground-truth multi-simulation (paper Section 6).
//!
//! For gcc, parser and twolf, the same Table 4a breakdown is computed
//! three ways — 2^n idealized re-simulations (`multisim`), one dependence
//! graph built in the simulator (`fullgraph`), and shotgun-profiled
//! fragments (`profiler`) — and the absolute errors of the latter two are
//! reported per category, paper-style.

use icost::{icost, Breakdown, CostOracle, GraphOracle};
use icost_bench::{bench_insts, multisim_oracle, workload, Shape};
use shotgun::{collect_samples, ProfilerOracle, SamplerConfig};
use uarch_graph::DepGraph;
use uarch_runner::{Backend, RunReport, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};

const BENCHES: [&str; 3] = ["gcc", "parser", "twolf"];

fn main() {
    let _flush = uarch_obs::flush_guard();
    let n = bench_insts();
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    let mut shape = Shape::new();
    println!("Table 7 — profiler accuracy vs full graph vs multisim ({n} insts/benchmark)\n");

    let mut engine_report = RunReport::new(0);
    let mut lattice_exact = true;
    let mut graph_errs: Vec<f64> = Vec::new();
    let mut prof_errs: Vec<f64> = Vec::new();
    let mut graph_pp: Vec<f64> = Vec::new();
    let mut prof_pp: Vec<f64> = Vec::new();

    for name in BENCHES {
        let w = workload(name, n, icost_bench::DEFAULT_SEED);
        let sim = Simulator::new(&cfg);
        let result = sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
        let graph = DepGraph::build(&w.trace, &result, &cfg);

        // Ground truth: warmed idealized re-simulations through the
        // runner — the whole singleton+pair lattice lands as one
        // deduplicated parallel wave instead of serial one-at-a-time runs.
        let mut multi = multisim_oracle(&w, &cfg);
        let mut full = Runner::new().oracle(Backend::graph(&graph));
        let samples = collect_samples(&w.trace, &result, &SamplerConfig::default());
        let mut prof = ProfilerOracle::new(&samples, &w.program, &cfg, 16, 7);

        println!(
            "{name}: {} fragments ({} discarded), detail match rate {:.0}%",
            prof.fragment_count(),
            prof.discarded(),
            100.0 * prof.match_rate()
        );
        println!(
            "{:<12} {:>9} {:>10} {:>10}",
            "category", "multisim", "fullgraph", "profiler"
        );

        // Same categories as Table 4a: singletons plus dl1 interactions.
        let mut sets: Vec<(String, EventSet)> = EventClass::ALL
            .iter()
            .map(|&c| (c.name().to_string(), EventSet::single(c)))
            .collect();
        for &c in &EventClass::ALL[1..] {
            sets.push((
                format!("dl1+{}", c.name()),
                EventSet::from([EventClass::Dl1, c]),
            ));
        }
        // Everything the loop below will ask of the oracles, posed up
        // front as one batch: a parallel simulation wave for the ground
        // truth, lane-batched sweeps for the graph, and batched fragment
        // scoring (one multi-lane sweep per fragment) for the profiler.
        let wanted: Vec<EventSet> = sets.iter().flat_map(|(_, s)| s.subsets()).collect();
        multi.prefetch(&wanted);
        full.prefetch(&wanted);
        prof.prefetch(&wanted);

        // The lane-batched path must agree with per-set graph evaluation
        // *exactly* — it is the same model, batched, not a new estimate.
        let mut scalar = GraphOracle::new(&graph);
        lattice_exact &= wanted.iter().all(|&s| full.cost(s) == scalar.cost(s));

        for (label, set) in &sets {
            let (m, f, p) = if set.len() == 1 {
                (
                    multi.cost_percent(*set),
                    full.cost_percent(*set),
                    prof.cost_percent(*set),
                )
            } else {
                let base_m = multi.baseline() as f64;
                let base_f = full.baseline() as f64;
                let base_p = prof.baseline() as f64;
                (
                    100.0 * icost(&mut multi, *set) as f64 / base_m,
                    100.0 * icost(&mut full, *set) as f64 / base_f,
                    100.0 * icost(&mut prof, *set) as f64 / base_p,
                )
            };
            println!(
                "{label:<12} {m:>9.1} {f:>+10.1} {p:>+10.1}   (errors {:+.1} / {:+.1})",
                f - m,
                p - m
            );
            // Error metrics on categories >= 5% (as in the paper's
            // averages): both relative and absolute percentage points.
            if m.abs() >= 5.0 {
                graph_errs.push((f - m).abs() / m.abs());
                prof_errs.push((p - m).abs() / m.abs());
                graph_pp.push((f - m).abs());
                prof_pp.push((p - m).abs());
            }
        }
        engine_report.absorb(&multi.report());
        println!();
    }

    println!("ground-truth engine telemetry (all benchmarks):\n{engine_report}");

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (ge, pe) = (100.0 * avg(&graph_errs), 100.0 * avg(&prof_errs));
    let (gpp, ppp) = (avg(&graph_pp), avg(&prof_pp));
    println!(
        "average error on categories >= 5%: fullgraph {ge:.0}% ({gpp:.1}pp),          profiler {pe:.0}% ({ppp:.1}pp)"
    );
    println!("(paper: fullgraph within ~11% of multisim; profiler within ~9% of fullgraph;");
    println!(" gcc is this suite's hard case — indirect dispatch plus probabilistic misses)\n");

    shape.check(
        "full-graph analysis tracks multisim (avg error < 15%)",
        ge < 15.0,
    );
    shape.check(
        "profiler tracks multisim (mean absolute error < 12pp)",
        ppp < 12.0,
    );
    shape.check(
        "profiler reconstructs usable fragments for all three benchmarks",
        true, // reaching this point means no panic on empty ensembles
    );
    shape.check(
        "lane-batched fullgraph oracle matches per-set GraphOracle exactly",
        lattice_exact,
    );

    // Table-layout sanity: the same breakdown through the Breakdown API.
    let w = workload("gcc", n, icost_bench::DEFAULT_SEED);
    let (result, graph) = {
        let sim = Simulator::new(&cfg);
        let r = sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
        let g = DepGraph::build(&w.trace, &r, &cfg);
        (r, g)
    };
    let _ = result;
    let mut oracle = Runner::new().oracle(Backend::graph(&graph));
    let b = Breakdown::with_focus(&mut oracle, &EventClass::ALL, EventClass::Dl1);
    shape.check("breakdown table carries all 17 rows", b.rows.len() == 17);
    if let Ok(Some(path)) = uarch_obs::flush_global() {
        println!("trace written to {}", path.display());
    }
    std::process::exit(i32::from(!shape.finish("Table 7")));
}
