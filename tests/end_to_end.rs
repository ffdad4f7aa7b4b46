//! End-to-end integration: workload generation → simulation → dependence
//! graph → interaction-cost analysis → shotgun profiling, across crates.

use icost::{icost, Breakdown, CostOracle, GraphOracle, Interaction, MultiSimOracle};
use shotgun::{collect_samples, Profile, SamplerConfig};
use uarch_graph::DepGraph;
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, parallel_misses, serial_misses_parallel_alu, BenchProfile};

fn observe(w: &uarch_workloads::Workload, cfg: &MachineConfig) -> (uarch_sim::SimResult, DepGraph) {
    let r =
        Simulator::new(cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let g = DepGraph::build(&w.trace, &r, cfg);
    (r, g)
}

#[test]
fn whole_pipeline_runs_for_every_benchmark() {
    let cfg = MachineConfig::table6();
    for p in BenchProfile::suite() {
        let w = generate(p, 8_000, 5);
        let (r, g) = observe(&w, &cfg);
        r.check_invariants(&w.trace)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let mut oracle = GraphOracle::new(&g);
        let b = Breakdown::with_focus(&mut oracle, &EventClass::ALL, EventClass::Dl1);
        assert_eq!(b.rows.len(), 17, "{}", p.name);
        assert!(b.total_cycles > 0, "{}", p.name);
    }
}

#[test]
fn graph_baseline_matches_simulator_closely() {
    let cfg = MachineConfig::table6();
    for name in ["gcc", "vortex", "mcf", "gzip"] {
        let w = generate(BenchProfile::by_name(name).expect("known"), 20_000, 7);
        let (r, g) = observe(&w, &cfg);
        let gbase = g.evaluate(EventSet::EMPTY);
        let err = (gbase as f64 - r.cycles as f64).abs() / r.cycles as f64;
        assert!(
            err < 0.05,
            "{name}: graph {gbase} vs sim {} ({:.1}% off)",
            r.cycles,
            100.0 * err
        );
    }
}

#[test]
fn graph_costs_track_multisim_costs() {
    let cfg = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("twolf").expect("known"), 15_000, 3);
    // Unwarmed on both sides so the oracles see the same machine state.
    let trace = &w.trace;
    let result = Simulator::new(&cfg).run(trace, Idealization::none());
    let graph = DepGraph::build(trace, &result, &cfg);
    let mut go = GraphOracle::new(&graph);
    let mut mo = MultiSimOracle::new(&cfg, trace);
    for c in [EventClass::Dmiss, EventClass::Bmisp, EventClass::Win] {
        let s = EventSet::single(c);
        let (gp, mp) = (go.cost_percent(s), mo.cost_percent(s));
        assert!(
            (gp - mp).abs() < 6.0,
            "{c}: graph {gp:.1}% vs multisim {mp:.1}%"
        );
    }
}

#[test]
fn canonical_kernels_show_expected_interactions() {
    let cfg = MachineConfig::table6();

    // Parallel misses: dmiss cost dominated by overlap.
    let t = parallel_misses(150);
    let r = Simulator::new(&cfg).run(&t, Idealization::none());
    let g = DepGraph::build(&t, &r, &cfg);
    let mut o = GraphOracle::new(&g);
    assert!(o.cost(EventSet::single(EventClass::Dmiss)) > 0);

    // Serial kernel: negative dmiss×shalu interaction, agreed by both
    // oracles.
    let t = serial_misses_parallel_alu(60, 110);
    let r = Simulator::new(&cfg).run(&t, Idealization::none());
    let g = DepGraph::build(&t, &r, &cfg);
    let mut graph_oracle = GraphOracle::new(&g);
    let mut sim_oracle = MultiSimOracle::new(&cfg, &t);
    let pair = EventSet::from([EventClass::Dmiss, EventClass::ShortAlu]);
    let gi = icost(&mut graph_oracle, pair);
    let si = icost(&mut sim_oracle, pair);
    assert_eq!(
        Interaction::classify(gi, 20),
        Interaction::Serial,
        "graph {gi}"
    );
    assert_eq!(
        Interaction::classify(si, 20),
        Interaction::Serial,
        "sim {si}"
    );
}

#[test]
fn profiler_matches_fullgraph_on_dominant_category() {
    let cfg = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("mcf").expect("known"), 25_000, 9);
    let (r, g) = observe(&w, &cfg);
    let samples = collect_samples(&w.trace, &r, &SamplerConfig::default());
    let profile = Profile::new(&samples, &w.program, &cfg, 12, 3);
    let runner = Runner::new();
    let mut prof = runner.oracle(Backend::profile(profile.graphs()));
    let mut full = runner.oracle(Backend::graph(&g));
    let dmiss = EventSet::single(EventClass::Dmiss);
    let (pp, fp) = (prof.cost_percent(dmiss), full.cost_percent(dmiss));
    assert!(
        (pp - fp).abs() < 15.0,
        "profiler {pp:.1}% vs fullgraph {fp:.1}%"
    );
    assert!(pp > 40.0, "mcf must remain dmiss-dominated: {pp:.1}%");
}

#[test]
fn breakdown_other_balances_to_total() {
    let cfg = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("gap").expect("known"), 10_000, 2);
    let (_, g) = observe(&w, &cfg);
    let mut oracle = GraphOracle::new(&g);
    let b = Breakdown::with_focus(&mut oracle, &EventClass::ALL, EventClass::Dl1);
    let shown: f64 = b
        .rows
        .iter()
        .filter(|r| r.label != "Total")
        .map(|r| r.percent)
        .sum();
    assert!((shown - 100.0).abs() < 1e-6, "rows sum to {shown}");
}

#[test]
fn warmup_reduces_cold_start_misses() {
    let cfg = MachineConfig::table6();
    let w = generate(BenchProfile::by_name("crafty").expect("known"), 10_000, 4);
    let sim = Simulator::new(&cfg);
    let cold = sim.run(&w.trace, Idealization::none());
    let warm = sim.run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    assert!(warm.cycles < cold.cycles);
    assert!(warm.counts.l1i_misses < cold.counts.l1i_misses);
    assert!(warm.counts.l1d_load_misses < cold.counts.l1d_load_misses);
}

#[test]
fn loop_knobs_change_performance_in_the_right_direction() {
    let w = generate(BenchProfile::by_name("gzip").expect("known"), 10_000, 6);
    let run = |cfg: &MachineConfig| {
        Simulator::new(cfg).cycles_warmed(
            &w.trace,
            Idealization::none(),
            &w.warm_data,
            &w.warm_code,
        )
    };
    let base = run(&MachineConfig::table6());
    assert!(run(&MachineConfig::table6().with_dl1_latency(4)) > base);
    assert!(run(&MachineConfig::table6().with_issue_wakeup(2)) > base);
    assert!(run(&MachineConfig::table6().with_misp_loop(15)) > base);
    assert!(run(&MachineConfig::table6().with_window(128)) <= base);
}
