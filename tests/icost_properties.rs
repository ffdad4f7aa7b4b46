//! Property-based tests of the interaction-cost algebra and the
//! dependence-graph evaluator, over randomly generated graphs and traces.

use proptest::prelude::*;

use icost::{icost, CostOracle, GraphOracle};
use uarch_graph::{DepGraph, GraphInst, GraphParams, InstIdealization, ProducerEdge};
use uarch_runner::{Backend, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, OpClass, Reg, Trace, TraceBuilder};

/// Random per-instruction graph node data.
fn arb_graph_inst(idx: u32) -> impl Strategy<Value = GraphInst> {
    (
        0u64..3,       // dd latency
        any::<bool>(), // mispredicted
        0u64..4,       // re latency
        0u64..5,       // ep_dl1
        0u64..120,     // ep_dmiss
        0u64..3,       // ep_shalu
        0u64..13,      // ep_lgalu
        proptest::option::of(0..idx.max(1)),
        proptest::option::of(0..idx.max(1)),
    )
        .prop_map(move |(dd, misp, re, dl1, dmiss, shalu, lgalu, p0, p1)| {
            let mk = |p: Option<u32>| {
                p.filter(|_| idx > 0).map(|producer| ProducerEdge {
                    producer,
                    bubble: 0,
                    bubble_class: None,
                })
            };
            GraphInst {
                dd_latency: dd,
                mispredicted: misp,
                re_latency: re,
                ep_dl1: dl1,
                ep_dmiss: dmiss,
                ep_shalu: shalu,
                ep_lgalu: lgalu,
                ep_base: 0,
                producers: [mk(p0), mk(p1)],
                pp_producer: None,
            }
        })
}

fn arb_graph() -> impl Strategy<Value = DepGraph> {
    prop::collection::vec(0u32..1, 1..60).prop_flat_map(|v| {
        let n = v.len() as u32;
        (0..n)
            .map(arb_graph_inst)
            .collect::<Vec<_>>()
            .prop_map(move |insts| {
                DepGraph::from_parts(insts, GraphParams::from(&MachineConfig::table6()))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accounting identity (Section 2.2): the sum of the interaction
    /// costs of every non-empty subset of U equals cost(U) — exactly.
    #[test]
    fn icosts_sum_to_aggregate_cost(graph in arb_graph()) {
        let mut oracle = GraphOracle::new(&graph);
        let u = EventSet::from([
            EventClass::Dl1,
            EventClass::Dmiss,
            EventClass::Bmisp,
            EventClass::Win,
        ]);
        let total: i64 = u
            .subsets()
            .filter(|s| !s.is_empty())
            .map(|s| icost(&mut oracle, s))
            .sum();
        prop_assert_eq!(total, oracle.cost(u));
    }

    /// Graph costs are non-negative (removing latency cannot lengthen the
    /// longest path) and monotone under set inclusion.
    #[test]
    fn costs_nonnegative_and_monotone(graph in arb_graph()) {
        let mut oracle = GraphOracle::new(&graph);
        for c in EventClass::ALL {
            let single = oracle.cost(EventSet::single(c));
            prop_assert!(single >= 0, "cost({c}) = {single}");
            prop_assert!(oracle.cost(EventSet::ALL) >= single);
        }
    }

    /// Pairwise icost computed by the generic Möbius form agrees with the
    /// textbook formula.
    #[test]
    fn pair_icost_matches_formula(graph in arb_graph()) {
        let mut oracle = GraphOracle::new(&graph);
        let a = EventSet::single(EventClass::Dmiss);
        let b = EventSet::single(EventClass::Bmisp);
        let by_def = oracle.cost(a.union(b)) - oracle.cost(a) - oracle.cost(b);
        prop_assert_eq!(icost(&mut oracle, a.union(b)), by_def);
    }

    /// Idealizing an event on every instruction is idealizing its class:
    /// `t(∅)` with every instruction's misses idealized is `t({dmiss})`,
    /// and with every misprediction idealized `t({bmisp})` — directly and
    /// through the runner's graph backend.
    #[test]
    fn idealizing_every_inst_is_idealizing_the_class(graph in arb_graph()) {
        let runner = Runner::new();
        for (what, class) in [
            (InstIdealization::MISSES, EventClass::Dmiss),
            (InstIdealization::MISPREDICT, EventClass::Bmisp),
        ] {
            let set = EventSet::single(class);
            let ideal = graph.idealize_insts(|_, _| what);
            prop_assert_eq!(ideal.evaluate(EventSet::EMPTY), graph.evaluate(set));
            let mut oracle = runner.oracle(Backend::graph(&graph));
            let class_t = oracle.baseline() as i64 - oracle.cost(set);
            let inst_t = runner.oracle(Backend::graph(&ideal)).baseline();
            prop_assert_eq!(inst_t as i64, class_t, "{}", class);
        }
    }

    /// Node times are monotone within an instruction (D <= R <= E <= P <=
    /// C) and dispatch/commit are monotone across instructions, under any
    /// idealization.
    #[test]
    fn node_times_well_ordered(graph in arb_graph(), bits in 0u8..=255) {
        let ideal: EventSet = EventClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        let times = graph.node_times(ideal);
        let mut prev_d = 0;
        let mut prev_c = 0;
        for t in &times {
            prop_assert!(t.d <= t.r && t.r <= t.e && t.e <= t.p && t.p <= t.c);
            prop_assert!(t.d >= prev_d);
            prop_assert!(t.c >= prev_c);
            prev_d = t.d;
            prev_c = t.c;
        }
    }

    /// The critical-path walk attributes exactly the baseline length
    /// (anchor + edges).
    #[test]
    fn critical_path_accounts_for_total(graph in arb_graph()) {
        let s = graph.critical_path(EventSet::EMPTY);
        prop_assert_eq!(
            s.attributed() + graph.params().front_end_depth,
            s.total
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The algebra holds on the runner's graph backend over an ensemble
    /// of graphs (a shotgun profile's shape): `cost(∅) = 0`, the Möbius
    /// identity, and every answer is the direct per-graph sum
    /// `Σ_g (t_g(∅) − t_g(S))`, across more lane groups than one sweep
    /// holds.
    #[test]
    fn ensemble_backend_keeps_the_algebra(
        graphs in prop::collection::vec(arb_graph(), 1..=4),
    ) {
        let mut oracle = Runner::new().oracle(Backend::profile(&graphs));
        prop_assert_eq!(oracle.cost(EventSet::EMPTY), 0);
        let every: Vec<EventSet> = EventSet::ALL.subsets().collect();
        oracle.prefetch(&every);
        for &s in &every {
            let direct: i64 = graphs
                .iter()
                .map(|g| g.evaluate(EventSet::EMPTY) as i64 - g.evaluate(s) as i64)
                .sum();
            prop_assert_eq!(oracle.cost(s), direct, "set {}", s);
        }
        let u = EventSet::from([
            EventClass::Dl1,
            EventClass::Dmiss,
            EventClass::Bmisp,
            EventClass::Win,
        ]);
        let total: i64 = u
            .subsets()
            .filter(|s| !s.is_empty())
            .map(|s| icost(&mut oracle, s))
            .sum();
        prop_assert_eq!(total, oracle.cost(u));
    }
}

/// A random but *valid* dynamic trace: straight-line code with arbitrary
/// op/operand choices.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u8..7, 0u8..20, 0u8..20, 0u64..1 << 18), 1..120).prop_map(|ops| {
        let mut b = TraceBuilder::new();
        for (kind, dst_n, src_n, addr) in ops {
            let dst = Reg::int(dst_n + 1);
            let src = Reg::int(src_n + 1);
            match kind {
                0 | 1 => {
                    b.alu(dst, &[src]);
                }
                2 => {
                    b.load(dst, 0x1000_0000 + addr * 8);
                }
                3 => {
                    b.store(src, 0x1800_0000 + addr * 8);
                }
                4 => {
                    b.op(OpClass::IntMult, Some(dst), &[src]);
                }
                5 => {
                    b.op(OpClass::FpDiv, Some(Reg::fp(dst_n % 20)), &[]);
                }
                _ => {
                    b.nops(1);
                }
            }
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulator invariants hold on arbitrary valid traces, and the graph
    /// built from the run reproduces the simulator's critical path within
    /// a tight bound.
    #[test]
    fn simulator_and_graph_agree_on_random_traces(trace in arb_trace()) {
        let cfg = MachineConfig::table6();
        let result = Simulator::new(&cfg).run(&trace, Idealization::none());
        prop_assert!(result.check_invariants(&trace).is_ok());
        let graph = DepGraph::build(&trace, &result, &cfg);
        let gbase = graph.evaluate(EventSet::EMPTY);
        let sim = result.cycles as f64;
        prop_assert!(
            (gbase as f64 - sim).abs() / sim < 0.10,
            "graph {} vs sim {}",
            gbase,
            result.cycles
        );
    }

    /// Idealizing everything is at least as fast as idealizing anything.
    #[test]
    fn full_idealization_dominates(trace in arb_trace(), bits in 0u8..=255) {
        let cfg = MachineConfig::table6();
        let sim = Simulator::new(&cfg);
        let ideal: EventSet = EventClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        let some = sim.cycles(&trace, Idealization::from(ideal));
        let all = sim.cycles(&trace, Idealization::all());
        prop_assert!(all <= some, "all {} vs {} {}", all, ideal, some);
    }
}
