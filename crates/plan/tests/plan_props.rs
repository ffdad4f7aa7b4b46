//! Property tests pinning the planner's two safety guarantees:
//!
//! 1. **Exactness** — every auto answer served from the `cache` or
//!    `sim` rung is bit-identical to `Runner::run_warmed` ground truth,
//!    on arbitrary traces and query sets.
//! 2. **No silent graph answers** — an uncalibrated planner never
//!    serves from the graph; once calibrated, whatever it still serves
//!    from an exact rung stays ground truth.

use proptest::prelude::*;
use uarch_graph::DepGraph;
use uarch_plan::{PlanProvenance, Planner};
use uarch_runner::{Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder, WarmSet};

/// Build a trace from a script of `(opcode, value)` pairs (same
/// generator the runner equivalence suite uses: reaches misses, hits,
/// dependent ALU work, stores, and mispredicted branches).
fn build_trace(script: &[(u8, u64)]) -> Trace {
    let mut b = TraceBuilder::new();
    for &(op, v) in script {
        match op % 5 {
            0 => b.load(Reg::int(1 + (v % 4) as u8), 0x10_0000 + v * 4096),
            1 => b.load(Reg::int(1 + (v % 4) as u8), 0x1000 + (v % 64) * 8),
            2 => b.alu(Reg::int((v % 8) as u8), &[Reg::int(((v + 1) % 8) as u8)]),
            3 => b.store(Reg::int(1 + (v % 4) as u8), 0x2000 + (v % 32) * 8),
            _ => {
                let target = b.pc() + 64;
                b.branch(Reg::int(1 + (v % 4) as u8), v % 3 == 0, target)
            }
        };
    }
    b.alu(Reg::int(1), &[]);
    b.finish()
}

/// Up to three distinct classes out of all eight.
fn event_set(picks: &[u8]) -> EventSet {
    picks
        .iter()
        .map(|&p| EventClass::ALL[(p % 8) as usize])
        .collect()
}

/// A mixed query batch over `u` and its pieces.
fn batch(u: EventSet) -> Vec<Query> {
    let mut queries = vec![Query::Cost(u), Query::Icost(u)];
    let singles: Vec<EventSet> = u.iter().map(EventSet::single).collect();
    for &s in &singles {
        queries.push(Query::Cost(s));
    }
    if singles.len() >= 2 {
        queries.push(Query::IcostOfUnits(singles));
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold planner, arbitrary workload: with no residual history every
    /// answer must come from an exact rung (cache or sim), claim full
    /// confidence, and match ground-truth re-simulation bit for bit.
    #[test]
    fn uncalibrated_auto_answers_are_exact(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..24),
        picks in prop::collection::vec(0u8..8, 1..4),
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let queries = batch(event_set(&picks));
        let cold = WarmSet::new();

        let runner = Runner::new().with_threads(2);
        let baseline = Simulator::new(&cfg).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &baseline, &cfg);
        let (planned, _) = Planner::new(&runner, &cfg, &trace, &cold, &cold, &graph).plan(&queries);

        // Ground truth from an independent runner (fresh cache), so the
        // comparison cannot be satisfied by shared state.
        let truth_runner = Runner::new().with_threads(2);
        let (truth, _) = truth_runner.run_warmed(&cfg, &trace, &cold, &cold, &queries);

        prop_assert_eq!(planned.len(), truth.len());
        for (p, &t) in planned.iter().zip(&truth) {
            prop_assert!(
                matches!(p.provenance, PlanProvenance::Cache | PlanProvenance::Sim),
                "uncalibrated planner served {:?}", p.provenance
            );
            prop_assert_eq!(p.value, t, "exact rung diverged from run_warmed");
            prop_assert!((p.confidence - 1.0).abs() < 1e-12);
        }
    }

    /// Calibrated planner, arbitrary workload: once the pair holds the
    /// minimum residual history (one sample per class, 8), the graph
    /// rung may serve, but every answer from the cache or sim rung is
    /// still bit-identical to `run_warmed` ground truth.
    #[test]
    fn calibrated_exact_rungs_match_run_warmed(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..24),
        picks in prop::collection::vec(0u8..8, 1..4),
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let queries = batch(event_set(&picks));
        let cold = WarmSet::new();

        let runner = Runner::new().with_threads(2);
        let baseline = Simulator::new(&cfg).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &baseline, &cfg);
        let mut planner = Planner::new(&runner, &cfg, &trace, &cold, &cold, &graph);
        let singles: Vec<EventSet> = EventClass::ALL.iter().copied().map(EventSet::single).collect();
        planner.calibrate(&singles);
        prop_assert!(planner.fitted_tolerance().is_some(), "calibrated");

        let (planned, _) = planner.plan(&queries);
        let truth_runner = Runner::new().with_threads(2);
        let (truth, _) = truth_runner.run_warmed(&cfg, &trace, &cold, &cold, &queries);
        prop_assert_eq!(planned.len(), truth.len());
        for (p, &t) in planned.iter().zip(&truth) {
            if p.provenance != PlanProvenance::Graph {
                prop_assert_eq!(p.value, t, "exact rung diverged from run_warmed");
                prop_assert!((p.confidence - 1.0).abs() < 1e-12);
            }
        }
    }
}
