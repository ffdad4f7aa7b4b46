//! Property tests pinning the planner's two safety guarantees:
//!
//! 1. **Exactness** — every auto answer served from the `cache` or
//!    `sim` rung is bit-identical to `Runner::run_warmed` ground truth,
//!    on arbitrary traces and query sets.
//! 2. **No silent graph answers** — an uncalibrated planner never
//!    serves from the graph, and a confidence threshold above 1 forces
//!    every graph answer to escalate even when fully calibrated.

use proptest::prelude::*;
use uarch_graph::DepGraph;
use uarch_plan::{PlanConfig, PlanProvenance, Planner};
use uarch_runner::{Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder};

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

        let runner = Runner::new().with_threads(2);
        let baseline = Simulator::new(&cfg).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &baseline, &cfg);
        let (planned, _) = Planner::new(&runner, &cfg, &trace, &[], &[], &graph).plan(&queries);

        // Ground truth from an independent runner (fresh cache), so the
        // comparison cannot be satisfied by shared state.
        let truth_runner = Runner::new().with_threads(2);
        let (truth, _) = truth_runner.run_warmed(&cfg, &trace, &[], &[], &queries);

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

    /// Forced-low-confidence regime: a threshold above 1 makes every
    /// graph score insufficient, so even a *calibrated* planner must
    /// escalate everything — no graph answer may slip through — and the
    /// escalated answers are still ground truth.
    #[test]
    fn threshold_above_one_never_serves_graph(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..24),
        picks in prop::collection::vec(0u8..8, 1..4),
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let u = event_set(&picks);
        let queries = batch(u);

        let runner = Runner::new().with_threads(2);
        let baseline = Simulator::new(&cfg).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &baseline, &cfg);
        let mut planner = Planner::new(&runner, &cfg, &trace, &[], &[], &graph)
            .with_config(PlanConfig {
                confidence_threshold: 1.1,
                min_samples: 1,
                ..PlanConfig::default()
            });
        // Calibrate on the singletons so the Uncalibrated rule is NOT
        // what forces escalation — the threshold alone must do it.
        let singles: Vec<EventSet> = u.iter().map(EventSet::single).collect();
        planner.calibrate(&singles);
        prop_assert!(planner.fitted_tolerance().is_some(), "calibrated");

        let (planned, _) = planner.plan(&queries);
        let truth_runner = Runner::new().with_threads(2);
        let (truth, _) = truth_runner.run_warmed(&cfg, &trace, &[], &[], &queries);
        for (p, &t) in planned.iter().zip(&truth) {
            prop_assert!(
                p.provenance != PlanProvenance::Graph,
                "threshold > 1 must force escalation, got graph answer"
            );
            prop_assert_eq!(p.value, t);
        }
    }
}
