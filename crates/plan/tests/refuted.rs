//! The audit→planner feedback rule: once the attribution auditor
//! refutes a context pair, the planner must not serve graph answers
//! for it — every non-cache query is forced onto the sim rung with
//! `audit_refuted` as the ledgered reason — even when the pair is
//! otherwise fully calibrated and would have been trusted.

use uarch_graph::DepGraph;
use uarch_plan::{PlanConfig, PlanProvenance, PlanReason, Planner};
use uarch_runner::{Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, TraceBuilder};

#[test]
fn refuted_contexts_force_ground_truth() {
    let mut b = TraceBuilder::new();
    for k in 0..30u64 {
        b.load(Reg::int(1), 0x10_0000 + k * 4096);
        b.alu(Reg::int(2), &[Reg::int(1)]);
    }
    let trace = b.finish();
    let config = MachineConfig::table6();
    let baseline = Simulator::new(&config).run(&trace, Idealization::none());
    let graph = DepGraph::build(&trace, &baseline, &config);
    let runner = Runner::new();
    let mut planner =
        Planner::new(&runner, &config, &trace, &[], &[], &graph).with_config(PlanConfig {
            min_samples: 1,
            ..PlanConfig::default()
        });

    // Calibrate so the pair would normally be eligible for graph serving.
    let d = EventSet::single(EventClass::Dmiss);
    planner.calibrate(&[d]);
    assert!(planner.fitted_tolerance().is_some(), "pair is calibrated");

    let (sim_ctx, graph_ctx) = planner.contexts();
    planner
        .calibrator()
        .mark_refuted(&sim_ctx.to_string(), &graph_ctx.to_string());

    // A big-magnitude cost on an uncached set would clear the
    // confidence bar; refutation must override that.
    let queries = [Query::Cost(EventSet::from([
        EventClass::Dmiss,
        EventClass::Bmisp,
    ]))];
    let (answers, _) = planner.plan(&queries);
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].provenance, PlanProvenance::Sim);
    assert_eq!(answers[0].reason, PlanReason::AuditRefuted);
    assert_eq!(answers[0].confidence, 1.0, "sim answers are exact");

    // The forced answer is bit-identical to plain ground truth.
    let (truth, _) = runner.run(&config, &trace, &queries);
    assert_eq!(answers[0].value, truth[0]);

    // The escalation is counted under its own metric family.
    let snap = planner.metrics().snapshot();
    assert_eq!(snap.counter("plan.escalate.audit_refuted"), 1);
    assert_eq!(snap.counter("plan.answers.sim"), 1);
}
