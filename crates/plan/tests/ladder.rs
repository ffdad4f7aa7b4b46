//! The escalation ladder against the all-sim backend on a repeated
//! table7-style sweep over gcc: every singleton `cost` plus every
//! pairwise `icost`, three times, then unseen triple-class `cost`
//! queries.
//!
//! The auto backend pays ground truth once. Round 1 is fully escalated
//! (the planner is uncalibrated), which simulates every set and
//! calibrates the graph residuals; rounds 2-3 are answered from cached
//! ground truth; the wide phase is served from the calibrated graph.
//! The sim backend replays the same stream through a fresh runner per
//! round, which is what a caller without the planner pays.
//!
//! Lives in its own integration binary because it installs the
//! process-wide ledger.

use uarch_graph::DepGraph;
use uarch_obs::ledger::{install_global, parse_ledger, Ledger};
use uarch_plan::{PlanProvenance, Planner};
use uarch_runner::{Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile};

const ROUNDS: usize = 3;

/// 8 singleton costs + 28 pairwise icosts.
fn base_queries() -> Vec<Query> {
    let classes = EventClass::ALL;
    let mut queries: Vec<Query> = classes
        .iter()
        .map(|&c| Query::Cost(EventSet::single(c)))
        .collect();
    for i in 0..classes.len() {
        for j in (i + 1)..classes.len() {
            queries.push(Query::Icost(EventSet::from([classes[i], classes[j]])));
        }
    }
    queries
}

/// Unseen triple-class costs over the classes the graph models well
/// (resource classes always escalate, so they prove nothing about
/// graph serving).
fn wide_queries() -> Vec<Query> {
    let good: Vec<EventClass> = EventClass::ALL
        .into_iter()
        .filter(|&c| c != EventClass::Win && c != EventClass::Bw)
        .collect();
    let mut queries = Vec::new();
    for i in 0..good.len() {
        for j in (i + 1)..good.len() {
            for k in (j + 1)..good.len() {
                queries.push(Query::Cost(EventSet::from([good[i], good[j], good[k]])));
            }
        }
    }
    queries
}

#[test]
fn auto_backend_pays_ground_truth_once_and_serves_wide_queries_from_the_graph() {
    let ledger = Ledger::in_memory();
    assert!(
        install_global(ledger.clone()),
        "another ledger was installed first in this process"
    );
    let cfg = MachineConfig::table6();
    let w = generate(
        BenchProfile::by_name("gcc").expect("suite profile"),
        2_000,
        2003,
    );
    let (trace, wd, wc) = (&w.trace, &w.warm_data, &w.warm_code);
    let result = Simulator::new(&cfg).run_warmed(trace, Idealization::none(), wd, wc);
    let graph = DepGraph::build(trace, &result, &cfg);
    let (base, wide) = (base_queries(), wide_queries());

    // Auto backend: one long-lived planner on a private runner cache.
    let auto_runner = Runner::new();
    let mut planner = Planner::new(&auto_runner, &cfg, trace, wd, wc, &graph);
    let rounds: Vec<_> = (0..ROUNDS).map(|_| planner.plan(&base)).collect();
    let (wide_answers, _) = planner.plan(&wide);
    let auto_sims = planner
        .metrics()
        .snapshot()
        .counter("plan.ground_truth_sims");
    let text = ledger.buffered_text().expect("in-memory ledger");
    ledger.set_enabled(false);

    // Sim backend and ground truth: a fresh runner (fresh cache) per
    // batch, so no answer is satisfied by state the planner paid for.
    let sim = |queries: &[Query]| Runner::new().run_warmed(&cfg, trace, wd, wc, queries);
    let sim_sims = ROUNDS as u64 * sim(&base).1.sims_run + sim(&wide).1.sims_run;
    let (base_truth, _) = sim(&base);
    let (wide_truth, _) = sim(&wide);

    let (first, first_report) = &rounds[0];
    assert!(
        first.iter().all(|a| a.provenance == PlanProvenance::Sim) && first_report.sims_run > 0,
        "uncalibrated round 1 escalates every query to ground truth"
    );
    for (answers, report) in &rounds[1..] {
        assert_eq!(report.sims_run, 0, "repeat rounds run no sims");
        assert!(
            answers
                .iter()
                .all(|a| a.provenance == PlanProvenance::Cache),
            "repeat rounds are answered entirely from cached ground truth"
        );
    }
    for (answers, _) in &rounds {
        for (a, &t) in answers.iter().zip(&base_truth) {
            assert_eq!(a.value, t, "cache/sim answers are bit-identical");
            assert!((a.confidence - 1.0).abs() < 1e-12, "exact answers");
        }
    }
    let graphed = wide_answers
        .iter()
        .filter(|a| a.provenance == PlanProvenance::Graph)
        .count();
    assert!(
        graphed > 0,
        "calibrated planner serves unseen wide queries from the graph"
    );
    for (a, &t) in wide_answers.iter().zip(&wide_truth) {
        if a.provenance == PlanProvenance::Graph {
            let tol = a.tolerance.expect("graph answers carry a tolerance");
            assert!(a.value.abs_diff(t) <= tol, "{a:?} vs ground truth {t}");
        } else {
            assert_eq!(a.value, t, "non-graph wide answers are exact");
        }
    }
    assert!(
        auto_sims * 2 <= sim_sims,
        "auto ran {auto_sims} ground-truth sims, sim backend {sim_sims}: not 2x fewer"
    );

    let records = parse_ledger(&text).expect("ledger parses");
    let count = |kind: &str| records.iter().filter(|r| r.kind() == kind).count();
    assert!(
        count("calib") >= base.len(),
        "one calib record per escalated set"
    );
    assert_eq!(
        count("plan"),
        ROUNDS * base.len() + wide.len(),
        "one plan record per planned answer"
    );
}
