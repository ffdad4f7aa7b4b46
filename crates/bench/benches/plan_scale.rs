//! Planner scaling: the mixed-fidelity escalation ladder against the
//! all-sim backend on a repeated table7-style sweep (every singleton
//! `cost` plus every pairwise `icost` over the eight event classes).
//!
//! The auto backend pays ground truth once: round 1 is fully escalated
//! (the planner is uncalibrated), which simulates every set *and*
//! calibrates the graph residuals; rounds 2–3 are answered entirely
//! from cached ground truth; a final wide phase of unseen triple-class
//! `cost` queries is served from the calibrated graph kernel. The sim
//! backend replays the identical query stream through a fresh runner
//! per round — what a caller without the planner (or a cache shared
//! across processes) actually pays.
//!
//! Gates: the auto backend must run at least 2x fewer ground-truth
//! sims; every cache/sim-served answer must be bit-identical to
//! `run_warmed` ground truth; every graph-served answer must land
//! within its calibrated residual tolerance.

use std::path::PathBuf;
use std::time::Instant;

use icost_bench::{bench_insts, observe_workload, workload, Shape, DEFAULT_SEED};
use uarch_obs::ledger::{parse_ledger, Ledger, LedgerRecord, LEDGER_FILE_ENV};
use uarch_plan::{PlanProvenance, PlannedAnswer, Planner};
use uarch_runner::{Query, Runner};
use uarch_trace::{EventClass, EventSet, MachineConfig};

/// Table7-style sweep: 8 singleton costs + 28 pairwise icosts.
fn base_queries() -> Vec<Query> {
    let mut queries: Vec<Query> = EventClass::ALL
        .iter()
        .map(|&c| Query::Cost(EventSet::single(c)))
        .collect();
    for i in 0..EventClass::ALL.len() {
        for j in (i + 1)..EventClass::ALL.len() {
            queries.push(Query::Icost(
                EventSet::single(EventClass::ALL[i]).union(EventSet::single(EventClass::ALL[j])),
            ));
        }
    }
    queries
}

/// Unseen triple-class `cost` queries over the classes the graph models
/// well (resource classes always escalate, so they prove nothing about
/// graph serving).
fn wide_queries() -> Vec<Query> {
    let good: Vec<EventClass> = EventClass::ALL
        .iter()
        .copied()
        .filter(|&c| c != EventClass::Win && c != EventClass::Bw)
        .collect();
    let mut queries = Vec::new();
    for i in 0..good.len() {
        for j in (i + 1)..good.len() {
            for k in (j + 1)..good.len() {
                queries.push(Query::Cost(
                    EventSet::single(good[i])
                        .union(EventSet::single(good[j]))
                        .union(EventSet::single(good[k])),
                ));
            }
        }
    }
    queries
}

fn tally(answers: &[PlannedAnswer]) -> (usize, usize, usize) {
    let count = |p| answers.iter().filter(|a| a.provenance == p).count();
    (
        count(PlanProvenance::Cache),
        count(PlanProvenance::Graph),
        count(PlanProvenance::Sim),
    )
}

fn main() {
    // Honor ICOST_LEDGER_FILE, default to a fresh temp file: the auto
    // passes must exercise the real calib/plan append path, and the
    // checks below (plus `icost-obs plan` in CI) read it back.
    let ledger_path: PathBuf = std::env::var(LEDGER_FILE_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("plan_scale_{}.jsonl", std::process::id()))
        });
    let _ = std::fs::remove_file(&ledger_path);
    uarch_obs::ledger::install_global(Ledger::to_path(&ledger_path).expect("open ledger file"));
    uarch_obs::ledger::global().set_enabled(false);

    let n = bench_insts();
    let cfg = MachineConfig::table6();
    let w = workload("gcc", n, DEFAULT_SEED);
    let (_, graph) = observe_workload(&w, &cfg);
    let base = base_queries();
    let wide = wide_queries();
    const ROUNDS: usize = 3;
    println!(
        "Planner scaling — {} base queries x {ROUNDS} rounds + {} wide queries over gcc @ {n} insts\n",
        base.len(),
        wide.len()
    );
    let mut shape = Shape::new();

    // Auto backend: ONE long-lived planner on a private runner cache
    // (deliberately not the process-wide harness cache — the comparison
    // must not be satisfied by state someone else paid for).
    uarch_obs::ledger::global().set_enabled(true);
    let auto_runner = Runner::new();
    let mut planner = Planner::new(
        &auto_runner,
        &cfg,
        &w.trace,
        &w.warm_data,
        &w.warm_code,
        &graph,
    );
    let mut round_answers = Vec::new();
    let auto_start = Instant::now();
    for round in 1..=ROUNDS {
        let (answers, report) = planner.plan(&base);
        let (cache, graphed, sim) = tally(&answers);
        println!(
            "auto round {round}: cache={cache:>2} graph={graphed:>2} sim={sim:>2}  sims_run={}",
            report.sims_run
        );
        round_answers.push((answers, report));
    }
    let (wide_answers, wide_report) = planner.plan(&wide);
    let auto_wall = auto_start.elapsed();
    let (w_cache, w_graph, w_sim) = tally(&wide_answers);
    println!(
        "auto wide   : cache={w_cache:>2} graph={w_graph:>2} sim={w_sim:>2}  sims_run={}",
        wide_report.sims_run
    );
    let snap = planner.metrics().snapshot();
    let auto_sims = snap.counter("plan.ground_truth_sims");
    uarch_obs::ledger::global().set_enabled(false);
    println!(
        "auto backend: {auto_sims} ground-truth sims, {} graph evals, {} escalations in {auto_wall:.3?}\n",
        snap.counter("plan.graph_evals"),
        snap.counter("plan.escalations")
    );

    // Sim backend: the identical query stream, fresh runner per round.
    let mut sim_sims = 0;
    let sim_start = Instant::now();
    for _ in 0..ROUNDS {
        let (_, report) =
            Runner::new().run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &base);
        sim_sims += report.sims_run;
    }
    let (_, report) = Runner::new().run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &wide);
    sim_sims += report.sims_run;
    let sim_wall = sim_start.elapsed();
    println!("sim backend : {sim_sims} ground-truth sims in {sim_wall:.3?}\n");

    // Ground truth from an independent runner (fresh cache): the
    // bit-identity checks cannot be satisfied by shared state.
    let truth_runner = Runner::new();
    let (base_truth, _) =
        truth_runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &base);
    let (wide_truth, _) =
        truth_runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &wide);

    let (first, first_report) = &round_answers[0];
    shape.check(
        "uncalibrated round 1 escalates every query to ground truth",
        first.iter().all(|a| a.provenance == PlanProvenance::Sim) && first_report.sims_run > 0,
    );
    shape.check(
        "repeat rounds are answered entirely from cached ground truth (zero sims)",
        round_answers[1..].iter().all(|(answers, report)| {
            report.sims_run == 0
                && answers
                    .iter()
                    .all(|a| a.provenance == PlanProvenance::Cache)
        }),
    );
    shape.check(
        "every cache/sim-served answer is bit-identical to run_warmed ground truth",
        round_answers.iter().all(|(answers, _)| {
            answers
                .iter()
                .zip(&base_truth)
                .all(|(a, &t)| a.value == t && (a.confidence - 1.0).abs() < 1e-12)
        }) && wide_answers
            .iter()
            .zip(&wide_truth)
            .filter(|(a, _)| a.provenance != PlanProvenance::Graph)
            .all(|(a, &t)| a.value == t),
    );
    shape.check(
        "calibrated planner serves unseen wide queries from the graph",
        w_graph > 0,
    );
    shape.check(
        "every graph-served answer lands within its calibrated tolerance",
        wide_answers.iter().zip(&wide_truth).all(|(a, &t)| {
            a.provenance != PlanProvenance::Graph
                || a.tolerance.is_some_and(|tol| a.value.abs_diff(t) <= tol)
        }),
    );
    let ratio = sim_sims as f64 / (auto_sims as f64).max(1.0);
    println!("  sim/auto ground-truth sim ratio: {ratio:.2}x");
    shape.check(
        "auto backend runs at least 2x fewer ground-truth sims than the sim backend",
        auto_sims.saturating_mul(2) <= sim_sims,
    );

    // Structural checks on the calib/plan records the auto passes wrote.
    let _ = uarch_obs::ledger::global().flush();
    let ledger_text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    match parse_ledger(&ledger_text) {
        Ok(records) => {
            let calibs = records
                .iter()
                .filter(|r| matches!(r, LedgerRecord::Calib(_)))
                .count();
            let plans = records
                .iter()
                .filter(|r| matches!(r, LedgerRecord::Plan(_)))
                .count();
            shape.check(
                "ledger carries one calib record per escalated set",
                calibs >= base.len(),
            );
            shape.check(
                "ledger carries one plan record per planned answer",
                plans == ROUNDS * base.len() + wide.len(),
            );
        }
        Err(e) => {
            println!("ledger parse error: {e}");
            shape.check("ledger parses cleanly", false);
        }
    }
    println!("ledger written to {}\n", ledger_path.display());

    std::process::exit(i32::from(!shape.finish("Planner scaling")));
}
