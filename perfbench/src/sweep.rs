//! `sweep`: the paper's Table 4/7 path as an in-process batch over the
//! twelve Table-6 profiles.
//!
//! One pass, per profile: a warmed baseline simulation, the dependence
//! graph built from it, `Runner::run_graph` over all 255 non-empty
//! subsets, the breakdown batch (8 singleton costs, 28 pair icosts) on a
//! fresh runner, and then each breakdown query again as its own call on
//! that runner, every answer from the cache. The cached calls are the
//! workload's queries: their latency is the runner's fixed per-call
//! cost with no HTTP in front of it.

use std::time::{Duration, Instant};

use icost::{CostOracle, GraphOracle};
use uarch_graph::DepGraph;
use uarch_runner::{Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile, Workload};

use crate::stats::{median_secs, Digest, Latencies, P99_WINDOW};
use crate::stream::{answers_from, breakdown_queries, err_pm, sub_seed};
use crate::{set_up, Budget, Outcome, Scale, RUNNER_THREADS};

/// What one profile's pass produced.
struct ProfilePass {
    baseline: u64,
    /// `cost(S)` for S = 1..=255 (index `bits - 1`).
    graph: Vec<i64>,
    /// The breakdown batch's answers.
    sim: Vec<i64>,
}

fn all_subsets() -> Vec<EventSet> {
    (1..=255u8).map(EventSet::from_bits).collect()
}

/// One profile through the pipeline; the cached per-query calls are
/// timed into `lat`, and answers that differ from the batch's count as
/// wrong in `outcome`.
fn profile_pass(
    w: &Workload,
    cfg: &MachineConfig,
    breakdown: &[Query],
    lat: &mut Latencies,
    outcome: &mut Outcome,
) -> (ProfilePass, DepGraph) {
    let base =
        Simulator::new(cfg).run_warmed(&w.trace, Idealization::none(), &w.warm_data, &w.warm_code);
    let graph = DepGraph::build(&w.trace, &base, cfg);
    let costs: Vec<Query> = all_subsets().into_iter().map(Query::Cost).collect();
    let (graph_costs, _) = Runner::new()
        .with_threads(RUNNER_THREADS)
        .run_graph(&graph, &costs);
    let runner = Runner::new().with_threads(RUNNER_THREADS);
    let (sim, _) = runner.run_warmed(cfg, &w.trace, &w.warm_data, &w.warm_code, breakdown);
    for (q, &want) in breakdown.iter().zip(&sim) {
        let start = Instant::now();
        let (got, _) = runner.run_warmed(
            cfg,
            &w.trace,
            &w.warm_data,
            &w.warm_code,
            std::slice::from_ref(q),
        );
        let elapsed = start.elapsed();
        outcome.attempted += 1;
        if got == [want] {
            lat.ok(elapsed);
        } else {
            lat.fail();
            outcome.wrong += 1;
            outcome.failure(format!(
                "{}: cached {q} answered {got:?}, batch {want}",
                w.name
            ));
        }
    }
    let pass = ProfilePass {
        baseline: base.cycles,
        graph: graph_costs,
        sim,
    };
    (pass, graph)
}

/// Graph error of one profile's breakdown, in per-mille of its baseline.
fn graph_err_pm(pass: &ProfilePass, breakdown: &[Query]) -> f64 {
    let cost = |s: EventSet| {
        if s.is_empty() {
            0
        } else {
            pass.graph[s.bits() as usize - 1]
        }
    };
    err_pm(&answers_from(cost, breakdown), &pass.sim, pass.baseline)
}

pub fn run(scale: &Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = MachineConfig::table6();
    let (inputs, setup_s) = set_up(|| {
        Ok(BenchProfile::suite()
            .iter()
            .enumerate()
            .map(|(i, p)| generate(p, scale.sweep_insts, sub_seed(seed, i as u64)))
            .collect::<Vec<Workload>>())
    })?;
    let breakdown = breakdown_queries();
    let mut outcome = Outcome::default();
    let mut lat = Latencies::default();
    let mut walls: Vec<Duration> = Vec::new();
    let mut first: Vec<ProfilePass> = Vec::new();
    let mut graphs: Vec<DepGraph> = Vec::new();
    let budget = Budget::start(seconds);
    while walls.is_empty() || !budget.done(&[lat.count()]) {
        let start = Instant::now();
        let mut passes = Vec::with_capacity(inputs.len());
        for w in &inputs {
            let (pass, graph) = profile_pass(w, &cfg, &breakdown, &mut lat, &mut outcome);
            passes.push(pass);
            if first.is_empty() {
                graphs.push(graph);
            }
        }
        walls.push(start.elapsed());
        if first.is_empty() {
            first = passes;
            check_graphs(&graphs, &first, &inputs, &mut outcome);
            graphs.clear();
        } else {
            for ((w, a), b) in inputs.iter().zip(&first).zip(&passes) {
                outcome.attempted += 1;
                if a.graph != b.graph || a.sim != b.sim || a.baseline != b.baseline {
                    outcome.wrong += 1;
                    outcome.failure(format!(
                        "{}: pass {} answers differ from pass 1",
                        w.name,
                        walls.len()
                    ));
                }
            }
        }
    }
    let per_pass = lat.count() as f64 / walls.len() as f64;
    let errors: Vec<f64> = first.iter().map(|p| graph_err_pm(p, &breakdown)).collect();
    let mut digest = Digest::default();
    for p in &first {
        digest.add(p.baseline as i64);
        p.graph.iter().chain(&p.sim).for_each(|&v| digest.add(v));
    }
    outcome.note(format!(
        "sweep: {} profiles x {} insts, {} passes, {:.0} cached queries per pass, answer digest {}, \
         graph_err_pm {:.4}",
        inputs.len(),
        scale.sweep_insts,
        walls.len(),
        per_pass,
        digest.hex(),
        errors.iter().sum::<f64>() / errors.len() as f64
    ));
    let query_s: f64 = lat.total_ms() / 1e3;
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("wall_s", median_secs(&walls), "s");
    outcome.metric("query_rps", lat.count() as f64 / query_s, "1/s");
    outcome.metric("query_p50_ms", lat.p50(), "ms");
    let p99 = lat.p99().ok_or("too few cached queries for a p99")?;
    outcome.note(format!(
        "query_p99_ms from the quietest of {} windows of {P99_WINDOW}; {} samples, whole-run p99 {:.4}",
        lat.p99_windows(),
        lat.count(),
        lat.p99_all()
    ));
    outcome.metric("query_p99_ms", p99, "ms");
    outcome.peak_rss()?;
    Ok(outcome)
}

/// Check pass 1's lane-kernel answers against per-set scalar evaluation
/// of the same graphs (`icost::GraphOracle`).
fn check_graphs(
    graphs: &[DepGraph],
    passes: &[ProfilePass],
    inputs: &[Workload],
    outcome: &mut Outcome,
) {
    for ((graph, pass), w) in graphs.iter().zip(passes).zip(inputs) {
        let mut scalar = GraphOracle::new(graph);
        for set in all_subsets() {
            outcome.attempted += 1;
            let want = scalar.cost(set);
            let got = pass.graph[set.bits() as usize - 1];
            if got != want {
                outcome.wrong += 1;
                outcome.failure(format!(
                    "{}: run_graph cost({set}) = {got}, scalar {want}",
                    w.name
                ));
            }
        }
    }
}
