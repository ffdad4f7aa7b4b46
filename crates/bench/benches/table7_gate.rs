//! Table-7-sized CI regression gate: the full Table 4a benchmark suite
//! swept through the lane-batched graph kernel and the runner's
//! content-addressed cache, with attribution audits on.
//!
//! Unlike `table7` (which buys ground truth with 2^n re-simulations and
//! a shotgun-profiled comparison), this target is a *data generator*:
//! it produces, in well under a minute, a run ledger whose shape — run
//! headers, computed/memory job records with stable result hashes, and
//! one `audit` record per benchmark context — is deterministic for a
//! given `ICOST_BENCH_INSTS`. CI diffs that ledger against the
//! committed `ci/table7_baseline.jsonl` (`icost-obs diff`) and gates
//! the refutation rate (`icost-obs audit --max-refuted`), so any change
//! to simulator timing, graph semantics, cache reuse, or auditor
//! verdicts shows up as a baseline delta instead of sailing through.

use icost::CostOracle;
use icost_bench::{bench_insts, harness_runner, Shape, DEFAULT_SEED};
use uarch_graph::DepGraph;
use uarch_obs::ledger::{parse_ledger, LedgerRecord};
use uarch_obs::{install_global, Tracer};
use uarch_runner::{Backend, Query};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig};
use uarch_workloads::{generate, BenchProfile};

fn main() {
    let _flush = uarch_obs::flush_guard();
    install_global(Tracer::enabled());

    let ledger_path = icost_bench::gate_ledger("table7_gate");

    let n = bench_insts();
    let cfg = MachineConfig::table6();
    // Audits on programmatically, not via ICOST_AUDIT: the committed
    // baseline must carry audit records regardless of CI step wiring.
    let runner = harness_runner().with_audit();
    let suite = BenchProfile::suite();
    println!(
        "Table-7-sized gate sweep — {} benchmarks @ {n} insts, lane kernel + cache + audits\n",
        suite.len()
    );
    let mut shape = Shape::new();

    // The 37-set lattice every breakdown in the paper is built from:
    // the empty set, all singletons, and all pairs.
    let mut lattice: Vec<EventSet> = vec![EventSet::EMPTY];
    lattice.extend(EventClass::ALL.iter().map(|&c| EventSet::single(c)));
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            lattice.push(EventSet::from([a, b]));
        }
    }

    let dmiss = EventSet::single(EventClass::Dmiss);
    let queries = [
        Query::Cost(dmiss),
        Query::Icost(dmiss.union(EventSet::single(EventClass::Win))),
    ];

    let mut max_base_err_pm: i64 = 0;
    let mut graph_matches_sim = true;
    let mut repeat_sims = 0u64;
    for profile in suite {
        let w = generate(profile, n, DEFAULT_SEED);
        let result = Simulator::new(&cfg).run_warmed(
            &w.trace,
            Idealization::none(),
            &w.warm_data,
            &w.warm_code,
        );
        let graph = DepGraph::build(&w.trace, &result, &cfg);

        // Graph side: the whole lattice in lane-batched sweeps, every
        // answer memoized and ledgered through the shared cache.
        let mut oracle = runner.oracle(Backend::graph(&graph));
        oracle.prefetch(&lattice);
        let base_err_pm = (1000 * (oracle.baseline() as i64 - result.cycles as i64))
            / (result.cycles.max(1) as i64);
        max_base_err_pm = max_base_err_pm.max(base_err_pm.abs());

        // Sim side: two ground-truth queries per benchmark — enough to
        // exercise the parallel wave, the cache, and (because audits
        // are on) emit one audit record for this context.
        let (answers, report) =
            runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &queries);
        graph_matches_sim &= answers[0] >= 0 && oracle.cost(dmiss) >= 0;
        println!(
            "{:<8} baseline {:>7} cyc  cost(dmiss) sim {:>6} / graph {:>6}  ({} sims, {} hits)",
            profile.name,
            result.cycles,
            answers[0],
            oracle.cost(dmiss),
            report.sims_run,
            report.cache_hits
        );

        // Repeat pass: the same queries must be answered entirely from
        // the cache — reuse_pct in the gating ledger pins this.
        let (_, again) = runner.run_warmed(&cfg, &w.trace, &w.warm_data, &w.warm_code, &queries);
        repeat_sims += again.sims_run;
    }

    println!("\nworst graph-vs-sim baseline error: {max_base_err_pm}pm");
    shape.check(
        "graph baselines track simulated cycles within 2%",
        max_base_err_pm <= 20,
    );
    shape.check(
        "cost answers are well-formed on both paths",
        graph_matches_sim,
    );
    shape.check(
        "repeat queries are answered without re-simulation",
        repeat_sims == 0,
    );

    let _ = uarch_obs::ledger::global().flush();
    let ledger_text = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    match parse_ledger(&ledger_text) {
        Ok(records) => {
            let audits: Vec<_> = records
                .iter()
                .filter_map(|r| match r {
                    LedgerRecord::Audit(a) => Some(a),
                    _ => None,
                })
                .collect();
            let refuted = audits.iter().filter(|a| a.verdict == "refuted").count();
            println!("\naudits: {} records, {refuted} refuted", audits.len());
            shape.check(
                "one audit record per benchmark context",
                audits.len() == suite.len(),
            );
            // The honest Table 6 model must confirm on (nearly all of)
            // its own suite; see crates/audit/tests/regression.rs for
            // the per-category ≥90% pin.
            shape.check(
                "auditor confirms the well-calibrated model",
                refuted * 6 <= audits.len(),
            );
        }
        Err(e) => {
            println!("ledger parse error: {e}");
            shape.check("ledger parses cleanly", false);
        }
    }
    println!("ledger written to {}\n", ledger_path.display());

    std::process::exit(i32::from(!shape.finish("Table-7-sized gate sweep")));
}
