//! Property tests pinning the runner's central guarantee: parallelism and
//! caching change *when* a `t(S)` is computed, never *what* it is. The
//! runner's oracle must be bit-identical to the serial reference oracle
//! of its backend — `MultiSimOracle` for re-simulation, `GraphOracle` for
//! the dependence graph — on arbitrary traces and set lists, and repeated
//! queries must be answered from the cache rather than re-evaluated.

use icost::{icost, CostOracle, GraphOracle, MultiSimOracle};
use proptest::prelude::*;
use uarch_graph::DepGraph;
use uarch_runner::{Backend, Query, Runner};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Reg, Trace, TraceBuilder};

/// Build a trace from a script of `(opcode, value)` pairs. The opcode
/// selects the instruction kind; the value perturbs registers, addresses
/// and branch outcomes, so the generator reaches loads that miss, loads
/// that hit, dependent ALU work, stores and (mis)predictable branches.
fn build_trace(script: &[(u8, u64)]) -> Trace {
    let mut b = TraceBuilder::new();
    for &(op, v) in script {
        match op % 5 {
            // Far-apart lines: data-cache misses.
            0 => b.load(Reg::int(1 + (v % 4) as u8), 0x10_0000 + v * 4096),
            // Dense lines: L1 hits.
            1 => b.load(Reg::int(1 + (v % 4) as u8), 0x1000 + (v % 64) * 8),
            // Dependent integer work.
            2 => b.alu(Reg::int((v % 8) as u8), &[Reg::int(((v + 1) % 8) as u8)]),
            3 => b.store(Reg::int(1 + (v % 4) as u8), 0x2000 + (v % 32) * 8),
            // Mostly fall-through branches with occasional taken ones.
            _ => {
                let target = b.pc() + 64;
                b.branch(Reg::int(1 + (v % 4) as u8), v % 3 == 0, target)
            }
        };
    }
    // Guarantee at least one instruction so baselines are meaningful.
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

/// Arbitrary sets, `∅` and duplicates included.
fn set_list(bits: &[u8]) -> Vec<EventSet> {
    bits.iter().map(|&b| EventSet::from_bits(b)).collect()
}

/// Answer `sets` (and `icost(u)`) through `backend` three ways — on a
/// fresh cache, and on a shared cache another oracle already warmed,
/// each with and without a prefetch — and require every answer to equal
/// the reference oracle's.
fn agrees_with_reference(
    backend: Backend,
    reference: &mut dyn CostOracle,
    sets: &[EventSet],
    u: EventSet,
    threads: usize,
) -> Result<(), TestCaseError> {
    let want: Vec<i64> = sets.iter().map(|&s| reference.cost(s)).collect();
    let want_icost = icost(reference, u);
    let want_base = reference.baseline();
    let shared = Runner::new().with_threads(threads);
    shared.oracle(backend).prefetch(sets);
    for prefetch in [false, true] {
        for warm in [false, true] {
            let runner = if warm {
                shared.clone()
            } else {
                Runner::new().with_threads(threads)
            };
            let mut oracle = runner.oracle(backend);
            if prefetch {
                oracle.prefetch(sets);
            }
            let got: Vec<i64> = sets.iter().map(|&s| oracle.cost(s)).collect();
            prop_assert_eq!(&got, &want, "prefetch={} warm={}", prefetch, warm);
            prop_assert_eq!(oracle.baseline(), want_base);
            if warm {
                prop_assert_eq!(
                    oracle.report().sims_run,
                    0,
                    "a warm cache evaluates nothing"
                );
            }
            prop_assert_eq!(icost(&mut oracle, u), want_icost);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sim_backend_matches_multisim(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..32),
        bits in prop::collection::vec(any::<u8>(), 1..10),
        picks in prop::collection::vec(0u8..8, 1..4),
        threads in 1usize..5,
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let mut serial = MultiSimOracle::new(&cfg, &trace);
        agrees_with_reference(
            Backend::sim(&cfg, &trace),
            &mut serial,
            &set_list(&bits),
            event_set(&picks),
            threads,
        )?;
    }

    #[test]
    fn graph_backend_matches_graph_oracle(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..64),
        bits in prop::collection::vec(any::<u8>(), 1..40),
        picks in prop::collection::vec(0u8..8, 1..4),
        threads in 1usize..5,
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let result = Simulator::new(&cfg).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &result, &cfg);
        let mut serial = GraphOracle::new(&graph);
        agrees_with_reference(
            Backend::graph(&graph),
            &mut serial,
            &set_list(&bits),
            event_set(&picks),
            threads,
        )?;
    }

    #[test]
    fn repeated_queries_hit_the_cache(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..24),
        picks in prop::collection::vec(0u8..8, 1..3),
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let u = event_set(&picks);
        let runner = Runner::new().with_threads(2);

        let (first, r1) = runner.run(&cfg, &trace, &[Query::Icost(u)]);
        let (second, r2) = runner.run(&cfg, &trace, &[Query::Icost(u)]);

        prop_assert_eq!(first, second);
        prop_assert!(r1.sims_run > 0, "first batch must simulate");
        prop_assert_eq!(r2.sims_run, 0, "second batch must not simulate");
        prop_assert!(
            r2.cache_hits > 0,
            "second batch answered from cache (report: {:?})",
            r2
        );
    }

    #[test]
    fn thread_count_never_changes_answers(
        script in prop::collection::vec((0u8..5, 0u64..97), 1..24),
        picks in prop::collection::vec(0u8..8, 1..3),
        threads in 1usize..6,
    ) {
        let cfg = MachineConfig::table6();
        let trace = build_trace(&script);
        let u = event_set(&picks);
        let queries = [Query::Cost(u), Query::Icost(u)];

        let (one, _) = Runner::new().with_threads(1).run(&cfg, &trace, &queries);
        let (many, _) = Runner::new().with_threads(threads).run(&cfg, &trace, &queries);
        prop_assert_eq!(one, many);
    }
}
