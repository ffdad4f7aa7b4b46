//! Property-based incremental-vs-batch equivalence: over random
//! workload traces × window sizes × push-chunk boundaries, every window
//! a [`StreamingBuilder`] retires must be *bit-identical* to a batch
//! `DepGraph` analysis of the same instruction range in isolation —
//! streaming changes when analysis happens, never what it computes.
//! The batch side evaluates sets one at a time through the scalar
//! `DepGraph::cost`, never through `Attribution`, so it stays an
//! independent reference.

use std::collections::BTreeMap;

use proptest::prelude::*;

use uarch_graph::{DepGraph, StreamingBuilder, DEFAULT_TOP_PAIRS};
use uarch_sim::{Idealization, PipelineStalls, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Trace};

/// A workload trace plus the streaming knobs under test.
#[derive(Debug)]
struct Case {
    profile: &'static str,
    insts: usize,
    seed: u64,
    window: usize,
    push_chunk: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    const PROFILES: [&str; 4] = ["gzip", "mcf", "vortex", "gcc"];
    (
        (0usize..PROFILES.len()).prop_map(|i| PROFILES[i]),
        200usize..700,
        0u64..1_000,
        8usize..100,
        1usize..130,
    )
        .prop_map(|(profile, insts, seed, window, push_chunk)| Case {
            profile,
            insts,
            seed,
            window,
            push_chunk,
        })
}

/// The batch side of the equivalence: analyze `[start, end)` of the
/// stream as its own trace, exactly as a post-mortem pipeline would.
fn batch_window(
    trace: &Trace,
    start: usize,
    end: usize,
    config: &MachineConfig,
) -> (DepGraph, PipelineStalls) {
    let t = Trace::from_insts(trace.insts()[start..end].to_vec());
    let result = Simulator::new(config).run(&t, Idealization::none());
    (DepGraph::build(&t, &result, config), result.stalls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_windows_are_bit_identical_to_batch_graphs(case in arb_case()) {
        let config = MachineConfig::table6();
        let profile = uarch_workloads::BenchProfile::by_name(case.profile).unwrap();
        let w = uarch_workloads::generate(profile, case.insts, case.seed);
        let mut builder = StreamingBuilder::new(&config, case.window);
        let mut windows = Vec::new();
        for chunk in w.trace.insts().chunks(case.push_chunk) {
            windows.extend(builder.push_batch(chunk).expect("generated traces are connected"));
        }
        if let Some(tail) = builder.finish() {
            windows.push(tail);
        }
        prop_assert_eq!(windows.len(), case.insts.div_ceil(case.window));
        prop_assert_eq!(builder.ingested(), case.insts as u64);

        let mut expect_start = 0u64;
        for win in &windows {
            prop_assert_eq!(win.start, expect_start, "windows tile the stream");
            expect_start = win.end;
            let (graph, stalls) =
                batch_window(&w.trace, win.start as usize, win.end as usize, &config);
            let got = &win.attribution;
            // Baseline, the eight singleton costs and the stall
            // counters, bit for bit.
            prop_assert_eq!(got.baseline, graph.evaluate(EventSet::EMPTY));
            prop_assert_eq!(got.stalls, stalls, "window {} stalls", win.window);
            for (i, class) in EventClass::ALL.iter().enumerate() {
                prop_assert_eq!(
                    got.costs[i],
                    graph.cost(EventSet::single(*class)),
                    "window {} cost({})", win.window, class
                );
            }
            // The pair list is exactly every nonzero scalar-closed-form
            // icost, largest magnitude first, ties toward the lexically
            // earlier set.
            let mut expect = Vec::new();
            for (i, a) in EventClass::ALL.iter().enumerate() {
                for b in &EventClass::ALL[i + 1..] {
                    let set = EventSet::single(*a).with(*b);
                    let icost = graph.cost(set)
                        - graph.cost(EventSet::single(*a))
                        - graph.cost(EventSet::single(*b));
                    if icost != 0 {
                        expect.push((set, icost));
                    }
                }
            }
            expect.sort_by_key(|(set, icost)| (std::cmp::Reverse(icost.abs()), set.bits()));
            prop_assert_eq!(&got.pairs, &expect, "window {} pairs", win.window);
            // The ledger keeps the top few of them.
            let top: BTreeMap<String, i64> = expect
                .iter()
                .take(DEFAULT_TOP_PAIRS)
                .map(|(s, v)| (s.to_string(), *v))
                .collect();
            prop_assert_eq!(win.pairs_by_name(), top, "window {} top pairs", win.window);
        }
        prop_assert_eq!(expect_start, case.insts as u64);
    }
}
