//! Streaming-plane scaling: a `StreamingBuilder` ingesting a trace at
//! least 10x its window size in chunked pushes, with three gates:
//!
//! 1. resident memory stays bounded by one window plus one push chunk
//!    (the ring never grows with trace length),
//! 2. every sampled window is bit-identical to batch analysis of the
//!    same instruction range in isolation (baseline, all eight
//!    singleton costs, and each reported pairwise interaction against
//!    the scalar closed form), and
//! 3. the emitted `window` records land in the run ledger and parse
//!    back with the same per-window geometry.
//!
//! `ICOST_BENCH_INSTS` scales the trace (CI runs small); the window is
//! derived as n/16 so the 10x ratio holds at every size.

use std::time::Instant;

use icost_bench::{workload, Shape};
use uarch_graph::{DepGraph, StreamingBuilder};
use uarch_obs::ledger::{parse_ledger, LedgerRecord, WindowRecord};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Trace};

/// Batch reference: the window sub-trace analyzed cold, exactly as a
/// standalone run would see it.
fn batch_window(trace: &Trace, start: usize, end: usize, config: &MachineConfig) -> DepGraph {
    let t = Trace::from_insts(trace.insts()[start..end].to_vec());
    let result = Simulator::new(config).run(&t, Idealization::none());
    DepGraph::build(&t, &result, config)
}

fn main() {
    let ledger_path = icost_bench::gate_ledger("stream_scale");
    let _flush = uarch_obs::flush_guard();

    let n = icost_bench::bench_insts();
    let window = (n / 16).max(64);
    let push_chunk = 257; // deliberately not a divisor of the window
    let cfg = MachineConfig::table6();
    let w = workload("gcc", n, icost_bench::DEFAULT_SEED);
    let mut shape = Shape::new();
    println!("Stream scaling — gcc @ {n} insts, window {window}, push chunks of {push_chunk}\n");

    // Ingest the whole trace through the streaming frontier, timing the
    // end-to-end pass (ring maintenance + per-window lattice evals).
    let run = uarch_obs::ledger::global().next_run_id();
    let mut builder = StreamingBuilder::new(&cfg, window);
    let start = Instant::now();
    let mut windows = Vec::new();
    for chunk in w.trace.insts().chunks(push_chunk) {
        windows.extend(
            builder
                .push_batch(chunk)
                .expect("workload traces are connected"),
        );
    }
    windows.extend(builder.finish());
    let wall = start.elapsed();
    let ledger = uarch_obs::ledger::global();
    for win in &windows {
        ledger.append(&LedgerRecord::Window(WindowRecord {
            run,
            window: win.window,
            start: win.start,
            end: win.end,
            baseline: win.baseline,
            lag: win.frontier_lag,
            eval_us: win.eval_us,
            costs: win.costs_by_name(),
            pairs: win.pairs_by_name(),
            trace: String::new(),
        }));
    }
    ledger.flush().expect("flush ledger");

    let mut eval_us: Vec<u64> = windows.iter().map(|w| w.eval_us).collect();
    eval_us.sort_unstable();
    let median_eval = eval_us.get(eval_us.len() / 2).copied().unwrap_or_default();
    println!(
        "ingest: {wall:>10.3?}  ({:.0} insts/s, {} windows, median eval {median_eval}us)",
        n as f64 / wall.as_secs_f64().max(1e-9),
        windows.len()
    );
    println!(
        "memory: peak resident {} insts (window {window} + chunk {push_chunk} bound)\n",
        builder.peak_resident()
    );

    // Gate 2 evidence: sample ~5 windows (always including first and
    // last) and rebuild each range from scratch in batch mode.
    let step = (windows.len() / 5).max(1);
    let mut exact = true;
    let mut sampled = 0usize;
    for win in windows.iter().step_by(step).chain(windows.last()) {
        sampled += 1;
        let graph = batch_window(&w.trace, win.start as usize, win.end as usize, &cfg);
        exact &= win.baseline == graph.evaluate(EventSet::EMPTY);
        for (i, class) in EventClass::ALL.iter().enumerate() {
            exact &= win.costs[i] == graph.cost(EventSet::single(*class));
        }
        for &(pair, icost) in &win.pairs {
            let classes: Vec<EventClass> = pair.iter().collect();
            let closed = graph.cost(pair)
                - graph.cost(EventSet::single(classes[0]))
                - graph.cost(EventSet::single(classes[1]));
            exact &= icost == closed;
        }
    }

    // Gate 3 evidence: the flushed ledger parses back with one window
    // record per retired window, tiling [0, n).
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger file");
    let records = parse_ledger(&ledger_text).expect("ledger parses");
    let parsed: Vec<&WindowRecord> = records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Window(w) => Some(w),
            _ => None,
        })
        .collect();
    let tiles = parsed.windows(2).all(|p| p[0].end == p[1].start)
        && parsed.first().is_some_and(|p| p.start == 0)
        && parsed.last().is_some_and(|p| p.end == n as u64);

    shape.check(
        "the trace is at least 10x the streaming window",
        n >= 10 * window,
    );
    shape.check(
        "every window retired exactly once, tiling the trace",
        windows.len() == n.div_ceil(window) && builder.ingested() == n as u64,
    );
    shape.check(
        "resident memory is bounded by one window plus one push chunk",
        builder.peak_resident() < window + push_chunk,
    );
    shape.check(
        "sampled windows are bit-identical to batch graphs of the same range",
        exact && sampled >= 2,
    );
    shape.check(
        "window records round-trip through the run ledger and tile [0, n)",
        parsed.len() == windows.len() && tiles,
    );

    std::process::exit(i32::from(!shape.finish("Stream scaling")));
}
