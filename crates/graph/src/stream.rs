//! Streaming trace ingestion: incremental dependence-graph analysis
//! behind a bounded ring-buffered window.
//!
//! The batch pipeline ([`DepGraph::build`] → `eval_many`) requires the
//! whole trace up front; a live producer (generator, file tail, the
//! `POST /ingest` endpoint on `uarch-serve`) has no whole trace. The
//! [`StreamingBuilder`] accepts instructions *as they arrive*, holds at
//! most one window of not-yet-attributed instructions, and — each time
//! a full window accumulates — retires it: builds the window's
//! dependence graph, evaluates the breakdown lattice with the PR 4
//! chunked lane kernel ([`DepGraph::eval_many_chunked`], reusing one
//! [`LaneScratch`] across windows), and emits a [`WindowBreakdown`].
//! Resident memory is bounded by `window + largest push batch`
//! instructions no matter how long the stream runs.
//!
//! Fidelity contract: a retired window is analyzed exactly as a batch
//! pipeline would analyze the same instruction range in isolation —
//! same simulator over the window's sub-trace, same graph construction,
//! same lattice answers (proptest-pinned bit-identical). Dependences
//! and machine state crossing the window boundary are deliberately cut:
//! that truncation is what buys bounded memory, and it is identical on
//! both paths, so streaming answers never drift from batch answers.

use std::collections::BTreeMap;
use std::time::Instant;

use uarch_sim::{Idealization, PipelineStalls, Simulator};
use uarch_trace::{EventClass, EventSet, Inst, MachineConfig, Trace};

use crate::lanes::{LaneScratch, DEFAULT_CHUNK};
use crate::model::DepGraph;

/// Default retirement window, in instructions.
pub const DEFAULT_WINDOW: usize = 1024;

/// Number of top pairwise interactions kept per window.
pub const DEFAULT_TOP_PAIRS: usize = 4;

/// The icost breakdown of one retired streaming window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowBreakdown {
    /// Window ordinal, dense from 0.
    pub window: u64,
    /// First stream instruction index of the window (inclusive).
    pub start: u64,
    /// Past-the-end stream instruction index.
    pub end: u64,
    /// Baseline critical-path cycles `t(∅)` of the window graph.
    pub baseline: u64,
    /// Singleton `cost(c)` per base category, in [`EventClass::ALL`]
    /// order.
    pub costs: [i64; 8],
    /// Top pairwise interaction costs by magnitude (zero interactions
    /// are omitted), largest `|icost|` first; ties break toward the
    /// lexically earlier set so the selection is deterministic.
    pub pairs: Vec<(EventSet, i64)>,
    /// Every nonzero pairwise interaction cost, same order as `pairs`
    /// but untruncated — the attribution auditor's overlap split needs
    /// all of them, not just the top few the ledger keeps.
    pub all_pairs: Vec<(EventSet, i64)>,
    /// Per-cause stall counters of the window's baseline simulation —
    /// the counter side the audit plane reconciles `costs`/`all_pairs`
    /// against.
    pub stalls: PipelineStalls,
    /// Instructions already ingested beyond `end` when this window was
    /// evaluated — how far attribution trails the ingest frontier.
    pub frontier_lag: u64,
    /// Wall time to evaluate the window lattice, in microseconds.
    pub eval_us: u64,
}

impl WindowBreakdown {
    /// The singleton costs as a name→cost map (ledger wire shape).
    pub fn costs_by_name(&self) -> BTreeMap<String, i64> {
        EventClass::ALL
            .iter()
            .zip(self.costs)
            .map(|(c, v)| (c.name().to_string(), v))
            .collect()
    }

    /// The top pair interactions as a set-display→icost map (ledger
    /// wire shape).
    pub fn pairs_by_name(&self) -> BTreeMap<String, i64> {
        self.pairs
            .iter()
            .map(|(s, v)| (s.to_string(), *v))
            .collect()
    }
}

/// Incremental dependence-graph builder over an instruction stream.
///
/// Feed instructions with [`StreamingBuilder::push`] /
/// [`StreamingBuilder::push_batch`]; each call returns the breakdowns
/// of every window that retired because of it (usually none or one —
/// more when one batch spans several windows). The stream must be a
/// connected dynamic path (`inst.next_pc` of each instruction equals
/// the `pc` of the next), checked on ingest.
#[derive(Debug)]
pub struct StreamingBuilder {
    config: MachineConfig,
    window: usize,
    chunk: usize,
    /// Not-yet-retired instructions: the partial window plus whatever a
    /// push batch appended beyond it. This is the *only* stream-length
    /// state — retired windows are dropped whole.
    pending: Vec<Inst>,
    /// PC the next pushed instruction must carry (`None` at start).
    expected_pc: Option<u64>,
    /// Stream index of the first instruction in `pending`.
    retired: u64,
    next_window: u64,
    scratch: LaneScratch,
    peak_resident: usize,
}

impl StreamingBuilder {
    /// A builder retiring `window`-instruction windows under `config`.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(config: &MachineConfig, window: usize) -> StreamingBuilder {
        assert!(window > 0, "window must be at least one instruction");
        StreamingBuilder {
            config: config.clone(),
            window,
            chunk: DEFAULT_CHUNK,
            pending: Vec::with_capacity(window),
            expected_pc: None,
            retired: 0,
            next_window: 0,
            scratch: LaneScratch::new(),
            peak_resident: 0,
        }
    }

    /// Override the lane-kernel chunk length (clamped to at least 1);
    /// any chunking yields bit-identical answers, so this is a
    /// performance/test knob only.
    pub fn with_chunk(mut self, chunk: usize) -> StreamingBuilder {
        self.chunk = chunk.max(1);
        self
    }

    /// Total instructions ingested so far.
    pub fn ingested(&self) -> u64 {
        self.retired + self.pending.len() as u64
    }

    /// Windows retired so far.
    pub fn windows_emitted(&self) -> u64 {
        self.next_window
    }

    /// Instructions currently resident (the partial window).
    pub fn resident_insts(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of resident instructions over the stream's
    /// lifetime; it stays below one window plus one push batch.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Instructions ingested but not yet covered by a retired window.
    pub fn frontier_lag(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Ingest one instruction; returns the windows it retired.
    pub fn push(&mut self, inst: Inst) -> Result<Vec<WindowBreakdown>, String> {
        self.push_batch(std::slice::from_ref(&inst))
    }

    /// Ingest a batch of instructions; returns every window the batch
    /// retired, in order. The whole batch is appended before any
    /// window retires, so each breakdown's `frontier_lag` reports how
    /// far ingest ran ahead of attribution.
    ///
    /// On a path-continuity error nothing from the offending
    /// instruction onward is ingested; the builder stays usable at its
    /// previous frontier.
    pub fn push_batch(&mut self, insts: &[Inst]) -> Result<Vec<WindowBreakdown>, String> {
        for inst in insts {
            if let Some(expected) = self.expected_pc {
                if inst.pc != expected {
                    return Err(format!(
                        "stream breaks the dynamic path at instruction {}: expected pc {:#x}, got {:#x}",
                        self.ingested(),
                        expected,
                        inst.pc
                    ));
                }
            }
            self.pending.push(*inst);
            self.expected_pc = Some(inst.next_pc);
        }
        self.peak_resident = self.peak_resident.max(self.pending.len());
        let mut out = Vec::new();
        while self.pending.len() >= self.window {
            let rest = self.pending.split_off(self.window);
            let window = std::mem::replace(&mut self.pending, rest);
            out.push(self.retire(window));
        }
        Ok(out)
    }

    /// Retire the trailing partial window, if any — the end-of-stream
    /// flush (a session close, a producer hang-up). Returns `None` when
    /// the frontier is already fully attributed.
    pub fn finish(&mut self) -> Option<WindowBreakdown> {
        if self.pending.is_empty() {
            return None;
        }
        let window = std::mem::take(&mut self.pending);
        Some(self.retire(window))
    }

    /// Evaluate one drained window exactly as a batch pipeline would
    /// analyze the same range in isolation.
    fn retire(&mut self, insts: Vec<Inst>) -> WindowBreakdown {
        let start = Instant::now();
        let n = insts.len() as u64;
        let _sp = uarch_obs::global().span_with(
            "graph",
            "graph.stream_window",
            vec![("insts", n.to_string())],
        );
        let trace = Trace::from_insts(insts);
        let result = Simulator::new(&self.config).run(&trace, Idealization::none());
        let graph = DepGraph::build(&trace, &result, &self.config);
        let (baseline, costs, all_pairs) = breakdown_lattice(&graph, self.chunk, &mut self.scratch);
        let pairs = all_pairs.iter().take(DEFAULT_TOP_PAIRS).copied().collect();
        let breakdown = WindowBreakdown {
            window: self.next_window,
            start: self.retired,
            end: self.retired + n,
            baseline,
            costs,
            pairs,
            all_pairs,
            stalls: result.stalls,
            frontier_lag: self.pending.len() as u64,
            eval_us: start.elapsed().as_micros() as u64,
        };
        self.next_window += 1;
        self.retired += n;
        breakdown
    }
}

/// All 28 unordered pairs of distinct base categories, in
/// [`EventClass::ALL`] × [`EventClass::ALL`] upper-triangle order.
fn all_pairs() -> Vec<EventSet> {
    let mut pairs = Vec::with_capacity(28);
    for (i, a) in EventClass::ALL.iter().enumerate() {
        for b in &EventClass::ALL[i + 1..] {
            pairs.push(EventSet::single(*a).with(*b));
        }
    }
    pairs
}

/// Evaluate the breakdown lattice of `graph` — baseline, the 8
/// singletons, and all 28 pairs in one chunked lane pass — and reduce
/// it to `(t(∅), singleton costs, nonzero pairwise icosts)`, the pairs
/// magnitude-sorted (ties toward the lexically earlier set). Callers
/// truncate the pairs for the ledger; the attribution auditor consumes
/// the full list.
pub fn breakdown_lattice(
    graph: &DepGraph,
    chunk: usize,
    scratch: &mut LaneScratch,
) -> (u64, [i64; 8], Vec<(EventSet, i64)>) {
    let mut sets = Vec::with_capacity(1 + 8 + 28);
    sets.push(EventSet::EMPTY);
    sets.extend(EventClass::ALL.map(EventSet::single));
    let pair_sets = all_pairs();
    sets.extend_from_slice(&pair_sets);
    let times = graph.eval_many_chunked(&sets, chunk, scratch);
    let baseline = times[0];
    let cost = |t: u64| baseline as i64 - t as i64;
    let mut costs = [0i64; 8];
    for (i, t) in times[1..9].iter().enumerate() {
        costs[i] = cost(*t);
    }
    let mut pairs: Vec<(EventSet, i64)> = Vec::with_capacity(28);
    for (k, set) in pair_sets.iter().enumerate() {
        let mut members = set.iter();
        let (a, b) = (members.next().unwrap(), members.next().unwrap());
        let ai = EventClass::ALL.iter().position(|c| *c == a).unwrap();
        let bi = EventClass::ALL.iter().position(|c| *c == b).unwrap();
        let icost = cost(times[9 + k]) - costs[ai] - costs[bi];
        if icost != 0 {
            pairs.push((*set, icost));
        }
    }
    pairs.sort_by(|(s1, v1), (s2, v2)| {
        v2.abs()
            .cmp(&v1.abs())
            .then_with(|| s1.bits().cmp(&s2.bits()))
    });
    (baseline, costs, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::{OpClass, Reg, TraceBuilder};

    /// A connected looped trace with loads, dependence chains, long-
    /// latency ops and predictable-plus-back-edge branches so every
    /// base category can surface.
    fn busy_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        // 6 instructions per iteration (5 body + the loop back-edge).
        b.counted_loop(n / 6 + 1, r2, |b, k| {
            b.load(r1, 0x4000 + ((k as u64) * 64) % 16_384);
            b.alu(r2, &[r1]);
            b.op(OpClass::IntMult, Some(r1), &[r2]);
            b.store(r1, 0x9000 + ((k as u64) * 8) % 4096);
            b.load_indexed(r2, r1, 0x20_000 + ((k as u64) * 128) % 65_536);
        });
        let mut insts = b.finish().insts().to_vec();
        insts.truncate(n);
        Trace::from_insts(insts)
    }

    #[test]
    fn streaming_windows_match_isolated_batch_analysis() {
        let config = MachineConfig::table6();
        let trace = busy_trace(300);
        let mut builder = StreamingBuilder::new(&config, 64).with_chunk(17);
        let mut windows = Vec::new();
        for chunk in trace.insts().chunks(23) {
            windows.extend(builder.push_batch(chunk).expect("connected stream"));
        }
        assert_eq!(windows.len(), 300 / 64);
        for w in &windows {
            let slice = trace.insts()[w.start as usize..w.end as usize].to_vec();
            let t = Trace::from_insts(slice);
            let result = Simulator::new(&config).run(&t, Idealization::none());
            let graph = DepGraph::build(&t, &result, &config);
            assert_eq!(w.baseline, graph.evaluate(EventSet::EMPTY));
            for (i, class) in EventClass::ALL.iter().enumerate() {
                assert_eq!(
                    w.costs[i],
                    graph.cost(EventSet::single(*class)),
                    "window {} cost({})",
                    w.window,
                    class
                );
            }
            for (set, icost) in w.pairs.iter().chain(&w.all_pairs) {
                let mut it = set.iter();
                let (a, b) = (it.next().unwrap(), it.next().unwrap());
                let expect = graph.cost(*set)
                    - graph.cost(EventSet::single(a))
                    - graph.cost(EventSet::single(b));
                assert_eq!(*icost, expect, "window {} icost({})", w.window, set);
            }
            // The truncated top-k list is a prefix of the full list,
            // and the stall counters match the isolated batch sim.
            assert_eq!(w.pairs.as_slice(), &w.all_pairs[..w.pairs.len()]);
            assert!(w.all_pairs.iter().all(|(_, v)| *v != 0));
            assert_eq!(w.stalls, result.stalls, "window {}", w.window);
        }
    }

    #[test]
    fn ring_window_bounds_resident_memory_and_tracks_frontier() {
        let config = MachineConfig::table6();
        let trace = busy_trace(400);
        let mut builder = StreamingBuilder::new(&config, 32);
        for chunk in trace.insts().chunks(50) {
            builder.push_batch(chunk).expect("connected");
            assert!(builder.resident_insts() < 32 + 50);
        }
        assert!(builder.peak_resident() < 32 + 50);
        assert_eq!(builder.ingested(), 400);
        assert_eq!(builder.windows_emitted(), 400 / 32);
        // 400 = 12*32 + 16: a 16-inst partial window trails.
        assert_eq!(builder.frontier_lag(), 16);
        let tail = builder.finish().expect("partial window");
        assert_eq!((tail.start, tail.end), (384, 400));
        assert_eq!(builder.frontier_lag(), 0);
        assert!(builder.finish().is_none());
    }

    #[test]
    fn push_rejects_disconnected_paths_and_stays_usable() {
        let config = MachineConfig::table6();
        let trace = busy_trace(40);
        let mut builder = StreamingBuilder::new(&config, 16);
        builder
            .push_batch(&trace.insts()[..8])
            .expect("prefix is connected");
        let mut stray = trace.insts()[20];
        stray.pc = 0xdead_0000;
        let err = builder.push(stray).unwrap_err();
        assert!(err.contains("dynamic path"), "{err}");
        // The rejected instruction was not ingested; the stream resumes.
        assert_eq!(builder.ingested(), 8);
        builder
            .push_batch(&trace.insts()[8..])
            .expect("resume from the previous frontier");
        assert_eq!(builder.windows_emitted(), 2);
    }

    #[test]
    fn frontier_lag_reports_ingest_ahead_of_attribution() {
        let config = MachineConfig::table6();
        let trace = busy_trace(100);
        let mut builder = StreamingBuilder::new(&config, 20);
        let windows = builder.push_batch(trace.insts()).expect("connected");
        assert_eq!(windows.len(), 5);
        // The whole batch lands before any window retires, so window 0
        // sees 80 trailing instructions, window 4 sees none.
        assert_eq!(windows[0].frontier_lag, 80);
        assert_eq!(windows[4].frontier_lag, 0);
    }

    #[test]
    fn breakdown_maps_use_wire_names() {
        let config = MachineConfig::table6();
        let trace = busy_trace(64);
        let mut builder = StreamingBuilder::new(&config, 64);
        let w = builder
            .push_batch(trace.insts())
            .expect("connected")
            .remove(0);
        let costs = w.costs_by_name();
        assert_eq!(costs.len(), 8);
        assert!(costs.contains_key("dmiss") && costs.contains_key("shalu"));
        for (name, icost) in w.pairs_by_name() {
            assert!(name.contains('+'), "{name}");
            assert_ne!(icost, 0, "zero interactions are omitted");
        }
    }
}
