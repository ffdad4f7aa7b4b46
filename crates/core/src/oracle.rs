//! Cost oracles: ways of answering `cost(S)` for an event set `S`.

use std::collections::HashMap;

use uarch_graph::{DepGraph, LaneScratch};
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventSet, MachineConfig, Trace};

/// Anything that can measure the cost (cycles saved by idealization) of an
/// event set. Implementations are expected to memoize: icost computation
/// evaluates overlapping power sets.
pub trait CostOracle {
    /// `cost(S) = t − t(S)`: cycles saved by idealizing `S` (paper
    /// Section 2.1). `cost(∅) = 0` by definition.
    fn cost(&mut self, set: EventSet) -> i64;

    /// Baseline execution time `t` in cycles (nothing idealized).
    fn baseline(&mut self) -> u64;

    /// Cost as a percentage of baseline execution time — the unit used by
    /// every breakdown table in the paper.
    fn cost_percent(&mut self, set: EventSet) -> f64 {
        let base = self.baseline();
        if base == 0 {
            0.0
        } else {
            100.0 * self.cost(set) as f64 / base as f64
        }
    }

    /// Hint that every set in `sets` is about to be queried via
    /// [`CostOracle::cost`]. Batch-capable oracles (the `uarch-runner`
    /// crate's parallel/cached oracles) expand this into one deduplicated
    /// wave of simulation jobs; the default is a no-op, so serial oracles
    /// are unaffected. Callers must not rely on prefetching for
    /// correctness — `cost` must return the same value either way.
    fn prefetch(&mut self, sets: &[EventSet]) {
        let _ = sets;
    }
}

/// The fast oracle: graph re-evaluation under per-edge idealization
/// (paper Section 3). One O(n) pass per distinct set, memoized; batches
/// announced via [`CostOracle::prefetch`] (every `Breakdown` does this)
/// run through the lane-batched kernel, many sets per pass.
#[derive(Debug)]
pub struct GraphOracle<'g> {
    graph: &'g DepGraph,
    memo: HashMap<EventSet, i64>,
    baseline: u64,
    scratch: LaneScratch,
}

impl<'g> GraphOracle<'g> {
    /// Create an oracle over a built dependence graph.
    pub fn new(graph: &'g DepGraph) -> GraphOracle<'g> {
        GraphOracle {
            graph,
            memo: HashMap::new(),
            baseline: graph.evaluate(EventSet::EMPTY),
            scratch: LaneScratch::new(),
        }
    }

    /// Number of distinct sets evaluated so far (for efficiency tests).
    pub fn evaluations(&self) -> usize {
        self.memo.len()
    }
}

impl CostOracle for GraphOracle<'_> {
    fn cost(&mut self, set: EventSet) -> i64 {
        if set.is_empty() {
            return 0;
        }
        let graph = self.graph;
        let baseline = self.baseline;
        *self
            .memo
            .entry(set)
            .or_insert_with(|| baseline as i64 - graph.evaluate(set) as i64)
    }

    fn baseline(&mut self) -> u64 {
        self.baseline
    }

    fn prefetch(&mut self, sets: &[EventSet]) {
        let mut jobs: Vec<EventSet> = Vec::new();
        for &s in sets {
            if !s.is_empty() && !self.memo.contains_key(&s) && !jobs.contains(&s) {
                jobs.push(s);
            }
        }
        if jobs.is_empty() {
            return;
        }
        let times = self.graph.eval_many_with(&jobs, &mut self.scratch);
        for (s, t) in jobs.into_iter().zip(times) {
            self.memo.insert(s, self.baseline as i64 - t as i64);
        }
    }
}

/// The expensive, ground-truth oracle: re-run the cycle-level simulator
/// with the set idealized (paper Table 1). Requires `2^n` simulations for a
/// full n-class power set — exactly the expense Section 3 motivates
/// avoiding.
#[derive(Debug)]
pub struct MultiSimOracle<'a> {
    config: &'a MachineConfig,
    trace: &'a Trace,
    memo: HashMap<EventSet, i64>,
    baseline: Option<u64>,
}

impl<'a> MultiSimOracle<'a> {
    /// Create an oracle that re-simulates `trace` on `config` per query.
    pub fn new(config: &'a MachineConfig, trace: &'a Trace) -> MultiSimOracle<'a> {
        MultiSimOracle {
            config,
            trace,
            memo: HashMap::new(),
            baseline: None,
        }
    }

    /// Number of simulations run so far (excluding the baseline).
    pub fn simulations(&self) -> usize {
        self.memo.len()
    }
}

impl CostOracle for MultiSimOracle<'_> {
    fn cost(&mut self, set: EventSet) -> i64 {
        if set.is_empty() {
            return 0;
        }
        let base = self.baseline() as i64;
        let config = self.config;
        let trace = self.trace;
        *self.memo.entry(set).or_insert_with(|| {
            base - Simulator::new(config).cycles(trace, Idealization::from(set)) as i64
        })
    }

    fn baseline(&mut self) -> u64 {
        if self.baseline.is_none() {
            self.baseline =
                Some(Simulator::new(self.config).cycles(self.trace, Idealization::none()));
        }
        self.baseline.expect("just set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::Idealization;
    use uarch_trace::{EventClass, Reg, TraceBuilder};

    fn kernel() -> Trace {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        for k in 0..40u64 {
            b.load(r1, 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[r1]);
        }
        b.finish()
    }

    #[test]
    fn memoizes_graph_evaluations() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let res = Simulator::new(&cfg).run(&t, Idealization::none());
        let g = DepGraph::build(&t, &res, &cfg);
        let mut o = GraphOracle::new(&g);
        let s = EventSet::single(EventClass::Dmiss);
        let c1 = o.cost(s);
        let c2 = o.cost(s);
        assert_eq!(c1, c2);
        assert_eq!(o.evaluations(), 1);
        assert_eq!(o.cost(EventSet::EMPTY), 0);
    }

    #[test]
    fn multisim_oracle_counts_runs() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let mut o = MultiSimOracle::new(&cfg, &t);
        let _ = o.cost(EventSet::single(EventClass::Dmiss));
        let _ = o.cost(EventSet::single(EventClass::Dmiss));
        let _ = o.cost(EventSet::single(EventClass::Win));
        assert_eq!(o.simulations(), 2);
    }

    #[test]
    fn oracles_agree_on_baseline() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let res = Simulator::new(&cfg).run(&t, Idealization::none());
        let g = DepGraph::build(&t, &res, &cfg);
        let mut go = GraphOracle::new(&g);
        let mut mo = MultiSimOracle::new(&cfg, &t);
        assert_eq!(go.baseline(), res.cycles);
        assert_eq!(mo.baseline(), res.cycles);
    }

    #[test]
    fn graph_cost_tracks_multisim_for_dmiss() {
        // The graph is an approximation; for a miss-dominated kernel the
        // dmiss cost must agree within a modest tolerance (the paper
        // reports ~11% average error across categories).
        let cfg = MachineConfig::table6();
        let t = kernel();
        let res = Simulator::new(&cfg).run(&t, Idealization::none());
        let g = DepGraph::build(&t, &res, &cfg);
        let mut go = GraphOracle::new(&g);
        let mut mo = MultiSimOracle::new(&cfg, &t);
        let s = EventSet::single(EventClass::Dmiss);
        let gc = go.cost(s) as f64;
        let mc = mo.cost(s) as f64;
        assert!(mc > 0.0);
        let err = (gc - mc).abs() / mc;
        assert!(err < 0.25, "graph {gc} vs multisim {mc} (err {err:.2})");
    }

    #[test]
    fn cost_percent_scales() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let res = Simulator::new(&cfg).run(&t, Idealization::none());
        let g = DepGraph::build(&t, &res, &cfg);
        let mut o = GraphOracle::new(&g);
        let pct = o.cost_percent(EventSet::single(EventClass::Dmiss));
        assert!(pct > 0.0 && pct <= 100.0, "{pct}");
    }
}
