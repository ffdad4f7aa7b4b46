//! Custom, per-instruction idealizations.
//!
//! The paper's cost framework is not limited to the eight machine-level
//! categories: "how events are grouped into a set depends on the
//! application of the analysis — a software prefetching optimization
//! might consider the set of events consisting of all cache misses from a
//! single static load" (Section 1). This module lets callers idealize any
//! predicate over instructions, which is how per-static-load and
//! per-instruction costs are measured. The transform returns a graph like
//! any other, so its `t(S)` is measured the one way every graph's is.

use crate::model::{DepGraph, GraphInst};

/// What to idealize about one instruction in a custom evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstIdealization {
    /// Zero the `dmiss` component of `EP` and drop the `PP` edge
    /// (idealize this instruction's cache misses to hits — Table 1 row 1,
    /// per instruction).
    pub ideal_misses: bool,
    /// Zero the *entire* `EP` latency (idealize the operation itself —
    /// Table 1 row 2, per instruction).
    pub ideal_latency: bool,
    /// Drop this instruction's `PD` recovery edge (idealize this branch's
    /// misprediction).
    pub ideal_mispredict: bool,
}

impl InstIdealization {
    /// Idealize nothing about this instruction.
    pub const NONE: InstIdealization = InstIdealization {
        ideal_misses: false,
        ideal_latency: false,
        ideal_mispredict: false,
    };

    /// Idealize this instruction's cache misses.
    pub const MISSES: InstIdealization = InstIdealization {
        ideal_misses: true,
        ideal_latency: false,
        ideal_mispredict: false,
    };

    /// Idealize this instruction's execution latency entirely.
    pub const LATENCY: InstIdealization = InstIdealization {
        ideal_misses: true,
        ideal_latency: true,
        ideal_mispredict: false,
    };

    /// Idealize this branch's misprediction.
    pub const MISPREDICT: InstIdealization = InstIdealization {
        ideal_misses: false,
        ideal_latency: false,
        ideal_mispredict: true,
    };

    /// `gi` with this idealization applied.
    fn apply(self, mut gi: GraphInst) -> GraphInst {
        if self.ideal_misses {
            gi.ep_dmiss = 0;
            gi.pp_producer = None;
        }
        if self.ideal_latency {
            gi.ep_dl1 = 0;
            gi.ep_dmiss = 0;
            gi.ep_shalu = 0;
            gi.ep_lgalu = 0;
            gi.ep_base = 0;
            gi.pp_producer = None;
        }
        if self.ideal_mispredict {
            gi.mispredicted = false;
        }
        gi
    }
}

impl DepGraph {
    /// This graph with a *per-instruction* idealization chosen by `pick`
    /// (called once per instruction, in order). The chosen events'
    /// latencies and edges are gone from the result, so
    /// `evaluate(S) − idealize_insts(pick).evaluate(S)` is the cost of
    /// exactly the chosen events on top of the class-level set `S`.
    pub fn idealize_insts(
        &self,
        mut pick: impl FnMut(usize, &GraphInst) -> InstIdealization,
    ) -> DepGraph {
        let insts = self
            .insts
            .iter()
            .enumerate()
            .map(|(i, gi)| pick(i, gi).apply(*gi))
            .collect();
        DepGraph::from_parts(insts, self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GraphParams;
    use uarch_trace::{EventSet, MachineConfig};

    fn params() -> GraphParams {
        GraphParams::from(&MachineConfig::table6())
    }

    fn miss_inst(lat: u64) -> GraphInst {
        GraphInst {
            ep_dl1: 2,
            ep_dmiss: lat,
            ..GraphInst::default()
        }
    }

    /// Cycles saved by idealizing what `pick` chooses, nothing else.
    fn cost(g: &DepGraph, pick: impl FnMut(usize, &GraphInst) -> InstIdealization) -> i64 {
        let t = |g: &DepGraph| g.evaluate(EventSet::EMPTY) as i64;
        t(g) - t(&g.idealize_insts(pick))
    }

    /// Idealize `what` about instruction `t` only.
    fn only(t: usize, what: InstIdealization) -> impl FnMut(usize, &GraphInst) -> InstIdealization {
        move |i, _| if i == t { what } else { InstIdealization::NONE }
    }

    #[test]
    fn idealizing_the_only_miss_recovers_its_latency() {
        let g = DepGraph::from_parts(vec![miss_inst(100)], params());
        assert_eq!(cost(&g, only(0, InstIdealization::MISSES)), 100);
    }

    #[test]
    fn parallel_misses_have_zero_individual_but_large_joint_cost() {
        // The paper's motivating example, at instruction granularity.
        let insts = vec![miss_inst(100), miss_inst(100)];
        let g = DepGraph::from_parts(insts, params());
        let one = |t: usize| cost(&g, only(t, InstIdealization::MISSES));
        let both = cost(&g, |_, _| InstIdealization::MISSES);
        assert_eq!(one(0), 0, "parallel miss #0 is individually free");
        assert_eq!(one(1), 0, "parallel miss #1 is individually free");
        assert!(both >= 100, "jointly they carry the time: {both}");
        // Negative? No — this is the canonical *parallel* interaction:
        // icost = both - one - one = both > 0.
    }

    #[test]
    fn mispredict_idealization_removes_pd_edge() {
        let mut br = GraphInst {
            ep_shalu: 1,
            ..GraphInst::default()
        };
        br.mispredicted = true;
        let g = DepGraph::from_parts(vec![br, GraphInst::default()], params());
        let cost = cost(&g, only(0, InstIdealization::MISPREDICT));
        assert!(cost > 0, "removing the recovery must save cycles: {cost}");
    }

    #[test]
    fn no_selection_is_free_and_fast_path() {
        let g = DepGraph::from_parts(vec![miss_inst(10)], params());
        assert_eq!(cost(&g, |_, _| InstIdealization::NONE), 0);
        let same = g.idealize_insts(|_, _| InstIdealization::NONE);
        assert_eq!(same.insts(), g.insts());
        assert_eq!(same.fingerprint(), g.fingerprint());
    }
}
