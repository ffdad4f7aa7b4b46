//! Custom, per-instruction idealizations.
//!
//! The paper's cost framework is not limited to the eight machine-level
//! categories: "how events are grouped into a set depends on the
//! application of the analysis — a software prefetching optimization
//! might consider the set of events consisting of all cache misses from a
//! single static load" (Section 1). This module lets callers idealize any
//! predicate over instructions, which is how per-static-load and
//! per-instruction costs are measured.

use crate::model::{DepGraph, GraphInst};
use uarch_trace::EventSet;

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

    fn is_none(self) -> bool {
        self == Self::NONE
    }
}

impl DepGraph {
    /// Critical-path length with a *per-instruction* idealization chosen
    /// by `pick` (called once per instruction), layered on top of the
    /// class-level idealization `ideal` (pass [`EventSet::EMPTY`] for
    /// none).
    ///
    /// `cost = evaluate(ideal) − evaluate_custom(ideal, pick)` gives the
    /// cost of exactly the chosen events.
    pub fn evaluate_custom(
        &self,
        ideal: EventSet,
        mut pick: impl FnMut(usize, &GraphInst) -> InstIdealization,
    ) -> u64 {
        // Fast path: reuse the shared evaluator when nothing custom is
        // requested.
        let mut any = false;
        let adjusted: Vec<GraphInst> = self
            .insts
            .iter()
            .enumerate()
            .map(|(i, gi)| {
                let what = pick(i, gi);
                if what.is_none() {
                    return *gi;
                }
                any = true;
                let mut g = *gi;
                if what.ideal_misses {
                    g.ep_dmiss = 0;
                    g.pp_producer = None;
                }
                if what.ideal_latency {
                    g.ep_dl1 = 0;
                    g.ep_dmiss = 0;
                    g.ep_shalu = 0;
                    g.ep_lgalu = 0;
                    g.ep_base = 0;
                    g.pp_producer = None;
                }
                if what.ideal_mispredict {
                    g.mispredicted = false;
                }
                g
            })
            .collect();
        if !any {
            return self.evaluate(ideal);
        }
        self.adjusted(adjusted).evaluate(ideal)
    }

    /// Cost (cycles saved) of idealizing the instructions selected by
    /// `pick`, with nothing else idealized.
    pub fn cost_custom(&self, pick: impl FnMut(usize, &GraphInst) -> InstIdealization) -> i64 {
        self.evaluate(EventSet::EMPTY) as i64 - self.evaluate_custom(EventSet::EMPTY, pick) as i64
    }

    /// The cost of each instruction in `targets`, measured *individually*
    /// with [`InstIdealization::LATENCY`] — the per-instruction cost
    /// metric of Tune et al. that the paper builds on. Returns one cost
    /// per target. O(n) per target.
    pub fn instruction_costs(&self, targets: &[usize]) -> Vec<i64> {
        targets
            .iter()
            .map(|&t| {
                self.cost_custom(|i, _| {
                    if i == t {
                        InstIdealization::LATENCY
                    } else {
                        InstIdealization::NONE
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GraphParams;
    use uarch_trace::MachineConfig;

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

    #[test]
    fn idealizing_the_only_miss_recovers_its_latency() {
        let insts = vec![miss_inst(100)];
        let g = DepGraph::from_parts(insts, params());
        let cost = g.cost_custom(|i, _| {
            if i == 0 {
                InstIdealization::MISSES
            } else {
                InstIdealization::NONE
            }
        });
        assert_eq!(cost, 100);
    }

    #[test]
    fn parallel_misses_have_zero_individual_but_large_joint_cost() {
        // The paper's motivating example, at instruction granularity.
        let insts = vec![miss_inst(100), miss_inst(100)];
        let g = DepGraph::from_parts(insts, params());
        let one = |t: usize| {
            g.cost_custom(|i, _| {
                if i == t {
                    InstIdealization::MISSES
                } else {
                    InstIdealization::NONE
                }
            })
        };
        let both = g.cost_custom(|_, _| InstIdealization::MISSES);
        assert_eq!(one(0), 0, "parallel miss #0 is individually free");
        assert_eq!(one(1), 0, "parallel miss #1 is individually free");
        assert!(both >= 100, "jointly they carry the time: {both}");
        // Negative? No — this is the canonical *parallel* interaction:
        // icost = both - one - one = both > 0.
    }

    #[test]
    fn instruction_costs_match_manual_queries() {
        let insts = vec![miss_inst(50), GraphInst::default(), miss_inst(80)];
        let g = DepGraph::from_parts(insts, params());
        let costs = g.instruction_costs(&[0, 2]);
        assert_eq!(costs.len(), 2);
        for c in &costs {
            assert!(*c >= 0);
        }
    }

    #[test]
    fn mispredict_idealization_removes_pd_edge() {
        let mut br = GraphInst {
            ep_shalu: 1,
            ..GraphInst::default()
        };
        br.mispredicted = true;
        let g = DepGraph::from_parts(vec![br, GraphInst::default()], params());
        let cost = g.cost_custom(|i, _| {
            if i == 0 {
                InstIdealization::MISPREDICT
            } else {
                InstIdealization::NONE
            }
        });
        assert!(cost > 0, "removing the recovery must save cycles: {cost}");
    }

    #[test]
    fn no_selection_is_free_and_fast_path() {
        let g = DepGraph::from_parts(vec![miss_inst(10)], params());
        assert_eq!(g.cost_custom(|_, _| InstIdealization::NONE), 0);
        assert_eq!(
            g.evaluate_custom(EventSet::EMPTY, |_, _| InstIdealization::NONE),
            g.evaluate(EventSet::EMPTY)
        );
    }
}
