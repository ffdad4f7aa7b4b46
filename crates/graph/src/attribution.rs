//! One range's interaction-cost attribution: the paper's breakdown
//! (eight base costs plus the 28 pairwise icosts) beside the stall
//! counters of the same simulation. Streamed windows, runner audits and
//! `POST /explain` all build it here, so the audit plane checks every
//! range through the same step.

use uarch_sim::{Idealization, PipelineStalls, Simulator};
use uarch_trace::{EventClass, EventSet, MachineConfig, Trace};

use crate::lanes::LaneScratch;
use crate::model::DepGraph;

/// The breakdown of one analyzed range and the counters it is audited
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Baseline critical-path cycles `t(∅)` of the range's graph.
    pub baseline: u64,
    /// Singleton `cost(c)` per base category, in [`EventClass::ALL`]
    /// order.
    pub costs: [i64; 8],
    /// Every nonzero pairwise `icost({a,b})`, largest `|icost|` first;
    /// ties break toward the lexically earlier set so the order is
    /// deterministic.
    pub pairs: Vec<(EventSet, i64)>,
    /// Per-cause stall counters of the range's baseline simulation.
    pub stalls: PipelineStalls,
}

impl Attribution {
    /// Simulate `trace` on `config` (after warming `warm_data` /
    /// `warm_code`), build its dependence graph and evaluate the
    /// breakdown lattice.
    pub fn simulate(
        config: &MachineConfig,
        trace: &Trace,
        warm_data: &[u64],
        warm_code: &[u64],
        scratch: &mut LaneScratch,
    ) -> Attribution {
        let result =
            Simulator::new(config).run_warmed(trace, Idealization::none(), warm_data, warm_code);
        let graph = DepGraph::build(trace, &result, config);
        Attribution::of_graph(&graph, result.stalls, scratch)
    }

    /// Evaluate `graph`'s breakdown lattice — baseline, the 8
    /// singletons and all 28 pairs in one lane pass — and pair it with
    /// `stalls`.
    pub fn of_graph(
        graph: &DepGraph,
        stalls: PipelineStalls,
        scratch: &mut LaneScratch,
    ) -> Attribution {
        // The 28 pairs as index pairs into `EventClass::ALL`, in
        // upper-triangle order.
        let pair_idx: Vec<(usize, usize)> = (0..8)
            .flat_map(|i| (i + 1..8).map(move |j| (i, j)))
            .collect();
        let pair_set =
            |(i, j): (usize, usize)| EventSet::single(EventClass::ALL[i]).with(EventClass::ALL[j]);
        let mut sets = Vec::with_capacity(1 + 8 + 28);
        sets.push(EventSet::EMPTY);
        sets.extend(EventClass::ALL.map(EventSet::single));
        sets.extend(pair_idx.iter().map(|&p| pair_set(p)));
        let times = graph.eval_many_with(&sets, scratch);
        let baseline = times[0];
        let cost = |t: u64| baseline as i64 - t as i64;
        let costs: [i64; 8] = std::array::from_fn(|i| cost(times[1 + i]));
        let mut pairs: Vec<(EventSet, i64)> = pair_idx
            .iter()
            .zip(&times[9..])
            .map(|(&(i, j), &t)| (pair_set((i, j)), cost(t) - costs[i] - costs[j]))
            .filter(|&(_, icost)| icost != 0)
            .collect();
        pairs.sort_by(|(s1, v1), (s2, v2)| {
            v2.abs()
                .cmp(&v1.abs())
                .then_with(|| s1.bits().cmp(&s2.bits()))
        });
        Attribution {
            baseline,
            costs,
            pairs,
            stalls,
        }
    }
}
