//! Graph data model: per-instruction node data and machine parameters.

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use uarch_trace::{EventClass, MachineConfig, StableHasher};

/// The five nodes each dynamic instruction contributes (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Dispatch into the instruction window.
    D,
    /// All data operands ready, waiting on a functional unit.
    R,
    /// Executing.
    E,
    /// Completed execution.
    P,
    /// Committing.
    C,
}

impl NodeKind {
    /// All node kinds in pipeline order.
    pub const ALL: [NodeKind; 5] = [
        NodeKind::D,
        NodeKind::R,
        NodeKind::E,
        NodeKind::P,
        NodeKind::C,
    ];
}

/// The twelve edge classes of the model (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// In-order dispatch (`D_{i-1} → D_i`); carries I-cache/ITLB latency.
    DD,
    /// Finite fetch bandwidth (`D_{i-fbw} → D_i`, 1 cycle).
    FBW,
    /// Finite re-order buffer (`C_{i-w} → D_i`, 0 cycles).
    CD,
    /// Branch-misprediction recovery (`P_{i-1} → D_i`).
    PD,
    /// Execution follows dispatch (`D_i → R_i`, pipeline constant).
    DR,
    /// Data dependence (`P_j → R_i`); carries the wakeup bubble.
    PR,
    /// Execute after ready (`R_i → E_i`); carries contention delay.
    RE,
    /// Complete after execute (`E_i → P_i`); carries execution latency.
    EP,
    /// Cache-line sharing (`P_j → P_i`, 0 cycles) — partial misses.
    PP,
    /// Commit follows completion (`P_i → C_i`, pipeline constant).
    PC,
    /// In-order commit (`C_{i-1} → C_i`, 0 cycles).
    CC,
    /// Commit bandwidth (`C_{i-cbw} → C_i`, 1 cycle).
    CBW,
}

impl EdgeKind {
    /// All edge kinds, Table 3 order.
    pub const ALL: [EdgeKind; 12] = [
        EdgeKind::DD,
        EdgeKind::FBW,
        EdgeKind::CD,
        EdgeKind::PD,
        EdgeKind::DR,
        EdgeKind::PR,
        EdgeKind::RE,
        EdgeKind::EP,
        EdgeKind::PP,
        EdgeKind::PC,
        EdgeKind::CC,
        EdgeKind::CBW,
    ];

    /// Position of this kind in [`EdgeKind::ALL`] (Table 3 order) — the
    /// index used by the fixed-size per-class arrays in
    /// [`crate::CritPathSummary`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 3 name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::DD => "DD",
            EdgeKind::FBW => "FBW",
            EdgeKind::CD => "CD",
            EdgeKind::PD => "PD",
            EdgeKind::DR => "DR",
            EdgeKind::PR => "PR",
            EdgeKind::RE => "RE",
            EdgeKind::EP => "EP",
            EdgeKind::PP => "PP",
            EdgeKind::PC => "PC",
            EdgeKind::CC => "CC",
            EdgeKind::CBW => "CBW",
        }
    }
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One source operand's `PR` edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProducerEdge {
    /// Dynamic index of the producing instruction.
    pub producer: u32,
    /// Extra wakeup latency on the edge (the issue-wakeup bubble).
    pub bubble: u64,
    /// The class whose idealization removes the bubble (the producer's ALU
    /// class), if any.
    pub bubble_class: Option<EventClass>,
}

/// Per-instruction graph data. The `EP` latency is stored *decomposed by
/// category* so that idealizing an [`EventClass`] is a constant-time latency
/// adjustment during evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct GraphInst {
    /// `DD` latency into this instruction's `D` node (I-cache/ITLB delay;
    /// removed by `imiss`).
    pub dd_latency: u64,
    /// This instruction is a mispredicted branch: a `PD` edge runs from its
    /// `P` node to the next instruction's `D` node (removed by `bmisp`).
    pub mispredicted: bool,
    /// `RE` latency: observed issue/functional-unit contention (removed by
    /// `bw`).
    pub re_latency: u64,
    /// `EP` component attributable to the L1-data-cache lookup (removed by
    /// `dl1`).
    pub ep_dl1: u64,
    /// `EP` component attributable to data-cache/DTLB misses (removed by
    /// `dmiss`).
    pub ep_dmiss: u64,
    /// `EP` component from single-cycle integer execution (removed by
    /// `shalu`).
    pub ep_shalu: u64,
    /// `EP` component from multi-cycle int/FP execution (removed by
    /// `lgalu`).
    pub ep_lgalu: u64,
    /// `EP` component never idealized (normally zero).
    pub ep_base: u64,
    /// `PR` edges: up to two register producers.
    pub producers: [Option<ProducerEdge>; 2],
    /// `PP` edge: earlier load whose outstanding miss this one shares
    /// (removed by `dmiss`).
    pub pp_producer: Option<u32>,
}

impl GraphInst {
    /// Total `EP` latency with nothing idealized.
    pub fn ep_total(&self) -> u64 {
        self.ep_base + self.ep_dl1 + self.ep_dmiss + self.ep_shalu + self.ep_lgalu
    }
}

/// Static machine parameters the graph model needs (a snapshot of the
/// relevant [`MachineConfig`] fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphParams {
    /// Fetch bandwidth (`FBW` edge distance).
    pub fetch_width: usize,
    /// Commit bandwidth (`CBW` edge distance).
    pub commit_width: usize,
    /// Re-order buffer size (`CD` edge distance).
    pub rob_size: usize,
    /// Front-end depth: `D_0` anchor and part of the `PD` latency.
    pub front_end_depth: u64,
    /// `DR` edge latency.
    pub dispatch_to_ready: u64,
    /// `PC` edge latency.
    pub complete_to_commit: u64,
    /// `PD` edge latency (the misprediction loop: redirect + refill).
    pub misp_loop: u64,
}

impl From<&MachineConfig> for GraphParams {
    fn from(cfg: &MachineConfig) -> GraphParams {
        GraphParams {
            fetch_width: cfg.fetch_width,
            commit_width: cfg.commit_width,
            rob_size: cfg.rob_size,
            front_end_depth: cfg.front_end_depth,
            dispatch_to_ready: cfg.dispatch_to_ready,
            complete_to_commit: cfg.complete_to_commit,
            misp_loop: cfg.misp_loop(),
        }
    }
}

/// The dependence graph of one microexecution (or of a profiler-assembled
/// fragment).
#[derive(Debug)]
pub struct DepGraph {
    pub(crate) insts: Vec<GraphInst>,
    pub(crate) params: GraphParams,
    /// Reusable node-time buffer for `critical_path`/`slack`: those
    /// analyses re-derive the same full node-time vector per query, so the
    /// allocation is kept with the graph instead of being remade each call.
    /// A `Mutex` (not `RefCell`) so `&DepGraph` stays `Sync` and can be
    /// shared across the lane-kernel worker threads; contention falls back
    /// to a local allocation, it never blocks.
    pub(crate) times_scratch: std::sync::Mutex<Vec<crate::NodeTimes>>,
    /// The content fingerprint, computed on first use.
    fingerprint: OnceLock<u64>,
}

impl Clone for DepGraph {
    fn clone(&self) -> DepGraph {
        DepGraph {
            insts: self.insts.clone(),
            params: self.params,
            times_scratch: std::sync::Mutex::new(Vec::new()),
            fingerprint: self.fingerprint.clone(),
        }
    }
}

impl DepGraph {
    /// Assemble a graph directly from per-instruction node data. This is
    /// the entry point the shotgun profiler uses for reconstructed
    /// fragments; simulator-observed executions should prefer
    /// [`DepGraph::build`].
    ///
    /// # Panics
    /// Panics if any producer index is not strictly earlier than its
    /// consumer, or if bandwidth parameters are zero.
    pub fn from_parts(insts: Vec<GraphInst>, params: GraphParams) -> DepGraph {
        assert!(params.fetch_width > 0 && params.commit_width > 0 && params.rob_size > 0);
        for (i, gi) in insts.iter().enumerate() {
            for pe in gi.producers.iter().flatten() {
                assert!(
                    (pe.producer as usize) < i,
                    "inst {i}: producer {} not earlier",
                    pe.producer
                );
            }
            if let Some(pp) = gi.pp_producer {
                assert!((pp as usize) < i, "inst {i}: pp producer {pp} not earlier");
            }
        }
        DepGraph {
            insts,
            params,
            times_scratch: std::sync::Mutex::new(Vec::new()),
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of instructions in the graph.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The machine parameters the graph was built with.
    pub fn params(&self) -> &GraphParams {
        &self.params
    }

    /// Per-instruction node data.
    pub fn insts(&self) -> &[GraphInst] {
        &self.insts
    }

    /// A stable 64-bit fingerprint of the graph's content:
    /// [`StableHasher`] over [`DepGraph::insts`] then
    /// [`DepGraph::params`]. The first call walks the graph; later
    /// calls, and calls on clones, are O(1).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = StableHasher::default();
            self.insts.hash(&mut h);
            self.params.hash(&mut h);
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_names() {
        assert_eq!(EdgeKind::DD.name(), "DD");
        assert_eq!(EdgeKind::CBW.to_string(), "CBW");
        assert_eq!(EdgeKind::ALL.len(), 12);
    }

    #[test]
    fn ep_total_sums_components() {
        let g = GraphInst {
            ep_dl1: 2,
            ep_dmiss: 110,
            ..GraphInst::default()
        };
        assert_eq!(g.ep_total(), 112);
    }

    #[test]
    fn params_from_config() {
        let cfg = MachineConfig::table6();
        let p = GraphParams::from(&cfg);
        assert_eq!(p.rob_size, 64);
        assert_eq!(p.misp_loop, cfg.misp_loop());
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn from_parts_rejects_forward_producer() {
        let params = GraphParams::from(&MachineConfig::table6());
        let bad = GraphInst {
            producers: [
                Some(ProducerEdge {
                    producer: 5,
                    bubble: 0,
                    bubble_class: None,
                }),
                None,
            ],
            ..GraphInst::default()
        };
        let _ = DepGraph::from_parts(vec![bad], params);
    }
}
