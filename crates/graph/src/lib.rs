//! Microexecution dependence-graph model of an out-of-order processor
//! (MICRO-36 2003, Tables 2 and 3, Figure 2).
//!
//! Each dynamic instruction contributes five nodes — `D` (dispatch into
//! window), `R` (ready), `E` (execute), `P` (completed execution), `C`
//! (commit) — connected by twelve classes of latency-labelled dependence
//! edges:
//!
//! | edge | constraint | latency source |
//! |---|---|---|
//! | `DD`  | in-order dispatch            | I-cache/ITLB misses (dynamic) |
//! | `FBW` | finite fetch bandwidth       | 1 cycle |
//! | `CD`  | finite re-order buffer       | 0 |
//! | `PD`  | branch misprediction recovery| misprediction loop (static) |
//! | `DR`  | execution follows dispatch   | pipeline (static) |
//! | `PR`  | data dependences             | wakeup bubble (dynamic) |
//! | `RE`  | execute after ready          | contention (dynamic) |
//! | `EP`  | complete after execute       | execution latency (dynamic) |
//! | `PP`  | cache-line sharing           | 0 |
//! | `PC`  | commit follows completion    | pipeline (static) |
//! | `CC`  | in-order commit              | 0 |
//! | `CBW` | commit bandwidth             | 1 cycle |
//!
//! The paper's central trick (Section 3) is to measure the **cost** of an
//! event set by *idealizing edges* — zeroing or removing the latencies the
//! set is responsible for — and re-measuring the critical-path length,
//! instead of re-running the simulator. All edges point forward in
//! (instruction, node) order, so evaluation is a single O(n) relaxation
//! pass ([`DepGraph::evaluate`]).
//!
//! # Example
//!
//! ```
//! use uarch_graph::DepGraph;
//! use uarch_sim::{Simulator, Idealization};
//! use uarch_trace::{MachineConfig, TraceBuilder, Reg, EventClass, EventSet};
//!
//! let mut b = TraceBuilder::new();
//! let r1 = Reg::int(1);
//! b.load(r1, 0x4000);
//! b.alu(Reg::int(2), &[r1]);
//! let trace = b.finish();
//!
//! let config = MachineConfig::table6();
//! let result = Simulator::new(&config).run(&trace, Idealization::none());
//! let graph = DepGraph::build(&trace, &result, &config);
//!
//! let base = graph.evaluate(EventSet::EMPTY);
//! let nodmiss = graph.evaluate(EventSet::single(EventClass::Dmiss));
//! assert!(nodmiss <= base);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attribution;
mod build;
mod critpath;
mod custom;
mod eval;
mod lanes;
mod model;
mod stream;

pub use attribution::Attribution;
pub use build::decompose_ep;
pub use critpath::{CritPathSummary, SlackReport};
pub use custom::InstIdealization;
pub use eval::NodeTimes;
pub use lanes::{LaneScratch, DEFAULT_CHUNK, MAX_LANES};
pub use model::{DepGraph, EdgeKind, GraphInst, GraphParams, NodeKind, ProducerEdge};
pub use stream::{StreamingBuilder, WindowBreakdown, DEFAULT_TOP_PAIRS, DEFAULT_WINDOW};
