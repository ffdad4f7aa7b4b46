//! Interaction-cost bottleneck analysis — the primary contribution of
//! *"Using Interaction Costs for Microarchitectural Bottleneck Analysis"*
//! (Fields, Bodík, Hill, Newburn — MICRO-36, 2003).
//!
//! The **cost** of an event set `S` is the speedup from idealizing `S`
//! (Section 2.1): `cost(S) = t − t(S)`. The **interaction cost** of two
//! events quantifies the cycles only removable by optimizing both together
//! (Section 2.2):
//!
//! ```text
//! icost({a,b}) = cost({a,b}) − cost(a) − cost(b)
//! ```
//!
//! and generalizes recursively to any set `U`:
//! `icost(U) = cost(U) − Σ_{V ∈ P(U)∖U} icost(V)`, equivalently the Möbius
//! inversion `icost(U) = Σ_{V⊆U} (−1)^{|U∖V|} cost(V)`.
//!
//! Interaction costs are zero (independent events), positive (parallel
//! interaction: extra speedup only from optimizing both) or negative
//! (serial interaction: optimizing either alone already helps; doing both
//! fully is not worthwhile).
//!
//! This crate provides:
//!
//! * [`CostOracle`] — the `cost(S)` abstraction, with serial per-set
//!   references for the paper's two measurements: re-simulation
//!   ([`MultiSimOracle`], 2ⁿ runs) and dependence-graph analysis
//!   ([`GraphOracle`], Section 3). Analyses ask `uarch-runner`'s
//!   `Runner::oracle`, which batches, caches and counts the same answers;
//! * [`icost`]/[`icost_of_sets`]/[`Interaction`] — the icost algebra;
//! * [`Breakdown`] — parallelism-aware CPI breakdowns (Section 2.3,
//!   Table 4 layout) and their ASCII visualization (Figure 1b);
//! * [`sensitivity`] — conventional sensitivity-study sweeps for
//!   validating icost conclusions (Section 4.3, Figure 3).
//!
//! # Example
//!
//! ```
//! use icost::{GraphOracle, icost, Interaction, CostOracle};
//! use uarch_graph::DepGraph;
//! use uarch_sim::{Simulator, Idealization};
//! use uarch_trace::{MachineConfig, TraceBuilder, Reg, EventClass, EventSet};
//!
//! // Two parallel cache misses: individually free, jointly expensive.
//! let mut b = TraceBuilder::new();
//! b.load(Reg::int(1), 0x10_0000);
//! b.load(Reg::int(2), 0x20_0000);
//! let trace = b.finish();
//!
//! let config = MachineConfig::table6();
//! let result = Simulator::new(&config).run(&trace, Idealization::none());
//! let graph = DepGraph::build(&trace, &result, &config);
//! let mut oracle = GraphOracle::new(&graph);
//! let set = EventSet::from([EventClass::Dmiss, EventClass::Dl1]);
//! let _ic = icost(&mut oracle, set);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algebra;
mod breakdown;
mod oracle;
pub mod sensitivity;
mod traditional;
mod viz;

pub use algebra::{icost, icost_of_sets, Interaction};
pub use breakdown::{table, Breakdown, BreakdownRow, RowKind};
pub use oracle::{CostOracle, GraphOracle, MultiSimOracle};
pub use traditional::{traditional_breakdown, TraditionalBreakdown};
pub use viz::render_bar_chart;
