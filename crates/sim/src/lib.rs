//! Cycle-level out-of-order processor simulator for the interaction-cost
//! reproduction.
//!
//! This crate is the substrate the MICRO-36 2003 paper evaluates on: a
//! trace-driven, cycle-level model of the Table 6 machine — combined
//! bimodal/gshare branch prediction with BTB and return-address stack, a
//! two-level cache hierarchy with TLBs and miss-merging (partial misses), a
//! functional-unit pool, and a fetch/dispatch/issue/commit engine with a
//! finite instruction window.
//!
//! Two outputs matter downstream:
//!
//! 1. **Execution time** under a chosen set of idealizations
//!    ([`Idealization`], paper Table 1) — this is the "multi-simulation"
//!    cost oracle the paper validates against.
//! 2. **Per-instruction [`ExecRecord`]s** — the latency, dependence and
//!    event information from which `uarch-graph` builds the dependence
//!    graph and `shotgun` draws its samples.
//!
//! Modeling notes (deviations from the paper's SimpleScalar baseline, all
//! recorded in `DESIGN.md`): wrong-path fetch is not simulated (its timing
//! effect — the redirect penalty — is); memory disambiguation is perfect
//! with free store-to-load forwarding (per Table 6); functional-unit
//! contention is folded into the `bw` (bandwidth) category together with
//! issue width.
//!
//! # Example
//!
//! ```
//! use uarch_sim::{Simulator, Idealization};
//! use uarch_trace::{MachineConfig, TraceBuilder, Reg, EventClass, EventSet};
//!
//! let mut b = TraceBuilder::new();
//! let r1 = Reg::int(1);
//! b.load(r1, 0x10_0000);
//! b.alu(Reg::int(2), &[r1]);
//! let trace = b.finish();
//!
//! let config = MachineConfig::table6();
//! let base = Simulator::new(&config).run(&trace, Idealization::none());
//! let ideal = Simulator::new(&config)
//!     .run(&trace, Idealization::from(EventSet::single(EventClass::Dmiss)));
//! assert!(ideal.cycles <= base.cycles);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod branch;
mod cache;
mod engine;
mod ideal;
mod record;

pub use branch::{BranchOutcome, BranchPredictor};
pub use cache::{Cache, MemSystem, MissLevel, Tlb};
pub use engine::{EngineMode, Simulator};
pub use ideal::Idealization;
pub use record::{EngineStats, EventCounts, ExecRecord, PipelineStalls, SimResult};
