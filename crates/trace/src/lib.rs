//! ISA, trace, and machine-configuration substrate for the interaction-cost
//! bottleneck-analysis reproduction (Fields, Bodík, Hill, Newburn — MICRO-36,
//! 2003).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Inst`] / [`Trace`] — dynamic instructions as consumed by the
//!   cycle-level simulator (`uarch-sim`),
//! * [`WarmSet`] — addresses touched before timing, which memoize their
//!   fold into a [`StableHasher`] so context fingerprints stay cheap,
//! * [`StaticProgram`] — the "program binary" view needed by the shotgun
//!   profiler's reconstruction algorithm (paper Figure 5a infers control flow
//!   and operand structure from the binary),
//! * [`MachineConfig`] — the simulated machine (paper Table 6),
//! * [`EventClass`] / [`EventSet`] — the eight base breakdown categories of
//!   the paper's evaluation (dl1, win, bw, bmisp, dmiss, shalu, lgalu,
//!   imiss) and sets thereof, which every cost oracle is keyed by.
//!
//! # Example
//!
//! ```
//! use uarch_trace::{TraceBuilder, Reg, EventClass, EventSet};
//!
//! let mut b = TraceBuilder::new();
//! let r1 = Reg::int(1);
//! b.load(r1, 0x1000);
//! b.alu(Reg::int(2), &[r1]);
//! let trace = b.finish();
//! assert_eq!(trace.len(), 2);
//!
//! let set = EventSet::from([EventClass::Dl1, EventClass::Win]);
//! assert_eq!(set.to_string(), "dl1+win");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod events;
mod fingerprint;
mod inst;
mod program;
mod trace;
mod warm;

pub use config::{BranchPredictorConfig, CacheConfig, FuClass, FuConfig, MachineConfig, TlbConfig};
pub use events::{EventClass, EventSet, Subsets};
pub use fingerprint::StableHasher;
pub use inst::{Inst, OpClass, Reg};
pub use program::{StaticInst, StaticProgram};
pub use trace::{Trace, TraceBuilder};
pub use warm::WarmSet;
