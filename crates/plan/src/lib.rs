//! `uarch-plan` — the mixed-fidelity query planner.
//!
//! The stack below this crate offers three ways to answer a
//! `cost(S)`/`icost(U)` query, spanning a ~100x cost range:
//!
//! | Rung    | Substrate                              | Cost     | Fidelity    |
//! |---------|----------------------------------------|----------|-------------|
//! | `cache` | shared content-addressed [`SimCache`]  | free     | exact       |
//! | `graph` | lane-batched graph [`Oracle`]          | cheap    | approximate |
//! | `sim`   | parallel ground-truth re-simulation    | expensive| exact       |
//!
//! Until now callers picked one up front — paying full re-simulation or
//! trusting the graph blindly. The [`Planner`] routes each query to the
//! *cheapest sufficient* rung: answers from cached ground truth when
//! the cache covers the query, otherwise from the graph kernel, and
//! escalates to re-simulation only when the confidence model flags the
//! graph answer as low-trust. Every answer carries provenance and a
//! confidence score, every escalation teaches the [`Calibrator`] how
//! far the graph strays for this context, and every decision is
//! ledgered (`calib` + `plan` records) so a later process replays the
//! calibration instead of relearning it.
//!
//! ```no_run
//! use uarch_plan::Planner;
//! use uarch_runner::{Query, Runner};
//! use uarch_sim::{Idealization, Simulator};
//! use uarch_graph::DepGraph;
//! use uarch_trace::{EventClass, EventSet, MachineConfig, TraceBuilder};
//!
//! let config = MachineConfig::table6();
//! let trace = TraceBuilder::new().finish();
//! let baseline = Simulator::new(&config).run(&trace, Idealization::none());
//! let graph = DepGraph::build(&trace, &baseline, &config);
//! let runner = Runner::new();
//! let mut planner = Planner::new(&runner, &config, &trace, &[], &[], &graph);
//! let (answers, report) = planner.plan(&[
//!     Query::Cost(EventSet::single(EventClass::Dmiss)),
//! ]);
//! println!("{} via {} (confidence {:.2})",
//!     answers[0].value, answers[0].provenance.as_str(), answers[0].confidence);
//! println!("{} ground-truth sims", report.sims_run);
//! ```
//!
//! [`SimCache`]: uarch_runner::SimCache
//! [`Oracle`]: uarch_runner::Oracle

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calibrate;
mod planner;

pub use calibrate::{Calibrator, ContextCalibration, AUDIT_REFUTED_SET};
pub use planner::{
    assess, Assessment, PlanConfig, PlanProvenance, PlanReason, PlannedAnswer, Planner,
};
