//! `uarch-runner` — the parallel cost-lattice evaluation engine.
//!
//! Interaction-cost analysis (the `icost` crate) is defined over a
//! `cost(S)` oracle; the ground-truth oracle re-simulates the machine once
//! per event set, and a full breakdown walks a power-set *lattice* of
//! sets. That workload has three exploitable structures:
//!
//! 1. **Redundancy across queries** — every `icost(U)` needs all subsets
//!    of `U`, so overlapping queries share most of their jobs.
//! 2. **Independence across jobs** — each simulation is a pure function
//!    of `(trace, config, idealization)`; they can run on any thread in
//!    any order.
//! 3. **Repetition across runs** — benchmark sweeps and repeated analyses
//!    re-pose identical jobs, which a content-addressed cache answers
//!    without simulating.
//!
//! This crate turns those structures into machinery:
//!
//! * [`Runner`] / [`Query`] — batch front door: expand queries into the
//!   minimal distinct job set, execute in one parallel wave, answer from
//!   cache;
//! * [`Oracle`] / [`Backend`] — the one [`CostOracle`], built by
//!   [`Runner::oracle`]: the same dedup, cache, telemetry and ledger path
//!   over either ground-truth re-simulation (bit-identical to the serial
//!   `MultiSimOracle`) or the lane-batched dependence-graph kernel
//!   (bit-identical to `GraphOracle`);
//! * [`SimCache`] / [`ContextId`] — the shared, optionally disk-backed
//!   result store keyed by content fingerprints;
//! * [`RunReport`] — telemetry (jobs, dedups, hits, sims, wall time)
//!   printable as a table;
//! * [`parallel_map`] — the deterministic scoped thread pool underneath.
//!
//! Determinism guarantee: results never depend on thread count or
//! scheduling. Parallelism and caching change *when* a number is computed,
//! never *what* it is — the equivalence property tests pin this.
//!
//! [`CostOracle`]: icost::CostOracle

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod fingerprint;
mod oracle;
mod pool;
mod report;
mod run;

pub use cache::{SimCache, CACHE_MAX_AGE_ENV, CACHE_MAX_BYTES_ENV};
pub use fingerprint::{context_id, graph_context_id, ContextId, StableHasher};
pub use oracle::{Backend, Oracle};
pub use pool::{default_threads, parallel_map};
pub use report::RunReport;
pub use run::{Query, Runner};
