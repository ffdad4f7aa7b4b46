//! The shotgun profiler (MICRO-36 2003, Section 5).
//!
//! Measuring interaction costs on real hardware requires building
//! dependence-graph fragments without recording every dynamic
//! instruction. The paper's profiler collects two kinds of cheap samples:
//!
//! * **Signature samples** — two signature bits (Table 5) for each of the
//!   next ~1000 dynamic instructions plus a single start PC: a long,
//!   narrow fingerprint of one microexecution path.
//! * **Detailed samples** — full latency/dependence information for a
//!   *single* dynamic instruction (à la ProfileMe), bracketed by the
//!   signature bits of the ten instructions before and after it.
//!
//! Post-mortem software (Figure 5a) picks a signature sample as the
//! skeleton, infers each successive PC from the program binary, and fills
//! in each instruction with the best-matching detailed sample for that PC,
//! falling back to static defaults when none exists. Impossible
//! signature-bit settings reveal inconsistent control paths, which are
//! discarded. The reassembled fragments are analyzed exactly as if they
//! had been built in a simulator — the name "shotgun" comes from the
//! analogy to shotgun genome sequencing.
//!
//! This crate models that pipeline end to end: [`collect_samples`] plays
//! the role of the hardware monitors (fed by the simulator's records),
//! [`reconstruct`] is the software algorithm, and [`Profile`] is the
//! randomly picked fragment ensemble. The crate computes no costs: the
//! runner's graph backend takes an ensemble of graphs, so
//! `runner.oracle(Backend::profile(profile.graphs()))` answers `cost(S)`
//! as the sum over fragments with the same lane kernel, cache, ledger
//! and telemetry as one simulator-built graph, and every breakdown in
//! the `icost` crate works unchanged on profiled data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod reconstruct;
mod sampler;
mod signature;

pub use estimate::Profile;
pub use reconstruct::{reconstruct, Fragment, ReconstructError, ReconstructStats};
pub use sampler::{collect_samples, DetailedSample, SamplerConfig, Samples, SignatureSample};
pub use signature::{signature_bits, SigBits};
