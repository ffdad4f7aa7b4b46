//! `uarch-obs` — the observability substrate for the interaction-cost
//! reproduction.
//!
//! The paper's whole method is "measure where the cycles actually go";
//! this crate applies the same discipline to the stack itself. It is
//! dependency-free (the build environment is vendored-only) and has
//! three pieces:
//!
//! * [`Registry`] / [`Counter`] / [`Gauge`] / [`Histogram`] — a named
//!   metrics registry with cheap atomic updates, snapshotting to an
//!   aligned table, JSON, or CSV. `uarch-runner`'s `RunReport` is a view
//!   over one of these.
//! * [`Tracer`] / [`Span`] — span tracing with a Chrome trace-event
//!   (`chrome://tracing` / Perfetto-loadable) JSON exporter. The
//!   process-wide [`global`] tracer switches on when `ICOST_TRACE_FILE`
//!   is set; [`flush_global`] writes the file.
//! * [`ledger`] — the durable run ledger: JSONL records (run headers +
//!   per-job provenance/wall/hash/stall rows) appended to
//!   `ICOST_LEDGER_FILE` through a buffered, lock-protected writer, so
//!   runs are diffable across processes and PRs (`icost-obs diff`).
//! * [`CounterSampler`] — a sampler thread that snapshots metrics
//!   registries into Chrome counter (`ph:"C"`) events, rendering
//!   `sim.stall.*`, cache hit rates, and pool occupancy as Perfetto
//!   time-series tracks next to the spans.
//! * [`json`] — a minimal JSON value model and parser, used to validate
//!   exported snapshots and traces in tests and CI without external
//!   crates.
//! * [`prom`] — Prometheus text-exposition rendering of registry
//!   snapshots (name/label sanitization, cumulative `_bucket`/`_sum`/
//!   `_count` expansion of the fixed-bucket histograms), used by the
//!   `uarch-serve` `/metrics` endpoint.
//! * [`causal`] — request-scoped trace contexts ([`TraceCtx`]): minted
//!   at the serve edge (or accepted from `x-icost-trace`), installed
//!   thread-locally, stamped on every ledger record the request
//!   causes, and re-installed on pool worker threads.
//! * [`profile`] — folds the span stream into flamegraph-compatible
//!   folded-stack text (`icost-obs flame`, `GET /profile?secs=N`).
//!
//! Everything is thread-safe and shared by handle: cloning a
//! [`Registry`], [`Counter`], or [`Tracer`] hands out another reference
//! to the same store, so worker threads can record into the same
//! metrics the coordinating thread snapshots.
//!
//! Overhead discipline: a disabled tracer costs one relaxed atomic load
//! per span; metric updates are single atomic RMWs. Nothing allocates
//! unless tracing is enabled or a snapshot is taken.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod json;
pub mod ledger;
pub mod profile;
pub mod prom;
mod registry;
mod sampler;
mod span;

pub use causal::TraceCtx;
pub use profile::Profile;
pub use registry::{lock_unpoisoned, Counter, Gauge, Histogram, Registry, Snapshot, SnapshotValue};
pub use sampler::{CounterSampler, COUNTER_INTERVAL};
pub use span::{
    flush_global, global, install_global, Span, TraceEvent, Tracer, TRACE_FILE_ENV,
    TRACE_MAX_EVENTS,
};

/// RAII guard that flushes the global trace and ledger when dropped.
///
/// Take one at the top of `main` (benches, examples, services):
/// because drop runs during unwinding too, `ICOST_TRACE_FILE` and
/// `ICOST_LEDGER_FILE` end up valid on disk even when the run panics
/// mid-span — without it, a panic between the last explicit flush and
/// process exit loses the whole trace.
#[derive(Debug)]
#[must_use = "dropping the guard immediately flushes nothing later; bind it with `let _guard = ...`"]
pub struct FlushGuard(());

/// Create a [`FlushGuard`]. Flushing twice is safe (later flushes
/// rewrite the longer trace / extend the ledger), so an explicit
/// [`flush_global`] at the end of a run can coexist with the guard.
pub fn flush_guard() -> FlushGuard {
    FlushGuard(())
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        let _ = flush_global();
        let _ = ledger::global().flush();
    }
}
