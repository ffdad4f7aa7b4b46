//! `uarch-serve` — the live telemetry plane: a dependency-free,
//! std-only HTTP front-end over the cost-lattice [`Runner`].
//!
//! Everything the obs stack records (metrics registries, the JSONL run
//! ledger) was post-mortem until this crate: you learned what a sweep
//! did after it exited. `uarch-serve` turns the runner into a service
//! with a *live* view while batches run:
//!
//! | Endpoint       | What it serves                                          |
//! |----------------|---------------------------------------------------------|
//! | `GET /metrics` | Prometheus text exposition of every registry (runner aggregate, graph kernel, cache, ledger, ingest, serve layer) |
//! | `GET /healthz` | Liveness + identity (workload name, trace size, threads) |
//! | `GET /readyz`  | Readiness info JSON: version, uptime, ingest sessions, ledger sink (503 until the accept pool is listening) |
//! | `GET /events`  | Ledger records streamed live as Server-Sent Events; `?kinds=window,job` filters by record kind |
//! | `POST /query`  | JSON batch of `cost(S)`/`icost(U)` queries through the shared runner |
//! | `POST /ingest` | Chunked JSON instruction batches into a streaming session; retired windows become live `window` ledger records |
//! | `GET /trace/<id>` | Cost receipt + reconstructed span tree for one traced request |
//! | `GET /profile?secs=N` | Folded-stack self-time profile of the last N seconds of spans |
//!
//! Causal tracing: every `POST /query`/`/ingest`/`/explain` request
//! gets a [`uarch_obs::TraceCtx`] — minted, or adopted from an
//! `x-icost-trace` header — installed for the duration of the handler,
//! so every ledger record the request causes (on any worker thread)
//! carries its trace id, the response reports the id plus a cost
//! [`Receipt`], and `GET /trace/<id>` replays the whole causal story.
//!
//! The transport is intentionally primitive — `TcpListener` plus a
//! bounded accept pool of plain OS threads, one request per
//! `Connection: close` connection — because the workspace is
//! vendored-only and the hard problems (shared cache, fan-out
//! back-pressure, exposition format) live above the socket anyway.
//!
//! Start one with the `icost-obs serve` subcommand, or embed:
//!
//! ```no_run
//! use std::sync::Arc;
//! use uarch_runner::Runner;
//! use uarch_serve::{Server, ServeContext, ServeHost};
//! use uarch_trace::{MachineConfig, TraceBuilder};
//!
//! let trace = TraceBuilder::new().finish();
//! let host = Arc::new(ServeHost::new(
//!     Runner::new(),
//!     ServeContext::new("demo", MachineConfig::table6(), trace),
//! ));
//! let server = Server::start(host, "127.0.0.1:0", 4).unwrap();
//! println!("listening on {}", server.addr());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod host;
pub mod http;
pub mod ingest;
pub mod server;

pub use causal::{Receipt, ReceiptStore, RECEIPTS_MAX};
pub use host::{parse_query_body, Backend, ServeContext, ServeHost};
pub use ingest::{inst_to_json, IngestOutcome, IngestSessions};
pub use server::{Server, DEFAULT_ADDR, DEFAULT_WORKERS, MAX_SSE_CLIENTS, SERVE_ADDR_ENV};
