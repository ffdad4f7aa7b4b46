//! The served context behind `serve` and `ingest`: a `ServeHost` for
//! `gcc`, its HTTP server, and a cache warmed by the query stream.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

use uarch_runner::Runner;
use uarch_serve::{ServeContext, ServeHost, Server};
use uarch_trace::MachineConfig;
use uarch_workloads::{generate, BenchProfile};

use crate::stream::{query_json, query_pool, Request};
use crate::{ACCEPT_WORKERS, RUNNER_THREADS};

/// Warm-up passes allowed before the cache must stop growing.
const MAX_WARM_PASSES: usize = 4;

/// A running host and server. Dropping it stops the server.
#[derive(Debug)]
pub struct Served {
    pub host: Arc<ServeHost>,
    server: Server,
}

impl Served {
    /// Set-up: generate the `gcc` trace, build the host, warm its cache
    /// with the stream's distinct queries (see [`warm`]), and start the
    /// server.
    pub fn start(insts: usize, seed: u64, stream: &[Request]) -> Result<Served, String> {
        let host = Arc::new(host(insts, seed));
        warm(&host, stream)?;
        let server = Server::start(Arc::clone(&host), "127.0.0.1:0", ACCEPT_WORKERS)
            .map_err(|e| format!("starting the server: {e}"))?;
        Ok(Served { host, server })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Entries in the host's cache (simulated and graph-evaluated sets).
    pub fn cached(&self) -> usize {
        self.host.runner().cache().len()
    }
}

/// A host over a freshly generated `gcc` trace of `insts` instructions.
pub fn host(insts: usize, seed: u64) -> ServeHost {
    let profile = BenchProfile::by_name("gcc").expect("gcc is in the suite");
    let w = generate(profile, insts, seed);
    let mut ctx = ServeContext::new(w.name, MachineConfig::table6(), w.trace);
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    ServeHost::new(Runner::new().with_threads(RUNNER_THREADS), ctx)
}

/// Answer, in-process, one request per backend holding every distinct
/// query the stream sends to that backend, until a whole pass leaves the
/// cache size unchanged: every set a stream request needs is then
/// cached, so the timed phase runs no simulation. (Routing is decided per
/// query, so batching the warm-up does not change what is cached.)
pub fn warm(host: &ServeHost, stream: &[Request]) -> Result<(), String> {
    let pool = query_pool();
    let mut by_backend: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for r in stream {
        by_backend
            .entry(r.backend.name())
            .or_default()
            .extend(&r.items);
    }
    let bodies: Vec<String> = by_backend
        .iter()
        .map(|(backend, items)| {
            let queries: Vec<String> = items.iter().map(|&i| query_json(&pool[i])).collect();
            format!(
                "{{\"backend\":\"{backend}\",\"queries\":[{}]}}",
                queries.join(",")
            )
        })
        .collect();
    let mut cached = None;
    for _ in 0..MAX_WARM_PASSES {
        for body in &bodies {
            host.handle_query(body.as_bytes())?;
        }
        let now = host.runner().cache().len();
        if cached == Some(now) {
            return Ok(());
        }
        cached = Some(now);
    }
    Err(format!(
        "cache still growing after {MAX_WARM_PASSES} warm-up passes"
    ))
}
