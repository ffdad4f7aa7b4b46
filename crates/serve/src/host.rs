//! The serving host: one simulation context (config + trace + warm
//! sets + prebuilt dependence graph) shared by every connection, plus
//! the registries `/metrics` renders.
//!
//! Concurrency model: the host is immutable after construction except
//! for its metrics registries and the ready flag, so request handlers
//! borrow it through an `Arc` with no host-level lock. Concurrent
//! `POST /query` batches serialize only where the underlying layers
//! already do — the shared content-addressed [`SimCache`] — which is
//! exactly what makes overlapping client queries cache hits instead of
//! repeated simulations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use uarch_audit::{audit_attribution, AuditMetrics};
use uarch_graph::{breakdown_lattice, DepGraph, LaneScratch, DEFAULT_CHUNK};
use uarch_obs::json::{self, Value};
use uarch_obs::ledger::{LedgerRecord, ReportRecord};
use uarch_obs::{prom, Counter, Gauge, Histogram, Registry};
use uarch_plan::{assess, Calibrator, Planner};
use uarch_runner::{context_id, ContextId, Query, RunReport, Runner};
use uarch_sim::{Idealization, PipelineStalls, Simulator};
use uarch_trace::{EventSet, MachineConfig, Trace};

use crate::causal::{span_tree_json, Receipt, ReceiptStore, RECEIPTS_MAX};
use crate::http::Request;
use crate::ingest::{IngestOutcome, IngestSessions};

/// The simulation context a host serves: everything a `cost(S)` answer
/// depends on.
#[derive(Debug, Clone)]
pub struct ServeContext {
    /// Display name (workload name; surfaced in `/healthz`).
    pub name: String,
    /// The simulated machine.
    pub config: MachineConfig,
    /// The dynamic instruction trace under analysis.
    pub trace: Trace,
    /// Data addresses warmed before timing.
    pub warm_data: Vec<u64>,
    /// Code addresses warmed before timing.
    pub warm_code: Vec<u64>,
}

impl ServeContext {
    /// A context with no warm sets.
    pub fn new(name: impl Into<String>, config: MachineConfig, trace: Trace) -> ServeContext {
        ServeContext {
            name: name.into(),
            config,
            trace,
            warm_data: Vec::new(),
            warm_code: Vec::new(),
        }
    }
}

/// Which evaluation substrate answers a query batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ground-truth re-simulation through [`Runner::batch`].
    Sim,
    /// The lane-batched dependence-graph kernel.
    Graph,
    /// The mixed-fidelity planner: cache → graph → sim per query.
    Auto,
}

impl Backend {
    fn as_str(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Graph => "graph",
            Backend::Auto => "auto",
        }
    }
}

/// Shared state behind every endpoint (wrap in an `Arc`).
#[derive(Debug)]
pub struct ServeHost {
    runner: Runner,
    ctx: ServeContext,
    graph: DepGraph,
    /// Aggregate of every answered batch's `RunReport` (`runner.*`,
    /// `sim.stall.*`).
    runner_registry: Registry,
    /// Aggregate of the per-batch graph-oracle counters (`graph.*`).
    graph_registry: Registry,
    /// Aggregate of the planner's routing counters (`plan.*`), shared
    /// by every per-request planner.
    plan_registry: Registry,
    serve_registry: Registry,
    /// Residual history shared by every `auto` batch (and replayed from
    /// the run ledger at startup, so a restart is not uncalibrated).
    calibrator: Calibrator,
    /// The served context's fingerprint, computed once here; every
    /// backend answers under it or its graph key (see
    /// [`ServeHost::backends`]).
    sim_ctx: ContextId,
    /// The `POST /ingest` session table (and its `ingest.*` metrics).
    ingest: IngestSessions,
    /// Whether streamed windows are audited in the background
    /// (`ICOST_AUDIT=1` or [`ServeHost::with_audit`]). `POST /explain`
    /// always answers.
    audit: bool,
    /// The `audit.*` registry `/metrics` renders.
    audit_registry: Registry,
    /// Shared outcome counters: `/explain` audits and streamed-window
    /// audits both land here, so `/readyz` reports one refuted-rate.
    audit_metrics: AuditMetrics,
    /// Stall counters of the baseline simulation the served graph was
    /// built from — the counter side whole-run audits reconcile
    /// against.
    baseline_stalls: PipelineStalls,
    /// When the host was constructed (surfaced as `/readyz` uptime).
    started: Instant,
    /// When set, every endpoint requires `Authorization: Bearer <token>`.
    token: Option<String>,
    requests: Counter,
    http_errors: Counter,
    queries_answered: Counter,
    scrapes: Counter,
    sse_clients: Gauge,
    scrape_us: Histogram,
    query_us: Histogram,
    /// Cost receipts for traced requests (`GET /trace/<id>` answers
    /// from here).
    receipts: ReceiptStore,
    /// The most recent traced `/query` observation, attached to the
    /// `serve_query_us` histogram as an OpenMetrics exemplar:
    /// `(wall_us, trace_id)`.
    query_exemplar: Mutex<Option<(u64, String)>>,
    ready: AtomicBool,
}

/// Bucket bounds for `/metrics` render latency, in microseconds (the
/// `speed_gates` bench gates the median well under 10ms).
const SCRAPE_US_BOUNDS: [u64; 4] = [100, 1_000, 10_000, 100_000];

/// Bucket bounds for `POST /query` batch latency, in microseconds.
const QUERY_US_BOUNDS: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

impl ServeHost {
    /// Build a host for `ctx`: runs the baseline simulation once to
    /// construct the dependence graph the `graph` backend serves, and
    /// replays any `calib` records from the file named by
    /// `ICOST_LEDGER_FILE` so the planner starts calibrated.
    pub fn new(runner: Runner, ctx: ServeContext) -> ServeHost {
        let baseline = Simulator::new(&ctx.config).run(&ctx.trace, Idealization::none());
        let baseline_stalls = baseline.stalls;
        let graph = DepGraph::build(&ctx.trace, &baseline, &ctx.config);
        let audit = uarch_audit::enabled();
        let audit_registry = Registry::new();
        let audit_metrics = AuditMetrics::bind(&audit_registry);
        let serve_registry = Registry::new();
        let sim_ctx = context_id(&ctx.config, &ctx.trace, &ctx.warm_data, &ctx.warm_code);
        let calibrator = Calibrator::new();
        if let Some(path) = uarch_obs::ledger::ledger_file() {
            if let Ok(text) = std::fs::read_to_string(&path) {
                // Best-effort: a missing or malformed ledger just means
                // the first auto batches escalate while recalibrating.
                let _ = calibrator.replay_text(&text);
            }
        }
        // plan.* renders at zero before the first auto batch arrives.
        let plan_registry = Registry::new();
        uarch_plan::bind_metrics(&plan_registry);
        ServeHost {
            requests: serve_registry.counter("serve.requests"),
            http_errors: serve_registry.counter("serve.http_errors"),
            queries_answered: serve_registry.counter("serve.queries_answered"),
            scrapes: serve_registry.counter("serve.scrapes"),
            sse_clients: serve_registry.gauge("serve.sse_clients"),
            scrape_us: serve_registry.histogram("serve.scrape_us", &SCRAPE_US_BOUNDS),
            query_us: serve_registry.histogram("serve.query_us", &QUERY_US_BOUNDS),
            receipts: ReceiptStore::new(RECEIPTS_MAX),
            query_exemplar: Mutex::new(None),
            serve_registry,
            runner_registry: Registry::new(),
            graph_registry: Registry::new(),
            plan_registry,
            calibrator,
            sim_ctx,
            ingest: {
                let ingest = IngestSessions::new(ctx.config.clone());
                if audit {
                    ingest.with_audit(audit_metrics.clone())
                } else {
                    ingest
                }
            },
            audit,
            audit_registry,
            audit_metrics,
            baseline_stalls,
            started: Instant::now(),
            token: None,
            runner,
            ctx,
            graph,
            ready: AtomicBool::new(false),
        }
    }

    /// Enable streamed-window audits programmatically (tests and
    /// embedders; the serve binary reads `ICOST_AUDIT` instead).
    pub fn with_audit(mut self) -> ServeHost {
        self.audit = true;
        let ingest = std::mem::replace(
            &mut self.ingest,
            IngestSessions::new(self.ctx.config.clone()),
        );
        self.ingest = ingest.with_audit(self.audit_metrics.clone());
        self
    }

    /// Require `Authorization: Bearer <token>` on every endpoint.
    pub fn with_token(mut self, token: Option<String>) -> ServeHost {
        self.token = token.filter(|t| !t.is_empty());
        self
    }

    /// Whether `request` may proceed: true when no token is configured,
    /// or when the `Authorization` header carries exactly the expected
    /// bearer token (compared in constant time).
    pub fn authorize(&self, request: &Request) -> bool {
        let Some(token) = &self.token else {
            return true;
        };
        let expected = format!("Bearer {token}");
        let presented = request.header("authorization").unwrap_or("");
        constant_time_eq(presented.as_bytes(), expected.as_bytes())
    }

    /// The served context.
    pub fn context(&self) -> &ServeContext {
        &self.ctx
    }

    /// The served context's two fingerprinted runner backends: ground
    /// truth under `sim_ctx`, and the served graph under its graph key.
    fn backends(&self) -> (uarch_runner::Backend<'_>, uarch_runner::Backend<'_>) {
        let sim = uarch_runner::Backend::Sim {
            config: &self.ctx.config,
            trace: &self.ctx.trace,
            warm_data: &self.ctx.warm_data,
            warm_code: &self.ctx.warm_code,
            ctx: self.sim_ctx,
        };
        (sim, sim.graph_of(&self.graph))
    }

    /// The shared runner (and through it the content-addressed cache).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The serve-layer metrics registry (`serve.*`).
    pub fn serve_metrics(&self) -> &Registry {
        &self.serve_registry
    }

    /// Whether the host is accepting traffic (flipped by the server
    /// once its accept pool is listening).
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Flip the readiness flag.
    pub fn set_ready(&self, on: bool) {
        self.ready.store(on, Ordering::Relaxed);
    }

    /// Count one handled request (any endpoint).
    pub fn count_request(&self) {
        self.requests.inc();
    }

    /// Count one error response.
    pub fn count_error(&self) {
        self.http_errors.inc();
    }

    /// Adjust the live SSE-client gauge by `delta`.
    pub fn sse_clients_delta(&self, delta: i64) {
        self.sse_clients.add(delta);
    }

    /// Render every registered registry as one Prometheus exposition
    /// document (the `GET /metrics` body).
    pub fn render_metrics(&self) -> String {
        let start = Instant::now();
        let ledger = uarch_obs::ledger::global();
        let tracer = uarch_obs::global();
        let mut exposition = prom::Exposition::new();
        for (instance, registry) in [
            ("runner", &self.runner_registry),
            ("graph", &self.graph_registry),
            ("plan", &self.plan_registry),
            ("cache", self.runner.cache().metrics()),
            ("ledger", ledger.metrics()),
            ("ingest", self.ingest.metrics()),
            ("audit", &self.audit_registry),
            ("trace", tracer.metrics()),
            ("serve", &self.serve_registry),
        ] {
            exposition.add_snapshot(&registry.snapshot(), &[("registry", instance)]);
        }
        let exemplar = self
            .query_exemplar
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some((wall_us, trace_id)) = exemplar {
            exposition.attach_exemplar(
                "serve_query_us",
                prom::Exemplar {
                    labels: vec![("trace_id".to_string(), trace_id)],
                    value: wall_us as f64,
                },
            );
        }
        let text = exposition.render();
        self.scrapes.inc();
        self.scrape_us.record(start.elapsed().as_micros() as u64);
        text
    }

    /// The `GET /healthz` body: always-on liveness plus identity.
    pub fn health_json(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"workload\":{},\"insts\":{},\"threads\":{}}}\n",
            json::quote(&self.ctx.name),
            self.ctx.trace.len(),
            self.runner.threads(),
        )
    }

    /// The `GET /readyz` 200 body: readiness plus build and runtime
    /// info — crate version, uptime, open ingest sessions, whether the
    /// run ledger has a durable sink, and the audit plane's state
    /// (enabled flag plus the running refuted-rate over every category
    /// verdict issued so far). (A not-ready host answers 503 before
    /// this renders.)
    pub fn ready_json(&self) -> String {
        let ledger = uarch_obs::ledger::global();
        let snap = self.audit_registry.snapshot();
        let (confirmed, refuted) = (
            snap.counter("audit.confirmed"),
            snap.counter("audit.refuted"),
        );
        let verdicts = confirmed + refuted;
        let refuted_rate = if verdicts == 0 {
            0.0
        } else {
            refuted as f64 / verdicts as f64
        };
        format!(
            "{{\"status\":\"ready\",\"version\":{},\"uptime_s\":{},\"ingest_sessions\":{},\"ledger_sink\":{},\"ledger_records\":{},\"dropped\":{{\"ledger\":{},\"trace\":{}}},\"audit\":{{\"enabled\":{},\"checks\":{},\"refuted_rate\":{:.3}}}}}\n",
            json::quote(env!("CARGO_PKG_VERSION")),
            self.started.elapsed().as_secs(),
            self.ingest.active(),
            ledger.is_enabled(),
            ledger.appended(),
            ledger.metrics().snapshot().counter("ledger.events.dropped"),
            uarch_obs::global().dropped(),
            self.audit,
            snap.counter("audit.checks"),
            refuted_rate,
        )
    }

    /// A one-line human summary of [`ServeHost::ready_json`] for the
    /// serve subcommand's startup diagnostics.
    pub fn startup_info(&self) -> String {
        format!(
            "uarch-serve {} | workload {} ({} insts, {} threads) | ledger sink {}",
            env!("CARGO_PKG_VERSION"),
            self.ctx.name,
            self.ctx.trace.len(),
            self.runner.threads(),
            if uarch_obs::ledger::global().is_enabled() {
                "enabled"
            } else {
                "disabled"
            },
        )
    }

    /// Answer one `POST /ingest` body (see [`IngestSessions::handle`]).
    pub fn handle_ingest(&self, body: &[u8]) -> Result<IngestOutcome, String> {
        self.ingest.handle(body)
    }

    /// The ingest session table (exposed for eviction tests and the
    /// readiness probe).
    pub fn ingest(&self) -> &IngestSessions {
        &self.ingest
    }

    /// Answer one `POST /query` body; returns the response JSON or a
    /// client-error message. Every backend reports per-answer
    /// provenance and confidence: exact backends claim `1.0`, graph
    /// answers carry the calibrated score (`0.0` while uncalibrated),
    /// and `auto` reports whatever rung actually served each query.
    pub fn handle_query(&self, body: &[u8]) -> Result<String, String> {
        let start = Instant::now();
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let (queries, backend) = parse_query_body(text)?;
        let (sim, graph) = self.backends();
        let (answers, provenance, confidence, report) = match backend {
            Backend::Sim => {
                let (answers, report) = self.runner.batch(sim, &queries);
                let provenance = vec!["sim"; answers.len()];
                let confidence = vec![1.0; answers.len()];
                (answers, provenance, confidence, report)
            }
            Backend::Graph => {
                let mut oracle = self.runner.oracle(graph);
                let answers = oracle.run(&queries);
                self.graph_registry
                    .absorb_scalars(&oracle.graph_metrics().snapshot());
                let report = oracle.report();
                let per_set = self
                    .calibrator
                    .tolerance(&sim.ctx().to_string(), &graph.ctx().to_string());
                let confidence = queries
                    .iter()
                    .zip(&answers)
                    .map(|(q, &a)| assess(q, a, per_set).confidence)
                    .collect();
                let provenance = vec!["graph"; answers.len()];
                (answers, provenance, confidence, report)
            }
            Backend::Auto => {
                let mut planner = Planner::from_backends(&self.runner, sim, graph)
                    .with_calibrator(self.calibrator.clone())
                    .with_registry(self.plan_registry.clone());
                let (planned, report) = planner.plan(&queries);
                let answers = planned.iter().map(|p| p.value).collect();
                let provenance = planned.iter().map(|p| p.provenance.as_str()).collect();
                let confidence = planned.iter().map(|p| p.confidence).collect();
                (answers, provenance, confidence, report)
            }
        };
        report.publish(&self.runner_registry);
        publish_report_record(&report);
        self.queries_answered.add(queries.len() as u64);
        let wall_us = start.elapsed().as_micros() as u64;
        self.query_us.record(wall_us);
        // Distinct rungs in first-use order, and the weakest per-answer
        // confidence — the two receipt fields that say how the batch
        // was actually served.
        let mut rungs: Vec<&str> = Vec::new();
        for p in &provenance {
            if !rungs.contains(p) {
                rungs.push(p);
            }
        }
        let min_confidence = confidence.iter().copied().fold(1.0_f64, f64::min);
        let answers: Vec<String> = answers.iter().map(i64::to_string).collect();
        let provenance: Vec<String> = provenance.iter().map(|p| json::quote(p)).collect();
        let confidence: Vec<String> = confidence.iter().map(|c| format!("{c:.3}")).collect();
        let mut body = format!(
            "{{\"backend\":\"{}\",\"answers\":[{}],\"provenance\":[{}],\"confidence\":[{}],\"report\":{}}}\n",
            backend.as_str(),
            answers.join(","),
            provenance.join(","),
            confidence.join(","),
            report.to_json(),
        );
        if let Some(ctx) = uarch_obs::causal::current() {
            let trace_id = ctx.trace_hex();
            let receipt = Receipt {
                trace_id: trace_id.clone(),
                endpoint: "query",
                wall_us,
                queries: queries.len() as u64,
                backend: backend.as_str(),
                rungs: rungs.join(","),
                confidence: min_confidence,
                sims_run: report.sims_run,
                cache_hits: report.cache_hits,
                disk_hits: report.disk_hits,
                deduped: report.jobs_deduped,
                skipped_cycles: report.engine.skipped_cycles,
                response_bytes: body.len() as u64,
            };
            self.receipts.record(receipt.clone());
            *self
                .query_exemplar
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some((wall_us, trace_id.clone()));
            splice_trace(&mut body, &trace_id, &receipt);
        }
        Ok(body)
    }

    /// Answer one `POST /explain` body: cross-validate the graph-side
    /// breakdown (base costs plus pairwise icosts) against pipeline
    /// stall counters and return the audit as a waterfall-ready JSON
    /// object. An empty body (or `{}`) audits the whole served trace
    /// against the baseline simulation's counters; `{"start":N,
    /// "end":M}` audits the instruction sub-range through a fresh
    /// simulation, mirroring how streamed windows are audited.
    ///
    /// The response body is the `audit` ledger record itself with two
    /// provenance fields spliced in — the record parser tolerates
    /// unknown fields, so the body parses as exactly the record any
    /// ledger reader renders, which is what makes `/explain` and
    /// `icost-obs audit` waterfalls identical by construction.
    pub fn handle_explain(&self, body: &[u8]) -> Result<String, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let range = parse_explain_body(text)?;
        let audit = match range {
            None => {
                let mut scratch = LaneScratch::new();
                let (baseline, costs, pairs) =
                    breakdown_lattice(&self.graph, DEFAULT_CHUNK, &mut scratch);
                audit_attribution("run", baseline, &costs, &pairs, &self.baseline_stalls)
            }
            Some((start, end)) => {
                let len = self.ctx.trace.len() as u64;
                if start >= end || end > len {
                    return Err(format!(
                        "range {start}..{end} out of bounds (trace holds {len} insts)"
                    ));
                }
                let sub = Trace::from_insts(
                    self.ctx.trace.insts()[start as usize..end as usize].to_vec(),
                );
                let result = Simulator::new(&self.ctx.config).run(&sub, Idealization::none());
                let graph = DepGraph::build(&sub, &result, &self.ctx.config);
                let mut scratch = LaneScratch::new();
                let (baseline, costs, pairs) =
                    breakdown_lattice(&graph, DEFAULT_CHUNK, &mut scratch);
                audit_attribution(
                    &format!("range {start}..{end}"),
                    baseline,
                    &costs,
                    &pairs,
                    &result.stalls,
                )
            }
        };
        let ledger = uarch_obs::ledger::global();
        let record = audit.to_record(ledger.next_run_id());
        self.audit_metrics.observe(&record);
        if record.verdict == "refuted" {
            // Confirmed refutations feed the planner: this context's
            // graph answers escalate to ground truth until retrained.
            let (sim, graph) = self.backends();
            self.calibrator
                .mark_refuted(&sim.ctx().to_string(), &graph.ctx().to_string());
        }
        let record = LedgerRecord::Audit(record);
        let line = record.to_json_line();
        ledger.append(&record);
        let _ = ledger.flush();
        let provenance = format!(
            "{{\"kind\":\"audit\",\"workload\":{},\"provenance\":\"graph+counters\",",
            json::quote(&self.ctx.name)
        );
        Ok(line.replacen("{\"kind\":\"audit\",", &provenance, 1) + "\n")
    }

    /// The receipt store (`GET /trace/<id>` and tests read it).
    pub fn receipts(&self) -> &ReceiptStore {
        &self.receipts
    }

    /// Record a minimal receipt for a traced non-query endpoint
    /// (`ingest`, `explain`) and splice `trace_id` + `receipt` into its
    /// JSON response. No-op without an installed causal context.
    pub fn finish_traced(&self, endpoint: &'static str, wall_us: u64, body: &mut String) {
        let Some(ctx) = uarch_obs::causal::current() else {
            return;
        };
        let trace_id = ctx.trace_hex();
        let receipt = Receipt {
            trace_id: trace_id.clone(),
            endpoint,
            wall_us,
            queries: 0,
            backend: "",
            rungs: String::new(),
            confidence: 1.0,
            sims_run: 0,
            cache_hits: 0,
            disk_hits: 0,
            deduped: 0,
            skipped_cycles: 0,
            response_bytes: body.len() as u64,
        };
        self.receipts.record(receipt.clone());
        splice_trace(body, &trace_id, &receipt);
    }

    /// The `GET /trace/<id>` body: the request's cost receipt (or
    /// `null` if it aged out) plus the span tree reconstructed from the
    /// tracer's event buffer. `None` — a 404 — when neither side knows
    /// the id.
    pub fn trace_json(&self, trace_id: &str) -> Option<String> {
        let receipt = self.receipts.get(trace_id);
        let spans = span_tree_json(&uarch_obs::global().events(), trace_id);
        if receipt.is_none() && spans == "[]" {
            return None;
        }
        Some(format!(
            "{{\"trace_id\":{},\"receipt\":{},\"spans\":{}}}\n",
            json::quote(trace_id),
            receipt.map_or_else(|| "null".to_string(), |r| r.to_json()),
            spans,
        ))
    }

    /// The `GET /trace/slow` body: the slowest receipts on record,
    /// descending by wall time.
    pub fn slow_json(&self) -> String {
        let slow: Vec<String> = self
            .receipts
            .slowest()
            .iter()
            .map(Receipt::to_json)
            .collect();
        format!("{{\"slowest\":[{}]}}\n", slow.join(","))
    }

    /// The `GET /profile?secs=N` body: spans begun in the last `secs`
    /// seconds folded into flamegraph-compatible stacks. `None` when
    /// the global tracer is disabled (the endpoint answers 503).
    pub fn profile_text(&self, secs: u64) -> Option<String> {
        let tracer = uarch_obs::global();
        if !tracer.is_enabled() {
            return None;
        }
        let since = tracer
            .now_us()
            .saturating_sub(secs.saturating_mul(1_000_000));
        Some(uarch_obs::Profile::from_events(&tracer.events_since(since)).render())
    }
}

/// Parse a `POST /query` body:
///
/// ```json
/// {"backend": "sim",
///  "queries": [{"cost": "dmiss"},
///              {"icost": "dmiss+win"},
///              {"icost_units": ["dmiss", "win+bw"]}]}
/// ```
///
/// `backend` is optional (default `"sim"`); set strings use the
/// `EventSet` display form (`"(none)"` or `""` for the empty set).
pub fn parse_query_body(text: &str) -> Result<(Vec<Query>, Backend), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let backend = match doc.get("backend").and_then(Value::as_str) {
        None | Some("sim") => Backend::Sim,
        Some("graph") => Backend::Graph,
        Some("auto") => Backend::Auto,
        Some(other) => return Err(format!("unknown backend {other:?} (want sim|graph|auto)")),
    };
    let items = doc
        .get("queries")
        .and_then(Value::as_arr)
        .ok_or("missing \"queries\" array")?;
    if items.is_empty() {
        return Err("empty \"queries\" array".into());
    }
    let queries = items
        .iter()
        .enumerate()
        .map(|(i, item)| parse_one_query(item).map_err(|e| format!("queries[{i}]: {e}")))
        .collect::<Result<Vec<Query>, String>>()?;
    Ok((queries, backend))
}

/// Parse a `POST /explain` body: empty (or `{}`) for the whole served
/// trace, or `{"start": N, "end": M}` for an instruction sub-range.
fn parse_explain_body(text: &str) -> Result<Option<(u64, u64)>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let doc = json::parse(trimmed).map_err(|e| format!("invalid JSON: {e}"))?;
    let bound = |field: &str| -> Result<Option<u64>, String> {
        match doc.get(field) {
            None => Ok(None),
            Some(v) => v
                .as_num()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| Some(n as u64))
                .ok_or_else(|| format!("\"{field}\" must be a non-negative integer")),
        }
    };
    match (bound("start")?, bound("end")?) {
        (None, None) => Ok(None),
        (Some(start), Some(end)) => Ok(Some((start, end))),
        _ => Err("\"start\" and \"end\" must be provided together".into()),
    }
}

/// Append one answered batch's [`RunReport`] to the global ledger as a
/// `report` record (and flush), so the run summary every batch already
/// computes reaches `GET /events` subscribers and post-mortem ledger
/// readers — not just the aggregate `/metrics` counters.
fn publish_report_record(report: &RunReport) {
    let ledger = uarch_obs::ledger::global();
    ledger.append(&LedgerRecord::Report(ReportRecord {
        run: ledger.next_run_id(),
        queries: report.queries,
        jobs: report.jobs_requested,
        deduped: report.jobs_deduped,
        cache_hits: report.cache_hits,
        disk_hits: report.disk_hits,
        sims_run: report.sims_run,
        cycles: report.cycles_simulated,
        insts: report.insts_simulated,
        threads: report.threads as u64,
        expand_us: report.expand_wall.as_micros() as u64,
        sim_us: report.sim_wall.as_micros() as u64,
        skipped: report.engine.skipped_cycles,
        // Stamped by Ledger::append from the causal context.
        trace: String::new(),
    }));
    let _ = ledger.flush();
}

/// Splice `,"trace_id":"...","receipt":{...}` into a response body
/// that ends with `}\n` (every handler's JSON object does); bodies in
/// any other shape are left alone.
fn splice_trace(body: &mut String, trace_id: &str, receipt: &Receipt) {
    if !body.ends_with("}\n") {
        return;
    }
    body.truncate(body.len() - 2);
    body.push_str(&format!(
        ",\"trace_id\":{},\"receipt\":{}}}\n",
        json::quote(trace_id),
        receipt.to_json(),
    ));
}

/// Byte-equality without an early exit: the comparison touches every
/// byte of the longer input regardless of where a mismatch occurs, so
/// response timing does not leak how much of a guessed token matched.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = (a.len() ^ b.len()) as u8;
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

fn parse_one_query(item: &Value) -> Result<Query, String> {
    if let Some(set) = item.get("cost") {
        let set = set.as_str().ok_or("\"cost\" must be a set string")?;
        return Ok(Query::Cost(EventSet::parse(set)?));
    }
    if let Some(set) = item.get("icost") {
        let set = set.as_str().ok_or("\"icost\" must be a set string")?;
        return Ok(Query::Icost(EventSet::parse(set)?));
    }
    if let Some(units) = item.get("icost_units") {
        let units = units
            .as_arr()
            .ok_or("\"icost_units\" must be an array of set strings")?;
        let units = units
            .iter()
            .map(|u| {
                u.as_str()
                    .ok_or("\"icost_units\" entries must be strings".to_string())
                    .and_then(EventSet::parse)
            })
            .collect::<Result<Vec<EventSet>, String>>()?;
        if units.is_empty() {
            return Err("\"icost_units\" must be non-empty".into());
        }
        return Ok(Query::IcostOfUnits(units));
    }
    Err("expected one of \"cost\", \"icost\", \"icost_units\"".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::EventClass;

    #[test]
    fn query_bodies_parse_into_runner_queries() {
        let (queries, backend) = parse_query_body(
            r#"{"queries":[{"cost":"dmiss"},{"icost":"dmiss+win"},{"icost_units":["dmiss","win"]}]}"#,
        )
        .expect("parses");
        assert_eq!(backend, Backend::Sim);
        let d = EventSet::single(EventClass::Dmiss);
        let w = EventSet::single(EventClass::Win);
        assert_eq!(
            queries,
            vec![
                Query::Cost(d),
                Query::Icost(d.union(w)),
                Query::IcostOfUnits(vec![d, w]),
            ]
        );
        let (_, backend) =
            parse_query_body(r#"{"backend":"graph","queries":[{"cost":"(none)"}]}"#).expect("ok");
        assert_eq!(backend, Backend::Graph);
        let (_, backend) =
            parse_query_body(r#"{"backend":"auto","queries":[{"cost":"dmiss"}]}"#).expect("ok");
        assert_eq!(backend, Backend::Auto);
    }

    #[test]
    fn constant_time_eq_compares_exactly() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"secret", b"secret"));
        assert!(!constant_time_eq(b"secret", b"secres"));
        assert!(!constant_time_eq(b"secret", b"secre"));
        assert!(!constant_time_eq(b"secret", b"secrets"));
        assert!(!constant_time_eq(b"", b"x"));
    }

    #[test]
    fn token_authorization_requires_exact_bearer() {
        let ctx = ServeContext::new(
            "empty",
            MachineConfig::table6(),
            uarch_trace::TraceBuilder::new().finish(),
        );
        let host = ServeHost::new(Runner::new(), ctx.clone()).with_token(Some("sesame".into()));
        let request = |auth: Option<&str>| Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: None,
            headers: auth
                .map(|v| ("authorization".to_string(), v.to_string()))
                .into_iter()
                .collect(),
            body: Vec::new(),
        };
        assert!(!host.authorize(&request(None)), "missing header");
        assert!(!host.authorize(&request(Some("Bearer wrong"))));
        assert!(!host.authorize(&request(Some("sesame"))), "missing scheme");
        assert!(host.authorize(&request(Some("Bearer sesame"))));
        let open = ServeHost::new(Runner::new(), ctx).with_token(Some(String::new()));
        assert!(
            open.authorize(&request(None)),
            "empty token disables auth entirely"
        );
    }

    #[test]
    fn query_body_errors_name_the_offender() {
        assert!(parse_query_body("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_query_body(r#"{"queries":[]}"#)
            .unwrap_err()
            .contains("empty"));
        let err =
            parse_query_body(r#"{"queries":[{"cost":"dmiss"},{"cost":"nope"}]}"#).unwrap_err();
        assert!(err.contains("queries[1]") && err.contains("nope"), "{err}");
        assert!(
            parse_query_body(r#"{"backend":"quantum","queries":[{"cost":"dmiss"}]}"#)
                .unwrap_err()
                .contains("backend")
        );
    }
}
