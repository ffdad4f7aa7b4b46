//! The run ledger: durable, diffable per-run telemetry as JSONL.
//!
//! The metrics registry and span tracer answer "what is this process
//! doing right now"; the ledger answers the cross-run question — *did
//! PR N make the runner slower?* Every `uarch-runner` run appends one
//! [`RunHeader`] record (run id, context fingerprint, query count) plus
//! one [`JobRecord`] per simulation job it answered (wall time, cache
//! provenance, result hash, stall summary) to the file named by
//! [`LEDGER_FILE_ENV`]. The format is line-delimited JSON: append-only,
//! `cat`-able, and parseable by the `icost-obs` CLI for summaries and
//! regression diffs. Each record kind is declared once, in `records!`.
//!
//! Overhead discipline mirrors the tracer: a disabled [`Ledger`] costs
//! one relaxed atomic load per check and never allocates; an enabled
//! one writes through a buffered, lock-protected sink and is flushed
//! once per run (and by [`crate::FlushGuard`] on drop/panic), keeping
//! the enabled overhead under the `speed_gates` bench's 3% budget.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::{self, quote, Value};
use crate::registry::lock_unpoisoned;
use crate::{Counter, Registry};

/// Environment variable naming the ledger output file. Setting it
/// enables the [`global`] ledger.
pub const LEDGER_FILE_ENV: &str = "ICOST_LEDGER_FILE";

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Which cache tier answered a simulation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Freshly simulated by this process.
    Computed,
    /// Answered by an in-memory entry this process computed earlier.
    Memory,
    /// Answered by an entry the on-disk cache layer contributed.
    Disk,
}

impl Provenance {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::Memory => "memory",
            Provenance::Disk => "disk",
        }
    }

    /// Inverse of [`Provenance::as_str`].
    pub fn parse(s: &str) -> Result<Provenance, String> {
        let all = [Provenance::Computed, Provenance::Memory, Provenance::Disk];
        let found = all.into_iter().find(|p| p.as_str() == s);
        found.ok_or_else(|| format!("unknown provenance {s:?}"))
    }
}

/// One field type's wire codec. Every ledger field is a `u64`, an
/// `i64`, a `String`, a [`Provenance`], or a name→value map of these.
trait Field: Sized {
    /// What a value of this type is, for decode errors.
    const EXPECTED: &'static str;
    /// Append the JSON value.
    fn write(&self, out: &mut String);
    /// Decode a JSON value; `None` if it is not of this type.
    fn read(v: &Value) -> Option<Self>;
}

macro_rules! numeric_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            const EXPECTED: &'static str = "a number";
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value) -> Option<Self> {
                v.as_num().map(|n| n as $ty)
            }
        }
    )*};
}
numeric_fields!(u64, i64);

impl Field for String {
    const EXPECTED: &'static str = "a string";
    fn write(&self, out: &mut String) {
        out.push_str(&quote(self));
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Field for Provenance {
    const EXPECTED: &'static str = "a provenance (computed, memory or disk)";
    fn write(&self, out: &mut String) {
        out.push_str(&quote(self.as_str()));
    }
    fn read(v: &Value) -> Option<Self> {
        Provenance::parse(v.as_str()?).ok()
    }
}

/// Maps render as JSON objects; `BTreeMap` iteration keeps the wire
/// format name-sorted and therefore byte-deterministic.
impl<V: Field> Field for BTreeMap<String, V> {
    const EXPECTED: &'static str = "an object of name→value entries";
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (name, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quote(name));
            out.push(':');
            v.write(out);
        }
        out.push('}');
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_obj()?
            .iter()
            .map(|(k, v)| Some((k.clone(), V::read(v)?)))
            .collect()
    }
}

/// Decode field `name`; when it is absent, fall back to `default`.
fn take<T: Field>(doc: &Value, name: &str, default: Option<T>) -> Result<T, String> {
    match doc.get(name) {
        None => default.ok_or_else(|| format!("missing {name:?}")),
        Some(v) => T::read(v).ok_or_else(|| format!("{name:?} is not {}", T::EXPECTED)),
    }
}

/// Render one field under its presence rule (see `records!`).
macro_rules! put_field {
    ($out:ident, $r:ident.$f:ident $(, or_default)?) => {{
        $out.push_str(concat!(",\"", stringify!($f), "\":"));
        Field::write(&$r.$f, &mut $out)
    }};
    ($out:ident, $r:ident.$f:ident, omit_empty) => {
        if !$r.$f.is_empty() {
            put_field!($out, $r.$f)
        }
    };
}

/// Decode one field under its presence rule (see `records!`).
macro_rules! take_field {
    ($doc:ident, $f:ident) => {
        take($doc, stringify!($f), None)?
    };
    ($doc:ident, $f:ident, $rule:ident) => {
        take($doc, stringify!($f), Some(Default::default()))?
    };
}

/// Emits its tokens for a kind marked `traced` (see `records!`).
macro_rules! traced {
    (traced $($tokens:tt)*) => {
        $($tokens)*
    };
}

/// The ledger's record kinds, one declaration each: the `LedgerRecord`
/// variant, the struct, the wire `kind`, an optional `traced` marker,
/// and the fields in wire order. It generates the structs, the enum,
/// [`LedgerRecord::kind`] and the JSONL render, parse and trace code.
/// A line is `{"kind":…` then each field as `"name":value`. A field's
/// presence rule follows its type: none = required; `= or_default` =
/// always rendered, defaulted when absent; `= omit_empty` = left off
/// the wire when empty, defaulted when absent. `traced` appends an
/// `omit_empty` `trace` field, so untraced lines keep their bytes.
macro_rules! records {
    ($(
        $(#[$meta:meta])*
        $variant:ident($name:ident) = $kind:literal $($traced:ident)? {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $rule:ident)?, )*
        }
    )*) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, PartialEq, Eq)]
            pub struct $name {
                $( $(#[$fmeta])* pub $field: $ty, )*
                $(
                    /// Causal trace id (16 hex digits) of the request
                    /// that caused this record; empty when untraced.
                    /// [`Ledger::append`] stamps it when left empty.
                    pub trace: traced!($traced String),
                )?
            }
        )*

        /// One parsed (or to-be-written) ledger line.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum LedgerRecord {
            $(
                #[doc = concat!("A `", $kind, "` line: see [`", stringify!($name), "`].")]
                $variant($name),
            )*
        }

        impl LedgerRecord {
            /// The wire `kind` of this record.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( LedgerRecord::$variant(_) => $kind, )*
                }
            }

            /// Serialize as one JSONL line (no trailing newline): the
            /// stable wire format the CLI and the golden tests parse.
            pub fn to_json_line(&self) -> String {
                let mut out = format!("{{\"kind\":\"{}\"", self.kind());
                match self {
                    $( LedgerRecord::$variant(r) => {
                        $( put_field!(out, r.$field $(, $rule)?); )*
                        $( traced!($traced put_field!(out, r.trace, omit_empty)); )?
                    } )*
                }
                out.push('}');
                out
            }

            /// The causal trace id stamped on this record: `Some("")` when
            /// unstamped, `None` for kinds without the field (`calib`).
            pub fn trace(&self) -> Option<&str> {
                match self {
                    $($( LedgerRecord::$variant(r) => traced!($traced Some(&r.trace)), )?)*
                    _ => None,
                }
            }

            /// Set the causal trace id (no-op for kinds without the field).
            pub fn set_trace(&mut self, trace: &str) {
                match self {
                    $($( LedgerRecord::$variant(r) => traced!($traced r.trace = trace.to_string()), )?)*
                    _ => {}
                }
            }

            /// Parse one JSONL line back into a record.
            pub fn parse(line: &str) -> Result<LedgerRecord, String> {
                let doc = json::parse(line)?;
                let kind = record_kind(&doc)?;
                LedgerRecord::read(kind, &doc)?
                    .ok_or_else(|| format!("unknown record kind {kind:?}"))
            }

            /// Decode a parsed line of wire kind `kind`; `None` if unknown.
            fn read(kind: &str, doc: &Value) -> Result<Option<LedgerRecord>, String> {
                Ok(Some(match kind {
                    $( $kind => LedgerRecord::$variant($name {
                        $( $field: take_field!(doc, $field $(, $rule)?), )*
                        $( trace: traced!($traced take_field!(doc, trace, omit_empty)), )?
                    }), )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

records! {
    /// One run's header record: what was asked, of what context.
    Run(RunHeader) = "run" traced {
        /// Process-unique run id; every job record carries it back.
        run: u64,
        /// Simulation-context fingerprint (config + trace + warm sets) as
        /// the cache layer's 16-hex-digit context id.
        ctx: String,
        /// Number of queries in the batch.
        queries: u64,
        /// Worker threads available to the run.
        threads: u64,
        /// Dynamic instructions in the analyzed trace.
        insts: u64,
        /// Wall-clock start, milliseconds since the Unix epoch.
        ts_ms: u64,
    }

    /// One answered simulation job.
    Job(JobRecord) = "job" traced {
        /// The run this job belongs to (see [`RunHeader::run`]).
        run: u64,
        /// Display form of the idealized event set (e.g. `dmiss+win`).
        set: String,
        /// Which tier answered: computed, memory, or disk.
        provenance: Provenance,
        /// Simulated cycles (the cached value for cache-served jobs).
        cycles: u64,
        /// Wall time to answer this job, in microseconds.
        wall_us: u64,
        /// Stable fingerprint of `(set, cycles)` — equal answers hash
        /// equally across runs, machines, and cache tiers.
        hash: String,
        /// Nonzero pipeline-stall rows of the simulation, name-sorted.
        /// Empty for cache-served jobs (no simulation ran).
        stalls: BTreeMap<String, u64> = omit_empty,
    }

    /// One paired graph/sim `cost(set)` observation under one workload
    /// context, which the planner's `Calibrator` fits residual quantiles
    /// from. Self-contained, so replay never re-pairs graph and sim runs.
    Calib(CalibRecord) = "calib" {
        /// Ground-truth (simulation) context fingerprint, 16 hex digits.
        sim_ctx: String,
        /// Graph-oracle context fingerprint (the `"graph"`-tagged id).
        graph_ctx: String,
        /// Display form of the idealized event set (e.g. `dmiss+win`).
        set: String,
        /// `cost(set)` as the dependence-graph kernel computed it.
        graph_cost: i64,
        /// `cost(set)` as ground-truth re-simulation computed it.
        sim_cost: i64,
    }

    /// One planner routing decision: which rung of the escalation ladder
    /// answered a query, and with what confidence.
    Plan(PlanRecord) = "plan" traced {
        /// The plan batch this decision belongs to.
        run: u64,
        /// Display form of the query (e.g. `icost(dmiss+win)`).
        query: String,
        /// Which rung answered: `cache`, `graph`, or `sim`.
        backend: String,
        /// Confidence in the served answer, in per-mille (0..=1000) so
        /// the wire format stays integer-only and byte-deterministic.
        confidence_pm: u64,
        /// Why the planner routed there (e.g. `uncalibrated`, `near_zero`).
        reason: String,
    }

    /// One retired window of a streaming ingest: the icost breakdown of
    /// instructions `[start, end)` as the incremental graph builder
    /// evaluated them behind the ingest frontier.
    Window(WindowRecord) = "window" traced {
        /// The ingest session (or producer run) this window belongs to.
        run: u64,
        /// Window ordinal within the session, dense from 0.
        window: u64,
        /// First stream instruction index of the window (inclusive).
        start: u64,
        /// Past-the-end stream instruction index of the window.
        end: u64,
        /// Baseline critical-path cycles `t(∅)` of the window graph.
        baseline: u64,
        /// Frontier lag: instructions already ingested beyond `end` when
        /// this window was evaluated.
        lag: u64,
        /// Wall time to evaluate the window's lattice, in microseconds.
        eval_us: u64,
        /// Singleton `cost(c)` of each of the eight base categories.
        costs: BTreeMap<String, i64>,
        /// The top pairwise `icost(a+b)` values by magnitude.
        pairs: BTreeMap<String, i64>,
    }

    /// One batch's `RunReport` summary, so per-client reports stream
    /// over SSE, not only in `POST /query` response bodies.
    Report(ReportRecord) = "report" traced {
        /// Process-unique id tying the report to its batch.
        run: u64,
        /// Queries answered by the batch.
        queries: u64,
        /// Simulation jobs the queries expanded into (pre-dedup).
        jobs: u64,
        /// Jobs eliminated as duplicates within the batch.
        deduped: u64,
        /// Jobs answered from the in-memory cache.
        cache_hits: u64,
        /// Jobs answered from the disk cache.
        disk_hits: u64,
        /// Jobs that actually simulated.
        sims_run: u64,
        /// Cycles simulated across those jobs.
        cycles: u64,
        /// Instructions simulated across those jobs.
        insts: u64,
        /// Worker threads available to the batch.
        threads: u64,
        /// Wall microseconds spent expanding queries into jobs.
        expand_us: u64,
        /// Wall microseconds spent simulating (sum over jobs).
        sim_us: u64,
        /// Idle cycles the event scheduler skipped across those jobs (0
        /// from ticking-engine runs and pre-scheduler ledgers).
        skipped: u64 = or_default,
    }

    /// One attribution audit: a graph-side icost breakdown reconciled
    /// against the simulator's per-cause stall counters over one range
    /// (a run, a query batch, or a streaming window). The maps carry all
    /// a renderer needs, so the CLI and `POST /explain` agree byte-for-byte.
    Audit(AuditRecord) = "audit" traced {
        /// The run (or ingest session) this audit belongs to.
        run: u64,
        /// What range was audited (e.g. `run`, `window 3`, `range 0..512`).
        scope: String,
        /// Baseline critical-path cycles `t(∅)` of the audited range.
        baseline: u64,
        /// Per-category share-divergence tolerance, in per-mille.
        tolerance_pm: u64,
        /// Overall divergence score: total-variation distance between the
        /// attributed and counter share vectors, in per-mille.
        score_pm: u64,
        /// Categories whose attribution the counters confirmed.
        confirmed: u64,
        /// Categories whose attribution the counters refuted.
        refuted: u64,
        /// Categories with no counter coverage (not checkable).
        unmodeled: u64,
        /// Overall verdict: `confirmed`, `refuted`, or `unmodeled`.
        verdict: String,
        /// Overlap-adjusted attributed cycles per category.
        attributed: BTreeMap<String, i64>,
        /// Mapped stall-counter cycles per checkable category.
        counters: BTreeMap<String, i64>,
        /// Signed share divergence (attributed − counter), in per-mille.
        divergence: BTreeMap<String, i64>,
        /// Human-readable refuting evidence; empty when nothing refuted.
        evidence: String,
    }
}

fn record_kind(doc: &Value) -> Result<&str, String> {
    let kind = doc.get("kind").and_then(Value::as_str);
    kind.ok_or_else(|| "missing \"kind\"".into())
}

/// Parse a whole ledger document (one record per non-empty line).
/// Errors carry the 1-based line number.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| LedgerRecord::parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Forward-compatible variant of [`parse_ledger`]: lines of a `kind`
/// this build does not know are skipped and counted, so older tools read
/// newer ledgers. Unknown *fields* are tolerated by [`LedgerRecord::parse`];
/// malformed JSON and known kinds with bad fields still error.
pub fn parse_ledger_lenient(text: &str) -> Result<(Vec<LedgerRecord>, u64), String> {
    let mut records = Vec::new();
    let mut skipped = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let doc = json::parse(line).map_err(at)?;
        match LedgerRecord::read(record_kind(&doc).map_err(at)?, &doc).map_err(at)? {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// A record-kind allowlist over ledger lines, as `GET /events?kinds=`
/// and `icost-obs watch --kinds` take it: comma-separated names, where
/// `all` or no name at all admits every kind. Unknown names are kept
/// verbatim and simply never match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindFilter(Option<Vec<String>>);

impl KindFilter {
    /// Parse a `kinds` value.
    pub fn parse(spec: &str) -> KindFilter {
        let kinds = spec.split(',').filter(|k| !k.is_empty());
        let kinds: Vec<String> = kinds.map(str::to_string).collect();
        KindFilter((spec != "all" && !kinds.is_empty()).then_some(kinds))
    }

    /// The admitted kinds; `None` admits every kind.
    pub fn kinds(&self) -> Option<&[String]> {
        self.0.as_deref()
    }

    /// Whether ledger `line` passes. Records render `kind` first, so it is
    /// read off the line's head; a filter drops lines without one.
    pub fn admits(&self, line: &str) -> bool {
        let head = line.strip_prefix("{\"kind\":\"");
        let kind = head.and_then(|rest| Some(rest.split_once('"')?.0));
        self.kinds()
            .is_none_or(|kinds| kinds.iter().any(|k| Some(k.as_str()) == kind))
    }
}

#[derive(Debug)]
enum Sink {
    /// Disabled or never opened: records vanish.
    None,
    /// Buffered append to a file.
    File(BufWriter<File>),
    /// In-memory capture, for tests.
    Memory(Vec<u8>),
}

/// Shared state of one live subscription (see [`Ledger::subscribe`]).
#[derive(Debug)]
struct SubscriberShared {
    /// Bounded FIFO of record lines not yet consumed.
    queue: Mutex<VecDeque<String>>,
    cv: Condvar,
    capacity: usize,
    /// Lines this subscriber lost to the drop-oldest policy.
    dropped: AtomicU64,
}

/// A live, bounded subscription to every record line a [`Ledger`]
/// appends — the fan-out tee behind `uarch-serve`'s SSE endpoint.
///
/// Each subscriber owns an independent FIFO of at most `capacity`
/// lines. A slow consumer never blocks the writer: when the queue is
/// full the *oldest* unconsumed line is dropped, the loss counted on
/// the subscriber ([`LedgerSubscriber::dropped`]) and on the ledger's
/// `ledger.events.dropped` metric. Dropping the subscriber detaches it.
#[derive(Debug)]
pub struct LedgerSubscriber {
    shared: Arc<SubscriberShared>,
}

impl LedgerSubscriber {
    /// Pop the oldest pending line without waiting.
    pub fn try_recv(&self) -> Option<String> {
        lock_unpoisoned(&self.shared.queue).pop_front()
    }

    /// Pop the oldest pending line, waiting up to `timeout` for one to
    /// arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<String> {
        let queue = lock_unpoisoned(&self.shared.queue);
        let (mut queue, _) = self
            .shared
            .cv
            .wait_timeout_while(queue, timeout, |q| q.is_empty())
            .unwrap_or_else(|e| e.into_inner());
        queue.pop_front()
    }

    /// Pop every pending line at once.
    pub fn drain(&self) -> Vec<String> {
        lock_unpoisoned(&self.shared.queue).drain(..).collect()
    }

    /// Lines currently queued.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines this subscriber lost to the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct LedgerInner {
    enabled: AtomicBool,
    sink: Mutex<Sink>,
    next_run: AtomicU64,
    appended: AtomicU64,
    /// Live subscriptions, pruned lazily during fan-out.
    subscribers: Mutex<Vec<Weak<SubscriberShared>>>,
    /// Fast-path check so appends skip the subscriber lock entirely
    /// while nobody is listening (the common batch-runner case).
    subscriber_count: AtomicUsize,
    /// `ledger.events.dropped` and `ledger.records` live here.
    metrics: Registry,
    events_dropped: Counter,
    records: Counter,
}

/// A shared ledger writer. Cloning hands out another handle to the same
/// buffered sink.
#[derive(Debug, Clone)]
pub struct Ledger {
    inner: Arc<LedgerInner>,
}

impl Ledger {
    fn with_sink(enabled: bool, sink: Sink) -> Ledger {
        let metrics = Registry::new();
        Ledger {
            inner: Arc::new(LedgerInner {
                enabled: AtomicBool::new(enabled),
                sink: Mutex::new(sink),
                next_run: AtomicU64::new(1),
                appended: AtomicU64::new(0),
                subscribers: Mutex::new(Vec::new()),
                subscriber_count: AtomicUsize::new(0),
                events_dropped: metrics.counter("ledger.events.dropped"),
                records: metrics.counter("ledger.records"),
                metrics,
            }),
        }
    }

    /// A ledger that drops every record at the cost of one atomic load.
    pub fn disabled() -> Ledger {
        Ledger::with_sink(false, Sink::None)
    }

    /// An enabled ledger buffering records in memory (tests and
    /// benches; read back with [`Ledger::buffered_text`]).
    pub fn in_memory() -> Ledger {
        Ledger::with_sink(true, Sink::Memory(Vec::new()))
    }

    /// An enabled ledger appending to `path` (parent directories are
    /// created; the file is opened in append mode so sequential
    /// processes extend one history).
    pub fn to_path(path: impl AsRef<Path>) -> io::Result<Ledger> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Ledger::with_sink(true, Sink::File(BufWriter::new(file))))
    }

    /// Whether records are currently written.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime (the overhead bench runs one
    /// pass each way).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// A fresh process-unique run id (dense from 1 per ledger handle
    /// group).
    pub fn next_run_id(&self) -> u64 {
        self.inner.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether any live [`Ledger::subscribe`] stream is attached.
    /// Producers that build records only when someone will read them
    /// should gate on `is_enabled() || has_subscribers()` — subscribers
    /// receive lines even when the sink is disabled.
    pub fn has_subscribers(&self) -> bool {
        self.inner.subscriber_count.load(Ordering::Relaxed) > 0
    }

    /// Append one record (buffered; call [`Ledger::flush`] to make it
    /// durable). Live subscribers receive the identical line the sink
    /// writes — and still receive it when the sink is disabled, so SSE
    /// streaming works without `ICOST_LEDGER_FILE`. With no sink and no
    /// subscriber this stays a single relaxed atomic load.
    pub fn append(&self, record: &LedgerRecord) {
        let has_subscribers = self.inner.subscriber_count.load(Ordering::Relaxed) > 0;
        if !self.is_enabled() && !has_subscribers {
            return;
        }
        // Stamp the thread's causal context onto unstamped records, so
        // every line a traced request causes — including ones built on
        // pool worker threads that adopted the context — carries its
        // trace id. Pre-stamped records (fleet hops) pass through.
        let line = match crate::causal::current() {
            Some(ctx) if record.trace() == Some("") => {
                let mut stamped = record.clone();
                stamped.set_trace(&ctx.trace_hex());
                stamped.to_json_line()
            }
            _ => record.to_json_line(),
        };
        if self.is_enabled() {
            let mut sink = lock_unpoisoned(&self.inner.sink);
            let result = match &mut *sink {
                Sink::None => Ok(()),
                Sink::File(w) => writeln!(w, "{line}"),
                Sink::Memory(buf) => writeln!(buf, "{line}"),
            };
            if result.is_ok() {
                self.inner.appended.fetch_add(1, Ordering::Relaxed);
                self.inner.records.inc();
            }
        }
        if has_subscribers {
            self.fan_out(&line);
        }
    }

    /// Subscribe to every line appended from now on, through a bounded
    /// queue of `capacity` lines (clamped to at least 1). A slow reader
    /// loses oldest-first — the writer never blocks on a subscriber.
    pub fn subscribe(&self, capacity: usize) -> LedgerSubscriber {
        let shared = Arc::new(SubscriberShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        });
        let mut subscribers = lock_unpoisoned(&self.inner.subscribers);
        subscribers.push(Arc::downgrade(&shared));
        self.inner
            .subscriber_count
            .store(subscribers.len(), Ordering::Relaxed);
        LedgerSubscriber { shared }
    }

    /// Deliver `line` to every live subscriber, pruning dead ones.
    fn fan_out(&self, line: &str) {
        let mut subscribers = lock_unpoisoned(&self.inner.subscribers);
        subscribers.retain(|weak| {
            let Some(shared) = weak.upgrade() else {
                return false;
            };
            let mut queue = lock_unpoisoned(&shared.queue);
            if queue.len() >= shared.capacity {
                queue.pop_front();
                shared.dropped.fetch_add(1, Ordering::Relaxed);
                self.inner.events_dropped.inc();
            }
            queue.push_back(line.to_string());
            shared.cv.notify_all();
            true
        });
        self.inner
            .subscriber_count
            .store(subscribers.len(), Ordering::Relaxed);
    }

    /// The ledger's own metrics registry (`ledger.records`,
    /// `ledger.events.dropped`) — registered on `uarch-serve`'s
    /// `/metrics` next to the runner and cache registries.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Records appended so far (whether or not flushed).
    pub fn appended(&self) -> u64 {
        self.inner.appended.load(Ordering::Relaxed)
    }

    /// Flush buffered records to the underlying file. No-op for
    /// disabled or in-memory ledgers.
    pub fn flush(&self) -> io::Result<()> {
        let mut sink = lock_unpoisoned(&self.inner.sink);
        match &mut *sink {
            Sink::File(w) => w.flush(),
            _ => Ok(()),
        }
    }

    /// The in-memory capture, if this is a [`Ledger::in_memory`]
    /// ledger.
    pub fn buffered_text(&self) -> Option<String> {
        let sink = lock_unpoisoned(&self.inner.sink);
        match &*sink {
            Sink::Memory(buf) => Some(String::from_utf8_lossy(buf).into_owned()),
            _ => None,
        }
    }
}

static GLOBAL: OnceLock<Ledger> = OnceLock::new();

/// The process-wide ledger every `Runner` run appends to.
///
/// Initialized lazily: appends to the file named by [`LEDGER_FILE_ENV`]
/// if it is set at first use, disabled otherwise (one relaxed atomic
/// load per check). A file that cannot be opened leaves the ledger
/// disabled with one line on stderr. Tests that want a deterministic
/// ledger should call [`install_global`] before any instrumented code
/// runs.
pub fn global() -> &'static Ledger {
    GLOBAL.get_or_init(|| match ledger_file() {
        Some(path) => Ledger::to_path(&path).unwrap_or_else(|e| {
            eprintln!(
                "icost: {LEDGER_FILE_ENV}={}: {e}; ledger disabled",
                path.display()
            );
            Ledger::disabled()
        }),
        None => Ledger::disabled(),
    })
}

/// The ledger file named by [`LEDGER_FILE_ENV`], if any.
pub fn ledger_file() -> Option<PathBuf> {
    std::env::var_os(LEDGER_FILE_ENV).map(PathBuf::from)
}

/// Install `ledger` as the process-wide ledger. Returns `false` (and
/// changes nothing) if the global ledger was already initialized.
pub fn install_global(ledger: Ledger) -> bool {
    GLOBAL.set(ledger).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            run: 3,
            ctx: "00aa11bb22cc33dd".into(),
            queries: 2,
            threads: 8,
            insts: 900,
            ts_ms: 1_722_945_600_000,
            trace: String::new(),
        }
    }

    fn job() -> JobRecord {
        JobRecord {
            run: 3,
            set: "dmiss+win".into(),
            provenance: Provenance::Computed,
            cycles: 4567,
            wall_us: 123,
            hash: "0123456789abcdef".into(),
            stalls: [
                ("load_mem_fill".to_string(), 7),
                ("issue_fu_busy".to_string(), 2),
            ]
            .into_iter()
            .collect(),
            trace: String::new(),
        }
    }

    fn calib() -> CalibRecord {
        CalibRecord {
            sim_ctx: "00aa11bb22cc33dd".into(),
            graph_ctx: "44ee55ff66778899".into(),
            set: "dmiss+win".into(),
            graph_cost: -12,
            sim_cost: 3,
        }
    }

    fn plan() -> PlanRecord {
        PlanRecord {
            run: 9,
            query: "icost(dmiss+win)".into(),
            backend: "graph".into(),
            confidence_pm: 875,
            reason: "calibrated".into(),
            trace: String::new(),
        }
    }

    fn window() -> WindowRecord {
        WindowRecord {
            run: 5,
            window: 2,
            start: 2048,
            end: 3072,
            baseline: 5120,
            lag: 776,
            eval_us: 1200,
            costs: [("dmiss".to_string(), 820), ("win".to_string(), 140)]
                .into_iter()
                .collect(),
            pairs: [
                ("dl1+dmiss".to_string(), -42),
                ("dmiss+win".to_string(), 64),
            ]
            .into_iter()
            .collect(),
            trace: String::new(),
        }
    }

    fn audit() -> AuditRecord {
        AuditRecord {
            run: 11,
            scope: "window 3".into(),
            baseline: 4096,
            tolerance_pm: 150,
            score_pm: 312,
            confirmed: 4,
            refuted: 1,
            unmodeled: 3,
            verdict: "refuted".into(),
            attributed: [("dmiss".to_string(), 820), ("win".to_string(), 140)]
                .into_iter()
                .collect(),
            counters: [("dmiss".to_string(), 1400), ("win".to_string(), 120)]
                .into_iter()
                .collect(),
            divergence: [("dmiss".to_string(), -214), ("win".to_string(), 31)]
                .into_iter()
                .collect(),
            evidence: "dmiss: attributed 31.0% vs counters 52.4%".into(),
            trace: String::new(),
        }
    }

    fn report() -> ReportRecord {
        ReportRecord {
            run: 7,
            queries: 2,
            jobs: 5,
            deduped: 1,
            cache_hits: 2,
            disk_hits: 1,
            sims_run: 1,
            cycles: 9001,
            insts: 3000,
            threads: 8,
            expand_us: 40,
            sim_us: 1234,
            skipped: 420,
            trace: String::new(),
        }
    }

    #[test]
    fn records_roundtrip_through_jsonl() {
        for record in [
            LedgerRecord::Run(header()),
            LedgerRecord::Job(job()),
            LedgerRecord::Calib(calib()),
            LedgerRecord::Plan(plan()),
            LedgerRecord::Window(window()),
            LedgerRecord::Report(report()),
            LedgerRecord::Audit(audit()),
        ] {
            let line = record.to_json_line();
            assert_eq!(LedgerRecord::parse(&line).expect("parses"), record);
        }
    }

    #[test]
    fn audit_wire_format_is_name_sorted_and_stable() {
        let line = LedgerRecord::Audit(audit()).to_json_line();
        assert_eq!(
            line,
            "{\"kind\":\"audit\",\"run\":11,\"scope\":\"window 3\",\"baseline\":4096,\
             \"tolerance_pm\":150,\"score_pm\":312,\"confirmed\":4,\"refuted\":1,\
             \"unmodeled\":3,\"verdict\":\"refuted\",\
             \"attributed\":{\"dmiss\":820,\"win\":140},\
             \"counters\":{\"dmiss\":1400,\"win\":120},\
             \"divergence\":{\"dmiss\":-214,\"win\":31},\
             \"evidence\":\"dmiss: attributed 31.0% vs counters 52.4%\"}"
        );
        // An audit line with fields from the future still parses.
        let extended = line.replacen('{', "{\"schema\":9,", 1);
        assert_eq!(
            LedgerRecord::parse(&extended).expect("parses"),
            LedgerRecord::Audit(audit())
        );
    }

    #[test]
    fn window_wire_format_is_name_sorted_and_stable() {
        let line = LedgerRecord::Window(window()).to_json_line();
        assert_eq!(
            line,
            "{\"kind\":\"window\",\"run\":5,\"window\":2,\"start\":2048,\"end\":3072,\
             \"baseline\":5120,\"lag\":776,\"eval_us\":1200,\
             \"costs\":{\"dmiss\":820,\"win\":140},\
             \"pairs\":{\"dl1+dmiss\":-42,\"dmiss+win\":64}}"
        );
        // Empty maps still render as objects so the fields always exist.
        let bare = WindowRecord {
            costs: BTreeMap::new(),
            pairs: BTreeMap::new(),
            ..window()
        };
        let line = LedgerRecord::Window(bare.clone()).to_json_line();
        assert!(line.contains("\"costs\":{},\"pairs\":{}"), "{line}");
        assert_eq!(
            LedgerRecord::parse(&line).expect("parses"),
            LedgerRecord::Window(bare)
        );
    }

    #[test]
    fn lenient_parse_skips_unknown_kinds_and_extra_fields() {
        let known = LedgerRecord::Run(header()).to_json_line();
        // A run header with a field from the future still parses.
        let extended = known.replacen("{", "{\"schema\":7,", 1);
        // A whole record kind from the future is skipped, not fatal.
        let text = format!("{extended}\n{{\"kind\":\"hologram\",\"x\":1}}\n{known}\n");
        let (records, skipped) = parse_ledger_lenient(&text).expect("lenient");
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 1);
        // Strict parsing still rejects the unknown kind...
        assert!(parse_ledger(&text).unwrap_err().contains("unknown record"));
        // ...and leniency does not extend to broken JSON.
        assert!(parse_ledger_lenient("not json\n").is_err());
    }

    #[test]
    fn optional_fields_default_when_absent_but_not_when_mistyped() {
        let line = LedgerRecord::Report(report()).to_json_line();
        let bare = line.replace(",\"skipped\":420", "");
        let parsed = LedgerRecord::parse(&bare).expect("absent skipped defaults");
        assert_eq!(
            parsed,
            LedgerRecord::Report(ReportRecord {
                skipped: 0,
                ..report()
            })
        );
        let mistyped = line.replace("\"skipped\":420", "\"skipped\":\"420\"");
        assert!(LedgerRecord::parse(&mistyped)
            .unwrap_err()
            .contains("skipped"));
        let traced = line.replacen('}', ",\"trace\":7}", 1);
        assert!(LedgerRecord::parse(&traced).unwrap_err().contains("trace"));
    }

    #[test]
    fn kind_filter_reads_the_leading_kind() {
        let run = LedgerRecord::Run(header()).to_json_line();
        let job = LedgerRecord::Job(job()).to_json_line();
        for all in ["all", "", ","] {
            let filter = KindFilter::parse(all);
            assert_eq!(filter.kinds(), None, "{all:?} admits every kind");
            assert!(filter.admits(&run) && filter.admits("not json"));
        }
        let jobs = KindFilter::parse("job,bogus");
        assert_eq!(jobs.kinds().map(<[String]>::len), Some(2));
        assert!(jobs.admits(&job));
        assert!(!jobs.admits(&run) && !jobs.admits("not json"));
    }

    #[test]
    fn disabled_ledger_drops_records() {
        let l = Ledger::disabled();
        l.append(&LedgerRecord::Run(header()));
        assert_eq!(l.appended(), 0);
    }

    #[test]
    fn in_memory_ledger_captures_lines() {
        let l = Ledger::in_memory();
        let l2 = l.clone();
        l.append(&LedgerRecord::Run(header()));
        l2.append(&LedgerRecord::Job(job()));
        assert_eq!(l.appended(), 2, "handles share one sink");
        let text = l.buffered_text().expect("memory sink");
        let records = parse_ledger(&text).expect("valid JSONL");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], LedgerRecord::Run(header()));
        assert_eq!(records[1], LedgerRecord::Job(job()));
    }

    #[test]
    fn file_ledger_appends_across_handles() {
        let path = std::env::temp_dir().join(format!("ledger-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let l = Ledger::to_path(&path).expect("open");
            l.append(&LedgerRecord::Run(header()));
            l.flush().expect("flush");
        }
        {
            // A second opener (as a later process would) extends it.
            let l = Ledger::to_path(&path).expect("reopen");
            l.append(&LedgerRecord::Job(job()));
            l.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(parse_ledger(&text).expect("valid").len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_ledger("{\"kind\":\"run\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let ok_then_bad = format!("{}\nnot json\n", LedgerRecord::Run(header()).to_json_line());
        let err = parse_ledger(&ok_then_bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A known kind with missing fields errors (with its line), even
        // under lenient parsing — leniency covers unknown kinds only.
        let truncated_audit = format!(
            "{}\n{{\"kind\":\"audit\",\"run\":1}}\n",
            LedgerRecord::Audit(audit()).to_json_line()
        );
        let err = parse_ledger_lenient(&truncated_audit).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("scope"), "{err}");
    }

    #[test]
    fn append_stamps_the_current_causal_context() {
        let l = Ledger::in_memory();
        let ctx = crate::causal::TraceCtx::mint();
        {
            let _g = crate::causal::set_current(ctx);
            l.append(&LedgerRecord::Run(header()));
            // Calib records carry no trace field; stamping skips them.
            l.append(&LedgerRecord::Calib(calib()));
            // Pre-stamped records (fleet hops) pass through untouched.
            let mut hop = LedgerRecord::Job(job());
            hop.set_trace("feedfacefeedface");
            l.append(&hop);
        }
        // Outside any context, records stay unstamped.
        l.append(&LedgerRecord::Job(job()));
        let records = parse_ledger(&l.buffered_text().unwrap()).expect("valid");
        assert_eq!(records[0].trace(), Some(ctx.trace_hex().as_str()));
        assert_eq!(records[1].trace(), None, "calib has no trace field");
        assert_eq!(records[2].trace(), Some("feedfacefeedface"));
        assert_eq!(records[3].trace(), Some(""));
        // The stamped wire line carries the field explicitly...
        let text = l.buffered_text().unwrap();
        assert!(
            text.lines()
                .next()
                .unwrap()
                .contains(&format!("\"trace\":\"{}\"", ctx.trace_hex())),
            "{text}"
        );
        // ...and the unstamped one omits it entirely.
        assert!(!text.lines().nth(3).unwrap().contains("trace"), "{text}");
    }

    #[test]
    fn run_ids_are_dense_and_unique() {
        let l = Ledger::in_memory();
        assert_eq!(l.next_run_id(), 1);
        assert_eq!(l.clone().next_run_id(), 2);
        assert_eq!(l.next_run_id(), 3);
    }

    #[test]
    fn subscribers_receive_the_exact_sink_lines() {
        let l = Ledger::in_memory();
        let sub = l.subscribe(16);
        l.append(&LedgerRecord::Run(header()));
        l.append(&LedgerRecord::Job(job()));
        let lines = sub.drain();
        let text = l.buffered_text().unwrap();
        let sink_lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines, sink_lines, "subscriber sees byte-identical lines");
        assert_eq!(sub.dropped(), 0);
        assert!(sub.is_empty());
    }

    #[test]
    fn slow_subscriber_drops_oldest_and_counts_losses() {
        let l = Ledger::in_memory();
        let sub = l.subscribe(2);
        for _ in 0..5 {
            l.append(&LedgerRecord::Run(header()));
        }
        assert_eq!(sub.len(), 2, "queue stays bounded");
        assert_eq!(sub.dropped(), 3, "oldest three dropped");
        let snap = l.metrics().snapshot();
        assert_eq!(snap.counter("ledger.events.dropped"), 3);
        assert_eq!(snap.counter("ledger.records"), 5);
    }

    #[test]
    fn disabled_ledger_still_feeds_subscribers() {
        let l = Ledger::disabled();
        let sub = l.subscribe(4);
        l.append(&LedgerRecord::Run(header()));
        assert_eq!(l.appended(), 0, "nothing written to a sink");
        assert_eq!(sub.len(), 1, "subscriber still sees the line");
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let l = Ledger::in_memory();
        let sub = l.subscribe(4);
        drop(sub);
        l.append(&LedgerRecord::Run(header()));
        // Pruning happens inside fan_out; the count reflects it.
        assert_eq!(l.inner.subscriber_count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recv_timeout_returns_pending_line_and_times_out_when_empty() {
        let l = Ledger::in_memory();
        let sub = l.subscribe(4);
        l.append(&LedgerRecord::Run(header()));
        assert!(sub.recv_timeout(Duration::from_millis(50)).is_some());
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
        assert!(sub.try_recv().is_none());
    }
}
