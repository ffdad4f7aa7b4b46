//! Span tracing with a Chrome trace-event JSON exporter.
//!
//! A [`Tracer`] records begin/end (`"B"`/`"E"`) events with
//! microsecond timestamps and per-thread track ids; [`Tracer::export`]
//! renders them in the Chrome trace-event format, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). Spans are
//! RAII guards ([`Span`]), so begin/end events are balanced per thread
//! by construction — the guard ends the span on whatever line drops it.
//!
//! The process-wide [`global`] tracer is what the library instruments
//! against: it turns itself on when `ICOST_TRACE_FILE` is set (and is a
//! single relaxed atomic load per span otherwise), and [`flush_global`]
//! writes the file at the end of a run. Tests install their own enabled
//! tracer with [`install_global`].

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::quote;
use crate::registry::lock_unpoisoned;
use crate::{Counter, Registry};

/// Environment variable naming the Chrome-trace output file. Setting it
/// enables the [`global`] tracer.
pub const TRACE_FILE_ENV: &str = "ICOST_TRACE_FILE";

/// Event-ring capacity of the [`global`] tracer (~1M events ≈ a few
/// hundred MB worst case, minutes of heavy tracing). When the ring is
/// full the *oldest* event is dropped and counted on the tracer's
/// `trace.events.dropped` metric — a long-lived server with
/// `ICOST_TRACE_FILE` set keeps the most recent window instead of
/// growing without bound.
pub const TRACE_MAX_EVENTS: usize = 1 << 20;

/// The phase of a trace event (Chrome trace-event `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
    Counter,
    /// Flow start (`ph:"s"`): the causal arrow's tail, bound by id.
    FlowStart,
    /// Flow finish (`ph:"f"`): the arrow's head on another thread.
    FlowFinish,
}

impl Phase {
    fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
            Phase::Counter => 'C',
            Phase::FlowStart => 's',
            Phase::FlowFinish => 'f',
        }
    }
}

/// One recorded trace event (a `B`, `E`, instant, or counter sample).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span, marker, or counter-track name.
    pub name: Cow<'static, str>,
    /// Category (Chrome groups and colors by it).
    pub cat: &'static str,
    /// `'B'`, `'E'`, `'i'`, or `'C'`.
    pub phase: char,
    /// Microseconds since the tracer's epoch.
    pub ts_us: u64,
    /// Small dense per-thread track id.
    pub tid: u64,
    /// Extra `args` key/value pairs (values rendered as JSON strings).
    pub args: Vec<(&'static str, String)>,
    /// Counter sample value (`'C'` events only): rendered as the
    /// numeric `args.value` series Perfetto plots as a track. Must be
    /// finite.
    pub value: Option<f64>,
    /// Flow binding id (`'s'`/`'f'` events only): Perfetto draws an
    /// arrow from each flow start to the finishes sharing its id,
    /// rendering cross-thread causality.
    pub flow_id: Option<u64>,
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    /// Ring of recorded events, capped at `max_events` (drop-oldest).
    events: Mutex<VecDeque<TraceEvent>>,
    max_events: usize,
    /// OS thread id -> small dense track id (stable for the process).
    tids: Mutex<HashMap<ThreadId, u64>>,
    next_tid: AtomicU64,
    /// `trace.events.dropped` lives here, mirroring the ledger's
    /// drop accounting, so serve can expose it on `/metrics`+`/readyz`.
    metrics: Registry,
    events_dropped: Counter,
}

/// A shared span recorder. Cloning hands out another handle to the same
/// event buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Tracer {
        Tracer::with_max_events(enabled, TRACE_MAX_EVENTS)
    }

    /// A tracer with an explicit event-ring capacity (clamped to at
    /// least 1): once full, the oldest event is dropped and counted on
    /// the `trace.events.dropped` metric.
    pub fn with_max_events(enabled: bool, max_events: usize) -> Tracer {
        let metrics = Registry::new();
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                events: Mutex::new(VecDeque::new()),
                max_events: max_events.max(1),
                tids: Mutex::new(HashMap::new()),
                next_tid: AtomicU64::new(0),
                events_dropped: metrics.counter("trace.events.dropped"),
                metrics,
            }),
        }
    }

    /// A tracer that records every span.
    pub fn enabled() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A tracer that drops every span at the cost of one atomic load.
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime (used by overhead
    /// measurements; toggle only between top-level spans or the B/E
    /// balance is lost).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    fn thread_track(&self) -> u64 {
        let id = std::thread::current().id();
        let mut tids = lock_unpoisoned(&self.inner.tids);
        *tids
            .entry(id)
            .or_insert_with(|| self.inner.next_tid.fetch_add(1, Ordering::Relaxed))
    }

    fn record(
        &self,
        phase: Phase,
        cat: &'static str,
        name: Cow<'static, str>,
        args: Vec<(&'static str, String)>,
    ) {
        self.record_full(phase, cat, name, args, None, None);
    }

    fn record_valued(
        &self,
        phase: Phase,
        cat: &'static str,
        name: Cow<'static, str>,
        args: Vec<(&'static str, String)>,
        value: Option<f64>,
    ) {
        self.record_full(phase, cat, name, args, value, None);
    }

    fn record_full(
        &self,
        phase: Phase,
        cat: &'static str,
        name: Cow<'static, str>,
        args: Vec<(&'static str, String)>,
        value: Option<f64>,
        flow_id: Option<u64>,
    ) {
        let ev = TraceEvent {
            name,
            cat,
            phase: phase.code(),
            ts_us: self.inner.epoch.elapsed().as_micros() as u64,
            tid: self.thread_track(),
            args,
            value,
            flow_id,
        };
        let mut events = lock_unpoisoned(&self.inner.events);
        if events.len() >= self.inner.max_events {
            events.pop_front();
            self.inner.events_dropped.inc();
        }
        events.push_back(ev);
    }

    /// Open a span; it ends (emits the `E` event) when the returned
    /// guard drops. No-op (and allocation-free) when disabled.
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        self.span_with(cat, name, Vec::new())
    }

    /// [`Tracer::span`] with extra `args` attached to the begin event.
    pub fn span_with(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, String)>,
    ) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        let name = name.into();
        self.record(Phase::Begin, cat, name.clone(), args);
        Span {
            live: Some(LiveSpan {
                tracer: self.clone(),
                cat,
                name,
            }),
        }
    }

    /// Record a zero-duration marker event.
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) {
        if !self.is_enabled() {
            return;
        }
        self.record(Phase::Instant, cat, name.into(), Vec::new());
    }

    /// Record one sample of the counter track `name` (Chrome `ph:"C"`).
    /// Repeated samples under one name render as a time-series track in
    /// Perfetto alongside the spans. Non-finite values are dropped
    /// (JSON cannot carry them).
    pub fn counter(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, value: f64) {
        if !self.is_enabled() || !value.is_finite() {
            return;
        }
        self.record_valued(Phase::Counter, cat, name.into(), Vec::new(), Some(value));
    }

    /// Record a flow start (`ph:"s"`): the tail of a causal arrow bound
    /// by `flow_id`. Emit it on the requesting thread; matching
    /// [`Tracer::flow_finish`] calls on worker threads draw the arrows
    /// in Perfetto.
    pub fn flow_start(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, flow_id: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record_full(
            Phase::FlowStart,
            cat,
            name.into(),
            Vec::new(),
            None,
            Some(flow_id),
        );
    }

    /// Record a flow finish (`ph:"f"`): the head of the causal arrow
    /// started by the [`Tracer::flow_start`] sharing `flow_id`.
    pub fn flow_finish(&self, cat: &'static str, name: impl Into<Cow<'static, str>>, flow_id: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record_full(
            Phase::FlowFinish,
            cat,
            name.into(),
            Vec::new(),
            None,
            Some(flow_id),
        );
    }

    /// Microseconds since this tracer's epoch — the same clock event
    /// timestamps carry, for bracketing windowed captures.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Events the drop-oldest ring discarded because the buffer hit
    /// its [`TRACE_MAX_EVENTS`] cap.
    pub fn dropped(&self) -> u64 {
        self.inner.events_dropped.get()
    }

    /// The tracer's own metrics registry (`trace.events.dropped`) —
    /// registered on `uarch-serve`'s `/metrics` next to the ledger's.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.events).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.inner.events)
            .iter()
            .cloned()
            .collect()
    }

    /// A copy of the recorded events with `ts_us >= since_us`, in
    /// record order — the raw material for a windowed live profile.
    pub fn events_since(&self, since_us: u64) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.inner.events)
            .iter()
            .filter(|ev| ev.ts_us >= since_us)
            .cloned()
            .collect()
    }

    /// Render the recorded events as a Chrome trace-event JSON document.
    pub fn export_json(&self) -> String {
        let events = lock_unpoisoned(&self.inner.events);
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\": [\n");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
                quote(&ev.name),
                quote(ev.cat),
                ev.phase,
                ev.ts_us,
                ev.tid
            ));
            // Instant events need a scope field to render in Chrome.
            if ev.phase == 'i' {
                out.push_str(", \"s\": \"t\"");
            }
            // Flow events bind by id; finishes bind to the enclosing
            // slice's end ("bp":"e") so arrows land on the span.
            if let Some(id) = ev.flow_id {
                out.push_str(&format!(", \"id\": {id}"));
                if ev.phase == 'f' {
                    out.push_str(", \"bp\": \"e\"");
                }
            }
            if let Some(v) = ev.value {
                out.push_str(&format!(", \"args\": {{\"value\": {v}}}"));
            } else if !ev.args.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{}: {}", quote(k), quote(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Write the exported JSON to `path` (parent directories are
    /// created).
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, self.export_json())
    }
}

#[derive(Debug)]
struct LiveSpan {
    tracer: Tracer,
    cat: &'static str,
    name: Cow<'static, str>,
}

/// RAII guard for an open span; dropping it emits the end event on the
/// dropping thread.
#[derive(Debug)]
#[must_use = "dropping the span immediately records a zero-length interval"]
pub struct Span {
    live: Option<LiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.tracer
                .record(Phase::End, live.cat, live.name, Vec::new());
        }
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer every instrumented component records into.
///
/// Initialized lazily: enabled iff [`TRACE_FILE_ENV`] is set in the
/// environment at first use, disabled otherwise (one atomic load per
/// span). Tests that want deterministic tracing should call
/// [`install_global`] before any instrumented code runs.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(|| Tracer::with_enabled(trace_file().is_some()))
}

/// The Chrome-trace output file named by [`TRACE_FILE_ENV`], if any.
fn trace_file() -> Option<PathBuf> {
    std::env::var_os(TRACE_FILE_ENV).map(PathBuf::from)
}

/// Install `tracer` as the process-wide tracer. Returns `false` (and
/// changes nothing) if the global tracer was already initialized.
pub fn install_global(tracer: Tracer) -> bool {
    GLOBAL.set(tracer).is_ok()
}

/// If the global tracer is enabled and [`TRACE_FILE_ENV`] names a file,
/// write the trace there and return the path. Safe to call more than
/// once (later calls rewrite the longer trace).
pub fn flush_global() -> io::Result<Option<PathBuf>> {
    let Some(path) = trace_file() else {
        return Ok(None);
    };
    let tracer = global();
    if !tracer.is_enabled() && tracer.is_empty() {
        return Ok(None);
    }
    tracer.write(&path)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.span("test", "outer");
            t.instant("test", "marker");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn spans_balance_and_nest_in_record_order() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("test", "outer");
            {
                let _inner = t.span_with("test", "inner", vec![("k", "v".into())]);
            }
        }
        let evs = t.events();
        let seq: Vec<(char, &str)> = evs.iter().map(|e| (e.phase, e.name.as_ref())).collect();
        assert_eq!(
            seq,
            vec![
                ('B', "outer"),
                ('B', "inner"),
                ('E', "inner"),
                ('E', "outer")
            ]
        );
        assert!(evs.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn export_is_valid_json() {
        let t = Tracer::enabled();
        {
            let _s = t.span("cat", "span \"quoted\" name");
            t.instant("cat", "mark");
        }
        let doc = crate::json::parse(&t.export_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("span \"quoted\" name")
        );
    }

    #[test]
    fn counter_events_render_numeric_value_args() {
        let t = Tracer::enabled();
        t.counter("metrics", "runner.sims_run", 7.0);
        t.counter("metrics", "runner.reuse_pct", 62.5);
        t.counter("metrics", "bad", f64::NAN); // dropped, keeps JSON valid
        let doc = crate::json::parse(&t.export_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_num()),
            Some(7.0)
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_num()),
            Some(62.5)
        );
    }

    #[test]
    fn ring_cap_drops_oldest_and_counts() {
        let t = Tracer::with_max_events(true, 3);
        for i in 0..5u64 {
            t.instant("test", format!("mark{i}"));
        }
        assert_eq!(t.len(), 3, "ring stays bounded");
        assert_eq!(t.dropped(), 2, "oldest two dropped");
        let names: Vec<String> = t.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["mark2", "mark3", "mark4"]);
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter("trace.events.dropped"), 2);
    }

    #[test]
    fn flow_events_export_bound_ids() {
        let t = Tracer::enabled();
        t.flow_start("pool", "dispatch", 42);
        t.flow_finish("pool", "dispatch", 42);
        let doc = crate::json::parse(&t.export_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(events[0].get("id").and_then(|v| v.as_num()), Some(42.0));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(events[1].get("bp").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn events_since_windows_by_timestamp() {
        let t = Tracer::enabled();
        t.instant("test", "early");
        let cut = t.now_us() + 1;
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.instant("test", "late");
        let late = t.events_since(cut);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].name, "late");
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        let _a = t.span("test", "main");
        std::thread::spawn(move || {
            let _b = t2.span("test", "worker");
        })
        .join()
        .expect("worker");
        let evs = t.events();
        let main_tid = evs[0].tid;
        assert!(evs.iter().any(|e| e.tid != main_tid));
    }
}
