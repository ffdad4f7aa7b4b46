//! `POST /ingest`: live streaming trace ingestion.
//!
//! Each ingest *session* wraps one [`StreamingBuilder`]: clients POST
//! chunked JSON instruction batches bound to a session id, the builder
//! retires full windows as they accumulate, and every retired window
//! becomes a `window` record appended to the global run ledger — which
//! is exactly what `GET /events` fans out live and `icost-obs watch`
//! renders. Sessions that go quiet for [`IDLE_EVICT`] are flushed
//! (their partial window retires) and dropped, so an abandoned client
//! cannot pin a window of instructions forever.
//!
//! Concurrency model: one mutex over the whole session table. Window
//! retirement (a cold simulation plus one lane-kernel pass over a
//! bounded window) runs under that lock, serializing concurrent ingest
//! batches; that is deliberate — it keeps ledger window records in
//! retirement order and the resident-memory bound additive across
//! sessions.
//!
//! Request body:
//!
//! ```json
//! {"session": "cli-7",
//!  "window": 256,
//!  "insts": [{"pc": 16384, "op": "ld", "dst": "r1", "srcs": ["r2"],
//!             "mem": 4096, "taken": false, "next_pc": 16388}],
//!  "done": false}
//! ```
//!
//! `window` is honored only when the session is created (bounded to
//! [`MAX_WINDOW`]); `insts` may be empty; `done: true` flushes the
//! trailing partial window and closes the session.
//!
//! The body is decoded in one pass over [`json::Reader`]: each `insts`
//! element is written straight into an [`Inst`] and no JSON tree is
//! built. Unknown keys are validated and skipped; of duplicate keys
//! the last wins. A body is judged only once it has fully validated,
//! so the error a client sees follows one precedence: a syntax error
//! anywhere, then `session`, `window` and `done`, then the
//! [`MAX_BATCH_INSTS`] cap, then the first bad instruction.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uarch_audit::{audit_attribution, AuditMetrics};
use uarch_graph::{StreamingBuilder, DEFAULT_WINDOW};
use uarch_obs::json::{self, Kind, Reader, Value};
use uarch_obs::ledger::{LedgerRecord, WindowRecord};
use uarch_obs::{lock_unpoisoned, Counter, Gauge, Histogram, Registry};
use uarch_trace::{Inst, MachineConfig, OpClass, Reg};

/// Cap on concurrently open ingest sessions.
pub const MAX_SESSIONS: usize = 64;

/// Cap on a session's retirement window, in instructions.
pub const MAX_WINDOW: usize = 65_536;

/// Cap on instructions per ingest request body.
pub const MAX_BATCH_INSTS: usize = 65_536;

/// Sessions idle longer than this are flushed and evicted.
pub const IDLE_EVICT: Duration = Duration::from_secs(120);

/// Bucket bounds for per-window lattice evaluation latency, in
/// microseconds.
const WINDOW_EVAL_US_BOUNDS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// One live streaming session.
#[derive(Debug)]
struct IngestSession {
    builder: StreamingBuilder,
    /// Ledger run id stamped on every window record this session emits.
    run: u64,
    last_seen: Instant,
}

/// The session table behind `POST /ingest`, plus the `ingest.*` /
/// `window.*` metrics `/metrics` renders for it.
#[derive(Debug)]
pub struct IngestSessions {
    config: MachineConfig,
    sessions: Mutex<HashMap<String, IngestSession>>,
    registry: Registry,
    sessions_gauge: Gauge,
    sessions_opened: Counter,
    sessions_evicted: Counter,
    batches: Counter,
    insts: Counter,
    window_evals: Counter,
    window_eval_us: Histogram,
    window_lag: Gauge,
    /// When set, every retired window is cross-validated against its
    /// baseline stall counters and the audit lands on the ledger right
    /// after the window record (see [`IngestSessions::with_audit`]).
    audit: Option<AuditMetrics>,
}

/// What one ingest request did (rendered as the response JSON).
#[derive(Debug, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The session id the batch landed in.
    pub session: String,
    /// Instructions the session has ingested in total.
    pub ingested: u64,
    /// Windows the session has retired in total.
    pub windows: u64,
    /// Instructions ingested but not yet covered by a retired window.
    pub pending: u64,
    /// Whether this request closed the session.
    pub done: bool,
}

impl IngestOutcome {
    /// The `POST /ingest` response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"session\":{},\"ingested\":{},\"windows\":{},\"pending\":{},\"done\":{}}}\n",
            json::quote(&self.session),
            self.ingested,
            self.windows,
            self.pending,
            self.done,
        )
    }
}

impl IngestSessions {
    /// An empty session table for streams simulated under `config`
    /// (the served machine — streamed windows are analyzed on the same
    /// machine the batch endpoints serve).
    pub fn new(config: MachineConfig) -> IngestSessions {
        let registry = Registry::new();
        IngestSessions {
            sessions_gauge: registry.gauge("ingest.sessions"),
            sessions_opened: registry.counter("ingest.sessions_opened"),
            sessions_evicted: registry.counter("ingest.sessions_evicted"),
            batches: registry.counter("ingest.batches"),
            insts: registry.counter("ingest.insts"),
            window_evals: registry.counter("window.evals"),
            window_eval_us: registry.histogram("window.eval_us", &WINDOW_EVAL_US_BOUNDS),
            window_lag: registry.gauge("window.lag"),
            registry,
            config,
            sessions: Mutex::new(HashMap::new()),
            audit: None,
        }
    }

    /// Audit every retired window, counting outcomes in `metrics`
    /// (cloned handles — bind them into whatever registry should render
    /// the `audit.*` families, so streamed-window audits and `/explain`
    /// audits share one running refuted-rate).
    pub fn with_audit(mut self, metrics: AuditMetrics) -> IngestSessions {
        self.audit = Some(metrics);
        self
    }

    /// The `ingest.*` / `window.*` registry.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Currently open sessions.
    pub fn active(&self) -> usize {
        lock_unpoisoned(&self.sessions).len()
    }

    /// Flush and drop every session idle longer than `max_idle`;
    /// returns how many were evicted. Partial windows retire on the way
    /// out, so a vanished client's tail still reaches the ledger.
    pub fn evict_idle(&self, max_idle: Duration) -> usize {
        let mut sessions = lock_unpoisoned(&self.sessions);
        let now = Instant::now();
        let before = sessions.len();
        let evicted: Vec<IngestSession> = {
            let stale: Vec<String> = sessions
                .iter()
                .filter(|(_, s)| now.duration_since(s.last_seen) >= max_idle)
                .map(|(id, _)| id.clone())
                .collect();
            stale
                .into_iter()
                .filter_map(|id| sessions.remove(&id))
                .collect()
        };
        for mut session in evicted {
            if let Some(tail) = session.builder.finish() {
                self.emit_window(session.run, &tail);
            }
        }
        let after = sessions.len();
        self.sessions_gauge.set(after as i64);
        self.sessions_evicted.add((before - after) as u64);
        before - after
    }

    /// Handle one `POST /ingest` body end to end: evict idle sessions,
    /// parse the batch, feed the session's builder, and append every
    /// retired window to the global ledger. Returns a client-error
    /// message (HTTP 400) on malformed bodies or broken dynamic paths.
    pub fn handle(&self, body: &[u8]) -> Result<IngestOutcome, String> {
        self.evict_idle(IDLE_EVICT);
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let batch = parse_ingest_body(text)?;
        self.batches.inc();
        let mut sessions = lock_unpoisoned(&self.sessions);
        if !sessions.contains_key(&batch.session) {
            if sessions.len() >= MAX_SESSIONS {
                return Err(format!("too many ingest sessions (max {MAX_SESSIONS})"));
            }
            sessions.insert(
                batch.session.clone(),
                IngestSession {
                    builder: StreamingBuilder::new(
                        &self.config,
                        batch.window.unwrap_or(DEFAULT_WINDOW),
                    ),
                    run: uarch_obs::ledger::global().next_run_id(),
                    last_seen: Instant::now(),
                },
            );
            self.sessions_opened.inc();
        }
        let session = sessions.get_mut(&batch.session).expect("just inserted");
        session.last_seen = Instant::now();
        let retired = session.builder.push_batch(&batch.insts)?;
        self.insts.add(batch.insts.len() as u64);
        let run = session.run;
        for window in &retired {
            self.emit_window(run, window);
        }
        let mut outcome = IngestOutcome {
            session: batch.session.clone(),
            ingested: session.builder.ingested(),
            windows: session.builder.windows_emitted(),
            pending: session.builder.frontier_lag(),
            done: batch.done,
        };
        if batch.done {
            let mut session = sessions.remove(&batch.session).expect("present");
            if let Some(tail) = session.builder.finish() {
                self.emit_window(run, &tail);
                outcome.windows = session.builder.windows_emitted();
                outcome.pending = 0;
            }
        }
        self.sessions_gauge.set(sessions.len() as i64);
        drop(sessions);
        let _ = uarch_obs::ledger::global().flush();
        Ok(outcome)
    }

    /// Append one retired window to the global ledger and record its
    /// metrics.
    fn emit_window(&self, run: u64, window: &uarch_graph::WindowBreakdown) {
        uarch_obs::ledger::global().append(&LedgerRecord::Window(WindowRecord {
            run,
            window: window.window,
            start: window.start,
            end: window.end,
            baseline: window.attribution.baseline,
            lag: window.frontier_lag,
            eval_us: window.eval_us,
            costs: window.costs_by_name(),
            pairs: window.pairs_by_name(),
            // Stamped by Ledger::append from the causal context.
            trace: String::new(),
        }));
        self.window_evals.inc();
        self.window_eval_us.record(window.eval_us);
        self.window_lag.set(window.frontier_lag as i64);
        if let Some(metrics) = &self.audit {
            let audit =
                audit_attribution(&format!("window {}", window.window), &window.attribution);
            let record = audit.to_record(run);
            metrics.observe(&record);
            uarch_obs::ledger::global().append(&LedgerRecord::Audit(record));
        }
    }
}

/// One parsed ingest request body.
#[derive(Debug, PartialEq)]
struct IngestBatch {
    session: String,
    window: Option<usize>,
    insts: Vec<Inst>,
    done: bool,
}

/// Decode an ingest body in one pass over [`json::Reader`], writing
/// each `insts` element straight into an [`Inst`] with no tree built.
///
/// Errors keep one precedence: a syntax error anywhere (`invalid
/// JSON: …`), then `session`, `window` and `done`, then the `insts`
/// cap, then the first bad instruction (`insts[i]: …`). So the fields
/// are only read into slots during the pass (a later duplicate key
/// overwrites an earlier one) and judged after the whole document has
/// validated.
fn parse_ingest_body(text: &str) -> Result<IngestBatch, String> {
    let mut body = BodySlots::default();
    let mut r = Reader::new(text);
    let read = if r.kind().map_err(invalid_json)? == Kind::Obj {
        r.object(|key, r| {
            match &*key {
                "session" => body.session = Some(Scalar::read(r)?),
                "window" => body.window = Some(Scalar::read(r)?),
                "done" => body.done = Some(Scalar::read(r)?),
                "insts" => body.insts = Some(read_insts(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })
    } else {
        r.skip()
    };
    read.and_then(|()| r.finish()).map_err(invalid_json)?;
    body.judge()
}

fn invalid_json(e: String) -> String {
    format!("invalid JSON: {e}")
}

/// A scalar field's value as read; arrays and objects are validated
/// and kept only as [`Scalar::Other`], since no scalar field takes one.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Scalar<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Scalar<'a>, String> {
        Ok(match r.kind()? {
            Kind::Null => {
                r.null()?;
                Scalar::Null
            }
            Kind::Bool => Scalar::Bool(r.bool()?),
            Kind::Num => Scalar::Num(r.num()?),
            Kind::Str => Scalar::Str(r.str()?),
            Kind::Arr | Kind::Obj => {
                r.skip()?;
                Scalar::Other
            }
        })
    }

    fn exact_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => exact_u64(*n),
            _ => None,
        }
    }
}

/// The top-level fields of an ingest body.
#[derive(Default)]
struct BodySlots<'a> {
    session: Option<Scalar<'a>>,
    window: Option<Scalar<'a>>,
    done: Option<Scalar<'a>>,
    insts: Option<Result<Vec<Inst>, String>>,
}

impl BodySlots<'_> {
    fn judge(self) -> Result<IngestBatch, String> {
        let session = match self.session {
            Some(Scalar::Str(s)) => s,
            _ => return Err("missing \"session\" string".into()),
        };
        if !(1..=128).contains(&session.chars().count()) {
            return Err("\"session\" must be 1..=128 characters".into());
        }
        let window = match self.window {
            None => None,
            Some(v) => {
                let w = v
                    .exact_u64()
                    .ok_or("\"window\" must be a non-negative integer")?
                    as usize;
                if w == 0 || w > MAX_WINDOW {
                    return Err(format!("\"window\" must be in 1..={MAX_WINDOW}"));
                }
                Some(w)
            }
        };
        let done = match self.done {
            None => false,
            Some(Scalar::Bool(b)) => b,
            Some(_) => return Err("\"done\" must be a boolean".into()),
        };
        let insts = self.insts.unwrap_or(Ok(Vec::new()))?;
        Ok(IngestBatch {
            session: session.into_owned(),
            window,
            insts,
            done,
        })
    }
}

/// Read an `insts` value. The outer error is a syntax error; the
/// inner one is the first check that fails: not an array, over the
/// cap, then the first bad element. Past the cap or a bad element,
/// elements are only validated.
fn read_insts(r: &mut Reader<'_>) -> Result<Result<Vec<Inst>, String>, String> {
    if r.kind()? != Kind::Arr {
        r.skip()?;
        return Ok(Err("\"insts\" must be an array".into()));
    }
    let mut insts = Vec::new();
    let mut len = 0;
    let mut first_bad = None;
    r.array(|r| {
        if first_bad.is_some() || len >= MAX_BATCH_INSTS {
            r.skip()?;
        } else {
            match InstSlots::read(r)?.judge() {
                Ok(inst) => insts.push(inst),
                Err(e) => first_bad = Some(format!("insts[{len}]: {e}")),
            }
        }
        len += 1;
        Ok(())
    })?;
    Ok(if len > MAX_BATCH_INSTS {
        Err(format!(
            "\"insts\" over the per-request cap ({MAX_BATCH_INSTS})"
        ))
    } else {
        first_bad.map_or(Ok(insts), Err)
    })
}

/// The fields of one streamed instruction object (the shape
/// [`inst_to_json`] writes).
#[derive(Default)]
struct InstSlots<'a> {
    pc: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    next_pc: Option<Scalar<'a>>,
    dst: Option<Scalar<'a>>,
    srcs: Option<Result<[Option<Reg>; 2], String>>,
    mem: Option<Scalar<'a>>,
    taken: Option<Scalar<'a>>,
}

impl<'a> InstSlots<'a> {
    /// Read one `insts` element; a non-object leaves every slot empty.
    fn read(r: &mut Reader<'a>) -> Result<InstSlots<'a>, String> {
        let mut f = InstSlots::default();
        if r.kind()? != Kind::Obj {
            r.skip()?;
            return Ok(f);
        }
        r.object(|key, r| {
            let slot = match &*key {
                "pc" => &mut f.pc,
                "op" => &mut f.op,
                "next_pc" => &mut f.next_pc,
                "dst" => &mut f.dst,
                "mem" => &mut f.mem,
                "taken" => &mut f.taken,
                "srcs" => {
                    f.srcs = Some(read_srcs(r)?);
                    return Ok(());
                }
                _ => return r.skip(),
            };
            *slot = Some(Scalar::read(r)?);
            Ok(())
        })?;
        Ok(f)
    }

    /// The instruction, or the first field check that fails, in a
    /// fixed field order.
    fn judge(self) -> Result<Inst, String> {
        let pc = self
            .pc
            .and_then(|v| v.exact_u64())
            .ok_or("missing \"pc\" integer")?;
        let op = match self.op {
            Some(Scalar::Str(s)) => s,
            _ => return Err("missing \"op\" mnemonic".into()),
        };
        let op =
            OpClass::from_mnemonic(&op).ok_or_else(|| format!("unknown op mnemonic {:?}", &*op))?;
        let next_pc = self
            .next_pc
            .and_then(|v| v.exact_u64())
            .ok_or("missing \"next_pc\" integer")?;
        let dst = match self.dst {
            None | Some(Scalar::Null) => None,
            Some(Scalar::Str(name)) => Some(parse_reg(&name)?),
            Some(_) => return Err("\"dst\" must be a register string".into()),
        };
        let srcs = self.srcs.unwrap_or(Ok([None, None]))?;
        let mem_addr = match self.mem {
            None => 0,
            Some(v) => v
                .exact_u64()
                .ok_or("\"mem\" must be a non-negative integer")?,
        };
        let taken = match self.taken {
            None => op.is_branch() && !op.is_cond_branch(),
            Some(Scalar::Bool(b)) => b,
            Some(_) => return Err("\"taken\" must be a boolean".into()),
        };
        Ok(Inst {
            pc,
            op,
            srcs,
            dst,
            mem_addr,
            taken,
            next_pc,
        })
    }
}

/// Read a `srcs` value. The outer error is a syntax error; the inner
/// one is the first check that fails: not an array, more than two
/// elements, then the first element that is not a register name.
fn read_srcs(r: &mut Reader<'_>) -> Result<Result<[Option<Reg>; 2], String>, String> {
    if r.kind()? != Kind::Arr {
        r.skip()?;
        return Ok(Err("\"srcs\" must be an array".into()));
    }
    let mut len = 0;
    let mut names = [Scalar::Other, Scalar::Other];
    r.array(|r| {
        match names.get_mut(len) {
            Some(name) => *name = Scalar::read(r)?,
            None => r.skip()?,
        }
        len += 1;
        Ok(())
    })?;
    if len > 2 {
        return Ok(Err("\"srcs\" holds at most two registers".into()));
    }
    let mut srcs = [None, None];
    for (src, name) in srcs.iter_mut().zip(&names).take(len) {
        let reg = match name {
            Scalar::Str(name) => parse_reg(name),
            _ => Err("\"srcs\" entries must be strings".into()),
        };
        match reg {
            Ok(reg) => *src = Some(reg),
            Err(e) => return Ok(Err(e)),
        }
    }
    Ok(Ok(srcs))
}

/// Parse the `Reg` display form (`r5` / `f3`) back to a register. The
/// index is taken only in that form: `0`, or digits with no leading
/// zero (so not `r05` or `r+5`).
fn parse_reg(name: &str) -> Result<Reg, String> {
    let (make, index): (fn(u8) -> Reg, &str) = if let Some(index) = name.strip_prefix('r') {
        (Reg::int, index)
    } else if let Some(index) = name.strip_prefix('f') {
        (Reg::fp, index)
    } else {
        return Err(format!("bad register {name:?} (want rN or fN)"));
    };
    let bad = || format!("bad register {name:?}");
    let n: u8 = match index.as_bytes() {
        [b'0'] | [b'1'..=b'9', ..] if index.bytes().all(|b| b.is_ascii_digit()) => {
            index.parse().map_err(|_| bad())?
        }
        _ => return Err(bad()),
    };
    if n >= 32 {
        return Err(format!("register index {n} out of range in {name:?}"));
    }
    Ok(make(n))
}

/// [`exact_u64`] of a JSON number value.
pub(crate) fn num_u64(v: &Value) -> Option<u64> {
    v.as_num().and_then(exact_u64)
}

/// Exact u64 from a JSON number: rejects negatives, fractions, and
/// anything from 2^53 up, where an f64 no longer tells neighbouring
/// integers apart (`9007199254740993` parses to 2^53).
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
}

/// Length of the longest [`inst_to_json`] object: a load with 20-digit
/// `pc`, `mem` and `next_pc`, an FP destination and two FP sources.
const INST_JSON_MAX: usize = 142;

/// Serialize `inst` as one ingest-wire JSON object — the encoder half
/// of the `POST /ingest` body decoder, used by ingest producers and
/// tests. It allocates once: [`INST_JSON_MAX`] covers the longest
/// object.
pub fn inst_to_json(inst: &Inst) -> String {
    let mut out = String::with_capacity(INST_JSON_MAX);
    // Mnemonics and register names are bare identifiers: nothing to
    // escape.
    let _ = write!(
        out,
        "{{\"pc\":{},\"op\":\"{}\"",
        inst.pc,
        inst.op.mnemonic()
    );
    if let Some(dst) = inst.dst {
        let _ = write!(out, ",\"dst\":\"{dst}\"");
    }
    for (i, src) in inst.srcs.iter().flatten().enumerate() {
        let _ = write!(out, "{}\"{src}\"", if i == 0 { ",\"srcs\":[" } else { "," });
    }
    if inst.srcs.iter().any(Option::is_some) {
        out.push(']');
    }
    if inst.op.is_mem() {
        let _ = write!(out, ",\"mem\":{}", inst.mem_addr);
    }
    let _ = write!(
        out,
        ",\"taken\":{},\"next_pc\":{}}}",
        inst.taken, inst.next_pc
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use uarch_trace::TraceBuilder;

    /// A short connected trace to stream through a session.
    fn sample_insts(n: usize) -> Vec<Inst> {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        b.counted_loop(n / 4 + 1, r2, |b, k| {
            b.load(r1, 0x4000 + (k as u64 % 7) * 64);
            b.alu(r2, &[r1]);
            b.store(r1, 0x9000 + (k as u64 % 5) * 8);
        });
        let mut insts = b.finish().insts().to_vec();
        insts.truncate(n);
        insts
    }

    fn body(session: &str, window: Option<usize>, insts: &[Inst], done: bool) -> String {
        let window = window.map_or(String::new(), |w| format!(",\"window\":{w}"));
        let insts: Vec<String> = insts.iter().map(inst_to_json).collect();
        format!(
            "{{\"session\":{}{window},\"insts\":[{}],\"done\":{done}}}",
            json::quote(session),
            insts.join(","),
        )
    }

    #[test]
    fn instructions_roundtrip_through_the_wire_shape() {
        let insts = sample_insts(40);
        for inst in &insts {
            let encoded = inst_to_json(inst);
            json::parse(&encoded).expect("encoder emits valid JSON");
        }
        let batch = parse_ingest_body(&body("rt", None, &insts, false)).expect("decodes");
        assert_eq!(batch.insts, insts);
        let widest = Inst {
            pc: u64::MAX,
            op: OpClass::Load,
            srcs: [Some(Reg::fp(31)); 2],
            dst: Some(Reg::fp(31)),
            mem_addr: u64::MAX,
            taken: false,
            next_pc: u64::MAX,
        };
        assert_eq!(inst_to_json(&widest).len(), INST_JSON_MAX);
        let mut st = *insts
            .iter()
            .find(|i| i.op == OpClass::Store)
            .expect("a store");
        st.srcs = [Some(Reg::int(1)), Some(Reg::fp(3))];
        assert_eq!(
            inst_to_json(&st),
            format!(
                r#"{{"pc":{},"op":"st","srcs":["r1","f3"],"mem":{},"taken":false,"next_pc":{}}}"#,
                st.pc, st.mem_addr, st.next_pc
            )
        );
    }

    #[test]
    fn sessions_ingest_retire_and_close() {
        let table = IngestSessions::new(MachineConfig::table6());
        let insts = sample_insts(100);
        let first = table
            .handle(body("s1", Some(32), &insts[..50], false).as_bytes())
            .expect("first batch");
        assert_eq!(
            (first.ingested, first.windows, first.pending, first.done),
            (50, 1, 18, false)
        );
        assert_eq!(table.active(), 1);
        let last = table
            .handle(body("s1", None, &insts[50..], true).as_bytes())
            .expect("final batch");
        // 100 = 3*32 + 4: done retires the 4-inst tail as window 3.
        assert_eq!(
            (last.ingested, last.windows, last.pending, last.done),
            (100, 4, 0, true)
        );
        assert_eq!(table.active(), 0, "done closes the session");
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.insts"), 100);
        assert_eq!(snap.counter("window.evals"), 4);
        assert_eq!(snap.counter("ingest.sessions_opened"), 1);
        let outcome = last.to_json();
        let doc = json::parse(&outcome).expect("response is JSON");
        assert_eq!(doc.get("windows").and_then(num_u64), Some(4));
    }

    #[test]
    fn audited_sessions_emit_one_audit_per_retired_window() {
        let registry = Registry::new();
        let table =
            IngestSessions::new(MachineConfig::table6()).with_audit(AuditMetrics::bind(&registry));
        let sub = uarch_obs::ledger::global().subscribe(256);
        let insts = sample_insts(100);
        let outcome = table
            .handle(body("aud", Some(32), &insts, true).as_bytes())
            .expect("batch");
        let audits: Vec<uarch_obs::ledger::AuditRecord> = sub
            .drain()
            .iter()
            .filter_map(|line| match uarch_obs::ledger::LedgerRecord::parse(line) {
                Ok(uarch_obs::ledger::LedgerRecord::Audit(a)) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(
            audits.len() as u64,
            outcome.windows,
            "one audit per retired window"
        );
        for (i, a) in audits.iter().enumerate() {
            assert_eq!(a.scope, format!("window {i}"));
            assert!(!a.attributed.is_empty(), "audits are self-contained");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("audit.checks"), outcome.windows);
    }

    #[test]
    fn idle_sessions_are_flushed_and_evicted() {
        let table = IngestSessions::new(MachineConfig::table6());
        let insts = sample_insts(10);
        table
            .handle(body("stale", Some(64), &insts, false).as_bytes())
            .expect("opens");
        assert_eq!(table.active(), 1);
        assert_eq!(table.evict_idle(Duration::ZERO), 1);
        assert_eq!(table.active(), 0);
        let snap = table.metrics().snapshot();
        assert_eq!(snap.counter("ingest.sessions_evicted"), 1);
        // The partial window retired on the way out.
        assert_eq!(snap.counter("window.evals"), 1);
    }

    #[test]
    fn malformed_bodies_and_broken_paths_are_client_errors() {
        let table = IngestSessions::new(MachineConfig::table6());
        let rejects = |body: &str, needles: &[&str]| {
            let err = table.handle(body.as_bytes()).unwrap_err();
            assert!(needles.iter().all(|n| err.contains(n)), "{body}: {err}");
        };
        rejects("not json", &["invalid JSON"]);
        rejects(r#"{"insts":[]}"#, &["session"]);
        rejects(r#"{"session":"x","window":0}"#, &["window"]);
        // The cap outranks the bad instructions under it.
        let over_cap = vec!["{}"; MAX_BATCH_INSTS + 1].join(",");
        rejects(
            &format!(r#"{{"session":"x","insts":[{over_cap}]}}"#),
            &["per-request cap"],
        );
        let inst = |fields: &str| format!(r#"{{"session":"x","insts":[{{{fields}}}]}}"#);
        rejects(
            &inst(r#""pc":0,"op":"hcf","next_pc":4"#),
            &["insts[0]", "hcf"],
        );
        // A multi-byte first character is a bad register, not a panic.
        rejects(
            &inst(r#""pc":0,"op":"alu","dst":"é5","next_pc":4"#),
            &["bad register"],
        );
        // Past 2^53 an f64 rounds: 2^53 + 1 would arrive as 2^53.
        for pc in ["9007199254740992", "9007199254740993"] {
            rejects(
                &inst(&format!(r#""pc":{pc},"op":"alu","next_pc":4"#)),
                &["\"pc\""],
            );
        }
        let max = parse_ingest_body(&inst(r#""pc":9007199254740991,"op":"alu","next_pc":0"#))
            .expect("2^53 - 1 is exact");
        assert_eq!(max.insts[0].pc, (1 << 53) - 1);
        let insts = sample_insts(8);
        table
            .handle(body("x", Some(64), &insts[..4], false).as_bytes())
            .expect("connected prefix");
        let err = table
            .handle(body("x", None, &insts[6..], false).as_bytes())
            .unwrap_err();
        assert!(err.contains("dynamic path"), "{err}");
        // The session survives a rejected batch at its old frontier.
        let resumed = table
            .handle(body("x", None, &insts[4..], true).as_bytes())
            .expect("resume");
        assert_eq!(resumed.ingested, 8);
    }

    /// The tree path the one-pass decoder replaced, kept as the
    /// reference it is checked against: parse a [`Value`] tree, then
    /// read the fields out of it.
    fn reference_body(text: &str) -> Result<IngestBatch, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let session = doc
            .get("session")
            .and_then(Value::as_str)
            .ok_or("missing \"session\" string")?;
        if !(1..=128).contains(&session.chars().count()) {
            return Err("\"session\" must be 1..=128 characters".into());
        }
        let window = match doc.get("window") {
            None => None,
            Some(v) => {
                let w = num_u64(v).ok_or("\"window\" must be a non-negative integer")? as usize;
                if w == 0 || w > MAX_WINDOW {
                    return Err(format!("\"window\" must be in 1..={MAX_WINDOW}"));
                }
                Some(w)
            }
        };
        let done = match doc.get("done") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("\"done\" must be a boolean".into()),
        };
        let insts = match doc.get("insts") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_arr().ok_or("\"insts\" must be an array")?;
                if items.len() > MAX_BATCH_INSTS {
                    return Err(format!(
                        "\"insts\" over the per-request cap ({MAX_BATCH_INSTS})"
                    ));
                }
                items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| parse_inst(item).map_err(|e| format!("insts[{i}]: {e}")))
                    .collect::<Result<Vec<Inst>, String>>()?
            }
        };
        Ok(IngestBatch {
            session: session.to_string(),
            window,
            insts,
            done,
        })
    }

    fn parse_inst(item: &Value) -> Result<Inst, String> {
        let pc = item
            .get("pc")
            .and_then(num_u64)
            .ok_or("missing \"pc\" integer")?;
        let op = item
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\" mnemonic")?;
        let op = OpClass::from_mnemonic(op).ok_or_else(|| format!("unknown op mnemonic {op:?}"))?;
        let next_pc = item
            .get("next_pc")
            .and_then(num_u64)
            .ok_or("missing \"next_pc\" integer")?;
        let dst = match item.get("dst") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let name = v.as_str().ok_or("\"dst\" must be a register string")?;
                Some(parse_reg(name)?)
            }
        };
        let mut srcs = [None, None];
        if let Some(v) = item.get("srcs") {
            let names = v.as_arr().ok_or("\"srcs\" must be an array")?;
            if names.len() > 2 {
                return Err("\"srcs\" holds at most two registers".into());
            }
            for (i, name) in names.iter().enumerate() {
                let name = name.as_str().ok_or("\"srcs\" entries must be strings")?;
                srcs[i] = Some(parse_reg(name)?);
            }
        }
        let mem_addr = match item.get("mem") {
            None => 0,
            Some(v) => num_u64(v).ok_or("\"mem\" must be a non-negative integer")?,
        };
        let taken = match item.get("taken") {
            None => op.is_branch() && !op.is_cond_branch(),
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("\"taken\" must be a boolean".into()),
        };
        Ok(Inst {
            pc,
            op,
            srcs,
            dst,
            mem_addr,
            taken,
            next_pc,
        })
    }

    /// Both decoders on `text`, which must agree.
    fn decode_both(text: &str) -> Result<IngestBatch, String> {
        let decoded = parse_ingest_body(text);
        assert_eq!(decoded, reference_body(text), "{text}");
        decoded
    }

    #[test]
    fn registers_decode_only_in_their_display_form() {
        let with_regs = |dst: &str, src: &str| {
            format!(
                r#"{{"session":"x","insts":[{{"pc":0,"op":"alu","dst":"{dst}","srcs":["{src}"],"next_pc":4}}]}}"#
            )
        };
        for name in ["r0", "f0", "r9", "r10", "f31"] {
            let batch = decode_both(&with_regs(name, name)).expect(name);
            assert_eq!(batch.insts[0].dst.map(|r| r.to_string()), Some(name.into()));
        }
        // `u8::from_str` alone would take a sign and leading zeros.
        for bad in ["r+5", "r05", "f+1", "r00", "f01", "r", "r-1", "r 1", "r1 "] {
            let want = Err(format!("insts[0]: bad register {bad:?}"));
            assert_eq!(decode_both(&with_regs(bad, "r1")), want);
            assert_eq!(decode_both(&with_regs("r1", bad)), want);
        }
        assert_eq!(
            decode_both(&with_regs("r32", "r1")),
            Err("insts[0]: register index 32 out of range in \"r32\"".into())
        );
        assert_eq!(
            decode_both(&with_regs("r1", "r256")),
            Err("insts[0]: bad register \"r256\"".into())
        );
    }

    #[test]
    fn session_names_are_bounded_in_characters() {
        let session = |name: &str| format!(r#"{{"session":{}}}"#, json::quote(name));
        // 128 two-byte characters are 256 bytes, and within the bound.
        for name in ["a".repeat(128), "é".repeat(128), "\u{1F600}".repeat(128)] {
            assert_eq!(
                decode_both(&session(&name)).expect("at the bound").session,
                name
            );
        }
        for name in [String::new(), "a".repeat(129), "é".repeat(129)] {
            assert_eq!(
                decode_both(&session(&name)),
                Err("\"session\" must be 1..=128 characters".into())
            );
        }
    }

    #[test]
    fn keys_written_with_escapes_fill_their_fields() {
        let batch = decode_both(
            r#"{"s\u0065ssion":"x","insts":[{"p\u0063":16384,"\u006fp":"ld","next_p\u0063":16388}]}"#,
        )
        .expect("escaped keys decode");
        assert_eq!(
            (
                batch.session.as_str(),
                batch.insts[0].pc,
                batch.insts[0].next_pc
            ),
            ("x", 16384, 16388)
        );
        assert_eq!(batch.insts[0].op, OpClass::Load);
    }

    fn arb_inst() -> impl Strategy<Value = Inst> {
        let reg = || {
            (any::<bool>(), 0u8..32).prop_map(|(fp, n)| if fp { Reg::fp(n) } else { Reg::int(n) })
        };
        // Addresses mostly small, sometimes at or past 2^53.
        let addr = || {
            (0u64..8, any::<u64>()).prop_map(|(k, x)| match k {
                0 => x,
                1 => (1 << 53) - 2 + x % 4,
                _ => x % 100_000,
            })
        };
        (
            0..OpClass::ALL.len(),
            addr(),
            addr(),
            addr(),
            prop::option::of(reg()),
            prop::option::of(reg()),
            prop::option::of(reg()),
            any::<bool>(),
        )
            .prop_map(|(op, pc, next_pc, mem_addr, dst, src0, src1, taken)| {
                let op = OpClass::ALL[op];
                Inst {
                    pc,
                    op,
                    // The wire lists sources in order, so a second
                    // source implies a first.
                    srcs: if src0.is_some() {
                        [src0, src1]
                    } else {
                        [src1, None]
                    },
                    dst,
                    mem_addr: if op.is_mem() { mem_addr } else { 0 },
                    taken,
                    next_pc,
                }
            })
    }

    /// Values that break a field's type or range, for the decoder and
    /// the reference to reject alike.
    const BAD_VALUES: [&str; 14] = [
        "-1",
        "1.5",
        "1e300",
        "9007199254740993",
        "0",
        "\"x\"",
        "\"\"",
        "null",
        "true",
        "[]",
        "{}",
        "[\"r1\",\"r2\",\"r3\"]",
        "[\"r1\",5]",
        "\"\\u00e95\"",
    ];

    /// Values an unknown key may hold.
    const NESTED: [&str; 4] = [
        r#"{"a": [1, {"b": null}], "c": "\u00e9"}"#,
        "[[], {}, [true, false]]",
        "\"l\\u0064\"",
        "-1.5e3",
    ];

    /// The members of a flat JSON object as `(key, value text)`.
    fn members(object: &str) -> Vec<(String, String)> {
        let doc = json::parse(object).expect("valid object");
        let map = doc.as_obj().expect("an object");
        map.iter().map(|(k, v)| (k.clone(), v.render())).collect()
    }

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[rng.below(from.len() as u64) as usize]
    }

    /// Escape one character of a quoted string as `\u00XX` (`"pc"` →
    /// `"\u0070c"`).
    fn escape_one(quoted: &str, rng: &mut TestRng) -> String {
        let inner = &quoted[1..quoted.len() - 1];
        if inner.is_empty() || !inner.is_ascii() || inner.contains('\\') {
            return quoted.to_string();
        }
        let i = rng.below(inner.len() as u64) as usize;
        format!(
            "\"{}\\u{:04x}{}\"",
            &inner[..i],
            inner.as_bytes()[i],
            &inner[i + 1..]
        )
    }

    /// Render `members` as an object, varied by `rng` without changing
    /// what it decodes to: Python `json.dumps` spacing, shuffled keys,
    /// `\u` escapes in keys and string values, unknown keys holding
    /// nested values, and an earlier duplicate that the real key
    /// overrides.
    fn vary(mut members: Vec<(String, String)>, rng: &mut TestRng) -> String {
        for i in (1..members.len()).rev() {
            members.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        for (key, value) in members {
            let mut key = json::quote(&key);
            let mut value = value;
            if rng.below(4) == 0 {
                key = escape_one(&key, rng);
            }
            if value.starts_with('"') && rng.below(4) == 0 {
                value = escape_one(&value, rng);
            }
            if rng.below(5) == 0 {
                fields.push((key.clone(), pick(rng, &BAD_VALUES).to_string()));
            }
            if rng.below(5) == 0 {
                let unknown = format!("\"x{}\"", rng.below(1000));
                fields.push((unknown, pick(rng, &NESTED).to_string()));
            }
            fields.push((key, value));
        }
        let (comma, colon) = match rng.below(3) {
            0 => (",", ":"),
            1 => (", ", ": "),
            _ => ("\n ,\t", " :\r\n"),
        };
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{k}{colon}{v}"))
            .collect();
        format!("{{{}}}", fields.join(comma))
    }

    /// A varied body for `insts`, and the batch it must decode to.
    /// With `spoil`, one or two fields anywhere in the body hold a
    /// wrong value in their last occurrence: alone, each shows one
    /// check; together, they show which check comes first.
    fn varied_body(insts: &[Inst], spoil: bool, rng: &mut TestRng) -> (String, IngestBatch) {
        let window = 1 + rng.below(MAX_WINDOW as u64) as usize;
        let done = rng.below(2) == 0;
        let mut objects: Vec<Vec<(String, String)>> =
            insts.iter().map(|i| members(&inst_to_json(i))).collect();
        // An empty `insts` value stands for the array of `objects`.
        let mut top = vec![
            ("session".to_string(), "\"sess\"".to_string()),
            ("window".to_string(), window.to_string()),
            ("insts".to_string(), String::new()),
            ("done".to_string(), done.to_string()),
        ];
        if spoil {
            let mut values: Vec<&mut String> = top
                .iter_mut()
                .chain(objects.iter_mut().flatten())
                .map(|(_, v)| v)
                .collect();
            for _ in 0..1 + rng.below(2) {
                let i = rng.below(values.len() as u64) as usize;
                *values[i] = pick(rng, &BAD_VALUES).to_string();
            }
        }
        if top[2].1.is_empty() {
            let objects: Vec<String> = objects.into_iter().map(|o| vary(o, rng)).collect();
            let sep = if rng.below(2) == 0 { "," } else { ", " };
            top[2].1 = format!("[{}]", objects.join(sep));
        }
        let batch = IngestBatch {
            session: "sess".into(),
            window: Some(window),
            insts: insts.to_vec(),
            done,
        };
        (vary(top, rng), batch)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn one_pass_decoder_equals_the_tree_reference(
            insts in prop::collection::vec(arb_inst(), 1..6),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::from_seed(seed);
            let (text, batch) = varied_body(&insts, false, &mut rng);
            let decoded = parse_ingest_body(&text);
            prop_assert_eq!(&decoded, &reference_body(&text), "{}", text);
            // Addresses at or past 2^53 are rejected; all else decodes
            // to the instructions encoded.
            let exact = insts.iter().all(|i| {
                [i.pc, i.next_pc, i.mem_addr].iter().all(|&a| a < 1 << 53)
            });
            if exact {
                prop_assert_eq!(&decoded, &Ok(batch), "{}\n{:?}", text, decoded);
            }

            for _ in 0..32 {
                let (text, _) = varied_body(&insts, true, &mut rng);
                prop_assert_eq!(parse_ingest_body(&text), reference_body(&text), "{}", text);
            }

            // Malformed: every truncation and some single-byte
            // substitutions of a small body.
            let (small, _) = varied_body(&insts[..1], false, &mut rng);
            for end in 0..small.len() {
                let cut = &small[..end];
                prop_assert_eq!(parse_ingest_body(cut), reference_body(cut), "{}", cut);
            }
            for _ in 0..64 {
                let mut bytes = small.clone().into_bytes();
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = pick(&mut rng, &["{", "}", "[", "]", "\"", ":", ",", "0", "-", ".", "e", "x", "\\", " ", "\u{1}"]).as_bytes()[0];
                let text = String::from_utf8(bytes).expect("bodies are ASCII");
                prop_assert_eq!(parse_ingest_body(&text), reference_body(&text), "{}", text);
            }
        }
    }
}
