//! Cost receipts and span-tree reconstruction for traced requests.
//!
//! Every traced request (`POST /query`, `/ingest`, `/explain`) gets a
//! [`Receipt`]: the itemized bill for what answering it actually cost —
//! wall time, simulations run vs cache hits, the planner rung that
//! served it, bytes returned. Receipts land in a bounded ring (newest
//! win) plus a small slowest-requests log, so `GET /trace/<id>` can
//! answer for recent traffic and the worst offenders stay visible even
//! after the ring cycles past them.
//!
//! [`span_tree_json`] re-derives the request's span tree from the
//! global tracer's event buffer: spans stamped with the trace id (the
//! serve edge, `runner.run`, pool workers) anchor the tree, and
//! unstamped spans nested inside an anchored interval on the same
//! thread are attributed to it — which is exactly the propagation rule
//! the thread-local [`uarch_obs::TraceCtx`] implements for ledger
//! records.

use std::collections::VecDeque;
use std::sync::Mutex;

use uarch_obs::json;
use uarch_obs::TraceEvent;

/// Receipt-ring capacity of a [`ServeHost`](crate::ServeHost).
pub const RECEIPTS_MAX: usize = 512;

/// How many slowest receipts survive ring eviction.
pub const SLOW_LOG_CAPACITY: usize = 16;

/// The itemized cost of answering one traced request.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// Trace id, 16 lowercase hex digits.
    pub trace_id: String,
    /// Which endpoint answered (`query`, `ingest`, `explain`).
    pub endpoint: &'static str,
    /// Wall-clock time answering, in microseconds.
    pub wall_us: u64,
    /// Queries in the batch (0 for non-query endpoints).
    pub queries: u64,
    /// Requested backend (`sim`/`graph`/`auto`; empty for non-query).
    pub backend: &'static str,
    /// Distinct planner rungs that served answers, in first-use order
    /// (e.g. `"graph,sim"` for a mixed auto batch).
    pub rungs: String,
    /// Minimum per-answer confidence across the batch (1.0 when empty).
    pub confidence: f64,
    /// Ground-truth simulations actually run.
    pub sims_run: u64,
    /// Jobs answered from the in-memory cache.
    pub cache_hits: u64,
    /// Jobs answered from the disk cache.
    pub disk_hits: u64,
    /// Jobs deduplicated within the batch.
    pub deduped: u64,
    /// Idle cycles the discrete-event engine skipped.
    pub skipped_cycles: u64,
    /// Response body length, in bytes, before the receipt was spliced
    /// in (the cost of the answer, not of the bill).
    pub response_bytes: u64,
}

impl Receipt {
    /// Render as a JSON object with a fixed field order (golden-tested;
    /// treat the order as wire format).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"endpoint\":\"{}\",\"wall_us\":{},\"queries\":{},\"backend\":\"{}\",\"rungs\":{},\"confidence\":{:.3},\"sims_run\":{},\"cache_hits\":{},\"disk_hits\":{},\"deduped\":{},\"skipped_cycles\":{},\"response_bytes\":{}}}",
            json::quote(&self.trace_id),
            self.endpoint,
            self.wall_us,
            self.queries,
            self.backend,
            json::quote(&self.rungs),
            self.confidence,
            self.sims_run,
            self.cache_hits,
            self.disk_hits,
            self.deduped,
            self.skipped_cycles,
            self.response_bytes,
        )
    }
}

/// Bounded receipt storage: a drop-oldest ring of recent receipts plus
/// a [`SLOW_LOG_CAPACITY`]-entry log of the slowest ever seen.
#[derive(Debug)]
pub struct ReceiptStore {
    ring: Mutex<VecDeque<Receipt>>,
    slow: Mutex<Vec<Receipt>>,
    capacity: usize,
}

impl ReceiptStore {
    /// A store holding at most `capacity` recent receipts (clamped ≥ 1).
    pub fn new(capacity: usize) -> ReceiptStore {
        ReceiptStore {
            ring: Mutex::new(VecDeque::new()),
            slow: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// Record one receipt (ring + slow-log maintenance).
    pub fn record(&self, receipt: Receipt) {
        {
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            let at = slow
                .binary_search_by(|r: &Receipt| receipt.wall_us.cmp(&r.wall_us))
                .unwrap_or_else(|at| at);
            slow.insert(at, receipt.clone());
            slow.truncate(SLOW_LOG_CAPACITY);
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(receipt);
    }

    /// The receipt for `trace_id`, if still held (newest match wins;
    /// ring first, then the slow log).
    pub fn get(&self, trace_id: &str) -> Option<Receipt> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(r) = ring.iter().rev().find(|r| r.trace_id == trace_id) {
            return Some(r.clone());
        }
        drop(ring);
        let slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.iter().find(|r| r.trace_id == trace_id).cloned()
    }

    /// The slowest receipts seen, descending by wall time.
    pub fn slowest(&self) -> Vec<Receipt> {
        self.slow.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Receipts currently in the ring (oldest first).
    pub fn recent(&self) -> Vec<Receipt> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// One reconstructed span interval.
#[derive(Debug, Clone)]
struct SpanNode {
    name: String,
    cat: &'static str,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    children: Vec<SpanNode>,
}

impl SpanNode {
    fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }

    fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{}\",\"tid\":{},\"ts_us\":{},\"dur_us\":{},\"children\":[",
            json::quote(&self.name),
            self.cat,
            self.tid,
            self.ts_us,
            self.dur_us,
        ));
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.to_json(out);
        }
        out.push_str("]}");
    }
}

/// A completed span replayed from the B/E stream, pre-nesting.
struct Flat {
    node: SpanNode,
    marked: bool,
}

/// A still-open frame while replaying: (name, cat, begin ts, marked).
type OpenFrame = (String, &'static str, u64, bool);

/// Reconstruct the span tree of one trace from the tracer's event
/// buffer and render it as a JSON array (`[]` when nothing matches).
///
/// Selection: a span belongs to `trace_hex` if it carries a
/// `("trace", hex)` arg, or if it nests (same thread, contained
/// interval) inside a span that does. Flow events and still-open spans
/// are ignored — only completed B/E pairs reconstruct.
pub fn span_tree_json(events: &[TraceEvent], trace_hex: &str) -> String {
    let mut completed: Vec<Flat> = Vec::new();
    // Per-tid open-span stacks, replaying begins/ends in stream order.
    let mut open: Vec<(u64, Vec<OpenFrame>)> = Vec::new();
    for ev in events {
        let stack = match open.iter_mut().find(|(tid, _)| *tid == ev.tid) {
            Some((_, stack)) => stack,
            None => {
                open.push((ev.tid, Vec::new()));
                &mut open.last_mut().expect("just pushed").1
            }
        };
        match ev.phase {
            'B' => {
                let marked = ev.args.iter().any(|(k, v)| *k == "trace" && v == trace_hex);
                stack.push((ev.name.to_string(), ev.cat, ev.ts_us, marked));
            }
            'E' => {
                if let Some((name, cat, begin, marked)) = stack.pop() {
                    completed.push(Flat {
                        node: SpanNode {
                            name,
                            cat,
                            tid: ev.tid,
                            ts_us: begin,
                            dur_us: ev.ts_us.saturating_sub(begin),
                            children: Vec::new(),
                        },
                        marked,
                    });
                }
            }
            _ => {}
        }
    }

    // Anchor intervals per thread, then admit contained spans.
    let anchors: Vec<(u64, u64, u64)> = completed
        .iter()
        .filter(|f| f.marked)
        .map(|f| (f.node.tid, f.node.ts_us, f.node.end_us()))
        .collect();
    let mut selected: Vec<SpanNode> = completed
        .into_iter()
        .filter(|f| {
            f.marked
                || anchors.iter().any(|&(tid, begin, end)| {
                    tid == f.node.tid && f.node.ts_us >= begin && f.node.end_us() <= end
                })
        })
        .map(|f| f.node)
        .collect();

    // Nest by containment: outermost-first order, then a stack walk.
    selected.sort_by(|a, b| {
        (a.tid, a.ts_us, std::cmp::Reverse(a.dur_us)).cmp(&(
            b.tid,
            b.ts_us,
            std::cmp::Reverse(b.dur_us),
        ))
    });
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for node in selected {
        while let Some(top) = stack.last() {
            let contains =
                top.tid == node.tid && node.ts_us >= top.ts_us && node.end_us() <= top.end_us();
            if contains {
                break;
            }
            let done = stack.pop().expect("non-empty stack");
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }
        stack.push(node);
    }
    while let Some(done) = stack.pop() {
        match stack.last_mut() {
            Some(parent) => parent.children.push(done),
            None => roots.push(done),
        }
    }

    let mut out = String::from("[");
    for (i, root) in roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        root.to_json(&mut out);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn receipt(id: &str, wall: u64) -> Receipt {
        Receipt {
            trace_id: id.to_string(),
            endpoint: "query",
            wall_us: wall,
            queries: 1,
            backend: "sim",
            rungs: "sim".into(),
            confidence: 1.0,
            sims_run: 2,
            cache_hits: 3,
            disk_hits: 0,
            deduped: 1,
            skipped_cycles: 9,
            response_bytes: 120,
        }
    }

    #[test]
    fn receipt_json_is_byte_stable() {
        assert_eq!(
            receipt("00c0ffee00c0ffee", 42).to_json(),
            "{\"trace_id\":\"00c0ffee00c0ffee\",\"endpoint\":\"query\",\"wall_us\":42,\
             \"queries\":1,\"backend\":\"sim\",\"rungs\":\"sim\",\"confidence\":1.000,\
             \"sims_run\":2,\"cache_hits\":3,\"disk_hits\":0,\"deduped\":1,\
             \"skipped_cycles\":9,\"response_bytes\":120}",
        );
    }

    #[test]
    fn ring_drops_oldest_but_slow_log_keeps_the_worst() {
        let store = ReceiptStore::new(2);
        store.record(receipt("aaaaaaaaaaaaaaaa", 900));
        store.record(receipt("bbbbbbbbbbbbbbbb", 10));
        store.record(receipt("cccccccccccccccc", 20));
        // "a" fell off the ring but was the slowest request ever seen.
        assert_eq!(store.recent().len(), 2);
        assert!(store.get("bbbbbbbbbbbbbbbb").is_some());
        assert!(store.get("cccccccccccccccc").is_some());
        assert_eq!(store.get("aaaaaaaaaaaaaaaa").map(|r| r.wall_us), Some(900));
        let slow = store.slowest();
        assert_eq!(slow[0].trace_id, "aaaaaaaaaaaaaaaa");
        assert!(slow.windows(2).all(|w| w[0].wall_us >= w[1].wall_us));
    }

    #[test]
    fn slow_log_is_bounded() {
        let store = ReceiptStore::new(4);
        for i in 0..40u64 {
            store.record(receipt(&format!("{i:016x}"), i));
        }
        let slow = store.slowest();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        assert_eq!(slow[0].wall_us, 39);
    }

    fn ev(phase: char, name: &'static str, ts: u64, tid: u64, trace: Option<&str>) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat: "t",
            phase,
            ts_us: ts,
            tid,
            args: trace
                .map(|v| ("trace", v.to_string()))
                .into_iter()
                .collect(),
            value: None,
            flow_id: None,
        }
    }

    #[test]
    fn span_tree_selects_marked_and_nested_spans() {
        let hex = "00000000000000aa";
        let events = vec![
            ev('B', "serve.query", 0, 1, Some(hex)),
            ev('B', "runner.run", 10, 1, None),
            ev('B', "expand", 20, 1, None),
            ev('E', "expand", 30, 1, None),
            ev('E', "runner.run", 90, 1, None),
            ev('E', "serve.query", 100, 1, None),
            // Worker thread: anchored by its own marked span.
            ev('B', "worker", 12, 2, Some(hex)),
            ev('B', "job", 14, 2, None),
            ev('E', "job", 40, 2, None),
            ev('E', "worker", 80, 2, None),
            // Unrelated activity: another trace, and an unmarked tid.
            ev('B', "other", 5, 3, Some("00000000000000bb")),
            ev('E', "other", 50, 3, None),
            ev('B', "noise", 0, 4, None),
            ev('E', "noise", 99, 4, None),
        ];
        let json = span_tree_json(&events, hex);
        let doc = uarch_obs::json::parse(&json).expect("valid JSON");
        let roots = doc.as_arr().expect("array");
        assert_eq!(roots.len(), 2, "{json}");
        let q = &roots[0];
        assert_eq!(q.get("name").and_then(|v| v.as_str()), Some("serve.query"));
        let run = &q.get("children").and_then(|v| v.as_arr()).expect("kids")[0];
        assert_eq!(run.get("name").and_then(|v| v.as_str()), Some("runner.run"));
        let expand = &run.get("children").and_then(|v| v.as_arr()).expect("kids")[0];
        assert_eq!(expand.get("name").and_then(|v| v.as_str()), Some("expand"));
        assert_eq!(expand.get("dur_us").and_then(|v| v.as_num()), Some(10.0));
        assert!(!json.contains("other") && !json.contains("noise"), "{json}");
    }
}
