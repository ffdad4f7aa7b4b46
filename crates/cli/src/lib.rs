//! Library core of the `icost-obs` regression CLI: aggregate a run
//! ledger (the JSONL stream `uarch-runner` appends under
//! `ICOST_LEDGER_FILE`) into a [`LedgerSummary`], compare two summaries
//! with [`diff`], and export a summary as a benchmark-baseline JSON
//! document.
//!
//! Everything here is deterministic over the ledger *content*: object
//! keys render sorted, job records aggregate the same way regardless of
//! thread interleaving, and timestamps never enter the summary — so two
//! ledgers of the same run always summarize and diff identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use uarch_obs::json::Value;
use uarch_obs::ledger::{parse_ledger, parse_ledger_lenient, LedgerRecord, Provenance};

/// Aggregated view of one ledger file: run/job counts, provenance
/// split, total simulated cycles and wall time, stall taxonomy sums,
/// and the per-set result hashes used for cross-run identity checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSummary {
    /// `run` header records seen.
    pub runs: u64,
    /// Queries declared across all run headers.
    pub queries: u64,
    /// Job records (answered simulation jobs) seen.
    pub jobs: u64,
    /// Jobs answered by actually simulating (`provenance: computed`).
    pub computed: u64,
    /// Jobs answered from the in-memory cache.
    pub memory_hits: u64,
    /// Jobs answered from the disk cache.
    pub disk_hits: u64,
    /// Simulated cycles summed over computed jobs.
    pub cycles: u64,
    /// Wall microseconds summed over every job record.
    pub wall_us: u64,
    /// Worker-thread budget(s) seen in run headers (machine-dependent;
    /// informational only, never gated on).
    pub threads: BTreeSet<u64>,
    /// Simulation-context fingerprints seen in run headers.
    pub ctxs: BTreeSet<String>,
    /// Stall cycles by taxonomy row, summed over computed jobs.
    pub stalls: BTreeMap<String, u64>,
    /// Result hashes by idealization set (normally one hash per set; a
    /// set maps to several only when the ledger mixes contexts).
    pub hashes: BTreeMap<String, BTreeSet<String>>,
    /// Calibration records (paired graph/sim observations) seen.
    pub calibs: u64,
    /// Planner answer records seen.
    pub plans: u64,
    /// Planner answers by serving backend (`cache`/`graph`/`sim`).
    pub plan_backends: BTreeMap<String, u64>,
    /// Streaming-ingest window records seen.
    pub windows: u64,
    /// Instructions covered by those windows (sum of `end - start`).
    pub window_insts: u64,
    /// Per-batch report records seen.
    pub reports: u64,
    /// Per-batch wall times (expand + sim) from report records, in
    /// microseconds and ledger order — the query-latency distribution
    /// `summarize` reports percentiles over.
    pub report_walls: Vec<u64>,
    /// Attribution audit records seen.
    pub audits: u64,
    /// Audit records whose overall verdict was `confirmed`.
    pub audit_confirmed: u64,
    /// Audit records whose overall verdict was `refuted`.
    pub audit_refuted: u64,
    /// Audit records whose overall verdict was `unmodeled` (nothing
    /// checkable above the noise floor).
    pub audit_unmodeled: u64,
}

impl LedgerSummary {
    /// Summarize parsed ledger records.
    pub fn from_records(records: &[LedgerRecord]) -> LedgerSummary {
        let mut s = LedgerSummary::default();
        for record in records {
            match record {
                LedgerRecord::Run(h) => {
                    s.runs += 1;
                    s.queries += h.queries;
                    s.threads.insert(h.threads);
                    s.ctxs.insert(h.ctx.clone());
                }
                LedgerRecord::Job(j) => {
                    s.jobs += 1;
                    s.wall_us += j.wall_us;
                    match j.provenance {
                        Provenance::Computed => {
                            s.computed += 1;
                            s.cycles += j.cycles;
                            for (name, v) in &j.stalls {
                                *s.stalls.entry(name.clone()).or_insert(0) += v;
                            }
                        }
                        Provenance::Memory => s.memory_hits += 1,
                        Provenance::Disk => s.disk_hits += 1,
                    }
                    s.hashes
                        .entry(j.set.clone())
                        .or_default()
                        .insert(j.hash.clone());
                }
                LedgerRecord::Calib(_) => s.calibs += 1,
                LedgerRecord::Plan(p) => {
                    s.plans += 1;
                    *s.plan_backends.entry(p.backend.clone()).or_insert(0) += 1;
                }
                LedgerRecord::Window(w) => {
                    s.windows += 1;
                    s.window_insts += w.end.saturating_sub(w.start);
                }
                LedgerRecord::Report(r) => {
                    s.reports += 1;
                    s.report_walls.push(r.expand_us + r.sim_us);
                }
                LedgerRecord::Audit(a) => {
                    s.audits += 1;
                    match a.verdict.as_str() {
                        "confirmed" => s.audit_confirmed += 1,
                        "refuted" => s.audit_refuted += 1,
                        _ => s.audit_unmodeled += 1,
                    }
                }
            }
        }
        s
    }

    /// Parse ledger text (JSONL) and summarize it. Strict: any record
    /// kind this build does not know is an error.
    pub fn from_text(text: &str) -> Result<LedgerSummary, String> {
        Ok(LedgerSummary::from_records(&parse_ledger(text)?))
    }

    /// Like [`LedgerSummary::from_text`], but record kinds from newer
    /// builds are skipped (and counted) instead of failing the whole
    /// file — so `summarize`/`diff` keep working across version skew.
    /// Malformed JSON still errors.
    pub fn from_text_lenient(text: &str) -> Result<(LedgerSummary, u64), String> {
        let (records, skipped) = parse_ledger_lenient(text)?;
        Ok((LedgerSummary::from_records(&records), skipped))
    }

    /// Fraction of audit records refuted, in `[0, 1]`; `None` when the
    /// ledger carries no audit records. This is what the
    /// `icost-obs audit --max-refuted` gate compares against.
    pub fn audit_refuted_rate(&self) -> Option<f64> {
        (self.audits > 0).then(|| self.audit_refuted as f64 / self.audits as f64)
    }

    /// Nearest-rank `(p50, p95, p99)` of per-batch query wall time
    /// (expand + sim microseconds) over `report` records; `None` when
    /// the ledger carries none.
    pub fn report_wall_percentiles(&self) -> Option<(u64, u64, u64)> {
        if self.report_walls.is_empty() {
            return None;
        }
        let mut sorted = self.report_walls.clone();
        sorted.sort_unstable();
        let pick = |q: f64| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            sorted[rank - 1]
        };
        Some((pick(0.50), pick(0.95), pick(0.99)))
    }

    /// Percentage of jobs answered without simulating, in `[0, 100]`;
    /// `None` for an empty ledger.
    pub fn reuse_pct(&self) -> Option<f64> {
        if self.jobs == 0 {
            return None;
        }
        Some(100.0 * (self.memory_hits + self.disk_hits) as f64 / self.jobs as f64)
    }

    /// The gateable numeric metrics, in stable order. `wall_us` is the
    /// only one compared under the separate wall tolerance.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("runs", self.runs as f64),
            ("queries", self.queries as f64),
            ("jobs", self.jobs as f64),
            ("sims_computed", self.computed as f64),
            ("memory_hits", self.memory_hits as f64),
            ("disk_hits", self.disk_hits as f64),
            ("cycles", self.cycles as f64),
            ("wall_us", self.wall_us as f64),
            ("reuse_pct", self.reuse_pct().unwrap_or(0.0)),
        ]
    }

    /// Render as an aligned two-column table (plus stall rows when any
    /// were recorded).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| out.push_str(&format!("  {k:<18} {v:>16}\n"));
        for (name, v) in self.metrics() {
            if name == "reuse_pct" {
                match self.reuse_pct() {
                    Some(p) => row(name, format!("{p:.1}%")),
                    None => row(name, "-".into()),
                }
            } else {
                row(name, fmt_num(v));
            }
        }
        row("contexts", self.ctxs.len().to_string());
        let threads: Vec<String> = self.threads.iter().map(u64::to_string).collect();
        row("threads", threads.join(","));
        if self.calibs > 0 {
            row("calib_records", self.calibs.to_string());
        }
        if self.plans > 0 {
            row("plan_answers", self.plans.to_string());
            for (backend, n) in &self.plan_backends {
                row(&format!("  via {backend}"), n.to_string());
            }
        }
        if self.windows > 0 {
            row("window_records", self.windows.to_string());
            row("window_insts", self.window_insts.to_string());
        }
        if self.reports > 0 {
            row("report_records", self.reports.to_string());
            if let Some((p50, p95, p99)) = self.report_wall_percentiles() {
                row("  wall_p50_us", p50.to_string());
                row("  wall_p95_us", p95.to_string());
                row("  wall_p99_us", p99.to_string());
            }
        }
        if self.audits > 0 {
            row("audit_records", self.audits.to_string());
            row("  confirmed", self.audit_confirmed.to_string());
            row("  refuted", self.audit_refuted.to_string());
            row("  unmodeled", self.audit_unmodeled.to_string());
        }
        if !self.stalls.is_empty() {
            out.push_str("  stall cycles by cause:\n");
            for (name, v) in &self.stalls {
                out.push_str(&format!("    {name:<20} {v:>12}\n"));
            }
        }
        out
    }

    /// The summary as a JSON value (sorted keys, deterministic render).
    pub fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        for (name, v) in self.metrics() {
            obj.insert(name.to_string(), Value::Num(v));
        }
        obj.insert(
            "ctxs".into(),
            Value::Arr(self.ctxs.iter().cloned().map(Value::Str).collect()),
        );
        obj.insert(
            "threads".into(),
            Value::Arr(self.threads.iter().map(|&t| Value::Num(t as f64)).collect()),
        );
        obj.insert(
            "stalls".into(),
            Value::Obj(
                self.stalls
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                    .collect(),
            ),
        );
        obj.insert("calib_records".into(), Value::Num(self.calibs as f64));
        obj.insert("plan_answers".into(), Value::Num(self.plans as f64));
        obj.insert("window_records".into(), Value::Num(self.windows as f64));
        obj.insert("window_insts".into(), Value::Num(self.window_insts as f64));
        obj.insert("report_records".into(), Value::Num(self.reports as f64));
        if let Some((p50, p95, p99)) = self.report_wall_percentiles() {
            obj.insert("report_wall_p50_us".into(), Value::Num(p50 as f64));
            obj.insert("report_wall_p95_us".into(), Value::Num(p95 as f64));
            obj.insert("report_wall_p99_us".into(), Value::Num(p99 as f64));
        }
        obj.insert("audit_records".into(), Value::Num(self.audits as f64));
        obj.insert(
            "audit_confirmed".into(),
            Value::Num(self.audit_confirmed as f64),
        );
        obj.insert(
            "audit_refuted".into(),
            Value::Num(self.audit_refuted as f64),
        );
        obj.insert(
            "audit_unmodeled".into(),
            Value::Num(self.audit_unmodeled as f64),
        );
        obj.insert(
            "plan_backends".into(),
            Value::Obj(
                self.plan_backends
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                    .collect(),
            ),
        );
        Value::Obj(obj)
    }

    /// Render as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

/// Table-friendly number: integers render bare, fractions to 2 places.
fn fmt_num(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

/// One compared metric in a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (see [`LedgerSummary::metrics`]).
    pub name: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Whether this delta exceeds its tolerance in the bad direction.
    pub regression: bool,
    /// Whether the metric is gated at all (`false` = informational).
    pub gated: bool,
}

impl MetricDelta {
    /// Relative change `new/base - 1`, or `None` when the baseline is 0.
    pub fn rel_change(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.new / self.base - 1.0)
    }
}

/// Result of comparing a candidate ledger against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Per-metric deltas, in [`LedgerSummary::metrics`] order.
    pub deltas: Vec<MetricDelta>,
    /// Sets whose result hashes diverge between the two ledgers
    /// (checked only when both ledgers cover the same contexts —
    /// different contexts legitimately hash differently).
    pub hash_mismatches: Vec<String>,
    /// Whether the context sets matched (enabling the hash check).
    pub ctxs_match: bool,
}

impl DiffReport {
    /// Count of regressed metrics plus hash mismatches.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regression).count() + self.hash_mismatches.len()
    }

    /// Human-readable comparison table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<14} {:>14} {:>14} {:>9}  {}\n",
            "metric", "base", "new", "change", "verdict"
        ));
        for d in &self.deltas {
            let change = match d.rel_change() {
                Some(c) => format!("{:+.1}%", 100.0 * c),
                None if d.new == 0.0 => "=".into(),
                None => "new".into(),
            };
            let verdict = if d.regression {
                "REGRESSION"
            } else if !d.gated {
                "info"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {:<14} {:>14} {:>14} {:>9}  {}\n",
                d.name,
                fmt_num(d.base),
                fmt_num(d.new),
                change,
                verdict
            ));
        }
        if self.ctxs_match {
            if self.hash_mismatches.is_empty() {
                out.push_str("  result hashes: all matching sets agree\n");
            } else {
                for set in &self.hash_mismatches {
                    out.push_str(&format!(
                        "  result hash MISMATCH for set {set} (same context, different result)\n"
                    ));
                }
            }
        } else {
            out.push_str("  result hashes: skipped (different simulation contexts)\n");
        }
        out
    }

    /// The diff as JSON (sorted keys, deterministic).
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        let mut deltas = BTreeMap::new();
        for d in &self.deltas {
            let mut m = BTreeMap::new();
            m.insert("base".to_string(), Value::Num(d.base));
            m.insert("new".to_string(), Value::Num(d.new));
            m.insert("regression".to_string(), Value::Bool(d.regression));
            m.insert("gated".to_string(), Value::Bool(d.gated));
            deltas.insert(d.name.to_string(), Value::Obj(m));
        }
        obj.insert("deltas".to_string(), Value::Obj(deltas));
        obj.insert(
            "hash_mismatches".to_string(),
            Value::Arr(
                self.hash_mismatches
                    .iter()
                    .cloned()
                    .map(Value::Str)
                    .collect(),
            ),
        );
        obj.insert("ctxs_match".to_string(), Value::Bool(self.ctxs_match));
        obj.insert(
            "regressions".to_string(),
            Value::Num(self.regressions() as f64),
        );
        Value::Obj(obj).render()
    }
}

/// Tolerances for [`diff`], as relative fractions (`0.1` = 10% slack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Slack for work metrics (`sims_computed`, `cycles`, `reuse_pct`).
    pub work: f64,
    /// Slack for `wall_us` — wall time crosses machines in CI, so this
    /// is typically much larger than `work`.
    pub wall: f64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            work: 0.0,
            wall: 10.0,
        }
    }
}

/// Compare `new` against `base`.
///
/// Gated metrics and their bad directions: `sims_computed` up,
/// `cycles` up, `wall_us` up (under the wall tolerance), `reuse_pct`
/// down. Everything else (`runs`, `queries`, `jobs`, hit counts) is
/// reported for context but never regresses on its own — batch shape
/// legitimately changes when the workload under test changes.
/// Result hashes are compared per set when both ledgers cover the same
/// simulation contexts; a divergent hash there means the same
/// idealization produced a different result, which is always a
/// regression.
pub fn diff(base: &LedgerSummary, new: &LedgerSummary, tol: Tolerance) -> DiffReport {
    let base_metrics = base.metrics();
    let new_metrics = new.metrics();
    let mut deltas = Vec::with_capacity(base_metrics.len());
    for ((name, b), (_, n)) in base_metrics.into_iter().zip(new_metrics) {
        let (gated, regression) = match name {
            "sims_computed" | "cycles" => (true, n > b * (1.0 + tol.work) + 1e-9),
            "wall_us" => (true, n > b * (1.0 + tol.wall) + 1e-9),
            "reuse_pct" => (true, n < b * (1.0 - tol.work) - 1e-9),
            _ => (false, false),
        };
        deltas.push(MetricDelta {
            name,
            base: b,
            new: n,
            regression,
            gated,
        });
    }
    let ctxs_match = !base.ctxs.is_empty() && base.ctxs == new.ctxs;
    let mut hash_mismatches = Vec::new();
    if ctxs_match {
        for (set, base_hashes) in &base.hashes {
            if let Some(new_hashes) = new.hashes.get(set) {
                if base_hashes.is_disjoint(new_hashes) {
                    hash_mismatches.push(set.clone());
                }
            }
        }
    }
    DiffReport {
        deltas,
        hash_mismatches,
        ctxs_match,
    }
}

/// Render one ledger record as the `icost-obs watch` console form:
/// `window` records get a per-window breakdown table (singleton costs
/// in [`EventClass::ALL`] wire order, then the kept pairwise
/// interactions), `report` records a one-line run summary, and every
/// other kind a compact one-liner naming the record.
pub fn render_watch_record(record: &LedgerRecord) -> String {
    match record {
        LedgerRecord::Window(w) => {
            let mut out = format!(
                "window {:>4}  insts [{},{})  baseline {} cyc  lag {}  eval {}us\n  cost  ",
                w.window,
                w.start,
                w.end,
                w.baseline,
                w.lag,
                w.eval_us,
            );
            // Wire order, not BTreeMap order: the breakdown reads the
            // same way the paper's tables do.
            let by_wire = uarch_trace::EventClass::ALL
                .iter()
                .filter_map(|c| w.costs.get(c.name()).map(|v| (c.name(), *v)));
            out.push_str(
                &by_wire
                    .map(|(name, v)| format!("{name}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            out.push('\n');
            if w.pairs.is_empty() {
                out.push_str("  icost (no nonzero pairwise interactions)\n");
            } else {
                let mut pairs: Vec<(&String, &i64)> = w.pairs.iter().collect();
                pairs.sort_by_key(|(_, v)| std::cmp::Reverse(v.abs()));
                out.push_str("  icost ");
                out.push_str(
                    &pairs
                        .iter()
                        .map(|(set, v)| format!("{set}={v:+}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                );
                out.push('\n');
            }
            out
        }
        LedgerRecord::Report(r) => format!(
            "report run {}  queries {}  jobs {} ({} deduped)  cache {}  disk {}  sims {}  {} cyc / {} insts  expand {}us  sim {}us\n",
            r.run,
            r.queries,
            r.jobs,
            r.deduped,
            r.cache_hits,
            r.disk_hits,
            r.sims_run,
            r.cycles,
            r.insts,
            r.expand_us,
            r.sim_us,
        ),
        LedgerRecord::Run(h) => format!(
            "run {}  ctx {}  {} queries  {} threads  {} insts\n",
            h.run, h.ctx, h.queries, h.threads, h.insts
        ),
        LedgerRecord::Job(j) => format!(
            "job run {}  set {}  {}  {} cyc\n",
            j.run,
            j.set,
            j.provenance.as_str(),
            j.cycles
        ),
        LedgerRecord::Calib(c) => format!(
            "calib set {}  graph {}  sim {}  residual {}\n",
            c.set,
            c.graph_cost,
            c.sim_cost,
            c.graph_cost - c.sim_cost
        ),
        LedgerRecord::Plan(p) => format!(
            "plan run {}  {}  via {}  reason {}\n",
            p.run, p.query, p.backend, p.reason
        ),
        LedgerRecord::Audit(a) => uarch_audit::render_waterfall(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_obs::ledger::{JobRecord, RunHeader};

    fn job(run: u64, set: &str, provenance: Provenance, cycles: u64, hash: &str) -> LedgerRecord {
        LedgerRecord::Job(JobRecord {
            run,
            set: set.into(),
            provenance,
            cycles,
            wall_us: 10,
            hash: hash.into(),
            stalls: BTreeMap::new(),
            trace: String::new(),
        })
    }

    fn header(run: u64, ctx: &str) -> LedgerRecord {
        LedgerRecord::Run(RunHeader {
            run,
            ctx: ctx.into(),
            queries: 2,
            threads: 8,
            insts: 100,
            ts_ms: 0,
            trace: String::new(),
        })
    }

    fn sample() -> LedgerSummary {
        LedgerSummary::from_records(&[
            header(1, "ctx-a"),
            job(1, "(none)", Provenance::Computed, 100, "h0"),
            job(1, "dmiss", Provenance::Computed, 80, "h1"),
            job(1, "dmiss", Provenance::Memory, 80, "h1"),
            job(1, "win", Provenance::Disk, 90, "h2"),
        ])
    }

    #[test]
    fn summary_aggregates_by_provenance() {
        let s = sample();
        assert_eq!(s.runs, 1);
        assert_eq!(s.queries, 2);
        assert_eq!(s.jobs, 4);
        assert_eq!(s.computed, 2);
        assert_eq!(s.memory_hits, 1);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.cycles, 180, "cycles sum over computed jobs only");
        assert_eq!(s.wall_us, 40);
        assert_eq!(s.reuse_pct(), Some(50.0));
        assert_eq!(s.hashes["dmiss"].len(), 1);
    }

    #[test]
    fn summary_json_is_valid_and_sorted() {
        let s = sample();
        let doc = uarch_obs::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(doc.get("jobs").and_then(Value::as_num), Some(4.0));
        assert_eq!(s.to_json(), s.to_json(), "deterministic render");
    }

    #[test]
    fn report_wall_percentiles_use_nearest_rank() {
        fn report(expand_us: u64, sim_us: u64) -> LedgerRecord {
            LedgerRecord::Report(uarch_obs::ledger::ReportRecord {
                run: 1,
                queries: 1,
                jobs: 1,
                deduped: 0,
                cache_hits: 0,
                disk_hits: 0,
                sims_run: 1,
                cycles: 10,
                insts: 10,
                threads: 1,
                expand_us,
                sim_us,
                skipped: 0,
                trace: String::new(),
            })
        }
        assert_eq!(sample().report_wall_percentiles(), None);
        // Walls 10,20,...,100: nearest-rank p50 is the 5th value.
        let records: Vec<LedgerRecord> = (1..=10).map(|i| report(i * 10, 0)).collect();
        let s = LedgerSummary::from_records(&records);
        assert_eq!(s.report_wall_percentiles(), Some((50, 100, 100)));
        // A single sample is every percentile, and expand+sim sum.
        let s = LedgerSummary::from_records(&[report(30, 12)]);
        assert_eq!(s.report_wall_percentiles(), Some((42, 42, 42)));
        let doc = uarch_obs::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("report_wall_p95_us").and_then(Value::as_num),
            Some(42.0)
        );
        assert!(s.to_table().contains("wall_p99_us"));
    }

    #[test]
    fn self_diff_is_clean() {
        let s = sample();
        let d = diff(&s, &s, Tolerance::default());
        assert_eq!(d.regressions(), 0, "{}", d.to_table());
        assert!(d.ctxs_match);
        assert!(uarch_obs::json::parse(&d.to_json()).is_ok());
    }

    #[test]
    fn diff_flags_bad_directions_and_respects_tolerance() {
        let base = sample();
        let worse = LedgerSummary {
            computed: 4,
            cycles: 400,
            ..base.clone()
        };
        let d = diff(&base, &worse, Tolerance::default());
        let regressed: Vec<_> = d
            .deltas
            .iter()
            .filter(|m| m.regression)
            .map(|m| m.name)
            .collect();
        assert!(regressed.contains(&"sims_computed"));
        assert!(regressed.contains(&"cycles"));
        // Generous tolerance forgives the same deltas.
        let lax = Tolerance {
            work: 2.0,
            wall: 10.0,
        };
        assert_eq!(diff(&base, &worse, lax).regressions(), 0);
        // Better-direction movement never regresses.
        let better = LedgerSummary {
            computed: 1,
            cycles: 90,
            ..base.clone()
        };
        assert_eq!(diff(&base, &better, Tolerance::default()).regressions(), 0);
    }

    #[test]
    fn hash_mismatch_is_a_regression_only_within_matching_ctxs() {
        let base = sample();
        let mut altered = LedgerSummary::from_records(&[
            header(1, "ctx-a"),
            job(1, "(none)", Provenance::Computed, 100, "h0"),
            job(1, "dmiss", Provenance::Computed, 80, "DIFFERENT"),
            job(1, "dmiss", Provenance::Memory, 80, "DIFFERENT"),
            job(1, "win", Provenance::Disk, 90, "h2"),
        ]);
        let d = diff(&base, &altered, Tolerance::default());
        assert_eq!(d.hash_mismatches, vec!["dmiss".to_string()]);
        assert_eq!(d.regressions(), 1);
        // Different context: hashes legitimately differ, no gate.
        altered.ctxs = ["ctx-b".to_string()].into_iter().collect();
        let d = diff(&base, &altered, Tolerance::default());
        assert!(!d.ctxs_match);
        assert!(d.hash_mismatches.is_empty());
        assert_eq!(d.regressions(), 0);
    }

    #[test]
    fn from_text_reports_parse_errors() {
        assert!(LedgerSummary::from_text("not json\n").is_err());
        let s = LedgerSummary::from_text("").unwrap();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.reuse_pct(), None);
    }

    #[test]
    fn summary_counts_window_and_report_records() {
        use uarch_obs::ledger::{ReportRecord, WindowRecord};
        let window = |w: u64| {
            LedgerRecord::Window(WindowRecord {
                run: 1,
                window: w,
                start: w * 256,
                end: (w + 1) * 256,
                baseline: 900,
                lag: 0,
                eval_us: 5,
                costs: [("dmiss".to_string(), 80)].into_iter().collect(),
                pairs: BTreeMap::new(),
                trace: String::new(),
            })
        };
        let report = LedgerRecord::Report(ReportRecord {
            run: 2,
            queries: 1,
            jobs: 1,
            deduped: 0,
            cache_hits: 0,
            disk_hits: 0,
            sims_run: 1,
            cycles: 100,
            insts: 50,
            threads: 2,
            expand_us: 1,
            sim_us: 2,
            skipped: 0,
            trace: String::new(),
        });
        let s = LedgerSummary::from_records(&[window(0), window(1), report]);
        assert_eq!(s.windows, 2);
        assert_eq!(s.window_insts, 512);
        assert_eq!(s.reports, 1);
        assert!(s.to_table().contains("window_records"));
        assert!(s.to_table().contains("report_records"));
        let doc = uarch_obs::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(doc.get("window_records").and_then(Value::as_num), Some(2.0));
        assert_eq!(doc.get("report_records").and_then(Value::as_num), Some(1.0));
    }

    #[test]
    fn watch_renders_window_tables_in_wire_order() {
        use uarch_obs::ledger::{ReportRecord, WindowRecord};
        let record = LedgerRecord::Window(WindowRecord {
            run: 7,
            window: 3,
            start: 96,
            end: 128,
            baseline: 412,
            lag: 5,
            eval_us: 184,
            costs: [("dmiss", 96), ("win", 40), ("dl1", 12)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            pairs: [("dmiss+win", -31), ("bw+dmiss", 9)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            trace: String::new(),
        });
        let out = render_watch_record(&record);
        assert!(out.contains("window    3  insts [96,128)"), "{out}");
        assert!(out.contains("baseline 412 cyc  lag 5  eval 184us"), "{out}");
        // Costs print in EventClass wire order, not alphabetically.
        assert!(out.contains("dl1=12 win=40 dmiss=96"), "{out}");
        // Pairs print by descending magnitude with explicit sign.
        assert!(out.contains("dmiss+win=-31 bw+dmiss=+9"), "{out}");
        let report = LedgerRecord::Report(ReportRecord {
            run: 2,
            queries: 3,
            jobs: 4,
            deduped: 1,
            cache_hits: 2,
            disk_hits: 0,
            sims_run: 2,
            cycles: 900,
            insts: 450,
            threads: 2,
            expand_us: 10,
            sim_us: 20,
            skipped: 37,
            trace: String::new(),
        });
        let out = render_watch_record(&report);
        assert!(out.starts_with("report run 2  queries 3"), "{out}");
        assert!(out.contains("jobs 4 (1 deduped)"), "{out}");
    }

    fn audit(run: u64, verdict: &str) -> LedgerRecord {
        use uarch_obs::ledger::AuditRecord;
        LedgerRecord::Audit(AuditRecord {
            run,
            scope: "run".into(),
            baseline: 900,
            tolerance_pm: 250,
            score_pm: if verdict == "refuted" { 400 } else { 40 },
            confirmed: if verdict == "refuted" { 4 } else { 5 },
            refuted: u64::from(verdict == "refuted"),
            unmodeled: 3,
            verdict: verdict.into(),
            attributed: [("dmiss".to_string(), 120i64), ("win".to_string(), 40)]
                .into_iter()
                .collect(),
            counters: [("dmiss".to_string(), 110i64), ("win".to_string(), 45)]
                .into_iter()
                .collect(),
            divergence: [("dmiss".to_string(), 30i64), ("win".to_string(), -30)]
                .into_iter()
                .collect(),
            evidence: "largest divergence dmiss".into(),
            trace: String::new(),
        })
    }

    #[test]
    fn summary_tabulates_audit_records_by_verdict() {
        let s = LedgerSummary::from_records(&[
            audit(1, "confirmed"),
            audit(1, "confirmed"),
            audit(2, "refuted"),
            audit(2, "unmodeled"),
        ]);
        assert_eq!(s.audits, 4);
        assert_eq!(s.audit_confirmed, 2);
        assert_eq!(s.audit_refuted, 1);
        assert_eq!(s.audit_unmodeled, 1);
        assert_eq!(s.audit_refuted_rate(), Some(0.25));
        assert!(s.to_table().contains("audit_records"));
        assert!(s.to_table().contains("refuted"));
        let doc = uarch_obs::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(doc.get("audit_records").and_then(Value::as_num), Some(4.0));
        assert_eq!(doc.get("audit_refuted").and_then(Value::as_num), Some(1.0));
        // Audit-free ledgers carry no rate (nothing to gate).
        assert_eq!(sample().audit_refuted_rate(), None);
        assert!(!sample().to_table().contains("audit_records"));
    }

    #[test]
    fn watch_renders_audit_records_as_waterfalls() {
        let record = audit(7, "refuted");
        let out = render_watch_record(&record);
        let LedgerRecord::Audit(a) = &record else {
            unreachable!()
        };
        assert_eq!(
            out,
            uarch_audit::render_waterfall(a),
            "watch and audit render identically"
        );
        assert!(out.contains("refuted"), "{out}");
        assert!(out.contains("dmiss"), "{out}");
    }

    #[test]
    fn lenient_summary_counts_plan_records_and_skips_future_kinds() {
        use uarch_obs::ledger::{CalibRecord, PlanRecord};
        let calib = LedgerRecord::Calib(CalibRecord {
            sim_ctx: "s".into(),
            graph_ctx: "g".into(),
            set: "dmiss".into(),
            graph_cost: 100,
            sim_cost: 97,
        });
        let plan = LedgerRecord::Plan(PlanRecord {
            run: 1,
            query: "cost(dmiss)".into(),
            backend: "graph".into(),
            confidence_pm: 910,
            reason: "trusted".into(),
            trace: String::new(),
        });
        let text = format!(
            "{}\n{}\n{{\"kind\":\"future\",\"x\":1}}\n",
            calib.to_json_line(),
            plan.to_json_line()
        );
        assert!(
            LedgerSummary::from_text(&text).is_err(),
            "strict parse rejects future kinds"
        );
        let (s, skipped) = LedgerSummary::from_text_lenient(&text).expect("lenient");
        assert_eq!(skipped, 1);
        assert_eq!(s.calibs, 1);
        assert_eq!(s.plans, 1);
        assert_eq!(s.plan_backends["graph"], 1);
        assert!(s.to_table().contains("plan_answers"));
        assert!(uarch_obs::json::parse(&s.to_json()).is_ok());
    }
}
