//! Attribution auditing: do the graph's interaction-cost breakdowns
//! agree with the simulator's own stall accounting?
//!
//! The dependence-graph model attributes a run's cycles to the eight
//! base categories (plus their pairwise interactions); the simulator
//! independently counts per-cause stall cycles ([`PipelineStalls`]).
//! The two disagree *systematically* when the machine model is wrong —
//! a mis-calibrated memory latency inflates (or starves) the `dmiss`
//! attribution while the counters keep reporting what the pipeline
//! actually did. This crate reconciles the two sides for any analyzed
//! range and renders the result as a *waterfall*: per category, the
//! overlap-adjusted attributed cycles next to the mapped counter
//! cycles, a signed share divergence, and a verdict.
//!
//! # The residual definition
//!
//! Raw stall counters and critical-path attributions are in different
//! units: a counter charges every cycle a cause was present, while the
//! graph charges only net critical-path cycles (memory-level
//! parallelism makes counters over-count by design). Comparing raw
//! magnitudes would refute every memory-bound workload. Instead both
//! sides are normalized to *shares* of their own checkable total:
//!
//! * `attributed(c) = cost(c) + ½·Σ_{d≠c} icost({c,d})` — the singleton
//!   cost plus half of every pairwise interaction touching `c`
//!   (a pairwise Shapley split of the overlap).
//! * `counter(c)` — the stall rows mapped to category `c` (see
//!   [`counter_cycles`]); categories without counter coverage are
//!   *unmodeled* and never refuted.
//! * `divergence(c) = share_attributed(c) − share_counter(c)`, in
//!   per-mille; the overall score is the total-variation distance
//!   between the two share vectors.
//!
//! A category is **confirmed** when `|divergence| ≤` [`TOLERANCE_PM`],
//! **refuted** otherwise. Ranges whose checkable counter total is
//! below [`NOISE_FLOOR`] are skipped (every category unmodeled):
//! share estimates from a handful of stall cycles are noise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::OnceLock;

use uarch_graph::Attribution;
use uarch_obs::ledger::AuditRecord;
use uarch_obs::{Histogram, Registry};
use uarch_sim::PipelineStalls;
use uarch_trace::EventClass;

/// Per-category share divergence (attributed vs. counter, per-mille of
/// the checkable total) beyond which a category is refuted. Share-space
/// comparison across cost models is inherently approximate (MLP,
/// overlap splitting); 250‰ separates the agreement seen on
/// well-calibrated Table-7 profiles from the shifts a wrong latency
/// produces.
pub const TOLERANCE_PM: u64 = 250;

/// Minimum checkable counter cycles for an audit to mean anything;
/// below it the range is skipped (all categories unmodeled).
pub const NOISE_FLOOR: u64 = 64;

/// Whether `ICOST_AUDIT=1` switches on the runner and streaming audit
/// hooks. Read once per process; anything but `1` leaves them off.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("ICOST_AUDIT").ok().as_deref() == Some("1"))
}

/// The outcome of checking one category (or a whole audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Counters agree with the attribution within tolerance.
    Confirmed,
    /// Counters disagree beyond tolerance.
    Refuted,
    /// No counter coverage (or below the noise floor): not checkable.
    Unmodeled,
}

impl Verdict {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Confirmed => "confirmed",
            Verdict::Refuted => "refuted",
            Verdict::Unmodeled => "unmodeled",
        }
    }
}

/// One category's reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryAudit {
    /// The base category.
    pub class: EventClass,
    /// Overlap-adjusted attributed cycles
    /// (`cost(c) + ½·Σ icost({c,d})`).
    pub attributed: i64,
    /// Mapped stall-counter cycles, `None` for unmodeled categories.
    pub counter: Option<u64>,
    /// Signed share divergence (attributed − counter), per-mille; 0 for
    /// unmodeled categories.
    pub divergence_pm: i64,
    /// This category's verdict.
    pub verdict: Verdict,
}

/// One reconciled range: the graph-side breakdown checked against the
/// counter-side stall accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// What range was audited (e.g. `run`, `window 3`).
    pub scope: String,
    /// Baseline critical-path cycles of the range.
    pub baseline: u64,
    /// Total-variation distance between the share vectors, per-mille.
    pub score_pm: u64,
    /// Whether the range cleared the noise floor and was checked.
    pub checked: bool,
    /// Per-category outcomes, in [`EventClass::ALL`] order.
    pub categories: Vec<CategoryAudit>,
    /// Human-readable refuting evidence; empty when nothing refuted.
    pub evidence: String,
}

impl Audit {
    fn count(&self, verdict: Verdict) -> u64 {
        self.categories
            .iter()
            .filter(|c| c.verdict == verdict)
            .count() as u64
    }

    /// Categories confirmed.
    pub fn confirmed(&self) -> u64 {
        self.count(Verdict::Confirmed)
    }

    /// Categories refuted.
    pub fn refuted(&self) -> u64 {
        self.count(Verdict::Refuted)
    }

    /// Categories without counter coverage.
    pub fn unmodeled(&self) -> u64 {
        self.count(Verdict::Unmodeled)
    }

    /// The audit's overall verdict: refuted if any category is, else
    /// confirmed if any category is, else unmodeled.
    pub fn verdict(&self) -> Verdict {
        if self.refuted() > 0 {
            Verdict::Refuted
        } else if self.confirmed() > 0 {
            Verdict::Confirmed
        } else {
            Verdict::Unmodeled
        }
    }

    /// The self-contained ledger record for this audit. The maps carry
    /// everything [`render_waterfall`] needs, so any holder of the
    /// record reproduces the identical table.
    pub fn to_record(&self, run: u64) -> AuditRecord {
        let mut attributed = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let mut divergence = BTreeMap::new();
        for c in &self.categories {
            attributed.insert(c.class.name().to_string(), c.attributed);
            if let Some(k) = c.counter {
                counters.insert(c.class.name().to_string(), k as i64);
                // A divergence entry means "this category was judged";
                // noise-floor skips stay absent, but an absolute-
                // coherence refutation is a judgement even when the
                // share comparison itself was skipped.
                if self.checked || c.verdict == Verdict::Refuted {
                    divergence.insert(c.class.name().to_string(), c.divergence_pm);
                }
            }
        }
        AuditRecord {
            run,
            scope: self.scope.clone(),
            baseline: self.baseline,
            tolerance_pm: TOLERANCE_PM,
            score_pm: self.score_pm,
            confirmed: self.confirmed(),
            refuted: self.refuted(),
            unmodeled: self.unmodeled(),
            verdict: self.verdict().as_str().to_string(),
            attributed,
            counters,
            divergence,
            evidence: self.evidence.clone(),
            // Left empty: Ledger::append stamps the appending thread's
            // causal context at write time.
            trace: String::new(),
        }
    }
}

/// The stall-counter cycles charged to `class`, or `None` when no
/// counter row covers it.
///
/// `issue_fu_busy` is deliberately excluded: it counts failed issue
/// *attempts*, not cycles, so it cannot enter a cycle-share comparison
/// — which leaves `shalu`/`lgalu` (and `dl1`, whose hit latency is not
/// a stall cause at all) unmodeled.
pub fn counter_cycles(class: EventClass, stalls: &PipelineStalls) -> Option<u64> {
    match class {
        EventClass::Bmisp => Some(stalls.fetch_bmisp_recovery),
        EventClass::Imiss => Some(stalls.fetch_imiss_l2_fill + stalls.fetch_imiss_mem_fill),
        EventClass::Dmiss => Some(stalls.load_l2_fill + stalls.load_mem_fill),
        EventClass::Win => Some(stalls.dispatch_window_full),
        EventClass::Bw => Some(stalls.fetch_queue_full),
        EventClass::Dl1 | EventClass::ShortAlu | EventClass::LongAlu => None,
    }
}

/// Reconcile one range's graph-side breakdown against its stall
/// counters. Pairs missing from `attribution.pairs` count as zero
/// interaction, so the overlap split is exact for a full
/// [`Attribution`].
pub fn audit_attribution(scope: &str, attribution: &Attribution) -> Audit {
    let Attribution {
        baseline,
        costs,
        pairs,
        stalls,
    } = attribution;
    let baseline = *baseline;
    // Overlap-adjusted attribution: each pair's interaction is split
    // evenly between its two members (×2 fixed-point to stay integer).
    let mut attributed_x2 = [0i64; 8];
    for (i, c) in costs.iter().enumerate() {
        attributed_x2[i] = c * 2;
    }
    for (set, icost) in pairs {
        if set.len() != 2 {
            continue;
        }
        for class in set.iter() {
            attributed_x2[class as usize] += icost;
        }
    }
    let attributed: Vec<i64> = attributed_x2.iter().map(|a| a.div_euclid(2)).collect();

    let counters: Vec<Option<u64>> = EventClass::ALL
        .iter()
        .map(|&c| counter_cycles(c, stalls))
        .collect();

    // Shares over the *checkable* categories only, both sides clamped
    // non-negative (a net-negative attribution contributes no share).
    let a_total: i64 = EventClass::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| counters[*i].is_some())
        .map(|(i, _)| attributed[i].max(0))
        .sum();
    let k_total: u64 = counters.iter().flatten().sum();
    let checked = baseline > 0 && k_total >= NOISE_FLOOR && a_total > 0;

    let mut categories = Vec::with_capacity(8);
    let mut tv = 0.0f64;
    let mut evidence = Vec::new();
    for (i, &class) in EventClass::ALL.iter().enumerate() {
        let (divergence_pm, verdict) = match counters[i] {
            // Absolute-coherence check, immune to the share
            // normalization: every mapped counter is (at most) one
            // stall cycle per machine cycle, so a counter larger than
            // the modeled baseline proves the model's timescale wrong
            // (e.g. a memory latency far below the machine's) even
            // when uniform rescaling leaves every share intact.
            Some(k) if baseline > 0 && k >= NOISE_FLOOR && k > baseline => {
                // Clamp past the tolerance so the record stays
                // self-describing: renderers re-derive verdicts from
                // |divergence| vs tolerance alone.
                let excess_pm = (((k as f64 / baseline as f64 - 1.0) * 1000.0).round() as i64)
                    .max(TOLERANCE_PM as i64 + 1);
                evidence.push(format!(
                    "{}: {} machine stall cycles cannot fit the modeled {}-cycle baseline (model timescale off by {:+}pm)",
                    class.name(),
                    k,
                    baseline,
                    -excess_pm,
                ));
                (-excess_pm, Verdict::Refuted)
            }
            Some(k) if checked => {
                let a_share = attributed[i].max(0) as f64 / a_total as f64;
                let k_share = k as f64 / k_total as f64;
                let diff = a_share - k_share;
                tv += diff.abs();
                let diff_pm = (diff * 1000.0).round() as i64;
                let verdict = if diff_pm.unsigned_abs() <= TOLERANCE_PM {
                    Verdict::Confirmed
                } else {
                    evidence.push(format!(
                        "{}: attributed {:.1}% vs counters {:.1}% (|{}|pm > {}pm)",
                        class.name(),
                        a_share * 100.0,
                        k_share * 100.0,
                        diff_pm,
                        TOLERANCE_PM,
                    ));
                    Verdict::Refuted
                };
                (diff_pm, verdict)
            }
            _ => (0, Verdict::Unmodeled),
        };
        categories.push(CategoryAudit {
            class,
            attributed: attributed[i],
            counter: counters[i],
            divergence_pm,
            verdict,
        });
    }

    Audit {
        scope: scope.to_string(),
        baseline,
        score_pm: (tv * 500.0).round() as u64,
        checked,
        categories,
        evidence: evidence.join("; "),
    }
}

/// Render one audit record as the waterfall table — the one renderer
/// both `icost-obs audit` and `POST /explain` consumers share, so the
/// same record always produces byte-identical output.
pub fn render_waterfall(record: &AuditRecord) -> String {
    let mut out = format!(
        "audit {} [{}]: score {}pm (tolerance {}pm), {} confirmed / {} refuted / {} unmodeled, baseline {}\n",
        record.scope,
        record.verdict,
        record.score_pm,
        record.tolerance_pm,
        record.confirmed,
        record.refuted,
        record.unmodeled,
        record.baseline,
    );
    out.push_str("  category    attributed       counter  delta(pm)  verdict\n");
    // Known categories render in wire (Table 4a) order; any name the
    // record carries beyond them follows, name-sorted.
    let known: Vec<&str> = EventClass::ALL.iter().map(|c| c.name()).collect();
    let names = known
        .iter()
        .copied()
        .filter(|n| record.attributed.contains_key(*n))
        .chain(
            record
                .attributed
                .keys()
                .map(String::as_str)
                .filter(|n| !known.contains(n)),
        );
    for name in names {
        let attributed = record.attributed.get(name).copied().unwrap_or(0);
        let (counter, verdict) = match record.counters.get(name) {
            Some(k) => {
                let verdict = match record.divergence.get(name) {
                    Some(d) if d.unsigned_abs() > record.tolerance_pm => "refuted",
                    Some(_) => "confirmed",
                    None => "unmodeled",
                };
                (k.to_string(), verdict)
            }
            None => ("-".to_string(), "unmodeled"),
        };
        let delta = record
            .divergence
            .get(name)
            .map_or("-".to_string(), |d| format!("{d:+}"));
        out.push_str(&format!(
            "  {name:<9} {attributed:>11} {counter:>13} {delta:>10}  {verdict}\n"
        ));
    }
    if !record.evidence.is_empty() {
        out.push_str(&format!("  evidence: {}\n", record.evidence));
    }
    out
}

/// Histogram bounds for per-category absolute divergence, per-mille.
const RESIDUAL_BOUNDS: [u64; 8] = [10, 25, 50, 100, 150, 250, 500, 1000];

/// Bound audit metrics on a registry: `audit.checks`,
/// `audit.confirmed` / `audit.refuted` / `audit.unmodeled` (category
/// verdicts), `audit.skipped` (noise-floor skips), and one
/// `audit.residual_pm.<category>` histogram per checkable category.
#[derive(Debug, Clone)]
pub struct AuditMetrics {
    checks: uarch_obs::Counter,
    confirmed: uarch_obs::Counter,
    refuted: uarch_obs::Counter,
    unmodeled: uarch_obs::Counter,
    skipped: uarch_obs::Counter,
    residual: Vec<(String, Histogram)>,
}

impl AuditMetrics {
    /// Bind (or re-bind) the audit metric family on `registry`.
    pub fn bind(registry: &Registry) -> AuditMetrics {
        let residual = EventClass::ALL
            .iter()
            .filter(|&&c| counter_cycles(c, &PipelineStalls::default()).is_some())
            .map(|c| {
                let name = c.name().to_string();
                let h = registry.histogram(&format!("audit.residual_pm.{name}"), &RESIDUAL_BOUNDS);
                (name, h)
            })
            .collect();
        AuditMetrics {
            checks: registry.counter("audit.checks"),
            confirmed: registry.counter("audit.confirmed"),
            refuted: registry.counter("audit.refuted"),
            unmodeled: registry.counter("audit.unmodeled"),
            skipped: registry.counter("audit.skipped"),
            residual,
        }
    }

    /// Record one audit record's outcome.
    pub fn observe(&self, record: &AuditRecord) {
        self.checks.inc();
        self.confirmed.add(record.confirmed);
        self.refuted.add(record.refuted);
        self.unmodeled.add(record.unmodeled);
        if record.divergence.is_empty() {
            self.skipped.inc();
        }
        for (name, h) in &self.residual {
            if let Some(d) = record.divergence.get(name) {
                h.record(d.unsigned_abs());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::EventSet;

    /// An attribution without pair interactions over the five
    /// checkable categories; both arrays in `bmisp, imiss, dmiss, win,
    /// bw` order.
    fn attribution(baseline: u64, costs: [i64; 5], stalls: [u64; 5]) -> Attribution {
        use EventClass::{Bmisp, Bw, Dmiss, Imiss, Win};
        let mut all = [0i64; 8];
        for (class, cost) in [Bmisp, Imiss, Dmiss, Win, Bw].into_iter().zip(costs) {
            all[class as usize] = cost;
        }
        let [bmisp, imiss, dmiss, win, bw] = stalls;
        let stalls = PipelineStalls {
            fetch_bmisp_recovery: bmisp,
            fetch_imiss_l2_fill: imiss,
            load_mem_fill: dmiss,
            dispatch_window_full: win,
            fetch_queue_full: bw,
            // Attempts, not cycles: must never enter the comparison.
            issue_fu_busy: 1_000_000,
            ..PipelineStalls::default()
        };
        Attribution {
            baseline,
            costs: all,
            pairs: Vec::new(),
            stalls,
        }
    }

    /// Graph says dmiss is small; counters say it dominates.
    fn dmiss_underattributed(baseline: u64) -> Attribution {
        attribution(baseline, [100, 0, 50, 100, 0], [100, 0, 900, 100, 0])
    }

    #[test]
    fn matching_shares_confirm_every_checkable_category() {
        // Counters are 2x the attributions uniformly: shares identical.
        let uniform = attribution(1000, [100, 50, 400, 200, 50], [200, 100, 800, 400, 100]);
        let audit = audit_attribution("run", &uniform);
        assert!(audit.checked);
        assert_eq!(audit.score_pm, 0);
        assert_eq!(audit.confirmed(), 5);
        assert_eq!(audit.refuted(), 0);
        assert_eq!(audit.unmodeled(), 3, "dl1/shalu/lgalu have no counters");
        assert_eq!(audit.verdict(), Verdict::Confirmed);
        assert!(audit.evidence.is_empty());
    }

    #[test]
    fn shifted_shares_refute_the_shifted_category() {
        let audit = audit_attribution("run", &dmiss_underattributed(1000));
        let dmiss = audit
            .categories
            .iter()
            .find(|c| c.class == EventClass::Dmiss)
            .unwrap();
        assert_eq!(dmiss.verdict, Verdict::Refuted);
        assert!(dmiss.divergence_pm < 0, "under-attributed vs counters");
        assert_eq!(audit.verdict(), Verdict::Refuted);
        assert!(audit.evidence.contains("dmiss"), "{}", audit.evidence);
    }

    #[test]
    fn pairwise_icosts_split_evenly_between_members() {
        let pair = EventSet::single(EventClass::Dmiss).with(EventClass::Win);
        let split = Attribution {
            pairs: vec![(pair, 50)],
            ..attribution(1000, [0, 0, 100, 100, 0], [0, 0, 250, 250, 0])
        };
        let audit = audit_attribution("run", &split);
        let get = |class| {
            audit
                .categories
                .iter()
                .find(|c| c.class == class)
                .unwrap()
                .attributed
        };
        assert_eq!(get(EventClass::Dmiss), 125);
        assert_eq!(get(EventClass::Win), 125);
        assert_eq!(audit.score_pm, 0, "even split keeps shares equal");
    }

    #[test]
    fn below_noise_floor_everything_is_unmodeled() {
        let audit = audit_attribution("run", &attribution(1000, [1; 5], [1; 5]));
        assert!(!audit.checked);
        assert_eq!(audit.unmodeled(), 8);
        assert_eq!(audit.verdict(), Verdict::Unmodeled);
    }

    #[test]
    fn record_roundtrip_preserves_the_waterfall() {
        let audit = audit_attribution("window 3", &dmiss_underattributed(4096));
        let record = audit.to_record(7);
        assert_eq!(record.confirmed, audit.confirmed());
        assert_eq!(record.refuted, audit.refuted());
        assert_eq!(record.verdict, audit.verdict().as_str());
        // The record is self-contained: parse the wire line and render
        // from the parsed copy — byte-identical waterfall.
        let line = uarch_obs::ledger::LedgerRecord::Audit(record.clone()).to_json_line();
        let parsed = match uarch_obs::ledger::LedgerRecord::parse(&line).unwrap() {
            uarch_obs::ledger::LedgerRecord::Audit(a) => a,
            other => panic!("wrong kind: {other:?}"),
        };
        assert_eq!(render_waterfall(&parsed), render_waterfall(&record));
        let table = render_waterfall(&record);
        assert!(table.contains("audit window 3 [refuted]"), "{table}");
        assert!(table.contains("dmiss"), "{table}");
        assert!(table.contains("evidence:"), "{table}");
    }

    #[test]
    fn metrics_count_checks_and_verdicts() {
        let registry = Registry::new();
        let metrics = AuditMetrics::bind(&registry);
        let audit = audit_attribution("run", &dmiss_underattributed(1000));
        metrics.observe(&audit.to_record(1));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("audit.checks"), 1);
        assert_eq!(snap.counter("audit.refuted"), audit.refuted());
        assert_eq!(snap.counter("audit.skipped"), 0);
    }
}
