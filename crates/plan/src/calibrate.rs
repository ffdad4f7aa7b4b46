//! Residual calibration: how far the graph kernel strays from ground
//! truth, per analysis context.
//!
//! Every time the planner (or anyone else) holds a graph answer and a
//! simulation answer for the same `cost(S)`, the absolute residual
//! `|graph − sim|` is one sample of the graph's fidelity for that
//! workload context. The [`Calibrator`] accumulates those samples keyed
//! by `(sim context, graph context)` and fits a per-set tolerance from
//! the 95th-percentile residual times a safety factor — the number the
//! confidence model turns into "how wrong could this graph answer be".
//!
//! Samples arrive two ways: incrementally, as the planner escalates
//! queries and pairs the fresh ground truth against the graph answers
//! it just rejected; and at startup, by replaying `calib` records from
//! the JSONL run ledger ([`Calibrator::replay`]), so a restarted server
//! does not begin life uncalibrated.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use uarch_obs::ledger::{CalibRecord, LedgerRecord};
use uarch_obs::lock_unpoisoned;

/// Residual samples kept per `(sim ctx, graph ctx)` pair; beyond this
/// the oldest sample rolls off so the fit tracks the recent regime.
const MAX_SAMPLES: usize = 4096;

/// Residual samples required before a context pair counts as
/// calibrated at all.
const MIN_SAMPLES: usize = 8;

/// Residual quantile the tolerance is fitted from.
const QUANTILE: f64 = 0.95;

/// Safety factor applied on top of the fitted quantile.
const SAFETY: f64 = 2.0;

/// Lower bound on the fitted per-set tolerance, in cycles.
const TOLERANCE_FLOOR: u64 = 1;

/// Sentinel `set` name on a `calib` ledger record that marks a context
/// pair refuted by the attribution auditor instead of carrying a
/// residual sample. `:` cannot appear in a real `EventSet` display
/// name, so the sentinel can never collide with an observed set.
pub const AUDIT_REFUTED_SET: &str = "audit:refuted";

/// Absolute residuals per `(sim ctx, graph ctx)` pair, oldest first.
type ResidualStore = BTreeMap<(String, String), VecDeque<u64>>;

#[derive(Debug, Default)]
struct CalibratorInner {
    residuals: ResidualStore,
    /// Context pairs whose graph-side attributions the audit plane has
    /// refuted against hardware-style counters: the planner must not
    /// serve graph answers for these until recalibrated.
    refuted: BTreeSet<(String, String)>,
}

/// Shared, thread-safe store of per-context residual history. Cloning
/// hands out another handle to the same store, so a long-lived server
/// can thread one calibrator through every planner it builds. Every
/// update is one push or insert, so a thread that panicked holding the
/// lock leaves the store consistent and later callers carry on.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    inner: Arc<Mutex<CalibratorInner>>,
}

/// One context pair's fitted state (the `icost-obs plan` view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextCalibration {
    /// Ground-truth (simulation) context fingerprint.
    pub sim_ctx: String,
    /// Graph-oracle context fingerprint.
    pub graph_ctx: String,
    /// Residual samples currently held.
    pub samples: usize,
    /// Median absolute residual, in cycles.
    pub p50: u64,
    /// 95th-percentile absolute residual, in cycles.
    pub p95: u64,
    /// Largest absolute residual seen, in cycles.
    pub max: u64,
    /// The per-set tolerance the confidence model uses, or `None`
    /// while under the minimum sample count.
    pub tolerance: Option<u64>,
    /// Whether the attribution auditor has refuted this context pair
    /// (see [`Calibrator::mark_refuted`]).
    pub refuted: bool,
}

impl Calibrator {
    /// An empty calibrator.
    pub fn new() -> Calibrator {
        Calibrator::default()
    }

    fn lock(&self) -> MutexGuard<'_, CalibratorInner> {
        lock_unpoisoned(&self.inner)
    }

    /// Record one paired observation of `cost(set)`: `graph_cost` from
    /// the dependence-graph kernel, `sim_cost` from re-simulation.
    pub fn observe(&self, sim_ctx: &str, graph_ctx: &str, graph_cost: i64, sim_cost: i64) {
        let residual = graph_cost.abs_diff(sim_cost);
        let mut inner = self.lock();
        let samples = inner
            .residuals
            .entry((sim_ctx.to_string(), graph_ctx.to_string()))
            .or_default();
        if samples.len() >= MAX_SAMPLES {
            samples.pop_front();
        }
        samples.push_back(residual);
    }

    /// Mark a context pair as refuted by the attribution auditor and
    /// log the decision as a `calib` update (a record whose `set` is
    /// the [`AUDIT_REFUTED_SET`] sentinel), so a replaying restart
    /// restores the escalation rule. Idempotent.
    pub fn mark_refuted(&self, sim_ctx: &str, graph_ctx: &str) {
        let fresh = self
            .lock()
            .refuted
            .insert((sim_ctx.to_string(), graph_ctx.to_string()));
        let ledger = uarch_obs::ledger::global();
        if fresh && (ledger.is_enabled() || ledger.has_subscribers()) {
            ledger.append(&LedgerRecord::Calib(CalibRecord {
                sim_ctx: sim_ctx.to_string(),
                graph_ctx: graph_ctx.to_string(),
                set: AUDIT_REFUTED_SET.to_string(),
                graph_cost: 0,
                sim_cost: 0,
            }));
            let _ = ledger.flush();
        }
    }

    /// Whether the attribution auditor has refuted this context pair.
    pub fn is_refuted(&self, sim_ctx: &str, graph_ctx: &str) -> bool {
        self.lock()
            .refuted
            .contains(&(sim_ctx.to_string(), graph_ctx.to_string()))
    }

    /// Absorb every `calib` record in `records`; returns how many were
    /// absorbed. Refutation sentinels restore the refuted set instead
    /// of contributing a (fake) zero residual. Non-calib records are
    /// ignored, so callers can feed a whole parsed ledger straight
    /// through.
    pub fn replay(&self, records: &[LedgerRecord]) -> usize {
        let mut absorbed = 0;
        for record in records {
            if let LedgerRecord::Calib(c) = record {
                if c.set == AUDIT_REFUTED_SET {
                    self.lock()
                        .refuted
                        .insert((c.sim_ctx.clone(), c.graph_ctx.clone()));
                } else {
                    self.observe(&c.sim_ctx, &c.graph_ctx, c.graph_cost, c.sim_cost);
                }
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Absorb `calib` records from raw ledger text, tolerating record
    /// kinds from the future; returns how many were absorbed.
    pub fn replay_text(&self, text: &str) -> Result<usize, String> {
        let (records, _skipped) = uarch_obs::ledger::parse_ledger_lenient(text)?;
        Ok(self.replay(&records))
    }

    /// Residual samples held for one context pair.
    pub fn samples(&self, sim_ctx: &str, graph_ctx: &str) -> usize {
        self.lock()
            .residuals
            .get(&(sim_ctx.to_string(), graph_ctx.to_string()))
            .map_or(0, VecDeque::len)
    }

    /// The fitted per-set tolerance for one context pair: twice its
    /// 95th-percentile residual, at least one cycle. `None` until it
    /// holds 8 residuals — an uncalibrated context must escalate, not
    /// guess.
    pub fn tolerance(&self, sim_ctx: &str, graph_ctx: &str) -> Option<u64> {
        fit(self
            .lock()
            .residuals
            .get(&(sim_ctx.to_string(), graph_ctx.to_string()))?)
    }

    /// Fitted state for every context pair, sorted by context ids.
    pub fn snapshot(&self) -> Vec<ContextCalibration> {
        let inner = self.lock();
        inner
            .residuals
            .iter()
            .map(|((sim_ctx, graph_ctx), samples)| ContextCalibration {
                sim_ctx: sim_ctx.clone(),
                graph_ctx: graph_ctx.clone(),
                samples: samples.len(),
                p50: quantile(samples, 0.5),
                p95: quantile(samples, 0.95),
                max: samples.iter().copied().max().unwrap_or(0),
                tolerance: fit(samples),
                refuted: inner
                    .refuted
                    .contains(&(sim_ctx.clone(), graph_ctx.clone())),
            })
            .collect()
    }
}

/// The per-set tolerance fitted from `samples`:
/// `max(floor, ceil(q95 × safety))`. `None` until [`MIN_SAMPLES`]
/// observations exist — an uncalibrated context must escalate, not
/// guess.
fn fit(samples: &VecDeque<u64>) -> Option<u64> {
    (samples.len() >= MIN_SAMPLES)
        .then(|| ((quantile(samples, QUANTILE) as f64 * SAFETY).ceil() as u64).max(TOLERANCE_FLOOR))
}

/// The `q`-quantile of `samples` (nearest-rank, clamped to [0, 1]).
fn quantile(samples: &VecDeque<u64>, q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = samples.iter().copied().collect();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_obs::ledger::CalibRecord;

    #[test]
    fn tolerance_needs_min_samples_then_tracks_quantile() {
        let c = Calibrator::new();
        assert_eq!(c.tolerance("s", "g"), None, "empty: uncalibrated");
        for r in 0..MIN_SAMPLES as i64 - 1 {
            c.observe("s", "g", r, 0);
        }
        assert_eq!(c.tolerance("s", "g"), None, "one sample short");
        c.observe("s", "g", MIN_SAMPLES as i64 - 1, 0);
        let tol = c.tolerance("s", "g").expect("calibrated");
        // Residuals 0..MIN_SAMPLES: with fewer than 21 samples the
        // nearest-rank q95 is the largest, then the safety factor.
        let q95 = quantile(&(0..MIN_SAMPLES as u64).collect(), QUANTILE);
        assert_eq!(q95, MIN_SAMPLES as u64 - 1);
        assert_eq!(tol, (q95 as f64 * SAFETY).ceil() as u64);
        assert_eq!(c.samples("s", "g"), MIN_SAMPLES);
        assert_eq!(c.samples("s", "other"), 0, "pairs are independent");
    }

    #[test]
    fn residuals_are_absolute_and_floored() {
        let c = Calibrator::new();
        for _ in 0..MIN_SAMPLES {
            c.observe("s", "g", -10, -10);
        }
        assert_eq!(
            c.tolerance("s", "g"),
            Some(TOLERANCE_FLOOR),
            "perfect agreement still floors"
        );
        c.observe("s", "g", -10, 10);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].max, 20, "residual is |graph - sim|");
    }

    #[test]
    fn replay_absorbs_only_calib_records() {
        let c = Calibrator::new();
        let calib = LedgerRecord::Calib(CalibRecord {
            sim_ctx: "s".into(),
            graph_ctx: "g".into(),
            set: "dmiss".into(),
            graph_cost: 100,
            sim_cost: 93,
        });
        let mut text = String::from("{\"kind\":\"future\",\"x\":1}\n");
        for _ in 0..MIN_SAMPLES {
            text += &calib.to_json_line();
            text += "\n";
        }
        assert_eq!(c.replay_text(&text).expect("lenient"), MIN_SAMPLES);
        assert_eq!(c.samples("s", "g"), MIN_SAMPLES);
        let fitted = ((7.0 * SAFETY).ceil() as u64).max(TOLERANCE_FLOOR);
        assert_eq!(c.tolerance("s", "g"), Some(fitted));
    }

    #[test]
    fn refutation_marks_survive_replay_without_fake_residuals() {
        let c = Calibrator::new();
        assert!(!c.is_refuted("s", "g"));
        c.mark_refuted("s", "g");
        c.mark_refuted("s", "g"); // idempotent
        assert!(c.is_refuted("s", "g"));
        assert!(!c.is_refuted("s", "other"), "pairs are independent");
        assert_eq!(c.samples("s", "g"), 0, "no residual sample is faked");

        // The sentinel record restores the refuted set on replay, and
        // still does not pollute the residual history.
        let sentinel = LedgerRecord::Calib(CalibRecord {
            sim_ctx: "s2".into(),
            graph_ctx: "g2".into(),
            set: AUDIT_REFUTED_SET.into(),
            graph_cost: 0,
            sim_cost: 0,
        });
        let replayed = Calibrator::new();
        assert_eq!(replayed.replay(&[sentinel]), 1);
        assert!(replayed.is_refuted("s2", "g2"));
        assert_eq!(replayed.samples("s2", "g2"), 0);

        // Snapshot surfaces refutation next to the residual fit.
        c.observe("s", "g", 10, 7);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].refuted);
        assert_eq!(snap[0].tolerance, None, "one sample is uncalibrated");
    }

    #[test]
    fn a_panicked_lock_holder_does_not_break_later_callers() {
        let c = Calibrator::new();
        let handle = c.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = handle.inner.lock().expect("first lock");
            panic!("poisoning the calibrator on purpose");
        })
        .join();
        assert!(panicked.is_err());
        assert!(c.inner.is_poisoned());
        for _ in 0..MIN_SAMPLES {
            c.observe("s", "g", 5, 5);
        }
        assert_eq!(c.tolerance("s", "g"), Some(TOLERANCE_FLOOR));
        assert!(!c.is_refuted("s", "g"));
        c.mark_refuted("s", "g");
        assert!(c.is_refuted("s", "g"));
    }

    #[test]
    fn sample_window_is_bounded() {
        let c = Calibrator::new();
        for i in 0..(MAX_SAMPLES as i64 + 100) {
            c.observe("s", "g", i, 0);
        }
        assert_eq!(c.samples("s", "g"), MAX_SAMPLES, "oldest rolled off");
    }
}
