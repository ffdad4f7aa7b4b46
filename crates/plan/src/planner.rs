//! The escalation ladder itself: cache → graph → simulation.
//!
//! [`Planner::plan`] answers a query batch in three rungs:
//!
//! 1. **Cache** — a query whose every required set is already in the
//!    shared [`SimCache`] under the *simulation* context is answered
//!    from it verbatim. Those entries are ground truth (they were put
//!    there by real simulations, possibly in an earlier process via the
//!    disk layer), so the answer is exact and free.
//! 2. **Graph** — everything else is evaluated through the runner's
//!    [`Oracle`](uarch_runner::Oracle) on its graph [`Backend`] in one
//!    lane-batched prefetch wave, and each graph answer is scored by
//!    the confidence model below.
//! 3. **Sim** — low-confidence graph answers are escalated as one
//!    batched `run_warmed`-equivalent wave. Escalated answers are
//!    bit-identical to [`Runner::run_warmed`] by construction: they go
//!    through the same oracle on its sim [`Backend`] and the same shared
//!    cache. Each escalation also pairs the fresh ground truth against
//!    the rejected graph answers, feeding the [`Calibrator`].
//!
//! The confidence model distrusts a graph answer when:
//! * the context pair has no fitted residual tolerance yet
//!   (*uncalibrated* — always escalate);
//! * the query is an `icost`/`icost_units` whose magnitude is within
//!   `SIGN_MARGIN` (2) residual budgets of zero (*near-zero* — the sign
//!   decides the parallel/serial interaction category, so a residual
//!   could flip the qualitative answer);
//! * the event sets touch classes the dependence graph models with
//!   fixed-capacity edge approximations (`POOR_CLASSES`, the
//!   window/bandwidth resource classes), which scales confidence down
//!   by `POOR_PENALTY` (0.6);
//! * the calibrated confidence `|answer| / (|answer| + budget)` falls
//!   below `CONFIDENCE_THRESHOLD` (0.65), where the budget is the per-set
//!   tolerance times the number of distinct non-empty sets the answer
//!   was assembled from.

use std::collections::HashSet;

use uarch_graph::DepGraph;
use uarch_obs::ledger::{CalibRecord, LedgerRecord, PlanRecord};
use uarch_obs::{Counter, Histogram, Registry};
use uarch_runner::{Backend, ContextId, Query, RunReport, Runner, SimCache};
use uarch_trace::{EventClass, EventSet, MachineConfig, Trace, WarmSet};

use crate::calibrate::Calibrator;

/// Minimum confidence for a graph answer to be served.
const CONFIDENCE_THRESHOLD: f64 = 0.65;

/// `icost` answers within this many residual budgets of zero are
/// sign-critical and always escalate.
const SIGN_MARGIN: f64 = 2.0;

/// Event classes the graph kernel models poorly (resource/capacity
/// classes approximated by fixed-distance edges).
const POOR_CLASSES: [EventClass; 2] = [EventClass::Win, EventClass::Bw];

/// Confidence multiplier applied when a query touches [`POOR_CLASSES`].
const POOR_PENALTY: f64 = 0.6;

/// Which rung of the ladder served an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanProvenance {
    /// Ground truth straight from the shared cache (exact, free).
    Cache,
    /// The dependence-graph kernel (approximate, cheap).
    Graph,
    /// Ground-truth re-simulation (exact, expensive).
    Sim,
}

impl PlanProvenance {
    /// Stable wire name (`cache`/`graph`/`sim`).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanProvenance::Cache => "cache",
            PlanProvenance::Graph => "graph",
            PlanProvenance::Sim => "sim",
        }
    }
}

/// Why the planner routed a query where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// Every required set was already cached ground truth.
    CacheComplete,
    /// The graph answer cleared the calibrated confidence bar.
    Trusted,
    /// No residual history for this context pair yet.
    Uncalibrated,
    /// Sign-critical icost too close to zero to trust.
    NearZero,
    /// Query touches classes the graph models poorly.
    PoorClass,
    /// Calibrated confidence under the threshold.
    LowMargin,
    /// The attribution auditor refuted this context pair's graph
    /// attributions against counters; ground truth is forced.
    AuditRefuted,
}

impl PlanReason {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanReason::CacheComplete => "cache_complete",
            PlanReason::Trusted => "trusted",
            PlanReason::Uncalibrated => "uncalibrated",
            PlanReason::NearZero => "near_zero",
            PlanReason::PoorClass => "poor_class",
            PlanReason::LowMargin => "low_margin",
            PlanReason::AuditRefuted => "audit_refuted",
        }
    }
}

/// One planned answer: the value plus how much to trust it and why.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAnswer {
    /// The query's value (cycles for `cost`, signed for `icost`).
    pub value: i64,
    /// Which rung served it.
    pub provenance: PlanProvenance,
    /// Confidence in the served value, in `[0, 1]`. Exact rungs
    /// (cache/sim) report `1.0`; graph answers report the calibrated
    /// score.
    pub confidence: f64,
    /// The routing decision's rationale.
    pub reason: PlanReason,
    /// For graph-served answers, the total residual budget (cycles)
    /// the answer is expected to land within; `None` for exact rungs.
    pub tolerance: Option<u64>,
}

/// The confidence model's verdict on one graph answer.
#[derive(Debug, Clone, Copy)]
pub struct Assessment {
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Why (only escalation reasons or [`PlanReason::Trusted`]).
    pub reason: PlanReason,
    /// Query-level residual budget, when calibrated.
    pub tolerance: Option<u64>,
    /// Whether the planner must escalate to ground truth.
    pub escalate: bool,
}

/// Score one graph `answer` for `query` given the per-set residual
/// tolerance fitted for its context pair (`None` = uncalibrated).
/// Exposed so the serve layer can attach honest confidence scores to
/// plain `backend:"graph"` responses too.
pub fn assess(query: &Query, answer: i64, per_set_tolerance: Option<u64>) -> Assessment {
    let Some(per_set) = per_set_tolerance else {
        return Assessment {
            confidence: 0.0,
            reason: PlanReason::Uncalibrated,
            tolerance: None,
            escalate: true,
        };
    };
    let sets = distinct_nonempty_sets(query);
    let budget = per_set.saturating_mul(sets.max(1) as u64).max(1);
    let magnitude = answer.unsigned_abs();
    let raw = magnitude as f64 / (magnitude as f64 + budget as f64);
    let poor = !query_classes(query)
        .intersection(EventSet::from(POOR_CLASSES))
        .is_empty();
    let confidence = if poor { raw * POOR_PENALTY } else { raw };
    let sign_critical = matches!(query, Query::Icost(_) | Query::IcostOfUnits(_));
    if sign_critical && (magnitude as f64) < SIGN_MARGIN * budget as f64 {
        return Assessment {
            confidence,
            reason: PlanReason::NearZero,
            tolerance: Some(budget),
            escalate: true,
        };
    }
    if confidence < CONFIDENCE_THRESHOLD {
        let reason = if poor {
            PlanReason::PoorClass
        } else {
            PlanReason::LowMargin
        };
        return Assessment {
            confidence,
            reason,
            tolerance: Some(budget),
            escalate: true,
        };
    }
    Assessment {
        confidence,
        reason: PlanReason::Trusted,
        tolerance: Some(budget),
        escalate: false,
    }
}

/// Distinct non-empty sets a query's answer is assembled from (the
/// count that scales the residual budget).
fn distinct_nonempty_sets(query: &Query) -> usize {
    let mut sets: Vec<u8> = query
        .required_sets()
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.bits())
        .collect();
    sets.sort_unstable();
    sets.dedup();
    sets.len()
}

/// Union of every class a query touches.
fn query_classes(query: &Query) -> EventSet {
    match query {
        Query::Cost(s) | Query::Icost(s) => *s,
        Query::IcostOfUnits(units) => units.iter().fold(EventSet::EMPTY, |acc, u| acc.union(*u)),
    }
}

/// The queries at `indices`, in order.
fn select(queries: &[Query], indices: &[usize]) -> Vec<Query> {
    indices.iter().map(|&i| queries[i].clone()).collect()
}

/// Registry-backed counters the planner updates (`plan.*` names; the
/// serve layer renders them on `/metrics`).
#[derive(Debug, Clone)]
struct PlanMetrics {
    queries: Counter,
    cache_answers: Counter,
    graph_answers: Counter,
    sim_answers: Counter,
    escalations: Counter,
    esc_uncalibrated: Counter,
    esc_near_zero: Counter,
    esc_poor_class: Counter,
    esc_low_margin: Counter,
    esc_audit_refuted: Counter,
    residuals: Counter,
    ground_truth_sims: Counter,
    graph_evals: Counter,
    confidence_pct: Histogram,
}

/// Register every `plan.*` series on `registry` at zero, so an
/// exposition renders them before the first planned batch.
pub fn bind_metrics(registry: &Registry) {
    PlanMetrics::bind(registry);
}

/// Bucket bounds for served-answer confidence, in percent.
const CONFIDENCE_PCT_BOUNDS: [u64; 5] = [25, 50, 75, 90, 100];

impl PlanMetrics {
    fn bind(registry: &Registry) -> PlanMetrics {
        PlanMetrics {
            queries: registry.counter("plan.queries"),
            cache_answers: registry.counter("plan.answers.cache"),
            graph_answers: registry.counter("plan.answers.graph"),
            sim_answers: registry.counter("plan.answers.sim"),
            escalations: registry.counter("plan.escalations"),
            esc_uncalibrated: registry.counter("plan.escalate.uncalibrated"),
            esc_near_zero: registry.counter("plan.escalate.near_zero"),
            esc_poor_class: registry.counter("plan.escalate.poor_class"),
            esc_low_margin: registry.counter("plan.escalate.low_margin"),
            esc_audit_refuted: registry.counter("plan.escalate.audit_refuted"),
            residuals: registry.counter("plan.residual_observations"),
            ground_truth_sims: registry.counter("plan.ground_truth_sims"),
            graph_evals: registry.counter("plan.graph_evals"),
            confidence_pct: registry.histogram("plan.confidence_pct", &CONFIDENCE_PCT_BOUNDS),
        }
    }

    fn count_reason(&self, reason: PlanReason) {
        match reason {
            PlanReason::Uncalibrated => self.esc_uncalibrated.inc(),
            PlanReason::NearZero => self.esc_near_zero.inc(),
            PlanReason::PoorClass => self.esc_poor_class.inc(),
            PlanReason::LowMargin => self.esc_low_margin.inc(),
            PlanReason::AuditRefuted => self.esc_audit_refuted.inc(),
            PlanReason::CacheComplete | PlanReason::Trusted => {}
        }
    }
}

/// A mixed-fidelity planner over one analysis context.
///
/// Borrow the context (config, trace, warm sets, prebuilt graph) and
/// keep the planner alive across batches: the shared cache, the
/// calibrator, and the metrics registry all accumulate, which is what
/// makes later batches cheaper and better-calibrated than earlier ones.
#[derive(Debug)]
pub struct Planner<'a> {
    runner: Runner,
    /// Ground truth: the exact rungs (cache and sim).
    sim: Backend<'a>,
    /// The cheap rung, keyed by the simulation context's graph key.
    graph: Backend<'a>,
    calibrator: Calibrator,
    registry: Registry,
    metrics: PlanMetrics,
}

impl<'a> Planner<'a> {
    /// A planner bound to `runner`'s cache and thread budget, answering
    /// queries about `(config, trace, warm sets)` with `graph` (built
    /// from that context's baseline) as the cheap oracle. Fingerprints
    /// the context; an owner that already holds its backend uses
    /// [`Planner::from_backends`] instead.
    pub fn new(
        runner: &Runner,
        config: &'a MachineConfig,
        trace: &'a Trace,
        warm_data: &'a WarmSet,
        warm_code: &'a WarmSet,
        graph: &'a DepGraph,
    ) -> Planner<'a> {
        let sim = Backend::sim_warmed(config, trace, warm_data, warm_code);
        Planner::from_backends(runner, sim, sim.graph_of(graph))
    }

    /// A planner over already-fingerprinted backends: `sim` for ground
    /// truth, `graph` for the cheap rung (normally `sim.graph_of(..)`).
    /// Pins both contexts in the disk cache so eviction policies cannot
    /// rotate out the calibration baseline.
    pub fn from_backends(runner: &Runner, sim: Backend<'a>, graph: Backend<'a>) -> Planner<'a> {
        runner.cache().pin(sim.ctx());
        runner.cache().pin(graph.ctx());
        let registry = Registry::new();
        Planner {
            metrics: PlanMetrics::bind(&registry),
            runner: runner.clone(),
            sim,
            graph,
            calibrator: Calibrator::new(),
            registry,
        }
    }

    /// Share an existing calibrator (e.g. one replayed from the ledger,
    /// or one owned by a long-lived server).
    pub fn with_calibrator(mut self, calibrator: Calibrator) -> Planner<'a> {
        self.calibrator = calibrator;
        self
    }

    /// Accumulate `plan.*` metrics into an external registry instead of
    /// a private one.
    pub fn with_registry(mut self, registry: Registry) -> Planner<'a> {
        self.metrics = PlanMetrics::bind(&registry);
        self.registry = registry;
        self
    }

    /// The metrics registry the `plan.*` counters live in.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// The shared calibrator handle.
    pub fn calibrator(&self) -> &Calibrator {
        &self.calibrator
    }

    /// `(simulation context, graph context)` fingerprints.
    pub fn contexts(&self) -> (ContextId, ContextId) {
        (self.sim.ctx(), self.graph.ctx())
    }

    /// The contexts as the calibrator keys them.
    fn calibration_keys(&self) -> (String, String) {
        (self.sim.ctx().to_string(), self.graph.ctx().to_string())
    }

    /// The per-set residual tolerance currently fitted for this
    /// planner's context pair, or `None` while uncalibrated.
    pub fn fitted_tolerance(&self) -> Option<u64> {
        let (sim_key, graph_key) = self.calibration_keys();
        self.calibrator.tolerance(&sim_key, &graph_key)
    }

    /// Answer `queries` on one backend as a single batch, returning the
    /// answers and the batch's report.
    fn answer(&self, backend: Backend<'a>, queries: &[Query]) -> (Vec<i64>, RunReport) {
        let mut oracle = self.runner.oracle(backend);
        let answers = oracle.run(queries);
        (answers, oracle.report())
    }

    /// Read `cost(set)` for both contexts out of the cache, if both
    /// sides (and both baselines) are present.
    fn paired_costs(&self, cache: &SimCache, set: EventSet) -> Option<(i64, i64)> {
        let (sim_ctx, graph_ctx) = self.contexts();
        let g_base = cache.get(graph_ctx, EventSet::EMPTY).0?;
        let s_base = cache.get(sim_ctx, EventSet::EMPTY).0?;
        let g_t = cache.get(graph_ctx, set).0?;
        let s_t = cache.get(sim_ctx, set).0?;
        Some((g_base as i64 - g_t as i64, s_base as i64 - s_t as i64))
    }

    /// Pair fresh ground truth against cached graph values for every
    /// distinct non-empty set in `sets`, feeding the calibrator and the
    /// ledger. Returns how many residuals were observed.
    fn observe_residuals(&mut self, cache: &SimCache, sets: &[EventSet]) -> usize {
        let ledger = uarch_obs::ledger::global();
        let ledgered = ledger.is_enabled() || ledger.has_subscribers();
        let (sim_key, graph_key) = self.calibration_keys();
        let mut seen = HashSet::new();
        let mut observed = 0;
        for &set in sets {
            if set.is_empty() || !seen.insert(set.bits()) {
                continue;
            }
            let Some((graph_cost, sim_cost)) = self.paired_costs(cache, set) else {
                continue;
            };
            self.calibrator
                .observe(&sim_key, &graph_key, graph_cost, sim_cost);
            self.metrics.residuals.inc();
            observed += 1;
            if ledgered {
                ledger.append(&LedgerRecord::Calib(CalibRecord {
                    sim_ctx: sim_key.clone(),
                    graph_ctx: graph_key.clone(),
                    set: set.to_string(),
                    graph_cost,
                    sim_cost,
                }));
            }
        }
        observed
    }

    /// Warm the calibrator explicitly: evaluate `sets` through *both*
    /// backends and record every residual. Returns the number of new
    /// residual observations.
    pub fn calibrate(&mut self, sets: &[EventSet]) -> usize {
        let cache = self.runner.cache().clone();
        let queries: Vec<Query> = sets.iter().map(|&set| Query::Cost(set)).collect();
        let (_, graph_report) = self.answer(self.graph, &queries);
        self.metrics.graph_evals.add(graph_report.sims_run);
        let (_, sim_report) = self.answer(self.sim, &queries);
        self.metrics.ground_truth_sims.add(sim_report.sims_run);
        let observed = self.observe_residuals(&cache, sets);
        let _ = uarch_obs::ledger::global().flush();
        observed
    }

    /// Answer a query batch through the escalation ladder. Answers come
    /// back in query order; the report aggregates the work both the
    /// graph and simulation rungs actually did.
    pub fn plan(&mut self, queries: &[Query]) -> (Vec<PlannedAnswer>, RunReport) {
        let ledger = uarch_obs::ledger::global();
        let cache = self.runner.cache().clone();
        let sim_ctx = self.sim.ctx();

        // Rung 1: queries fully covered by cached ground truth.
        let cache_complete: Vec<bool> = queries
            .iter()
            .map(|q| {
                q.required_sets()
                    .iter()
                    .all(|&s| cache.get(sim_ctx, s).0.is_some())
            })
            .collect();

        // A refuted context pair skips the graph rung outright: the
        // auditor found its attributions disagreeing with counters, so
        // graph answers are untrustworthy regardless of residual fit.
        let (sim_key, graph_key) = self.calibration_keys();
        let refuted = self.calibrator.is_refuted(&sim_key, &graph_key);

        // Rung 2: one graph wave over everything not cache-complete.
        let pending: Vec<usize> = (0..queries.len()).filter(|&i| !cache_complete[i]).collect();
        let mut graph_values = vec![0i64; queries.len()];
        let mut graph_report = None;
        if !pending.is_empty() && !refuted {
            let (values, report) = self.answer(self.graph, &select(queries, &pending));
            for (&i, value) in pending.iter().zip(values) {
                graph_values[i] = value;
            }
            self.metrics.graph_evals.add(report.sims_run);
            graph_report = Some(report);
        }

        // Score every graph answer; collect the escalations.
        let per_set_tol = self.calibrator.tolerance(&sim_key, &graph_key);
        let assessments: Vec<Option<Assessment>> = (0..queries.len())
            .map(|i| {
                (!cache_complete[i]).then(|| {
                    if refuted {
                        Assessment {
                            confidence: 0.0,
                            reason: PlanReason::AuditRefuted,
                            tolerance: None,
                            escalate: true,
                        }
                    } else {
                        assess(&queries[i], graph_values[i], per_set_tol)
                    }
                })
            })
            .collect();

        // Rung 3 (plus rung 1, which is free by construction): one sim
        // wave over cache-complete and escalated queries together.
        let sim_indices: Vec<usize> = (0..queries.len())
            .filter(|&i| cache_complete[i] || assessments[i].is_some_and(|a| a.escalate))
            .collect();
        let mut sim_values = vec![0i64; queries.len()];
        let escalated_sets: Vec<EventSet> = sim_indices
            .iter()
            .filter(|&&i| !cache_complete[i])
            .flat_map(|&i| queries[i].required_sets())
            .collect();
        let (values, mut report) = self.answer(self.sim, &select(queries, &sim_indices));
        for (&i, value) in sim_indices.iter().zip(values) {
            sim_values[i] = value;
        }
        self.metrics.ground_truth_sims.add(report.sims_run);
        if let Some(graph_report) = &graph_report {
            report.absorb(graph_report);
        }

        // Escalations just produced ground truth for the very sets the
        // graph answered: learn from the disagreement.
        self.observe_residuals(&cache, &escalated_sets);

        // Assemble answers, counters, and plan ledger records.
        let plan_run =
            (ledger.is_enabled() || ledger.has_subscribers()).then(|| ledger.next_run_id());
        let answers: Vec<PlannedAnswer> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| {
                self.metrics.queries.inc();
                let answer = if cache_complete[i] {
                    self.metrics.cache_answers.inc();
                    PlannedAnswer {
                        value: sim_values[i],
                        provenance: PlanProvenance::Cache,
                        confidence: 1.0,
                        reason: PlanReason::CacheComplete,
                        tolerance: None,
                    }
                } else {
                    let a = assessments[i].expect("non-cache query was assessed");
                    if a.escalate {
                        self.metrics.sim_answers.inc();
                        self.metrics.escalations.inc();
                        self.metrics.count_reason(a.reason);
                        PlannedAnswer {
                            value: sim_values[i],
                            provenance: PlanProvenance::Sim,
                            confidence: 1.0,
                            reason: a.reason,
                            tolerance: None,
                        }
                    } else {
                        self.metrics.graph_answers.inc();
                        PlannedAnswer {
                            value: graph_values[i],
                            provenance: PlanProvenance::Graph,
                            confidence: a.confidence,
                            reason: a.reason,
                            tolerance: a.tolerance,
                        }
                    }
                };
                self.metrics
                    .confidence_pct
                    .record((answer.confidence * 100.0).round() as u64);
                if let Some(run) = plan_run {
                    ledger.append(&LedgerRecord::Plan(PlanRecord {
                        run,
                        query: query.to_string(),
                        backend: answer.provenance.as_str().to_string(),
                        confidence_pm: (answer.confidence * 1000.0).round() as u64,
                        reason: answer.reason.as_str().to_string(),
                        trace: String::new(),
                    }));
                }
                answer
            })
            .collect();
        let _ = ledger.flush();
        (answers, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q_cost(classes: &[EventClass]) -> Query {
        Query::Cost(classes.iter().copied().collect())
    }

    fn q_icost(classes: &[EventClass]) -> Query {
        Query::Icost(classes.iter().copied().collect())
    }

    #[test]
    fn uncalibrated_always_escalates() {
        let a = assess(&q_cost(&[EventClass::Dmiss]), 1_000_000, None);
        assert!(a.escalate);
        assert_eq!(a.reason, PlanReason::Uncalibrated);
        assert_eq!(a.confidence, 0.0);
        assert_eq!(a.tolerance, None);
    }

    #[test]
    fn large_magnitude_cost_is_trusted_small_is_not() {
        let big = assess(&q_cost(&[EventClass::Dmiss]), 10_000, Some(10));
        assert!(!big.escalate, "{big:?}");
        assert_eq!(big.reason, PlanReason::Trusted);
        assert!(big.confidence > 0.99);
        assert_eq!(big.tolerance, Some(10), "one non-empty set, one budget");

        let small = assess(&q_cost(&[EventClass::Dmiss]), 3, Some(10));
        assert!(small.escalate);
        assert_eq!(small.reason, PlanReason::LowMargin);
    }

    #[test]
    fn near_zero_icost_is_sign_critical() {
        // icost(dmiss+shalu) draws on 4 sets, 3 non-empty → budget 30;
        // |answer| under SIGN_MARGIN × 30 = 60 must escalate...
        let q = q_icost(&[EventClass::Dmiss, EventClass::ShortAlu]);
        let a = assess(&q, -45, Some(10));
        assert!(a.escalate, "{a:?}");
        assert_eq!(a.reason, PlanReason::NearZero);
        assert_eq!(a.tolerance, Some(30));
        // ...while the same magnitude on a Cost query is merely scored.
        let a = assess(&q_cost(&[EventClass::Dmiss]), 45, Some(10));
        assert_ne!(a.reason, PlanReason::NearZero);
        // A decisively signed icost clears the margin.
        let a = assess(&q, 100_000, Some(10));
        assert!(!a.escalate, "{a:?}");
        assert_eq!(a.reason, PlanReason::Trusted);
    }

    #[test]
    fn poor_classes_scale_confidence_down() {
        let clean = assess(&q_cost(&[EventClass::Dmiss]), 50, Some(10));
        let poor = assess(&q_cost(&[EventClass::Win]), 50, Some(10));
        assert!(poor.confidence < clean.confidence);
        assert!((poor.confidence - clean.confidence * POOR_PENALTY).abs() < 1e-12);
        // Low enough to escalate, and the reason names the cause.
        let a = assess(&q_cost(&[EventClass::Win]), 15, Some(10));
        assert!(a.escalate);
        assert_eq!(a.reason, PlanReason::PoorClass);
    }

    #[test]
    fn budget_scales_with_distinct_nonempty_sets() {
        // icost_units([dmiss, win]) requires {}, dmiss, win, dmiss+win:
        // three distinct non-empty sets.
        let q = Query::IcostOfUnits(vec![
            EventSet::single(EventClass::Dmiss),
            EventSet::single(EventClass::Win),
        ]);
        let a = assess(&q, 1_000_000, Some(10));
        assert_eq!(a.tolerance, Some(30));
    }
}
