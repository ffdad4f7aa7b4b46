//! The job-based front door: declare what you want to know, let the
//! engine figure out the minimal set of simulations.
//!
//! A [`Query`] names an analysis result (`cost(S)`, `icost(U)`, or an
//! `icost` over aggregate units); [`Runner::run`] expands a batch of
//! queries into their required `(trace, config, idealization)` simulation
//! jobs, dedupes jobs shared *across* queries (every `icost` lattice
//! shares its lower subsets with smaller queries), executes the residue as
//! one parallel wave, and answers every query from the resulting cache.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use icost::{icost, icost_of_sets, CostOracle};
use uarch_audit::audit_attribution;
use uarch_graph::{Attribution, DepGraph, LaneScratch};
use uarch_obs::ledger::LedgerRecord;
use uarch_obs::{lock_unpoisoned, CounterSampler, COUNTER_INTERVAL};
use uarch_trace::{EventSet, MachineConfig, Trace, WarmSet};

use crate::cache::SimCache;
use crate::fingerprint::ContextId;
use crate::oracle::{Backend, Oracle};
use crate::pool::default_threads;
use crate::report::RunReport;

/// One analysis request against a single simulation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `cost(S) = t − t(S)`.
    Cost(EventSet),
    /// `icost(U)` over the member classes of `U` (full `2^|U|` lattice).
    Icost(EventSet),
    /// `icost` treating each element as one aggregate unit
    /// (see [`icost_of_sets`]).
    IcostOfUnits(Vec<EventSet>),
}

impl Query {
    /// Every event set whose simulation this query needs (including `∅`
    /// for the baseline). Duplicates across queries are expected — the
    /// runner dedupes them.
    pub fn required_sets(&self) -> Vec<EventSet> {
        match self {
            Query::Cost(s) => vec![EventSet::EMPTY, *s],
            Query::Icost(u) => u.subsets().collect(),
            Query::IcostOfUnits(units) => (0u32..(1 << units.len()))
                .map(|mask| {
                    let mut union = EventSet::EMPTY;
                    for (j, u) in units.iter().enumerate() {
                        if mask & (1 << j) != 0 {
                            union = union.union(*u);
                        }
                    }
                    union
                })
                .collect(),
        }
    }

    /// Answer this query against `oracle`. Callers that want the batch
    /// dedup/prefetch machinery should go through [`Runner::run`]; this
    /// is the per-query evaluation primitive external planners build on.
    pub fn answer(&self, oracle: &mut dyn CostOracle) -> i64 {
        match self {
            Query::Cost(s) => oracle.cost(*s),
            Query::Icost(u) => icost(oracle, *u),
            Query::IcostOfUnits(units) => icost_of_sets(oracle, units),
        }
    }
}

impl std::fmt::Display for Query {
    /// Stable display form used by ledger `plan` records:
    /// `cost(dmiss)`, `icost(dmiss+win)`, `icost_units(dmiss|win+bw)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::Cost(s) => write!(f, "cost({s})"),
            Query::Icost(u) => write!(f, "icost({u})"),
            Query::IcostOfUnits(units) => {
                write!(f, "icost_units(")?;
                for (i, u) in units.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{u}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The evaluation engine: a worker-thread budget plus a shared
/// content-addressed [`SimCache`] that every oracle it hands out feeds.
///
/// Keep one `Runner` per process (or per benchmark sweep) and route all
/// analyses through it — that is what turns overlapping queries into
/// cache hits instead of repeated simulations.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    cache: SimCache,
    /// Audit regardless of `ICOST_AUDIT` (see [`Runner::with_audit`]).
    audit: bool,
}

/// Simulation contexts this process has already audited — auditing is
/// a property of the (config, trace) context, not of the batch, so one
/// check per context keeps the enabled overhead inside the
/// `speed_gates` perturbation budget.
fn audited_contexts() -> &'static Mutex<HashSet<ContextId>> {
    static AUDITED: OnceLock<Mutex<HashSet<ContextId>>> = OnceLock::new();
    AUDITED.get_or_init(|| Mutex::new(HashSet::new()))
}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// A runner with one worker per core and a fresh in-memory cache.
    pub fn new() -> Runner {
        Runner {
            threads: default_threads(),
            cache: SimCache::new(),
            audit: false,
        }
    }

    /// Force attribution auditing regardless of the `ICOST_AUDIT`
    /// environment (tests and embedders; the env-var path is the
    /// production switch).
    pub fn with_audit(mut self) -> Runner {
        self.audit = true;
        self
    }

    /// Cap (or raise) the worker-thread budget.
    pub fn with_threads(mut self, threads: usize) -> Runner {
        self.threads = threads.max(1);
        self
    }

    /// Persist simulation results under `dir` so later processes reuse
    /// them (see [`SimCache::with_disk`]).
    pub fn with_disk_cache(self, dir: impl Into<PathBuf>) -> io::Result<Runner> {
        Ok(Runner {
            threads: self.threads,
            cache: SimCache::with_disk(dir)?,
            audit: self.audit,
        })
    }

    /// Adopt an existing cache handle (e.g. one shared across several
    /// runners, or a pre-opened disk-backed cache).
    pub fn with_cache(mut self, cache: SimCache) -> Runner {
        self.cache = cache;
        self
    }

    /// The shared cache handle (clone it into your own oracles freely).
    pub fn cache(&self) -> &SimCache {
        &self.cache
    }

    /// Worker threads used for parallel waves.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A [`CostOracle`] over `backend`, wired to this runner's cache and
    /// thread budget. Oracles over equal contexts share answers through
    /// the cache, so repeated analyses skip both simulation and graph
    /// sweeps.
    pub fn oracle<'a>(&self, backend: Backend<'a>) -> Oracle<'a> {
        Oracle::new(backend, self.threads, self.cache.clone())
    }

    /// Evaluate a batch of queries against one cold-machine simulation
    /// context.
    ///
    /// All queries' required sets are expanded up front and pushed
    /// through a single deduplicated prefetch wave, so overlapping
    /// lattices cost one simulation per *distinct* set, not per query.
    /// Results are returned in query order; the report says how much work
    /// was actually done.
    pub fn run(
        &self,
        config: &MachineConfig,
        trace: &Trace,
        queries: &[Query],
    ) -> (Vec<i64>, RunReport) {
        self.batch(Backend::sim(config, trace), queries)
    }

    /// [`Runner::run`] with warmup sets.
    pub fn run_warmed(
        &self,
        config: &MachineConfig,
        trace: &Trace,
        warm_data: &WarmSet,
        warm_code: &WarmSet,
        queries: &[Query],
    ) -> (Vec<i64>, RunReport) {
        self.batch(
            Backend::sim_warmed(config, trace, warm_data, warm_code),
            queries,
        )
    }

    /// [`Runner::run`] against a dependence graph instead of ground-truth
    /// re-simulation: same query semantics and the same one-wave prefetch
    /// expansion, with the answers produced by the lane-batched kernel
    /// (bit-identical to per-set `DepGraph::evaluate`) and keyed by the
    /// graph's content.
    pub fn run_graph(&self, graph: &DepGraph, queries: &[Query]) -> (Vec<i64>, RunReport) {
        self.batch(Backend::graph(graph), queries)
    }

    /// Answer a batch of queries on `backend` through one oracle: the
    /// run span, counter sampling, the oracle's one-wave batch, and (for
    /// simulation contexts) the audit hook. A caller that owns a
    /// fingerprinted backend runs batches here without re-hashing.
    pub fn batch(&self, backend: Backend, queries: &[Query]) -> (Vec<i64>, RunReport) {
        let tracer = uarch_obs::global();
        let name = match backend {
            Backend::Sim { .. } => "runner.run",
            Backend::Graph { .. } => "runner.run_graph",
        };
        let _run_sp = if tracer.is_enabled() {
            let mut args = vec![("queries", queries.len().to_string())];
            if let Some(hex) = uarch_obs::causal::current_trace_hex() {
                args.push(("trace", hex));
            }
            tracer.span_with("runner", name, args)
        } else {
            tracer.span("runner", name)
        };
        let mut oracle = self.oracle(backend);
        let sampler = tracer.is_enabled().then(|| {
            CounterSampler::start(
                tracer.clone(),
                vec![oracle.metrics().clone(), self.cache.metrics().clone()],
                COUNTER_INTERVAL,
            )
        });
        let answers = oracle.run(queries);
        // Stop sampling before reading the report, so the closing counter
        // sample carries the run's final values.
        drop(sampler);
        self.maybe_audit(backend, oracle.ledger_run_id());
        let _ = uarch_obs::ledger::global().flush();
        (answers, oracle.report())
    }

    /// Cross-validate this context's graph attributions against its
    /// stall counters and append an `audit` ledger record — once per
    /// simulation context per process, and only when auditing is on
    /// (`ICOST_AUDIT=1` or [`Runner::with_audit`]) and somebody will
    /// read the record. Off-path cost is one cached flag read.
    fn maybe_audit(&self, backend: Backend, run: Option<u64>) {
        let Backend::Sim {
            config,
            trace,
            warm_data,
            warm_code,
            ctx,
        } = backend
        else {
            return;
        };
        if !self.audit && !uarch_audit::enabled() {
            return;
        }
        let ledger = uarch_obs::ledger::global();
        if !ledger.is_enabled() && !ledger.has_subscribers() {
            return;
        }
        if !lock_unpoisoned(audited_contexts()).insert(ctx) {
            return;
        }
        let tracer = uarch_obs::global();
        let _sp = tracer.span("runner", "runner.audit");
        // The cache stores cycles only, so the audit re-simulates the
        // baseline to recover exec records and stall counters.
        let mut scratch = LaneScratch::new();
        let attribution = Attribution::simulate(config, trace, warm_data, warm_code, &mut scratch);
        let audit = audit_attribution("run", &attribution);
        let run = run.unwrap_or_else(|| ledger.next_run_id());
        ledger.append(&LedgerRecord::Audit(audit.to_record(run)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icost::MultiSimOracle;
    use uarch_trace::{EventClass, Reg, TraceBuilder};

    fn kernel() -> Trace {
        let mut b = TraceBuilder::new();
        for k in 0..25u64 {
            b.load(Reg::int(1), 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[Reg::int(1)]);
        }
        b.finish()
    }

    #[test]
    fn queries_match_serial_oracle() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let d = EventSet::single(EventClass::Dmiss);
        let w = EventSet::single(EventClass::Win);
        let queries = vec![
            Query::Cost(d),
            Query::Icost(d.union(w)),
            Query::IcostOfUnits(vec![d, w]),
        ];
        let runner = Runner::new().with_threads(2);
        let (got, report) = runner.run(&cfg, &t, &queries);

        let mut serial = MultiSimOracle::new(&cfg, &t);
        let expect = vec![
            serial.cost(d),
            icost(&mut serial, d.union(w)),
            icost_of_sets(&mut serial, &[d, w]),
        ];
        assert_eq!(got, expect);
        // The three queries share the {∅, d, w, d∪w} lattice: exactly four
        // distinct simulations regardless of the per-query expansions.
        assert_eq!(report.sims_run, 4);
        assert!(report.jobs_deduped > 0, "cross-query sharing collapsed");
    }

    #[test]
    fn second_batch_is_all_cache_hits() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let u = EventSet::from([EventClass::Dmiss, EventClass::Bmisp]);
        let runner = Runner::new();
        let (first, r1) = runner.run(&cfg, &t, &[Query::Icost(u)]);
        let (second, r2) = runner.run(&cfg, &t, &[Query::Icost(u)]);
        assert_eq!(first, second);
        assert_eq!(r1.sims_run, 4);
        assert_eq!(r2.sims_run, 0, "everything answered from the cache");
        assert!(r2.cache_hits > 0);
    }

    #[test]
    fn run_graph_matches_serial_graph_oracle() {
        let cfg = MachineConfig::table6();
        let t = kernel();
        let res = uarch_sim::Simulator::new(&cfg).run(&t, uarch_sim::Idealization::none());
        let graph = DepGraph::build(&t, &res, &cfg);
        let d = EventSet::single(EventClass::Dmiss);
        let w = EventSet::single(EventClass::Win);
        let queries = vec![
            Query::Cost(d),
            Query::Icost(d.union(w)),
            Query::IcostOfUnits(vec![d, w]),
        ];
        let runner = Runner::new().with_threads(2);
        let (got, _) = runner.run_graph(&graph, &queries);

        let mut serial = icost::GraphOracle::new(&graph);
        let expect = vec![
            serial.cost(d),
            icost(&mut serial, d.union(w)),
            icost_of_sets(&mut serial, &[d, w]),
        ];
        assert_eq!(got, expect);

        // Same runner, same graph content: the shared cache answers the
        // whole second batch without touching the kernel.
        let (second, r2) = runner.run_graph(&graph, &queries);
        assert_eq!(second, expect);
        assert_eq!(r2.sims_run, 0, "all answers from the shared cache");
        assert!(r2.cache_hits > 0);
    }

    #[test]
    fn required_sets_shapes() {
        let d = EventSet::single(EventClass::Dmiss);
        let w = EventSet::single(EventClass::Win);
        assert_eq!(Query::Cost(d).required_sets(), vec![EventSet::EMPTY, d]);
        assert_eq!(Query::Icost(d.union(w)).required_sets().len(), 4);
        let units = Query::IcostOfUnits(vec![d, w]).required_sets();
        assert_eq!(units, vec![EventSet::EMPTY, d, w, d.union(w)]);
    }
}
