//! [`Oracle`] — the runner's one `cost(S)` oracle, over either
//! ground-truth re-simulation or the dependence graph.
//!
//! The paper measures one quantity, `cost(S) = t − t(S)`, two ways: by
//! re-simulating with the events in `S` idealized (the ground truth), and
//! by idealizing the matching edges of the dependence graph (§3), of one
//! graph or summed over a shotgun profile's fragments (§5.2). An oracle
//! does everything around that measurement the same way for both
//! [`Backend`]s:
//!
//! * a [`ContextId`] naming what the answers depend on;
//! * probe-then-dedup of requested sets against the shared [`SimCache`] —
//!   the only memo, so oracles over equal contexts (or, with a disk
//!   cache, later processes) reuse each other's answers;
//! * one [`parallel_map`] wave over the residue: simulation jobs, or lane
//!   groups of at most [`MAX_LANES`] sets swept by the graph kernel over
//!   each graph of the ensemble ([`DepGraph::eval_many_with`],
//!   bit-identical to per-set [`DepGraph::evaluate`]);
//! * `runner.*`/`sim.stall.*` counters, viewed as a [`RunReport`], plus
//!   `graph.*` lane counters on the graph backend;
//! * one run-header record and one job record per answered set in the
//!   run ledger, with the stable result hash the `icost-obs diff`
//!   regression gate compares.
//!
//! Only the evaluation step branches on the backend. The graph's `∅`
//! baseline is one scalar [`DepGraph::evaluate`] per graph on a cache
//! miss: not a lane, not a counted evaluation, and not a ledgered job.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use icost::CostOracle;
use uarch_graph::{DepGraph, LaneScratch, MAX_LANES};
use uarch_obs::ledger::{unix_time_ms, JobRecord, Ledger, LedgerRecord, Provenance, RunHeader};
use uarch_obs::{global, Counter, Registry};
use uarch_sim::{EngineStats, Idealization, PipelineStalls, Simulator};
use uarch_trace::{EventSet, MachineConfig, StableHasher, Trace, WarmSet};

use crate::cache::SimCache;
use crate::fingerprint::{context_id, graph_context_id, ContextId};
use crate::pool::parallel_map;
use crate::report::{Metrics, RunReport};
use crate::run::Query;

/// Stable fingerprint of one job's answer: equal `(set, cycles)` pairs
/// hash equally across runs, machines, and cache tiers — the identity
/// the `icost-obs diff` regression gate compares.
fn result_hash(set: EventSet, cycles: u64) -> String {
    let mut h = StableHasher::default();
    set.bits().hash(&mut h);
    cycles.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Where an [`Oracle`]'s `t(S)` values come from. Each variant carries
/// the [`ContextId`] its answers are cached under, computed once by
/// whoever owns the context; building an oracle never hashes a trace.
#[derive(Debug, Clone, Copy)]
pub enum Backend<'a> {
    /// Ground truth: re-simulate `trace` on `config` with `S` idealized,
    /// after touching `warm_data`/`warm_code` (empty for a cold machine).
    Sim {
        /// The simulated machine.
        config: &'a MachineConfig,
        /// The trace under analysis.
        trace: &'a Trace,
        /// Data addresses warmed before timing.
        warm_data: &'a [u64],
        /// Code addresses warmed before timing.
        warm_code: &'a [u64],
        /// The cache key: [`context_id`] of the four fields above, as
        /// [`Backend::sim_warmed`] computes it.
        ctx: ContextId,
    },
    /// Dependence graphs with `S`'s edges idealized, `t(S)` summed over
    /// them: one graph ([`Backend::graph`], [`Backend::graph_of`]) or a
    /// shotgun profile's fragments ([`Backend::profile`]).
    Graph {
        /// The graphs under analysis.
        graphs: &'a [DepGraph],
        /// The cache key for these graphs' answers.
        ctx: ContextId,
    },
}

impl<'a> Backend<'a> {
    /// Re-simulation after warming `warm_data`/`warm_code`: the one
    /// constructor that fingerprints a simulation context. The trace
    /// keeps its own fingerprint and the warm sets their fold, so after
    /// the first call this costs O(config), not O(insts + warm sets); a
    /// long-lived owner may still keep the result (or its
    /// [`Backend::ctx`]) to skip even that.
    pub fn sim_warmed(
        config: &'a MachineConfig,
        trace: &'a Trace,
        warm_data: &'a WarmSet,
        warm_code: &'a WarmSet,
    ) -> Backend<'a> {
        Backend::Sim {
            config,
            trace,
            warm_data,
            warm_code,
            ctx: context_id(config, trace, warm_data, warm_code),
        }
    }

    /// Re-simulation on a cold machine (no warm sets).
    pub fn sim(config: &'a MachineConfig, trace: &'a Trace) -> Backend<'a> {
        static COLD: WarmSet = WarmSet::new();
        Backend::sim_warmed(config, trace, &COLD, &COLD)
    }

    /// The graph kernel, keyed by the graph's content.
    pub fn graph(graph: &'a DepGraph) -> Backend<'a> {
        Backend::Graph {
            graphs: std::slice::from_ref(graph),
            ctx: graph_context_id(graph),
        }
    }

    /// The graph kernel over a shotgun profile's fragment graphs: every
    /// `t(S)` is the ensemble's sum, keyed by the fragments' content in
    /// pick order (a fragment picked twice counts twice).
    pub fn profile(graphs: &'a [DepGraph]) -> Backend<'a> {
        let mut h = StableHasher::default();
        graphs.iter().for_each(|g| g.fingerprint().hash(&mut h));
        Backend::Graph {
            graphs,
            ctx: ContextId(h.finish()).tagged("profile"),
        }
    }

    /// The graph kernel over `graph`, built from this backend's baseline
    /// simulation and keyed by this context's graph key, so graph
    /// answers about one simulation context share one cache entry
    /// however the graph was rebuilt.
    pub fn graph_of<'g>(&self, graph: &'g DepGraph) -> Backend<'g> {
        Backend::Graph {
            graphs: std::slice::from_ref(graph),
            ctx: self.ctx().graph(),
        }
    }

    /// The cache key this backend's answers live under.
    pub fn ctx(&self) -> ContextId {
        match *self {
            Backend::Sim { ctx, .. } | Backend::Graph { ctx, .. } => ctx,
        }
    }

    fn insts(&self) -> usize {
        match self {
            Backend::Sim { trace, .. } => trace.len(),
            Backend::Graph { graphs, .. } => graphs.iter().map(DepGraph::len).sum(),
        }
    }

    /// Whether evaluating `set` is a job (counted and ledgered). Only
    /// the graph's scalar `∅` baseline is not.
    fn is_job(&self, set: EventSet) -> bool {
        !set.is_empty() || matches!(self, Backend::Sim { .. })
    }
}

/// Live `graph.*` counters (graph backend only).
#[derive(Debug)]
struct LaneMetrics {
    registry: Registry,
    /// Subsets answered by the lane kernel.
    lanes: Counter,
    /// Kernel passes over a graph (one per lane group and graph).
    sweeps: Counter,
    requested: Counter,
    deduped: Counter,
    /// Sets answered from the cache instead of the kernel.
    memo_hits: Counter,
    eval_wall_us: Counter,
}

impl LaneMetrics {
    fn new() -> LaneMetrics {
        let registry = Registry::new();
        LaneMetrics {
            lanes: registry.counter("graph.lanes"),
            sweeps: registry.counter("graph.sweeps"),
            requested: registry.counter("graph.batch.requested"),
            deduped: registry.counter("graph.batch.deduped"),
            memo_hits: registry.counter("graph.batch.memo_hits"),
            eval_wall_us: registry.counter("graph.batch.eval_wall_us"),
            registry,
        }
    }
}

/// One evaluated set: `t(S)`, how long it took, and on the sim backend
/// the run's stall and run-loop telemetry.
struct Eval {
    cycles: u64,
    wall: Duration,
    sim: Option<(PipelineStalls, EngineStats)>,
}

/// A batched, memoized [`CostOracle`] over one [`Backend`]; build it
/// with [`Runner::oracle`](crate::Runner::oracle).
#[derive(Debug)]
pub struct Oracle<'a> {
    backend: Backend<'a>,
    threads: usize,
    cache: SimCache,
    metrics: Metrics,
    lanes: LaneMetrics,
    /// Lane buffers reused by whichever wave worker gets the lock.
    scratch: Mutex<LaneScratch>,
    ledger: Ledger,
    /// Run id under which this oracle's jobs are ledgered; `None` when
    /// the global ledger is off (the off path never reaches it again).
    ledger_run: Option<u64>,
    header_written: bool,
}

impl<'a> Oracle<'a> {
    pub(crate) fn new(backend: Backend<'a>, threads: usize, cache: SimCache) -> Oracle<'a> {
        let ledger = uarch_obs::ledger::global().clone();
        let ledger_run =
            (ledger.is_enabled() || ledger.has_subscribers()).then(|| ledger.next_run_id());
        Oracle {
            backend,
            threads,
            cache,
            metrics: Metrics::new(threads),
            lanes: LaneMetrics::new(),
            scratch: Mutex::new(LaneScratch::new()),
            ledger,
            ledger_run,
            header_written: false,
        }
    }

    /// The cache key this oracle's answers live under.
    pub fn context(&self) -> ContextId {
        self.backend.ctx()
    }

    /// The run id this oracle's records are ledgered under, when the
    /// global run ledger is on.
    pub(crate) fn ledger_run_id(&self) -> Option<u64> {
        self.ledger_run
    }

    /// The live `runner.*`/`sim.stall.*` registry (includes the
    /// per-evaluation cycle histogram the [`RunReport`] view omits).
    pub(crate) fn metrics(&self) -> &Registry {
        self.metrics.registry()
    }

    /// The live `graph.*` registry (lane and sweep counts; zero on the
    /// sim backend).
    pub fn graph_metrics(&self) -> &Registry {
        &self.lanes.registry
    }

    /// A snapshot of the telemetry accumulated so far.
    pub fn report(&self) -> RunReport {
        self.metrics.report()
    }

    /// Answer `queries` as one batch: write the run header, push every
    /// required set through one deduplicated prefetch wave, then answer
    /// each query from the cache, in query order.
    pub fn run(&mut self, queries: &[Query]) -> Vec<i64> {
        self.ensure_header(queries.len());
        if queries.is_empty() {
            return Vec::new();
        }
        let wanted: Vec<EventSet> = {
            let _sp = global().span("runner", "expand");
            queries.iter().flat_map(Query::required_sets).collect()
        };
        self.prefetch(&wanted);
        queries.iter().map(|q| q.answer(self)).collect()
    }

    /// Write this oracle's run-header record once, before its first job
    /// record, so ledger readers can group and context-match the jobs.
    fn ensure_header(&mut self, queries: usize) {
        let Some(run) = self.ledger_run else { return };
        if std::mem::replace(&mut self.header_written, true) {
            return;
        }
        self.ledger.append(&LedgerRecord::Run(RunHeader {
            run,
            ctx: self.context().to_string(),
            queries: queries as u64,
            threads: self.threads as u64,
            insts: self.backend.insts() as u64,
            ts_ms: unix_time_ms(),
            // Stamped by Ledger::append from the causal context.
            trace: String::new(),
        }));
    }

    /// Append one job record to the run ledger (no-op when off).
    fn ledger_job(
        &mut self,
        set: EventSet,
        provenance: Provenance,
        cycles: u64,
        wall: Duration,
        stalls: Option<&PipelineStalls>,
    ) {
        let Some(run) = self.ledger_run else { return };
        if !self.backend.is_job(set) {
            return;
        }
        self.ensure_header(0);
        let stalls = stalls
            .map(|s| {
                s.rows()
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(name, v)| (name.to_string(), *v))
                    .collect()
            })
            .unwrap_or_default();
        self.ledger.append(&LedgerRecord::Job(JobRecord {
            run,
            set: set.to_string(),
            provenance,
            cycles,
            wall_us: wall.as_micros() as u64,
            hash: result_hash(set, cycles),
            stalls,
            // Stamped by Ledger::append from the causal context.
            trace: String::new(),
        }));
    }

    /// `t(set)` from the cache, counted against the tier that served it.
    fn lookup(&mut self, set: EventSet) -> Option<u64> {
        let start = Instant::now();
        let (hit, from_disk) = {
            let _sp = global().span("runner", "cache.probe");
            self.cache.get(self.context(), set)
        };
        let cycles = hit?;
        let tier = if from_disk {
            self.metrics.run.disk_hits.inc();
            Provenance::Disk
        } else {
            self.metrics.run.cache_hits.inc();
            Provenance::Memory
        };
        self.ledger_job(set, tier, cycles, start.elapsed(), None);
        Some(cycles)
    }

    /// `t(set)` via the cache or a one-job wave.
    fn cycles(&mut self, set: EventSet) -> u64 {
        self.metrics.run.jobs_requested.inc();
        match self.lookup(set) {
            Some(cycles) => cycles,
            None => self.wave(&[set])[0],
        }
    }

    /// Evaluate `jobs` (distinct, uncached) in one parallel wave, then
    /// cache, count and ledger every answer. Returns `t(S)` per job.
    fn wave(&mut self, jobs: &[EventSet]) -> Vec<u64> {
        let tracer = global();
        let start = Instant::now();
        let evals = {
            let _wave = if tracer.is_enabled() {
                tracer.span_with("runner", "wave", vec![("jobs", jobs.len().to_string())])
            } else {
                tracer.span("runner", "wave")
            };
            self.evaluate(jobs)
        };
        Metrics::add_wall(&self.metrics.run.sim_wall_us, start.elapsed());
        for (&set, eval) in jobs.iter().zip(&evals) {
            self.cache.insert(self.context(), set, eval.cycles);
            if !self.backend.is_job(set) {
                continue;
            }
            let m = &self.metrics;
            m.run.sims_run.inc();
            m.run.cycles_simulated.add(eval.cycles);
            m.run.insts_simulated.add(self.backend.insts() as u64);
            m.sim_cycles.record(eval.cycles);
            if let Some((stalls, engine)) = &eval.sim {
                m.run.absorb_stalls(stalls);
                m.run.absorb_engine(engine);
            }
            let stalls = eval.sim.as_ref().map(|(stalls, _)| stalls);
            self.ledger_job(set, Provenance::Computed, eval.cycles, eval.wall, stalls);
        }
        evals.iter().map(|e| e.cycles).collect()
    }

    /// The one backend-specific step: `t(S)` for each of `jobs`.
    fn evaluate(&self, jobs: &[EventSet]) -> Vec<Eval> {
        match self.backend {
            Backend::Sim {
                config,
                trace,
                warm_data,
                warm_code,
                ..
            } => {
                // Warming does not depend on the idealization: warm once
                // for the wave, and every job runs from a copy.
                let sim = Simulator::new(config);
                let warm = sim.warm(warm_data, warm_code);
                parallel_map(jobs, self.threads, |&set| {
                    let tracer = global();
                    let _sp = if tracer.is_enabled() {
                        tracer.span_with("runner", "sim", vec![("set", set.to_string())])
                    } else {
                        tracer.span("runner", "sim")
                    };
                    let start = Instant::now();
                    let r = sim.run_from(trace, Idealization::from(set), &warm);
                    Eval {
                        cycles: r.cycles,
                        wall: start.elapsed(),
                        sim: Some((r.stalls, r.engine)),
                    }
                })
            }
            Backend::Graph { graphs, .. } => {
                let lanes: Vec<EventSet> = jobs.iter().copied().filter(|s| !s.is_empty()).collect();
                let groups: Vec<&[EventSet]> = lanes.chunks(MAX_LANES).collect();
                let start = Instant::now();
                let times = parallel_map(&groups, self.threads, |group| {
                    let (mut shared, mut own) = (self.scratch.try_lock().ok(), LaneScratch::new());
                    let scratch = shared.as_deref_mut().unwrap_or(&mut own);
                    let mut sweeps = graphs.iter().map(|g| g.eval_many_with(group, scratch));
                    let mut sums = sweeps.next().unwrap_or_else(|| vec![0; group.len()]);
                    for times in sweeps {
                        sums.iter_mut().zip(times).for_each(|(acc, t)| *acc += t);
                    }
                    sums
                })
                .concat();
                let wall = start.elapsed();
                self.lanes.lanes.add(lanes.len() as u64);
                self.lanes.sweeps.add((groups.len() * graphs.len()) as u64);
                Metrics::add_wall(&self.lanes.eval_wall_us, wall);
                let per_lane = wall / (lanes.len() as u32).max(1);
                let mut times = times.into_iter();
                jobs.iter()
                    .map(|set| Eval {
                        cycles: if set.is_empty() {
                            graphs.iter().map(|g| g.evaluate(EventSet::EMPTY)).sum()
                        } else {
                            times.next().expect("one time per lane")
                        },
                        wall: per_lane,
                        sim: None,
                    })
                    .collect()
            }
        }
    }
}

impl CostOracle for Oracle<'_> {
    fn cost(&mut self, set: EventSet) -> i64 {
        self.metrics.run.queries.inc();
        if set.is_empty() {
            return 0;
        }
        let base = self.cycles(EventSet::EMPTY) as i64;
        base - self.cycles(set) as i64
    }

    fn baseline(&mut self) -> u64 {
        self.metrics.run.queries.inc();
        self.cycles(EventSet::EMPTY)
    }

    /// Expand `sets` into the distinct uncached residue (always
    /// including the `∅` baseline) and evaluate it as one wave.
    fn prefetch(&mut self, sets: &[EventSet]) {
        let expand_start = Instant::now();
        let mut jobs: Vec<EventSet> = Vec::with_capacity(sets.len() + 1);
        let (mut deduped, mut hits) = (0, 0);
        {
            let _dedup = global().span("runner", "dedup");
            for &set in std::iter::once(&EventSet::EMPTY).chain(sets) {
                if jobs.contains(&set) {
                    deduped += 1;
                } else if self.lookup(set).is_some() {
                    hits += 1;
                } else {
                    jobs.push(set);
                }
            }
        }
        self.metrics.run.jobs_requested.add(sets.len() as u64 + 1);
        self.metrics.run.jobs_deduped.add(deduped);
        if matches!(self.backend, Backend::Graph { .. }) {
            self.lanes.requested.add(sets.len() as u64);
            self.lanes.deduped.add(deduped);
            self.lanes.memo_hits.add(hits);
        }
        Metrics::add_wall(&self.metrics.run.expand_wall_us, expand_start.elapsed());
        if !jobs.is_empty() {
            self.wave(&jobs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;
    use uarch_trace::{EventClass, Reg, TraceBuilder};

    fn kernel(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        for k in 0..n {
            b.load(Reg::int(1), 0x10_0000 + k * 4096);
            b.alu(Reg::int(2), &[Reg::int(1)]);
        }
        b.finish()
    }

    fn graph(cfg: &MachineConfig) -> DepGraph {
        let t = kernel(60);
        let res = Simulator::new(cfg).run(&t, Idealization::none());
        DepGraph::build(&t, &res, cfg)
    }

    fn all_subsets() -> Vec<EventSet> {
        (0u16..256).map(|b| EventSet::from_bits(b as u8)).collect()
    }

    #[test]
    fn prefetch_dedupes_and_caches() {
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let mut par = Runner::new().with_threads(2).oracle(Backend::sim(&cfg, &t));
        let a = EventSet::single(EventClass::Dmiss);
        let b = EventSet::single(EventClass::Dl1);
        par.prefetch(&[a, b, a, b, a]);
        let r = par.report();
        assert_eq!(r.sims_run, 3, "∅, a, b"); // baseline + two distinct
        assert_eq!(r.jobs_deduped, 3, "three duplicate requests collapsed");
        // A second identical wave is pure cache hits.
        par.prefetch(&[a, b]);
        let r = par.report();
        assert_eq!(r.sims_run, 3);
        assert_eq!(r.cache_hits, 3);
        // And cost() answers come from cache, not fresh sims.
        let _ = par.cost(a);
        assert_eq!(par.report().sims_run, 3);
    }

    #[test]
    fn report_carries_stalls_and_registry_agrees() {
        let cfg = MachineConfig::table6();
        let t = kernel(20);
        let mut par = Runner::new().with_threads(2).oracle(Backend::sim(&cfg, &t));
        let d = EventSet::single(EventClass::Dmiss);
        par.prefetch(&[d]);
        let r = par.report();
        assert!(
            r.stalls.total() > 0,
            "a miss-heavy kernel must stall somewhere: {:?}",
            r.stalls
        );
        // The baseline run sees the 4 KiB-stride loads miss.
        assert!(r.stalls.load_l2_fill + r.stalls.load_mem_fill > 0);
        // The RunReport view and the raw registry are the same numbers.
        let snap = par.metrics().snapshot();
        assert_eq!(snap.counter("runner.sims_run"), r.sims_run);
        assert_eq!(
            snap.counter("sim.stall.load_mem_fill"),
            r.stalls.load_mem_fill
        );
    }

    #[test]
    fn shared_cache_spans_oracle_instances() {
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let runner = Runner::new();
        let s = EventSet::single(EventClass::Dmiss);
        let first = runner.oracle(Backend::sim(&cfg, &t)).cost(s);
        let mut o2 = runner.oracle(Backend::sim(&cfg, &t));
        assert_eq!(o2.cost(s), first);
        assert_eq!(o2.report().sims_run, 0, "second oracle never simulates");
        assert_eq!(o2.report().cache_hits, 2, "baseline and set both hit");
    }

    #[test]
    fn disk_served_answers_count_as_disk_hits() {
        let dir = std::env::temp_dir().join(format!("oracle-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = MachineConfig::table6();
        let t = kernel(10);
        let s = EventSet::single(EventClass::Dmiss);
        {
            let runner = Runner::new().with_disk_cache(&dir).expect("create");
            let mut o = runner.oracle(Backend::sim(&cfg, &t));
            let _ = o.cost(s);
            let r = o.report();
            assert_eq!((r.sims_run, r.disk_hits), (2, 0));
        }
        // A fresh process: same query, all answers from the disk tier —
        // and the reuse rate reflects that instead of reporting 0%.
        let runner = Runner::new().with_disk_cache(&dir).expect("open");
        let mut o2 = runner.oracle(Backend::sim(&cfg, &t));
        let _ = o2.cost(s);
        let r = o2.report();
        assert_eq!(r.sims_run, 0);
        assert_eq!(r.cache_hits, 0, "memory tier contributed nothing");
        assert_eq!(r.disk_hits, 2, "baseline and set served from disk");
        assert_eq!(r.reuse_rate(), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_counters_and_published_report_agree() {
        let cfg = MachineConfig::table6();
        let t = kernel(20);
        let mut oracle = Runner::new().with_threads(2).oracle(Backend::sim(&cfg, &t));
        let d = EventSet::single(EventClass::Dmiss);
        let dw = EventSet::from([EventClass::Dmiss, EventClass::Win]);
        oracle.prefetch(&[d, dw]);
        let _ = (oracle.cost(d), oracle.cost(dw), oracle.cost(d));
        let counters = |snap: uarch_obs::Snapshot| -> Vec<(String, u64)> {
            let entries = snap.entries().iter();
            entries
                .filter_map(|(name, v)| match v {
                    uarch_obs::SnapshotValue::Counter(c) => Some((name.clone(), *c)),
                    _ => None,
                })
                .collect()
        };
        let live = counters(oracle.metrics().snapshot());
        let report = oracle.report();
        assert_eq!(live, counters(report.to_registry().snapshot()));
        assert!(report.sims_run > 0 && report.cache_hits > 0 && report.stalls.total() > 0);
        assert_eq!(live.len(), 13 + PipelineStalls::default().rows().len());
        let threads = |r: &Registry| r.snapshot().gauge("runner.threads");
        assert_eq!(threads(oracle.metrics()), threads(&report.to_registry()));
    }

    #[test]
    fn metrics_count_lanes_and_sweeps() {
        let cfg = MachineConfig::table6();
        let g = graph(&cfg);
        let mut lattice = Runner::new().with_threads(1).oracle(Backend::graph(&g));
        let sets = all_subsets();
        lattice.prefetch(&sets);
        let snap = lattice.graph_metrics().snapshot();
        // 255 non-empty sets in 16 groups of ≤16 lanes; ∅ is no lane.
        assert_eq!(snap.counter("graph.lanes"), 255);
        assert_eq!(snap.counter("graph.sweeps"), 16);
        assert_eq!(snap.counter("graph.batch.requested"), 256);
        assert_eq!(lattice.report().sims_run, 255);
        // Re-prefetch: all cache hits (∅ twice: implied and listed), no
        // new sweeps.
        lattice.prefetch(&sets);
        let snap = lattice.graph_metrics().snapshot();
        assert_eq!(snap.counter("graph.sweeps"), 16);
        assert_eq!(snap.counter("graph.batch.memo_hits"), 257);
    }

    #[test]
    fn profile_sums_its_fragments_under_its_own_key() {
        let cfg = MachineConfig::table6();
        let g = graph(&cfg);
        let runner = Runner::new().with_threads(1);
        let mut one = runner.oracle(Backend::graph(&g));
        let pair = [g.clone(), g.clone()];
        let mut twice = runner.oracle(Backend::profile(&pair));
        // Duplicate picks count, and the ensemble never reads the single
        // graph's cache entries.
        let d = EventSet::single(EventClass::Dmiss);
        assert_eq!(twice.cost(d), 2 * one.cost(d));
        assert_eq!(twice.report().cache_hits, 0);
        assert_eq!(twice.baseline(), 2 * one.baseline());
        assert_ne!(Backend::profile(&pair[..1]).ctx(), Backend::graph(&g).ctx());
        assert_ne!(Backend::profile(&pair[..1]).ctx(), twice.context());
        twice.prefetch(&all_subsets());
        let snap = twice.graph_metrics().snapshot();
        assert_eq!(
            snap.counter("graph.sweeps"),
            2 * 16 + 2,
            "per group and graph"
        );
    }

    // Ledger-record coverage lives in `tests/graph_ledger.rs` (it must
    // own the process-wide ledger, which unit tests cannot).

    #[test]
    fn graph_context_is_content_addressed() {
        let cfg = MachineConfig::table6();
        let (a, b) = (graph(&cfg), graph(&cfg));
        let ctx = |g| Backend::graph(g).ctx();
        assert_eq!(ctx(&a), ctx(&b), "equal graphs share a context");
        let mut insts = a.insts().to_vec();
        insts[0].ep_dmiss += 1;
        let c = DepGraph::from_parts(insts, *a.params());
        assert_ne!(ctx(&a), ctx(&c), "changed content moves the context");
    }
}
