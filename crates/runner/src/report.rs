//! Run telemetry: what the engine actually did, printable as a table
//! and exportable as JSON/CSV.
//!
//! The counters live in a [`uarch_obs::Registry`] — the oracles update
//! registry-backed atomic handles ([`Metrics`]) while they work, and
//! [`RunReport`] is a plain-struct *view* over a snapshot of that
//! registry, so existing call sites (`report.sims_run`, `absorb`,
//! `to_table`) keep working while the same numbers are streamable
//! through the metrics layer.

use std::time::Duration;

use uarch_obs::{Counter, Gauge, Histogram, Registry};
use uarch_sim::{EngineStats, PipelineStalls};

/// Bucket bounds for the per-simulation cycle-count histogram.
const SIM_CYCLES_BOUNDS: [u64; 6] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Handles to the run counters in one registry. Every `runner.*` and
/// `sim.*` counter name is spelled here once, for both the live
/// [`Metrics`] and [`RunReport::publish`].
#[derive(Debug)]
pub(crate) struct RunCounters {
    pub queries: Counter,
    pub jobs_requested: Counter,
    pub jobs_deduped: Counter,
    pub cache_hits: Counter,
    pub disk_hits: Counter,
    pub sims_run: Counter,
    pub cycles_simulated: Counter,
    pub insts_simulated: Counter,
    pub threads: Gauge,
    pub expand_wall_us: Counter,
    pub sim_wall_us: Counter,
    /// One counter per [`PipelineStalls`] row, in row order.
    stalls: Vec<Counter>,
    /// Cycles the event scheduler actually ticked (`sim.event.ticks`).
    engine_ticks: Counter,
    /// Idle cycles jumped over without running the stage functions
    /// (`sim.skipped_cycles`; always 0 under the ticking engine).
    engine_skipped: Counter,
    /// Idle spans bulk-attributed in one next-event jump each
    /// (`sim.event.spans`).
    engine_spans: Counter,
}

impl RunCounters {
    /// Look up (or create) each counter in `registry`, once per name.
    fn bind(registry: &Registry) -> RunCounters {
        RunCounters {
            queries: registry.counter("runner.queries"),
            jobs_requested: registry.counter("runner.jobs_requested"),
            jobs_deduped: registry.counter("runner.jobs_deduped"),
            cache_hits: registry.counter("runner.cache_hits_mem"),
            disk_hits: registry.counter("runner.cache_hits_disk"),
            sims_run: registry.counter("runner.sims_run"),
            cycles_simulated: registry.counter("runner.cycles_simulated"),
            insts_simulated: registry.counter("runner.insts_simulated"),
            threads: registry.gauge("runner.threads"),
            expand_wall_us: registry.counter("runner.expand_wall_us"),
            sim_wall_us: registry.counter("runner.sim_wall_us"),
            stalls: PipelineStalls::default()
                .rows()
                .iter()
                .map(|(name, _)| registry.counter(&format!("sim.stall.{name}")))
                .collect(),
            engine_ticks: registry.counter("sim.event.ticks"),
            engine_skipped: registry.counter("sim.skipped_cycles"),
            engine_spans: registry.counter("sim.event.spans"),
        }
    }

    /// Add one simulation's stall counters.
    pub fn absorb_stalls(&self, stalls: &PipelineStalls) {
        for (counter, (_, v)) in self.stalls.iter().zip(stalls.rows()) {
            counter.add(v);
        }
    }

    /// Add one simulation's run-loop telemetry (ticked vs skipped).
    pub fn absorb_engine(&self, engine: &EngineStats) {
        self.engine_ticks.add(engine.ticked_cycles);
        self.engine_skipped.add(engine.skipped_cycles);
        self.engine_spans.add(engine.idle_spans);
    }
}

/// Registry-backed live counters for one oracle. This is what the
/// engine actually increments; [`Metrics::report`] snapshots it into a
/// [`RunReport`].
#[derive(Debug)]
pub(crate) struct Metrics {
    registry: Registry,
    /// The run counters, bound in `registry`.
    pub run: RunCounters,
    /// Distribution of per-simulation cycle counts.
    pub sim_cycles: Histogram,
}

impl Metrics {
    /// Fresh metrics in a fresh registry.
    pub fn new(threads: usize) -> Metrics {
        let registry = Registry::new();
        let m = Metrics {
            run: RunCounters::bind(&registry),
            sim_cycles: registry.histogram("runner.sim_cycles", &SIM_CYCLES_BOUNDS),
            registry,
        };
        m.run.threads.set(threads as i64);
        m
    }

    /// The registry the counters live in (for full snapshots that
    /// include the histogram).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Add `d` to a wall-time counter, in whole microseconds.
    pub fn add_wall(counter: &Counter, d: Duration) {
        counter.add(d.as_micros() as u64);
    }

    /// Snapshot the live counters into a plain [`RunReport`] view.
    pub fn report(&self) -> RunReport {
        let c = &self.run;
        let mut stall_values = [0u64; 10];
        for (slot, counter) in stall_values.iter_mut().zip(&c.stalls) {
            *slot = counter.get();
        }
        let snap = self.registry.snapshot();
        let quantile = |q: f64| {
            snap.quantile("runner.sim_cycles", q)
                .map(|v| v.round() as u64)
                .unwrap_or(0)
        };
        RunReport {
            queries: c.queries.get(),
            jobs_requested: c.jobs_requested.get(),
            jobs_deduped: c.jobs_deduped.get(),
            cache_hits: c.cache_hits.get(),
            disk_hits: c.disk_hits.get(),
            sims_run: c.sims_run.get(),
            cycles_simulated: c.cycles_simulated.get(),
            insts_simulated: c.insts_simulated.get(),
            threads: c.threads.get().max(0) as usize,
            expand_wall: Duration::from_micros(c.expand_wall_us.get()),
            sim_wall: Duration::from_micros(c.sim_wall_us.get()),
            sim_cycles_p50: quantile(0.50),
            sim_cycles_p95: quantile(0.95),
            sim_cycles_p99: quantile(0.99),
            stalls: PipelineStalls::from_row_values(stall_values),
            engine: EngineStats {
                ticked_cycles: c.engine_ticks.get(),
                skipped_cycles: c.engine_skipped.get(),
                idle_spans: c.engine_spans.get(),
            },
        }
    }
}

/// Counters and phase timings for one oracle / batch run.
///
/// Every `cost(S)` request ends in exactly one of: answered from memory
/// or disk (`cache_hits`/`disk_hits`), collapsed onto an identical
/// in-flight or already-requested job (`jobs_deduped`), or simulated
/// (`sims_run`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// `cost`/`baseline` queries answered (including trivial `∅` ones).
    pub queries: u64,
    /// Simulation jobs requested before dedup/cache screening.
    pub jobs_requested: u64,
    /// Requests collapsed because an identical job was already requested
    /// in the same batch or answered earlier.
    pub jobs_deduped: u64,
    /// Requests answered by in-memory entries this process computed.
    pub cache_hits: u64,
    /// Requests answered by entries the on-disk cache layer contributed.
    pub disk_hits: u64,
    /// Cycle-level simulations actually executed.
    pub sims_run: u64,
    /// Total simulated cycles across `sims_run`.
    pub cycles_simulated: u64,
    /// Total dynamic instructions fed to the simulator.
    pub insts_simulated: u64,
    /// Worker threads available to parallel waves.
    pub threads: usize,
    /// Wall time spent expanding/deduplicating/screening queries.
    pub expand_wall: Duration,
    /// Wall time spent inside simulation waves (parallel or inline).
    pub sim_wall: Duration,
    /// Approximate median per-simulation cycle count, interpolated from
    /// the fixed-bucket `runner.sim_cycles` histogram (0 before any
    /// simulation).
    pub sim_cycles_p50: u64,
    /// Approximate 95th-percentile per-simulation cycle count.
    pub sim_cycles_p95: u64,
    /// Approximate 99th-percentile per-simulation cycle count.
    pub sim_cycles_p99: u64,
    /// Simulated-machine pipeline stalls, summed over every simulation
    /// this report covers (idealized runs included).
    pub stalls: PipelineStalls,
    /// Run-loop telemetry summed over every simulation: cycles actually
    /// ticked vs skipped by the discrete-event scheduler, and how many
    /// idle spans were bulk-attributed.
    pub engine: EngineStats,
}

impl RunReport {
    /// A zeroed report for `threads` workers.
    pub fn new(threads: usize) -> RunReport {
        RunReport {
            threads,
            ..RunReport::default()
        }
    }

    /// Fold another report's counters and timings into this one.
    pub fn absorb(&mut self, other: &RunReport) {
        self.queries += other.queries;
        self.jobs_requested += other.jobs_requested;
        self.jobs_deduped += other.jobs_deduped;
        self.cache_hits += other.cache_hits;
        self.disk_hits += other.disk_hits;
        self.sims_run += other.sims_run;
        self.cycles_simulated += other.cycles_simulated;
        self.insts_simulated += other.insts_simulated;
        self.threads = self.threads.max(other.threads);
        self.expand_wall += other.expand_wall;
        self.sim_wall += other.sim_wall;
        // Percentiles are not additive across batches; keep the
        // pessimistic (larger) tail estimate.
        self.sim_cycles_p50 = self.sim_cycles_p50.max(other.sim_cycles_p50);
        self.sim_cycles_p95 = self.sim_cycles_p95.max(other.sim_cycles_p95);
        self.sim_cycles_p99 = self.sim_cycles_p99.max(other.sim_cycles_p99);
        self.stalls.absorb(&other.stalls);
        self.engine.absorb(&other.engine);
    }

    /// Fraction of non-empty requests that skipped simulation, in
    /// `[0, 1]`; `None` before any requests. Disk-served answers are
    /// reused work, so they count toward reuse exactly like memory hits
    /// and dedups.
    pub fn reuse_rate(&self) -> Option<f64> {
        let reused = self.jobs_deduped + self.cache_hits + self.disk_hits;
        let answered = reused + self.sims_run;
        if answered == 0 {
            return None;
        }
        Some(reused as f64 / answered as f64)
    }

    /// Per-tier breakdown of [`RunReport::reuse_rate`]: the fractions of
    /// answered requests served by in-memory hits, disk hits, and dedup
    /// collapses respectively (each in `[0, 1]`; they sum to the merged
    /// reuse rate). `None` before any requests.
    pub fn reuse_split(&self) -> Option<(f64, f64, f64)> {
        let answered = self.jobs_deduped + self.cache_hits + self.disk_hits + self.sims_run;
        if answered == 0 {
            return None;
        }
        let frac = |n: u64| n as f64 / answered as f64;
        Some((
            frac(self.cache_hits),
            frac(self.disk_hits),
            frac(self.jobs_deduped),
        ))
    }

    /// Publish every counter into `registry` (adding to whatever is
    /// already there, so absorbing several reports accumulates).
    pub fn publish(&self, registry: &Registry) {
        let c = RunCounters::bind(registry);
        c.queries.add(self.queries);
        c.jobs_requested.add(self.jobs_requested);
        c.jobs_deduped.add(self.jobs_deduped);
        c.cache_hits.add(self.cache_hits);
        c.disk_hits.add(self.disk_hits);
        c.sims_run.add(self.sims_run);
        c.cycles_simulated.add(self.cycles_simulated);
        c.insts_simulated.add(self.insts_simulated);
        c.threads.set(self.threads as i64);
        Metrics::add_wall(&c.expand_wall_us, self.expand_wall);
        Metrics::add_wall(&c.sim_wall_us, self.sim_wall);
        c.absorb_stalls(&self.stalls);
        c.absorb_engine(&self.engine);
        if self.sims_run > 0 {
            // Gauges, not counters: a later batch's estimate replaces
            // (does not sum with) the earlier one.
            registry
                .gauge("runner.sim_cycles_p50")
                .set(self.sim_cycles_p50 as i64);
            registry
                .gauge("runner.sim_cycles_p95")
                .set(self.sim_cycles_p95 as i64);
            registry
                .gauge("runner.sim_cycles_p99")
                .set(self.sim_cycles_p99 as i64);
        }
    }

    /// The report as a standalone metrics registry (the snapshot/JSON/
    /// CSV substrate).
    pub fn to_registry(&self) -> Registry {
        let registry = Registry::new();
        self.publish(&registry);
        registry
    }

    /// Render as a JSON metrics snapshot.
    pub fn to_json(&self) -> String {
        self.to_registry().snapshot().to_json()
    }

    /// Render as a CSV metrics snapshot.
    pub fn to_csv(&self) -> String {
        self.to_registry().snapshot().to_csv()
    }

    /// Render as an aligned two-column table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| out.push_str(&format!("  {k:<24} {v:>14}\n"));
        row("queries", self.queries.to_string());
        row("jobs requested", self.jobs_requested.to_string());
        row("jobs deduped", self.jobs_deduped.to_string());
        row("cache hits (memory)", self.cache_hits.to_string());
        row("cache hits (disk)", self.disk_hits.to_string());
        row("simulations run", self.sims_run.to_string());
        row("cycles simulated", self.cycles_simulated.to_string());
        row("insts simulated", self.insts_simulated.to_string());
        row("threads", self.threads.to_string());
        row("expand wall", format!("{:.3?}", self.expand_wall));
        row("simulate wall", format!("{:.3?}", self.sim_wall));
        if self.sims_run > 0 && self.sim_cycles_p50 > 0 {
            row("sim cycles p50", format!("~{}", self.sim_cycles_p50));
            row("sim cycles p95", format!("~{}", self.sim_cycles_p95));
            row("sim cycles p99", format!("~{}", self.sim_cycles_p99));
        }
        if let (Some(r), Some((mem, disk, dedup))) = (self.reuse_rate(), self.reuse_split()) {
            row("reuse rate", format!("{:.1}%", 100.0 * r));
            row("  reuse from memory", format!("{:.1}%", 100.0 * mem));
            row("  reuse from disk", format!("{:.1}%", 100.0 * disk));
            row("  reuse from dedup", format!("{:.1}%", 100.0 * dedup));
        }
        if self.stalls.total() > 0 {
            out.push_str("  simulated-machine stalls by cause:\n");
            for (name, v) in self.stalls.rows() {
                if v > 0 {
                    out.push_str(&format!("    stall.{name:<20} {v:>14}\n"));
                }
            }
        }
        if self.engine.skipped_cycles > 0 {
            out.push_str(&format!(
                "  {:<24} {:>14}\n  {:<24} {:>14}\n",
                "cycles skipped", self.engine.skipped_cycles, "idle spans", self.engine.idle_spans
            ));
        }
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = RunReport::new(2);
        a.sims_run = 3;
        a.cache_hits = 1;
        a.stalls.issue_fu_busy = 2;
        let mut b = RunReport::new(4);
        b.sims_run = 2;
        b.jobs_deduped = 5;
        b.stalls.issue_fu_busy = 3;
        a.absorb(&b);
        assert_eq!(a.sims_run, 5);
        assert_eq!(a.jobs_deduped, 5);
        assert_eq!(a.threads, 4);
        assert_eq!(a.stalls.issue_fu_busy, 5);
        // (1 + 5) reused of the 11 answered requests.
        assert!((a.reuse_rate().unwrap() - 6.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_rate_counts_disk_hits_as_reuse() {
        // Regression for the disk-layer bug: two disk-served answers and
        // two fresh simulations is a 50% reuse rate, not 0%.
        let mut r = RunReport::new(1);
        r.disk_hits = 2;
        r.sims_run = 2;
        assert_eq!(r.reuse_rate(), Some(0.5));
        // All-disk runs are 100% reuse.
        let mut all_disk = RunReport::new(1);
        all_disk.disk_hits = 4;
        assert_eq!(all_disk.reuse_rate(), Some(1.0));
    }

    #[test]
    fn reuse_split_separates_tiers_and_sums_to_rate() {
        let mut r = RunReport::new(1);
        r.cache_hits = 3;
        r.disk_hits = 2;
        r.jobs_deduped = 1;
        r.sims_run = 4;
        let (mem, disk, dedup) = r.reuse_split().unwrap();
        assert!((mem - 0.3).abs() < 1e-9);
        assert!((disk - 0.2).abs() < 1e-9);
        assert!((dedup - 0.1).abs() < 1e-9);
        assert!((mem + disk + dedup - r.reuse_rate().unwrap()).abs() < 1e-9);
        assert_eq!(RunReport::new(1).reuse_split(), None);
        // The table carries the split rows, not just the merged rate.
        let t = r.to_table();
        assert!(t.contains("reuse from memory"));
        assert!(t.contains("reuse from disk"));
        assert!(t.contains("reuse from dedup"));
        assert!(t.contains("30.0%") && t.contains("20.0%") && t.contains("10.0%"));
    }

    #[test]
    fn table_lists_every_counter() {
        let r = RunReport::new(8);
        let t = r.to_table();
        for key in [
            "queries",
            "jobs requested",
            "jobs deduped",
            "cache hits (memory)",
            "cache hits (disk)",
            "simulations run",
            "threads",
        ] {
            assert!(t.contains(key), "missing {key} in:\n{t}");
        }
        assert!(r.reuse_rate().is_none());
        // Stall section appears only when stalls were recorded.
        assert!(!t.contains("stall."));
        let mut s = RunReport::new(1);
        s.stalls.dispatch_window_full = 9;
        assert!(s.to_table().contains("stall.dispatch_window_full"));
    }

    #[test]
    fn metrics_snapshot_roundtrips_to_report() {
        let m = Metrics::new(3);
        m.run.queries.add(2);
        m.run.sims_run.inc();
        m.run.cycles_simulated.add(1234);
        m.sim_cycles.record(1234);
        m.run.absorb_stalls(&PipelineStalls {
            load_mem_fill: 7,
            ..PipelineStalls::default()
        });
        let r = m.report();
        assert_eq!(r.queries, 2);
        assert_eq!(r.sims_run, 1);
        assert_eq!(r.cycles_simulated, 1234);
        assert_eq!(r.threads, 3);
        assert_eq!(r.stalls.load_mem_fill, 7);
    }

    #[test]
    fn report_carries_sim_cycle_percentiles() {
        let m = Metrics::new(1);
        // 100 samples spread across the first bucket (bound 1_000): the
        // estimates interpolate within it and order correctly.
        for _ in 0..100 {
            m.run.sims_run.inc();
            m.sim_cycles.record(500);
        }
        let r = m.report();
        assert!(r.sim_cycles_p50 > 0);
        assert!(r.sim_cycles_p50 <= r.sim_cycles_p95);
        assert!(r.sim_cycles_p95 <= r.sim_cycles_p99);
        assert!(r.sim_cycles_p99 <= 1_000, "all samples in first bucket");
        let t = r.to_table();
        assert!(t.contains("sim cycles p50"), "table renders p50:\n{t}");
        assert!(t.contains("sim cycles p99"));
        // Publishing exposes the estimates as gauges.
        let reg = r.to_registry();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("runner.sim_cycles_p50"), r.sim_cycles_p50 as i64);
        assert_eq!(snap.gauge("runner.sim_cycles_p99"), r.sim_cycles_p99 as i64);
        // absorb keeps the larger tail estimate.
        let mut a = r.clone();
        let mut b = RunReport::new(1);
        b.sim_cycles_p99 = 5_000_000;
        a.absorb(&b);
        assert_eq!(a.sim_cycles_p99, 5_000_000);
        // A report with no simulations renders no percentile rows and
        // publishes no gauges.
        let empty = RunReport::new(1);
        assert!(!empty.to_table().contains("sim cycles p50"));
        assert_eq!(
            empty
                .to_registry()
                .snapshot()
                .gauge("runner.sim_cycles_p50"),
            0
        );
    }

    #[test]
    fn report_exports_parse_and_carry_values() {
        let mut r = RunReport::new(2);
        r.sims_run = 4;
        r.stalls.fetch_bmisp_recovery = 11;
        let doc = uarch_obs::json::parse(&r.to_json()).expect("valid JSON");
        let counters = doc.get("counters").expect("counters section");
        assert_eq!(
            counters.get("runner.sims_run").and_then(|v| v.as_num()),
            Some(4.0)
        );
        assert_eq!(
            counters
                .get("sim.stall.fetch_bmisp_recovery")
                .and_then(|v| v.as_num()),
            Some(11.0)
        );
        let csv = r.to_csv();
        assert!(csv.starts_with("name,type,value\n"));
        assert!(csv.contains("runner.sims_run,counter,4"));
    }
}
