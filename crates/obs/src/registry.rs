//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with atomic updates and deterministic snapshots.
//!
//! A [`Registry`] is a shared handle (cloning it aliases the same
//! store). Metrics are created get-or-create by name, so independent
//! components can publish into one registry without coordination; the
//! handles they get back ([`Counter`], [`Gauge`], [`Histogram`]) are
//! `Arc`-backed and update lock-free. Snapshots walk the name-sorted
//! store and render to an aligned table, JSON, or CSV — the formats the
//! bench harness and tests consume.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Acquire `m`, recovering from poisoning: the observability stores are
/// sets of independent atomics or append-only buffers, so a panic in
/// one recording thread never leaves them inconsistent — refusing all
/// later snapshots (and wedging `/metrics`, the sampler stop path, or
/// `flush_guard()`) would be strictly worse. Other crates use it for
/// stores with the same property (every update is one insert or push).
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful as a default).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable signed metric (last write wins).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `d` to the value.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds (inclusive) of the finite buckets, strictly
    /// increasing. A final implicit overflow bucket catches the rest.
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples.
///
/// A sample `v` lands in the first bucket whose bound satisfies
/// `v <= bound`, or the overflow bucket when it exceeds every bound —
/// so bucket counts partition the samples and always sum to `count`.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        let slot = c.bounds.partition_point(|&b| b < v);
        c.buckets[slot].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (finite buckets in bound order, then overflow).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The configured finite bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.core.bounds
    }

    fn reset(&self) {
        for b in &self.core.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.core.count.store(0, Ordering::Relaxed);
        self.core.sum.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A shared, thread-safe store of named metrics.
///
/// Metric names are free-form; the dotted `component.metric` convention
/// (`runner.cache_hits`, `sim.stall.fetch_bmisp_recovery`) keeps
/// snapshots grouped, since snapshots are name-sorted.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric
    /// kind — that is always a programming error, and silently handing
    /// back a fresh handle would fork the metric.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The histogram named `name` with the given finite bucket `bounds`
    /// (strictly increasing; an overflow bucket is implicit), created on
    /// first use. Later calls ignore `bounds` and return the existing
    /// histogram.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is not strictly increasing on first registration.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Fold the scalar metrics of `snap` into this registry: counters
    /// add their value, gauges overwrite. Histograms are skipped (their
    /// bucketed counts cannot be replayed through the recording API).
    /// Used to aggregate short-lived per-run registries — e.g. a graph
    /// oracle's `graph.*` counters — into a long-lived serving registry.
    pub fn absorb_scalars(&self, snap: &Snapshot) {
        for (name, value) in snap.entries() {
            match value {
                SnapshotValue::Counter(v) => self.counter(name).add(*v),
                SnapshotValue::Gauge(v) => self.gauge(name).set(*v),
                SnapshotValue::Histogram { .. } => {}
            }
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = lock_unpoisoned(&self.metrics);
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Zero every metric in place. Handles stay valid (they alias the
    /// same atomics), so this is how a long-lived component starts a
    /// fresh measurement interval.
    pub fn reset(&self) {
        let metrics = lock_unpoisoned(&self.metrics);
        for m in metrics.values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.set(0),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.metrics).len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time, name-sorted copy of every metric's value.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = lock_unpoisoned(&self.metrics);
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapshotValue::Histogram {
                            bounds: h.bounds().to_vec(),
                            counts: h.bucket_counts(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's full state.
    Histogram {
        /// Finite bucket bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (finite buckets, then overflow).
        counts: Vec<u64>,
        /// Total samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
    },
}

impl SnapshotValue {
    /// Approximate quantile `q ∈ [0, 1]` of a histogram value, by
    /// linear interpolation inside the bucket holding the target rank
    /// (the classic fixed-bucket estimator Prometheus's
    /// `histogram_quantile` uses). The overflow bucket has no upper
    /// bound, so ranks landing there clamp to the last finite bound.
    /// `None` for non-histograms, empty histograms, or `q` outside
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let SnapshotValue::Histogram {
            bounds,
            counts,
            count,
            ..
        } = self
        else {
            return None;
        };
        if *count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * *count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let before = cumulative;
            cumulative += c;
            if (cumulative as f64) < rank {
                continue;
            }
            let Some(&hi) = bounds.get(i) else {
                // Overflow bucket: clamp to the last finite bound.
                return Some(bounds.last().copied().unwrap_or(0) as f64);
            };
            let lo = if i == 0 { 0 } else { bounds[i - 1] };
            if c == 0 {
                return Some(hi as f64);
            }
            let frac = (rank - before as f64) / c as f64;
            return Some(lo as f64 + (hi - lo) as f64 * frac);
        }
        Some(bounds.last().copied().unwrap_or(0) as f64)
    }
}

/// A point-in-time copy of a [`Registry`], renderable as a table, JSON,
/// or CSV. Entries are sorted by metric name, so every rendering is
/// deterministic for a given set of values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, SnapshotValue)>,
}

impl Snapshot {
    /// The name-sorted `(name, value)` entries.
    pub fn entries(&self) -> &[(String, SnapshotValue)] {
        &self.entries
    }

    /// The value recorded under `name`, if present.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience: the value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(SnapshotValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: the value of gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(SnapshotValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Approximate quantile `q` of histogram `name`
    /// (see [`SnapshotValue::quantile`]); `None` if absent or empty.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.get(name).and_then(|v| v.quantile(q))
    }

    /// Render as an aligned two-column table (histograms take one line
    /// per bucket).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .entries
            .iter()
            .map(|(n, _)| n.len() + 10)
            .max()
            .unwrap_or(24)
            .max(24);
        let mut row = |k: &str, v: String| {
            let _ = writeln!(out, "  {k:<width$} {v:>14}");
        };
        for (name, value) in &self.entries {
            match value {
                SnapshotValue::Counter(v) => row(name, v.to_string()),
                SnapshotValue::Gauge(v) => row(name, v.to_string()),
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    row(&format!("{name}.count"), count.to_string());
                    row(&format!("{name}.sum"), sum.to_string());
                    for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        if let Some(est) = value.quantile(q) {
                            row(&format!("{name}.{label}"), format!("~{}", est.round()));
                        }
                    }
                    for (i, c) in counts.iter().enumerate() {
                        let label = match bounds.get(i) {
                            Some(b) => format!("{name}[le={b}]"),
                            None => format!("{name}[le=+inf]"),
                        };
                        row(&label, c.to_string());
                    }
                }
            }
        }
        out
    }

    /// Render as a JSON object with `counters`, `gauges`, and
    /// `histograms` sections (each name-sorted).
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, value) in &self.entries {
            match value {
                SnapshotValue::Counter(v) => {
                    json_member(&mut counters, name, &v.to_string());
                }
                SnapshotValue::Gauge(v) => {
                    json_member(&mut gauges, name, &v.to_string());
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let body = format!(
                        "{{\"bounds\": {}, \"counts\": {}, \"count\": {count}, \"sum\": {sum}}}",
                        json_u64_array(bounds),
                        json_u64_array(counts),
                    );
                    json_member(&mut histograms, name, &body);
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{counters}}},\n  \"gauges\": {{{gauges}}},\n  \"histograms\": {{{histograms}}}\n}}\n"
        )
    }

    /// Render as CSV with header `name,type,value`. Histograms expand to
    /// `histogram_count` / `histogram_sum` rows plus one `bucket` row
    /// per bucket (`name[le=BOUND]`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,type,value\n");
        for (name, value) in &self.entries {
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{name},gauge,{v}");
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let _ = writeln!(out, "{name},histogram_count,{count}");
                    let _ = writeln!(out, "{name},histogram_sum,{sum}");
                    for (i, c) in counts.iter().enumerate() {
                        let label = match bounds.get(i) {
                            Some(b) => format!("{name}[le={b}]"),
                            None => format!("{name}[le=+inf]"),
                        };
                        let _ = writeln!(out, "{label},bucket,{c}");
                    }
                }
            }
        }
        out
    }
}

fn json_member(out: &mut String, name: &str, raw_value: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(out, "{}: {raw_value}", crate::json::quote(name));
}

fn json_u64_array(vs: &[u64]) -> String {
    let inner: Vec<String> = vs.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.hits").get(), 5, "handles alias by name");
        let g = r.gauge("a.level");
        g.set(-3);
        g.add(1);
        assert_eq!(g.get(), -2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn histogram_buckets_partition_samples() {
        let r = Registry::new();
        let h = r.histogram("lat", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5222);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("h", &[1]);
        c.add(7);
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("n"), 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat", &[10, 100, 1000]);
        // 10 samples in [0,10], 10 in (10,100].
        for _ in 0..10 {
            h.record(5);
            h.record(50);
        }
        let snap = r.snapshot();
        // p50 at rank 10 = exactly the top of the first bucket.
        assert_eq!(snap.quantile("lat", 0.5), Some(10.0));
        // p100 tops out the occupied range.
        assert_eq!(snap.quantile("lat", 1.0), Some(100.0));
        // p75 = rank 15, 5/10 into the (10,100] bucket.
        assert_eq!(snap.quantile("lat", 0.75), Some(55.0));
        // Overflow clamps to the last finite bound.
        h.record(u64::MAX);
        assert_eq!(r.snapshot().quantile("lat", 1.0), Some(1000.0));
        // Empty histograms and non-histograms answer None.
        r.histogram("empty", &[1]);
        let snap = r.snapshot();
        assert_eq!(snap.quantile("empty", 0.5), None);
        r.counter("c").inc();
        assert_eq!(r.snapshot().quantile("c", 0.5), None);
        // The table render carries the derived rows.
        assert!(r.snapshot().to_table().contains("lat.p95"));
    }

    #[test]
    fn poisoned_registry_recovers() {
        let r = Registry::new();
        r.counter("before").inc();
        // A panic while the store lock is held (bad histogram bounds
        // inside get-or-create) poisons the mutex; later callers must
        // recover instead of propagating the panic forever.
        let r2 = r.clone();
        let result = std::panic::catch_unwind(move || {
            let _ = r2.histogram("bad", &[10, 5]);
        });
        assert!(result.is_err(), "non-increasing bounds must panic");
        r.counter("after").inc();
        assert_eq!(r.snapshot().counter("before"), 1);
        assert_eq!(r.snapshot().counter("after"), 1);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
