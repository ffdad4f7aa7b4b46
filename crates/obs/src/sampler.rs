//! The counter-track sampler: a background thread that periodically
//! snapshots one or more metrics [`Registry`]s into Chrome trace-event
//! counter (`ph:"C"`) samples, so `sim.stall.*` accumulation, cache
//! hit rates, and pool occupancy render as time-series tracks in
//! Perfetto alongside the span tree.
//!
//! The sampler is a guard: [`CounterSampler::start`] spawns the thread,
//! dropping the guard stops it and takes one final sample, so even a
//! run shorter than the interval gets every metric's closing value on
//! its track. Sampling is snapshot-based (the registries' own atomic
//! reads), so it never perturbs the instrumented code beyond the
//! snapshot locks.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::{lock_unpoisoned, Registry, SnapshotValue};
use crate::span::Tracer;

/// How often the runner samples its registries while a run is traced.
pub const COUNTER_INTERVAL: Duration = Duration::from_micros(2_500);

/// Stop flag shared with the sampler thread. A condvar (not a plain
/// sleep) so dropping the guard interrupts a pending interval instead
/// of waiting it out — short runs must not pay a whole interval on
/// teardown.
#[derive(Debug, Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A running counter-track sampler; dropping it stops the thread after
/// one final sample.
#[derive(Debug)]
pub struct CounterSampler {
    stop: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl CounterSampler {
    /// Start sampling every registry in `registries` into `tracer`
    /// every `interval` until the returned guard drops.
    pub fn start(tracer: Tracer, registries: Vec<Registry>, interval: Duration) -> CounterSampler {
        let stop = Arc::new(StopSignal::default());
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("icost-counter-sampler".into())
            .spawn(move || {
                loop {
                    Self::sample(&tracer, &registries);
                    // Poison-recovering locks: a client thread that
                    // panicked mid-snapshot must not wedge the stop
                    // path (the flag itself is always consistent).
                    let guard = lock_unpoisoned(&thread_stop.stopped);
                    let (guard, _) = thread_stop
                        .cv
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .unwrap_or_else(|e| e.into_inner());
                    if *guard {
                        break;
                    }
                }
                // Closing sample: the tracks end on the final values.
                Self::sample(&tracer, &registries);
            })
            .expect("spawn counter-sampler thread");
        CounterSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Record one sample of every metric in every registry.
    fn sample(tracer: &Tracer, registries: &[Registry]) {
        for registry in registries {
            let snap = registry.snapshot();
            for (name, value) in snap.entries() {
                match value {
                    SnapshotValue::Counter(v) => {
                        tracer.counter("metrics", name.clone(), *v as f64);
                    }
                    SnapshotValue::Gauge(v) => {
                        tracer.counter("metrics", name.clone(), *v as f64);
                    }
                    SnapshotValue::Histogram { count, .. } => {
                        tracer.counter("metrics", format!("{name}.count"), *count as f64);
                    }
                }
            }
            // Derived track: the live cache hit rate, when this looks
            // like a runner registry.
            let reused = snap.counter("runner.cache_hits_mem")
                + snap.counter("runner.cache_hits_disk")
                + snap.counter("runner.jobs_deduped");
            let answered = reused + snap.counter("runner.sims_run");
            if answered > 0 {
                tracer.counter(
                    "metrics",
                    "runner.reuse_pct",
                    100.0 * reused as f64 / answered as f64,
                );
            }
        }
    }
}

impl Drop for CounterSampler {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.stop.stopped) = true;
        self.stop.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_emits_counter_tracks_and_final_values() {
        let tracer = Tracer::enabled();
        let registry = Registry::new();
        let hits = registry.counter("runner.cache_hits_mem");
        let sims = registry.counter("runner.sims_run");
        registry.gauge("runner.inflight").set(3);
        {
            let _sampler = CounterSampler::start(
                tracer.clone(),
                vec![registry.clone()],
                Duration::from_micros(200),
            );
            hits.add(3);
            sims.inc();
            // The final sample on drop captures these even if the
            // interval never elapsed.
        }
        let events = tracer.events();
        let samples: Vec<_> = events.iter().filter(|e| e.phase == 'C').collect();
        assert!(!samples.is_empty(), "no counter samples recorded");
        let last_hits = samples
            .iter()
            .rev()
            .find(|e| e.name == "runner.cache_hits_mem")
            .expect("hits track present");
        assert_eq!(last_hits.value, Some(3.0));
        let reuse = samples
            .iter()
            .rev()
            .find(|e| e.name == "runner.reuse_pct")
            .expect("derived reuse track present");
        assert_eq!(reuse.value, Some(75.0), "3 of 4 answers reused");
        assert!(samples.iter().any(|e| e.name == "runner.inflight"));
        // The export with counter tracks is still a valid document.
        assert!(crate::json::parse(&tracer.export_json()).is_ok());
    }
}
