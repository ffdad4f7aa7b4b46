//! The repository's performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! With `--trace 0` a run measures one workload end to end and prints
//! the end-to-end metrics `BENCHMARK.json` lists; with `--trace 1` it
//! times calls into each crate's public functions from this file set and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). Every answer the program gives is
//! checked against a reference computed in-process. `--self-test` runs
//! every workload at a tiny size in both modes and checks that each
//! metric `BENCHMARK.json` names is emitted, finite and in its unit.
//! `perfbench/interactions.json` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod client;
mod layers;
mod served;
mod stats;
mod stream;
mod sweep;
mod workloads;

use std::time::{Duration, Instant};

use uarch_obs::json::{self, Value};

/// Runner worker threads, fixed so the load does not follow the host's
/// core count (the header prints `nproc` beside it).
pub const RUNNER_THREADS: usize = 2;

/// Server accept workers.
pub const ACCEPT_WORKERS: usize = 2;

/// No timed phase runs longer than this, so a run ends well within its
/// time limit even when the tail percentile still lacks samples.
const HARD_CAP: Duration = Duration::from_secs(90);

/// Set-ups run at least this often; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;

/// Cheap set-ups repeat until this much time has passed, so their
/// median rests on enough samples to be steady.
const SETUP_MIN: Duration = Duration::from_secs(1);

/// Upper bound on set-up repetitions.
const SETUP_MAX_REPS: usize = 50;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Instructions per profile in `sweep`.
    pub sweep_insts: usize,
    /// Instructions of the served `gcc` trace.
    pub serve_insts: usize,
    /// Instructions of the `mcf` trace one ingest pass streams.
    pub ingest_insts: usize,
    /// Instructions per `POST /ingest` request.
    pub chunk: usize,
    /// Ingest retirement window, in instructions.
    pub window: usize,
    /// Requests in the seeded query stream.
    pub stream_len: usize,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        sweep_insts: 20_000,
        serve_insts: 40_000,
        ingest_insts: 50_000,
        chunk: 1_000,
        window: 1_024,
        stream_len: 256,
    };

    /// The self-test size.
    pub const TINY: Scale = Scale {
        sweep_insts: 2_000,
        serve_insts: 4_000,
        ingest_insts: 6_000,
        chunk: 500,
        window: 256,
        stream_len: 32,
    };
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep", "serve", "ingest"];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, timed out or answered
    /// wrongly.
    pub failed: u64,
    /// Wrong answers (also counted in `failed`).
    pub wrong: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record the first few failure messages (the rest are only counted).
    pub fn failure(&mut self, msg: impl Into<String>) {
        if self.failed < 5 {
            self.notes.push(format!("FAILED: {}", msg.into()));
        }
        self.failed += 1;
    }

    /// The peak-RSS metric, read at the end of the run.
    pub fn peak_rss(&mut self) -> Result<(), String> {
        self.metric("peak_rss_mb", stats::peak_rss_mb()?, "MB");
        Ok(())
    }
}

/// Run `make` at least [`SETUP_MIN_REPS`] times and until [`SETUP_MIN`]
/// has passed, dropping each result before the next; return the last
/// result and the median set-up time in seconds.
pub fn set_up<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_MIN && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(make()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// When a timed phase may stop: after `seconds`, once every latency
/// distribution has a full [`stats::P99_WINDOW`], or at [`HARD_CAP`].
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget starting now.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether the phase is over, given each distribution's sample count.
    pub fn done(&self, samples: &[usize]) -> bool {
        let elapsed = self.start.elapsed();
        elapsed >= HARD_CAP
            || (elapsed.as_secs_f64() >= self.seconds
                && samples.iter().all(|&n| n >= stats::P99_WINDOW))
    }

    /// Time since the phase started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Run one workload in one mode.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<Outcome, String> {
    match (workload, trace) {
        ("sweep", false) => sweep::run(scale, seed, seconds),
        ("serve", false) => workloads::serve(scale, seed, seconds),
        ("ingest", false) => workloads::ingest(scale, seed, seconds),
        (w, true) if WORKLOADS.contains(&w) => layers::run(w, scale, seed, seconds),
        (w, _) => Err(format!("unknown workload {w:?} (want sweep|serve|ingest)")),
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    ))
}

/// Remove every `ICOST_*` variable, so no ledger replay, trace file,
/// disk cache, audit or engine override reaches the program. Returns
/// the names removed.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ICOST_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The commit, when run from a git work tree (a plain checkout has no
/// `.git` and reports `unknown`).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn header(cleared: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: commit={} nproc={nproc} runner_threads={RUNNER_THREADS} accept_workers={ACCEPT_WORKERS} \
         profile={} rustflags={:?} avx2={} avx512f={} cleared={:?}",
        commit(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTFLAGS"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "avx512f"),
        cleared,
    )
}

/// The metric names (and units) `BENCHMARK.json` lists for a mode.
fn listed_metrics(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("{key} entry without name or unit: {}", m.render())),
            }
        })
        .collect()
}

/// Run every workload at [`Scale::TINY`] in both modes and check each
/// listed metric is emitted exactly, finite, in its unit, with no
/// failed operation. Returns the number of problems found.
fn self_test() -> Result<usize, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let mut problems = 0;
    let map = std::fs::read_to_string("perfbench/interactions.json")
        .map_err(|e| format!("reading perfbench/interactions.json: {e}"))?;
    let map = json::parse(&map).map_err(|e| format!("perfbench/interactions.json: {e}"))?;
    for (name, unit) in listed_metrics(&spec, "per_layer")? {
        let mapped = map
            .get("per_layer")
            .and_then(|m| m.get(&name))
            .and_then(|m| m.get("unit"))
            .and_then(Value::as_str);
        if mapped != Some(unit.as_str()) {
            println!(
                "self-test: {name} ({unit}) has no matching entry in perfbench/interactions.json"
            );
            problems += 1;
        }
    }
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = listed_metrics(&spec, key)?;
            let start = Instant::now();
            let outcome = run(workload, 1, 1.0, trace, &Scale::TINY)?;
            let mut issues = Vec::new();
            if outcome.failed != 0 {
                issues.push(format!("{} operations failed", outcome.failed));
            }
            for (name, unit) in &want {
                match outcome.metrics.iter().find(|m| &m.0 == name) {
                    None => issues.push(format!("{name} missing")),
                    Some((_, v, u)) if !v.is_finite() => {
                        issues.push(format!("{name} = {v}, unit {u}"))
                    }
                    Some((_, _, u)) if u != unit => {
                        issues.push(format!("{name} in {u}, listed {unit}"))
                    }
                    Some(_) => {}
                }
            }
            for (name, _, _) in &outcome.metrics {
                if !want.iter().any(|w| &w.0 == name) {
                    issues.push(format!("{name} emitted but not listed"));
                }
            }
            println!(
                "self-test {workload:<6} trace={} {:>5.1}s: {}",
                u8::from(trace),
                start.elapsed().as_secs_f64(),
                if issues.is_empty() {
                    "ok".to_string()
                } else {
                    issues.join("; ")
                }
            );
            problems += issues.len();
        }
    }
    Ok(problems)
}

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: want {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let cleared = pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("{}", header(&cleared));
    if args.first().map(String::as_str) == Some("--self-test") {
        match self_test() {
            Ok(0) => println!("self-test: ok"),
            Ok(n) => {
                println!("self-test: {n} problem(s)");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let outcome = parse_args(&args).and_then(|(workload, seed, seconds, trace)| {
        println!(
            "run: workload={workload} seed={seed} seconds={seconds} trace={}",
            u8::from(trace)
        );
        let outcome = run(&workload, seed, seconds, trace, &Scale::FULL)?;
        let line = result_json(&outcome)?;
        Ok((outcome, line))
    });
    match outcome {
        Ok((outcome, line)) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!(
                "failed_frac {:.6} ({} of {} operations)",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.failed,
                outcome.attempted
            );
            for (name, value, unit) in &outcome.metrics {
                println!("metric {name:<36} {value:>14.4} {unit}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
