//! Shared experiment harness for regenerating every table and figure of
//! the MICRO-36 2003 interaction-cost paper.
//!
//! Each bench target (`cargo bench -p icost-bench --bench <name>`) prints
//! the reproduced artifact side by side with the paper's published values
//! and checks the paper's *qualitative* claims (signs and orderings of
//! interactions, crossover behaviour) — absolute numbers are not expected
//! to match a different substrate.

#![forbid(unsafe_code)]

pub mod paper;

use std::path::PathBuf;
use std::sync::OnceLock;

use icost::Breakdown;
use uarch_graph::DepGraph;
use uarch_obs::ledger::Ledger;
use uarch_runner::{Backend, Oracle, Runner, SimCache};
use uarch_sim::{Idealization, SimResult, Simulator};
use uarch_trace::{EventClass, MachineConfig, Trace};
use uarch_workloads::{generate, BenchProfile, Workload};

/// Default dynamic-instruction budget per benchmark (override with the
/// `ICOST_BENCH_INSTS` environment variable).
pub const DEFAULT_INSTS: usize = 60_000;
/// Default generation seed.
pub const DEFAULT_SEED: u64 = 2003;

/// Instruction budget from the environment, or [`DEFAULT_INSTS`].
pub fn bench_insts() -> usize {
    bench_insts_or(DEFAULT_INSTS)
}

/// Instruction budget from `ICOST_BENCH_INSTS`, or `default` (benches
/// that run many serial simulations start smaller).
pub fn bench_insts_or(default: usize) -> usize {
    std::env::var("ICOST_BENCH_INSTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Install the process-wide ledger of a gate bench and return its
/// path: the file named by `ICOST_LEDGER_FILE`, else a fresh
/// `<name>_<pid>.jsonl` in the temp directory. The file is truncated
/// first, so the bench's own checks read back only this run's records.
/// The ledger starts enabled.
pub fn gate_ledger(name: &str) -> PathBuf {
    let path = uarch_obs::ledger::ledger_file().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("{name}_{}.jsonl", std::process::id()))
    });
    let _ = std::fs::remove_file(&path);
    uarch_obs::ledger::install_global(Ledger::to_path(&path).expect("open ledger file"));
    path
}

/// Generate one benchmark of the suite.
pub fn workload(name: &str, n: usize, seed: u64) -> Workload {
    generate(
        BenchProfile::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}")),
        n,
        seed,
    )
}

/// Simulate and return (result, graph).
pub fn observe(trace: &Trace, config: &MachineConfig) -> (SimResult, DepGraph) {
    let result = Simulator::new(config).run(trace, Idealization::none());
    let graph = DepGraph::build(trace, &result, config);
    (result, graph)
}

/// Simulate a generated workload with its steady-state warm sets and
/// return (result, graph).
pub fn observe_workload(w: &Workload, config: &MachineConfig) -> (SimResult, DepGraph) {
    let result = Simulator::new(config).run_warmed(
        &w.trace,
        Idealization::none(),
        &w.warm_data,
        &w.warm_code,
    );
    let graph = DepGraph::build(&w.trace, &result, config);
    (result, graph)
}

/// The process-wide simulation-result cache every harness helper feeds.
///
/// Bench targets route all their oracles through this cache (via
/// [`harness_runner`]/[`multisim_oracle`]/[`workload_graph_oracle`]), so sets
/// shared between artifacts in one process are simulated once. Point
/// `ICOST_CACHE_DIR` at a directory to persist results across bench
/// invocations too.
pub fn shared_cache() -> &'static SimCache {
    static CACHE: OnceLock<SimCache> = OnceLock::new();
    CACHE.get_or_init(|| match std::env::var("ICOST_CACHE_DIR") {
        Ok(dir) => disk_cache(&dir).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            SimCache::new()
        }),
        Err(_) => SimCache::new(),
    })
}

/// A cache persisted under `dir`, or the one-line reason it is not.
fn disk_cache(dir: &str) -> Result<SimCache, String> {
    SimCache::with_disk(dir)
        .map_err(|e| format!("icost-bench: ICOST_CACHE_DIR={dir}: {e}; caching in memory only"))
}

/// The evaluation engine all bench targets share: per-core workers plus
/// [`shared_cache`].
pub fn harness_runner() -> Runner {
    Runner::new().with_cache(shared_cache().clone())
}

/// Ground-truth oracle over a generated workload: warmed idealized
/// re-simulation with parallel deduplicated prefetch, feeding the shared
/// cache.
pub fn multisim_oracle<'a>(w: &'a Workload, config: &'a MachineConfig) -> Oracle<'a> {
    harness_runner().oracle(Backend::sim_warmed(
        config,
        &w.trace,
        &w.warm_data,
        &w.warm_code,
    ))
}

/// Cached lane-batched graph oracle over an already-built dependence
/// graph: breakdown prefetch batches run [`MAX_LANES`]
/// (uarch_graph::MAX_LANES) subsets per instruction sweep. The cache
/// context is the *workload*'s graph key (stable across rebuilds, see
/// [`Backend::graph_of`]), so approximate graph results can never alias
/// the multisim ground truth for the same workload.
pub fn workload_graph_oracle<'g>(
    graph: &'g DepGraph,
    w: &Workload,
    config: &MachineConfig,
) -> Oracle<'g> {
    let sim = Backend::sim_warmed(config, &w.trace, &w.warm_data, &w.warm_code);
    harness_runner().oracle(sim.graph_of(graph))
}

/// Graph-based Table-4-style breakdown for one generated workload.
pub fn workload_breakdown(w: &Workload, config: &MachineConfig, focus: EventClass) -> Breakdown {
    let (_, graph) = observe_workload(w, config);
    let mut oracle = workload_graph_oracle(&graph, w, config);
    Breakdown::with_focus(&mut oracle, &EventClass::ALL, focus)
}

/// A qualitative reproduction check, tallied by [`Shape`].
#[derive(Debug, Default)]
pub struct Shape {
    passed: usize,
    failed: usize,
}

impl Shape {
    /// New tally.
    pub fn new() -> Shape {
        Shape::default()
    }

    /// Record one claim; prints PASS/FAIL with the claim text.
    pub fn check(&mut self, claim: &str, ok: bool) {
        if ok {
            self.passed += 1;
            println!("  [PASS] {claim}");
        } else {
            self.failed += 1;
            println!("  [FAIL] {claim}");
        }
    }

    /// Print the summary line; returns true when everything passed.
    pub fn finish(self, artifact: &str) -> bool {
        println!(
            "{artifact}: {}/{} qualitative claims reproduced",
            self.passed,
            self.passed + self.failed
        );
        self.failed == 0
    }
}

/// Render one benchmark's ours-vs-paper pair of rows.
pub fn print_row(name: &str, ours: &[f64], paper: &[f64], headers: &[&str]) {
    print!("{name:<8}");
    for v in ours {
        print!(" {v:>8.1}");
    }
    println!();
    print!("{:<8}", "(paper)");
    for v in paper {
        print!(" {v:>8.1}");
    }
    println!();
    debug_assert_eq!(ours.len(), headers.len());
    debug_assert_eq!(paper.len(), headers.len());
}

/// Print a header line for [`print_row`] tables.
pub fn print_header(headers: &[&str]) {
    print!("{:<8}", "bench");
    for h in headers {
        print!(" {h:>8}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unusable_cache_dir_names_the_variable_path_and_error() {
        // A regular file where the directory should be.
        let path = std::env::temp_dir().join(format!("icost-bench-notadir-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let dir = path.to_str().unwrap();
        let err = std::fs::create_dir_all(&path).unwrap_err().to_string();
        let msg = disk_cache(dir).expect_err("a file is not a cache directory");
        let _ = std::fs::remove_file(&path);
        assert!(msg.contains("ICOST_CACHE_DIR"), "{msg}");
        assert!(msg.contains(dir), "{msg}");
        assert!(msg.contains(&err), "{msg} lacks {err}");
        assert!(!msg.contains('\n'), "one line: {msg}");
    }
}
