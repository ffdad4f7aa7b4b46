//! Calibration harness: our Table 4a shape vs the paper's, per benchmark.
//! Oracles run through the shared runner cache, so re-running with
//! `ICOST_CACHE_DIR` set skips every already-measured benchmark.
use icost::Breakdown;
use icost_bench::paper::TABLE4A;
use icost_bench::{observe_workload, workload, workload_graph_oracle};
use uarch_trace::{EventClass, MachineConfig};

fn main() {
    let _flush = uarch_obs::flush_guard();
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let cfg = MachineConfig::table6().with_dl1_latency(4);
    println!(
        "{:<8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>8} {:>8} {:>8} {:>8}",
        "bench",
        "dl1",
        "win",
        "bw",
        "bmisp",
        "dmiss",
        "shalu",
        "lgalu",
        "imiss",
        "dl1+win",
        "dl1+bw",
        "dl1+bm",
        "dl1+sa"
    );
    for col in &TABLE4A {
        let w = workload(col.name, n, 2003);
        let (_, graph) = observe_workload(&w, &cfg);
        let mut o = workload_graph_oracle(&graph, &w, &cfg);
        let b = Breakdown::with_focus(&mut o, &EventClass::ALL, EventClass::Dl1);
        let g = |l: &str| b.percent(l).unwrap_or(f64::NAN);
        println!("{:<8} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            col.name, g("dl1"), g("win"), g("bw"), g("bmisp"), g("dmiss"), g("shalu"), g("lgalu"), g("imiss"),
            g("dl1+win"), g("dl1+bw"), g("dl1+bmisp"), g("dl1+shalu"));
        println!("{:<8} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}   <- paper",
            "", col.base[0], col.base[1], col.base[2], col.base[3], col.base[4], col.base[5], col.base[6], col.base[7],
            col.dl1_pairs[0], col.dl1_pairs[1], col.dl1_pairs[2], col.dl1_pairs[4]);
    }
    if let Ok(Some(path)) = uarch_obs::flush_global() {
        println!("trace written to {}", path.display());
    }
}
