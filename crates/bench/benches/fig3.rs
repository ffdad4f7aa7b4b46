//! Figure 3: speedup from increasing window size at different level-one
//! cache latencies — the sensitivity study that validates the serial
//! dl1+win interaction (paper Section 4.3). Also reproduces the
//! Section 4.2 corollary: window speedup grows with the issue-wakeup
//! latency.

use icost::sensitivity::{render_curves, window_sweep, SweepCurve};
use icost_bench::paper::{FIG3_SPEEDUP_64_TO_128, WAKEUP_SPEEDUP_64_TO_128};
use icost_bench::{bench_insts, workload, Shape};
use uarch_trace::MachineConfig;

fn main() {
    let _flush = uarch_obs::flush_guard();
    let n = bench_insts();
    let windows = [64usize, 128, 256];
    let mut shape = Shape::new();

    println!("Figure 3 — window-size speedup (%) vs window, per L1 latency, {n} insts");
    println!("(the paper plots gap; in this suite the serial dl1+win interaction is");
    println!(" strongest for vortex, so vortex carries the dl1 sweep — see EXPERIMENTS.md)\n");
    let vortex = workload("vortex", n, icost_bench::DEFAULT_SEED);
    let dl1_curves = window_sweep(
        &vortex.trace,
        &vortex.warm_data,
        &vortex.warm_code,
        &MachineConfig::table6(),
        &windows,
        &[1, 2, 4],
        |cfg, lat| cfg.with_dl1_latency(lat),
    );
    println!("vortex, by L1 latency:");
    println!("{}", render_curves("dl1 lat", &dl1_curves));

    let s64_128 = |curves: &[SweepCurve], param: u64| {
        curves
            .iter()
            .find(|c| c.param == param)
            .and_then(|c| c.speedup_at(128))
            .unwrap_or(f64::NAN)
    };
    let lo = s64_128(&dl1_curves, 1);
    let hi = s64_128(&dl1_curves, 4);
    println!(
        "window 64->128 speedup: {lo:.1}% at dl1=1 vs {hi:.1}% at dl1=4 \
         (paper: {:.0}% vs {:.0}%)\n",
        FIG3_SPEEDUP_64_TO_128.0, FIG3_SPEEDUP_64_TO_128.1
    );
    shape.check(
        "growing the window helps more at higher L1 latency (serial dl1+win corollary)",
        hi > lo && lo > 0.0,
    );
    shape.check(
        "speedup grows monotonically with window size at dl1=4",
        dl1_curves
            .iter()
            .find(|c| c.param == 4)
            .map(|c| c.speedup_percent.windows(2).all(|w| w[1] >= w[0]))
            .unwrap_or(false),
    );

    // Section 4.2 corollary: issue-wakeup latency (strongest for the
    // chain-bound gzip in this suite).
    let gzip = workload("gzip", n, icost_bench::DEFAULT_SEED);
    let wake_curves = window_sweep(
        &gzip.trace,
        &gzip.warm_data,
        &gzip.warm_code,
        &MachineConfig::table6(),
        &windows,
        &[1, 2],
        |cfg, wk| cfg.with_issue_wakeup(wk),
    );
    println!("gzip, by issue-wakeup latency:");
    println!("{}", render_curves("wakeup", &wake_curves));
    let w1 = s64_128(&wake_curves, 1);
    let w2 = s64_128(&wake_curves, 2);
    println!(
        "window 64->128 speedup: {w1:.1}% at wakeup=1 vs {w2:.1}% at wakeup=2 \
         (paper: {:.0}% vs {:.0}%)\n",
        WAKEUP_SPEEDUP_64_TO_128.0, WAKEUP_SPEEDUP_64_TO_128.1
    );
    shape.check(
        "growing the window helps more at higher issue-wakeup latency (serial shalu+win corollary)",
        w2 > w1 && w1 > 0.0,
    );

    // The same sweep from cold caches must agree on the qualitative
    // conclusion.
    let lib_curves = window_sweep(
        &vortex.trace,
        &[],
        &[],
        &MachineConfig::table6(),
        &[64, 128],
        &[1, 4],
        |cfg, lat| cfg.with_dl1_latency(lat),
    );
    shape.check(
        "library window_sweep agrees (cold caches)",
        s64_128(&lib_curves, 4) > s64_128(&lib_curves, 1),
    );
    if let Ok(Some(path)) = uarch_obs::flush_global() {
        println!("trace written to {}", path.display());
    }
    std::process::exit(i32::from(!shape.finish("Figure 3")));
}
