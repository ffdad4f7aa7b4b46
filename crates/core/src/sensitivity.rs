//! Conventional sensitivity studies (paper Section 4.3, Figure 3).
//!
//! A sensitivity study varies one or more machine parameters over a range
//! through repeated simulation. The paper uses one to *validate* icost
//! conclusions: a serial interaction between the window and the L1 latency
//! predicts that enlarging the window helps more at higher L1 latency —
//! which the sweep confirms. This module runs those sweeps.

use uarch_sim::{Idealization, Simulator};
use uarch_trace::{MachineConfig, Trace};

/// One sweep curve: speedups (percent) of each window size relative to the
/// first, at a fixed secondary-parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCurve {
    /// The secondary-parameter value this curve was measured at (e.g. L1
    /// latency).
    pub param: u64,
    /// Window sizes swept.
    pub windows: Vec<usize>,
    /// Speedup of each window relative to the first, in percent
    /// (`100 · (t_first / t_w − 1)`); the first entry is 0.
    pub speedup_percent: Vec<f64>,
}

impl SweepCurve {
    /// Speedup (%) at window `w`, if it was swept.
    pub fn speedup_at(&self, w: usize) -> Option<f64> {
        self.windows
            .iter()
            .position(|&x| x == w)
            .map(|i| self.speedup_percent[i])
    }
}

/// Run the Figure 3 study: for each secondary-parameter value, sweep the
/// window size and measure speedup relative to the smallest window.
/// `apply` installs the secondary parameter into the configuration.
/// Every run first touches `warm_data`/`warm_code` (the workload's
/// steady-state cache contents; pass `&[]` for cold caches).
///
/// # Panics
/// Panics if `windows` is empty.
pub fn window_sweep(
    trace: &Trace,
    warm_data: &[u64],
    warm_code: &[u64],
    base: &MachineConfig,
    windows: &[usize],
    params: &[u64],
    apply: impl Fn(MachineConfig, u64) -> MachineConfig,
) -> Vec<SweepCurve> {
    assert!(!windows.is_empty(), "need at least one window size");
    params
        .iter()
        .map(|&p| {
            let cycles: Vec<u64> = windows
                .iter()
                .map(|&w| {
                    let cfg = apply(base.clone(), p).with_window(w);
                    Simulator::new(&cfg).cycles_warmed(
                        trace,
                        Idealization::none(),
                        warm_data,
                        warm_code,
                    )
                })
                .collect();
            let first = cycles[0] as f64;
            SweepCurve {
                param: p,
                windows: windows.to_vec(),
                speedup_percent: cycles
                    .iter()
                    .map(|&c| {
                        if c == 0 {
                            0.0
                        } else {
                            100.0 * (first / c as f64 - 1.0)
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Render curves as a small text table (windows as columns).
pub fn render_curves(label: &str, curves: &[SweepCurve]) -> String {
    let mut out = String::new();
    let Some(first) = curves.first() else {
        return out;
    };
    out.push_str(&format!("{:<12}", label));
    for w in &first.windows {
        out.push_str(&format!(" {:>9}", format!("win={w}")));
    }
    out.push('\n');
    for c in curves {
        out.push_str(&format!("{:<12}", c.param));
        for s in &c.speedup_percent {
            out.push_str(&format!(" {:>8.1}%", s));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_trace::{Reg, TraceBuilder};

    /// A window-pressure kernel: a hot loop of independent memory misses,
    /// so a bigger window exposes more memory-level parallelism.
    fn window_bound_kernel() -> Trace {
        let mut b = TraceBuilder::new();
        let r1 = Reg::int(1);
        b.counted_loop(200, Reg::int(9), |b, k| {
            b.load(r1, 0x10_0000 + k as u64 * 4096);
            b.alu(Reg::int(10), &[r1]);
            b.alu(Reg::int(11), &[Reg::int(10)]);
        });
        b.finish()
    }

    /// Figure 3's cold sweep: window size at each L1 latency.
    fn window_vs_dl1(windows: &[usize], latencies: &[u64]) -> Vec<SweepCurve> {
        let t = window_bound_kernel();
        let cfg = MachineConfig::table6();
        window_sweep(&t, &[], &[], &cfg, windows, latencies, |cfg, lat| {
            cfg.with_dl1_latency(lat)
        })
    }

    #[test]
    fn bigger_window_speeds_up_miss_streams() {
        let curves = window_vs_dl1(&[64, 128], &[2]);
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].speedup_percent[0], 0.0);
        assert!(
            curves[0].speedup_percent[1] > 0.0,
            "window 128 should beat 64: {:?}",
            curves[0].speedup_percent
        );
        assert_eq!(
            curves[0].speedup_at(128),
            Some(curves[0].speedup_percent[1])
        );
        assert_eq!(curves[0].speedup_at(999), None);
    }

    #[test]
    fn render_produces_table() {
        let curves = window_vs_dl1(&[64, 128], &[1, 4]);
        let s = render_curves("dl1", &curves);
        assert!(s.contains("win=128"));
        assert!(s.lines().count() >= 3);
        assert!(render_curves("x", &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_windows_rejected() {
        let _ = window_vs_dl1(&[], &[2]);
    }
}
