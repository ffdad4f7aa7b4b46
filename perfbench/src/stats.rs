//! Order statistics, the `a + b·n` fit, process memory and answer
//! digests.

use std::time::Duration;

/// Latency charged to a request that failed, was refused or timed out:
/// the client's timeout, so a failure counts as over any latency limit.
pub const FAILED_LATENCY_MS: f64 = 10_000.0;

/// Consecutive samples per p99 window: exactly ten lie beyond each
/// window's 99th percentile.
pub const P99_WINDOW: usize = 1_000;

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// order statistics. `values` need not be sorted; it must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of durations, in seconds.
pub fn median_secs(durations: &[Duration]) -> f64 {
    let values: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    median(&values)
}

/// Per-request latencies of one client, failures included.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Record a completed request.
    pub fn ok(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    /// Record a failed request (charged [`FAILED_LATENCY_MS`]).
    pub fn fail(&mut self) {
        self.ms.push(FAILED_LATENCY_MS);
        self.failed += 1;
    }

    /// Requests attempted.
    pub fn count(&self) -> usize {
        self.ms.len()
    }

    /// Requests that failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Sum of every sample, in ms.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Median latency in ms.
    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// 99th-percentile latency in ms, from the quietest window: the
    /// lowest p99 over consecutive [`P99_WINDOW`]-sample windows. Bursts
    /// of interference from outside the program (other tenants of a
    /// shared host) raise some windows' tails; a tail the program causes
    /// itself raises every window's. `None` before the first full window.
    pub fn p99(&self) -> Option<f64> {
        self.ms
            .chunks_exact(P99_WINDOW)
            .map(|w| quantile(w, 0.99))
            .min_by(f64::total_cmp)
    }

    /// The p99 over every sample, failures included (printed beside the
    /// windowed figure).
    pub fn p99_all(&self) -> f64 {
        quantile(&self.ms, 0.99)
    }

    /// Full p99 windows recorded.
    pub fn p99_windows(&self) -> usize {
        self.ms.len() / P99_WINDOW
    }
}

/// Least-squares fit of `y = a + b·x`; returns `(a, b)`. Needs at least
/// two distinct `x` values.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over a stream of answers: a changed answer changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one value in.
    pub fn add(&mut self, v: i64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn fit_recovers_a_line() {
        let (a, b) = fit_line(&[(1.0, 5.0), (1.0, 5.0), (3.0, 9.0)]);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn p99_needs_a_full_window() {
        let mut l = Latencies::default();
        for _ in 0..999 {
            l.ok(Duration::from_millis(1));
        }
        assert!(l.p99().is_none());
        l.fail();
        assert!(l.p99().is_some());
        assert_eq!(l.failed(), 1);
    }
}
