//! Sample statistics, wall-clock helpers, the query burst and peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cdrw_graph::VertexId;

/// Runs `f` once and returns its result with the elapsed wall-clock seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of `samples` with linear interpolation between order
/// statistics (NaN for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (NaN for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The mean of the faster half of `samples` (NaN for no samples).
pub fn faster_half_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    mean(&sorted[..sorted.len().div_ceil(2)])
}

/// `numerator / denominator`, or 0 when nothing was attempted.
pub fn share(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Mean nanoseconds per `lookup` over a burst of at least `min` wall-clock
/// time, cycling through `order`.
pub fn query_burst(
    order: &[VertexId],
    min: Duration,
    lookup: impl Fn(VertexId) -> Option<usize>,
) -> f64 {
    let mut queries = 0u64;
    let mut checksum = 0usize;
    let start = Instant::now();
    loop {
        for &v in order {
            checksum = checksum.wrapping_add(lookup(black_box(v)).unwrap_or(usize::MAX));
        }
        queries += order.len() as u64;
        if start.elapsed() >= min {
            break;
        }
    }
    black_box(checksum);
    start.elapsed().as_secs_f64() * 1e9 / queries as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert!((quantile(&samples, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(mean(&samples), 2.5);
        assert_eq!(faster_half_mean(&samples), 1.5);
        assert_eq!(faster_half_mean(&[3.0, 1.0, 2.0]), 1.5);
        assert!(faster_half_mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }
}
