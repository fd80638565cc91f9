//! Small measurement helpers: quantiles over raw samples, the
//! slow-state estimators every timed metric goes through, the process's
//! peak resident set, and a monotonic nanosecond clock.
//!
//! # Why timed metrics report the slow state
//!
//! The shared host this benchmark was tuned on flips between a fast and a
//! slow state every second or so (memory-touching work runs up to twice as
//! fast in the fast state; a register-only loop does not move), and the
//! share of time spent in each drifts over minutes. A median follows that
//! share: over 12-second windows of `ip-lpm` passes, the quartiles of the
//! windows' median pass rates were 8% apart (44% for an L2-resident key
//! set), those of their 10th percentiles 5% (6%). Every timed end-to-end
//! metric is therefore taken from samples short enough to fall in one
//! state, at [`SLOW_Q`]. The samples are first scaled to a reference host
//! speed (`crate::calib`), which takes out the slower drift of the host as
//! a whole.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (a shared epoch for
/// spans and latency samples).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `q` quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; sorts in place. `None` when empty.
#[allow(clippy::cast_precision_loss)]
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(samples.len() - 1);
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

/// The median of `samples` (sorts in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// A wall time in ns scaled by a [`crate::calib::Calibration`] factor.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
#[must_use]
pub fn scaled(ns: u64, scale: f64) -> u64 {
    (ns as f64 * scale).round() as u64
}

/// The quantile of times (1 - it, of rates) a timed metric reports.
pub const SLOW_Q: f64 = 0.9;

/// The slow-state figure of rates measured over samples of fixed work:
/// their `1 - SLOW_Q` quantile (sorts in place); 0 when empty.
pub fn slow_rate(rates: &mut [f64]) -> f64 {
    quantile(rates, 1.0 - SLOW_Q).unwrap_or(0.0)
}

/// The slow-state figure of times measured over samples of fixed work:
/// their `SLOW_Q` quantile (sorts in place); 0 when empty.
pub fn slow_time(times: &mut [f64]) -> f64 {
    quantile(times, SLOW_Q).unwrap_or(0.0)
}

/// The medians of consecutive blocks of `block` samples (a last partial
/// block is dropped unless it is the only one), in microseconds. Samples
/// taken back to back fall in one host state, so the slow state of a
/// median latency is [`slow_time`] over these.
#[allow(clippy::cast_precision_loss)]
#[must_use]
pub fn block_medians_us(samples_ns: &[u64], block: usize) -> Vec<f64> {
    let blocks = samples_ns.chunks(block.max(1));
    let whole = samples_ns.len() / block.max(1);
    blocks
        .take(whole.max(1))
        .map(|b| {
            let mut v: Vec<f64> = b.iter().map(|&ns| ns as f64 / 1e3).collect();
            median(&mut v)
        })
        .collect()
}

/// Times of a fixed set of items (queries, entries, key groups), each
/// timed again and again across a run. Every item's composition is the
/// same on every seed, so [`PerItem::slow_times`] is a figure of the
/// program and the host state, not of which items a seed drew.
#[derive(Debug)]
pub struct PerItem {
    samples: Vec<Vec<u64>>,
}

impl PerItem {
    /// An empty record of `items` items.
    #[must_use]
    pub fn new(items: usize) -> Self {
        Self {
            samples: vec![Vec::new(); items],
        }
    }

    /// Records one timing of item `i`.
    pub fn push(&mut self, i: usize, ns: u64) {
        self.samples[i].push(ns);
    }

    /// Timings recorded over all items.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Each timed item's [`slow_time`], in microseconds (items never
    /// timed are left out).
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn slow_times_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let mut v: Vec<f64> = s.iter().map(|&ns| ns as f64 / 1e3).collect();
                slow_time(&mut v)
            })
            .collect()
    }
}

/// Nanosecond samples summarised as `(p50, p99)` in microseconds, with
/// the sample count. Values are exact order statistics (interpolated), not
/// histogram buckets, so they keep all their digits.
#[allow(clippy::cast_precision_loss)]
pub fn p50_p99_us(samples_ns: &[u64]) -> (f64, f64, usize) {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let p50 = quantile(&mut v, 0.5).unwrap_or(0.0);
    let p99 = quantile(&mut v, 0.99).unwrap_or(0.0);
    (p50, p99, samples_ns.len())
}

/// Mean of `total` over `count` (0 when `count` is 0).
#[allow(clippy::cast_precision_loss)]
#[must_use]
pub fn ratio(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&mut v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&mut v, 1.0).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn slow_state_estimators() {
        let mut rates: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((slow_rate(&mut rates) - 2.0).abs() < 1e-12);
        assert!((slow_time(&mut rates) - 10.0).abs() < 1e-12);
        let blocks = block_medians_us(&[1_000, 3_000, 2_000, 8_000, 9_000, 7_000, 5], 3);
        assert_eq!(blocks, vec![2.0, 8.0]);
        assert_eq!(block_medians_us(&[4_000], 16), vec![4.0]);
        let mut items = PerItem::new(3);
        for ns in [1_000, 2_000, 3_000] {
            items.push(0, ns);
        }
        items.push(2, 5_000);
        assert_eq!(items.count(), 4);
        let slow = items.slow_times_us();
        assert_eq!(slow.len(), 2);
        assert!((slow[0] - 2.8).abs() < 1e-12 && (slow[1] - 5.0).abs() < 1e-12);
    }
}
