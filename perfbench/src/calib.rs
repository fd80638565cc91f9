//! Host-speed calibration.
//!
//! The shared host this benchmark was tuned on changes speed under it:
//! within a run it flips between a fast and a slow state every second or
//! so, and over tens of minutes its overall speed moved by a factor of
//! two, for every workload and for set-up alike. No statistic of wall
//! times survives a factor of two, so every timed sample is scaled by the
//! host's speed at that moment, read from a kernel of the benchmark's own
//! that none of the library code runs: sorting a fixed array of 4,096
//! integers. A sample's scaled time is its wall time times
//! `REFERENCE_NS / kernel time`, with the kernel run just before the
//! sample: the time the sample would have taken on a host where the
//! kernel takes [`REFERENCE_NS`].
//!
//! Of the kernels tried (a register-only multiply chain, random loads over
//! 1 MiB and over 16 MiB, `HashMap` probes over 6 MiB, and the sort), the
//! sort tracked the lookups best: over an 8-minute trace in which the
//! median raw `ip-lpm` pass time of 30-second windows moved by 44%
//! (quartiles of the windows 20% apart), the windows' 90th-percentile
//! scaled pass times moved by 7% at most (quartiles 2% apart).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::Metrics;

/// Kernel time the scaled figures refer to, ns (about what the kernel
/// took in the host's slow state).
pub const REFERENCE_NS: f64 = 70_000.0;

/// Integers the kernel sorts.
const LEN: usize = 4_096;

/// The calibration kernel and the times it has taken.
#[derive(Debug)]
pub struct Calibration {
    input: Vec<u32>,
    work: Vec<u32>,
    times_ns: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// The kernel with its fixed input (the same on every seed and run).
    #[must_use]
    pub fn new() -> Self {
        let mut rng = SmallRng::seed_from_u64(0xCA11_B8A7);
        let input: Vec<u32> = (0..LEN).map(|_| rng.gen()).collect();
        Self {
            work: input.clone(),
            input,
            times_ns: Vec::new(),
        }
    }

    /// Runs the kernel once; returns the factor that scales a wall time
    /// taken now to the reference host (`REFERENCE_NS / kernel time`).
    pub fn scale(&mut self) -> f64 {
        self.work.copy_from_slice(&self.input);
        let t = Instant::now();
        self.work.sort_unstable();
        let ns = t.elapsed().as_secs_f64() * 1e9;
        std::hint::black_box(&self.work);
        self.times_ns.push(ns);
        REFERENCE_NS / ns.max(1.0)
    }

    /// The median kernel time of the run in microseconds, and the number
    /// of kernel runs.
    #[must_use]
    pub fn median_us(&self) -> (f64, usize) {
        let mut v = self.times_ns.clone();
        (median(&mut v) / 1e3, v.len())
    }

    /// Prints the run's kernel time as an `info` line, so a scaled figure
    /// can be turned back into a wall time.
    pub fn report(&self, m: &mut Metrics) {
        let (us, n) = self.median_us();
        m.info(
            "calibration_us",
            us,
            "us",
            &format!(
                "median of {n} calibration sorts; timed metrics are scaled to a host \
                 where it takes {} us",
                REFERENCE_NS / 1e3
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_kernel_time() {
        let mut c = Calibration::new();
        let s = c.scale();
        assert!(s.is_finite() && s > 0.0);
        let (us, n) = c.median_us();
        assert_eq!(n, 1);
        assert!((s - REFERENCE_NS / (us * 1e3)).abs() < 1e-9 * s);
        assert!(c.work.windows(2).all(|w| w[0] <= w[1]));
    }
}
