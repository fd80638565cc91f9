//! Open-loop load: a fixed geometric rate ladder and a step-at-a-time
//! search for the highest rung that meets the latency limit.
//!
//! Requests are due in bursts at a coarse tick (every request whose
//! schedule falls inside a tick is due at the tick's start) and the
//! generator sleeps between ticks instead of spinning. Each request is
//! timed from its due time, so a stall is charged to every request it
//! delays.

use std::time::{Duration, Instant};

use crate::stats::now_ns;

/// Rung `k` of the ladder offers `LADDER_BASE * LADDER_RATIO^k` requests/s.
pub const LADDER_BASE: f64 = 100.0;
/// 2% steps: finer than the 25% bound the timed metrics get.
pub const LADDER_RATIO: f64 = 1.02;
/// The generator's tick.
pub const TICK_NS: u64 = 500_000;

/// The offered rate of rung `k`.
#[must_use]
pub fn rung_rate(k: i32) -> f64 {
    LADDER_BASE * LADDER_RATIO.powi(k)
}

/// The highest rung offering at most `rate`.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn rung_at_or_below(rate: f64) -> i32 {
    ((rate / LADDER_BASE).ln() / LADDER_RATIO.ln())
        .floor()
        .max(0.0) as i32
}

/// Due time (ns from the step's start) of request `j` at `rate`: the start
/// of the tick its schedule falls in.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
pub fn due_ns(j: usize, rate: f64) -> u64 {
    let scheduled = (j as f64 * 1e9 / rate) as u64;
    scheduled / TICK_NS * TICK_NS
}

/// Requests due by the end of the tick containing `elapsed_ns`.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
pub fn due_by(elapsed_ns: u64, rate: f64) -> usize {
    let tick_end = (elapsed_ns / TICK_NS + 1) * TICK_NS;
    (tick_end as f64 * rate / 1e9).ceil() as usize
}

/// Sleeps until `elapsed_ns` (since `start_ns`) reaches the next tick.
pub fn sleep_to_next_tick(start_ns: u64) {
    let elapsed = now_ns() - start_ns;
    let next = (elapsed / TICK_NS + 1) * TICK_NS;
    std::thread::sleep(Duration::from_nanos(next - elapsed));
}

/// Runs `f` repeatedly until `budget` has passed (at least once).
pub fn repeat_for(budget: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        f();
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// Rungs that double the offered rate (`1.02^35` is about 2).
const DOUBLING: i32 = 35;

/// Binary search over rungs `lo..hi` for the highest one whose step
/// passes, driven one step at a time so the steps can be spread over a
/// run. It first steps down from `lo` until a rung passes. A failed step
/// is tried once more before it counts, so one burst of outside
/// interference cannot halve the answer. `hi` is only a guess: when the
/// search reaches it without any step having failed, the ceiling doubles
/// and the search goes on, so a capacity above the guess is not clipped.
#[derive(Debug)]
pub struct Ladder {
    lo: i32,
    fail: i32,
    probe: i32,
    floor_found: bool,
    fail_seen: bool,
    retried: bool,
    done: bool,
    best: f64,
    /// `(offered, served)` of every step, `served` `None` on failure.
    pub trail: Vec<(f64, Option<f64>)>,
}

impl Ladder {
    /// A search starting at rung `lo`, with rung `hi` assumed to fail.
    #[must_use]
    pub fn new(lo: i32, hi: i32) -> Self {
        Self {
            lo,
            fail: hi.max(lo + 1),
            probe: lo,
            floor_found: false,
            fail_seen: false,
            retried: false,
            done: false,
            best: 0.0,
            trail: Vec::new(),
        }
    }

    /// The rate to offer next, or `None` once the search has converged.
    #[must_use]
    pub fn next_rate(&self) -> Option<f64> {
        (!self.done).then(|| rung_rate(self.probe))
    }

    /// Records the outcome of the step at [`Ladder::next_rate`]: the rate
    /// it served, or `None` if it failed.
    pub fn report(&mut self, served: Option<f64>) {
        self.trail.push((rung_rate(self.probe), served));
        if served.is_none() && !self.retried {
            self.retried = true;
            return;
        }
        self.retried = false;
        match (self.floor_found, served) {
            (_, Some(s)) => {
                self.floor_found = true;
                self.lo = self.probe;
                self.best = s;
            }
            (false, None) if self.lo == 0 => self.done = true,
            (false, None) => {
                self.lo = (self.lo - 24).max(0);
                self.probe = self.lo;
                return;
            }
            (true, None) => {
                self.fail = self.probe;
                self.fail_seen = true;
            }
        }
        if self.fail - self.lo <= 1 && !self.fail_seen {
            self.fail = self.lo + DOUBLING;
        }
        if self.fail - self.lo > 1 {
            self.probe = self.lo + (self.fail - self.lo) / 2;
        } else {
            self.done = true;
        }
    }

    /// The served rate of the highest passing rung (0 if none passed).
    #[must_use]
    pub fn result(&self) -> f64 {
        self.best
    }

    /// How the search ended, for the metric's note: converged, or cut
    /// short by the run's step budget (then [`Ladder::result`] is a lower
    /// bound, and with no failed step at all it says so).
    #[must_use]
    pub fn status(&self) -> &'static str {
        match (self.done, self.fail_seen) {
            (true, _) => "converged",
            (false, true) => "steps ran out before convergence",
            (false, false) => "steps ran out with no step failing: a lower bound",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_round_trip() {
        for k in [0, 1, 50, 400] {
            let r = rung_rate(k);
            assert_eq!(rung_at_or_below(r * 1.000_001), k);
        }
    }

    /// Drives a ladder against a capacity of rung `cap`, failing the
    /// `spurious`-th step once regardless.
    fn search(lo: i32, hi: i32, cap: i32, spurious: usize) -> Ladder {
        let mut ladder = Ladder::new(lo, hi);
        let mut steps = 0;
        while let Some(rate) = ladder.next_rate() {
            steps += 1;
            let ok = steps != spurious && rate <= rung_rate(cap) * 1.000_001;
            ladder.report(ok.then_some(rate));
            assert!(steps < 100, "ladder did not converge");
        }
        ladder
    }

    #[test]
    fn ladder_finds_the_threshold() {
        let l = search(100, 300, 217, 0);
        assert!((l.result() - rung_rate(217)).abs() < 1e-9);
        // Below the starting rung: steps down first.
        let l = search(200, 300, 150, 0);
        assert!((l.result() - rung_rate(150)).abs() < 1e-9);
        // One spurious failure is retried instead of halving the answer.
        let l = search(100, 300, 250, 2);
        assert!((l.result() - rung_rate(250)).abs() < 1e-9);
        assert!(l.trail.iter().any(|&(_, s)| s.is_none()));
        // A capacity above the guessed ceiling is found, not clipped.
        let l = search(100, 120, 190, 0);
        assert!((l.result() - rung_rate(190)).abs() < 1e-9);
        assert_eq!(l.status(), "converged");
    }

    #[test]
    fn bursts_are_due_at_tick_starts() {
        let rate = 10_000.0; // 5 requests per 500 us tick
        assert_eq!(due_ns(4, rate), 0);
        assert_eq!(due_ns(5, rate), TICK_NS);
        assert_eq!(due_by(0, rate), 5);
    }
}
