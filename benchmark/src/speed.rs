//! The speedometer: how fast this machine is *right now*.
//!
//! The sandbox's speed moves by ±15 % over seconds to minutes (same seed,
//! same code, process CPU time equal to wall time: contention inside the
//! host's cores, which no guest can see or stop). Every time and rate the
//! benchmark reports is therefore divided by the speed of a fixed kernel of
//! the benchmark's own, sampled throughout the timed window on the
//! generator's thread: numbers read "at nominal machine speed". The kernel
//! is the benchmark's, not the program's, so no change to the program can
//! move it.

use std::time::{Duration, Instant};

/// The kernel's time on this class of machine when it is undisturbed.
/// Only a scale: it makes normalised numbers read like wall-clock ones.
pub const NOMINAL_MS: f64 = 0.65;

/// Least time between two samples taken by [`Speedometer::tick`]: the
/// kernel then costs at most ~3 % of one core.
const EVERY: Duration = Duration::from_millis(25);

/// A fixed mixed kernel (xorshift-indexed reads of a 512 KiB table feeding
/// a multiply-add chain) and the samples taken with it.
#[derive(Debug)]
pub struct Speedometer {
    table: Vec<f64>,
    last: Option<Instant>,
    /// `(the caller's clock in seconds, kernel time in ms)`.
    pub samples: Vec<(f64, f64)>,
}

impl Default for Speedometer {
    fn default() -> Self {
        Self::new()
    }
}

impl Speedometer {
    pub fn new() -> Self {
        Self {
            table: (0..1 << 16).map(|i| i as f64 * 0.5).collect(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and records its time against `at_s`, the
    /// caller's window clock.
    pub fn sample(&mut self, at_s: f64) {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0.0;
        for i in 0..200_000_u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += self.table[(x & 0xffff) as usize] * i as f64;
        }
        std::hint::black_box(acc);
        let end = Instant::now();
        self.last = Some(end);
        self.samples
            .push((at_s, end.duration_since(start).as_secs_f64() * 1e3));
    }

    /// [`Speedometer::sample`], unless the last sample is younger than
    /// [`EVERY`].
    pub fn tick(&mut self, at_s: f64) {
        if self.last.is_none_or(|last| last.elapsed() >= EVERY) {
            self.sample(at_s);
        }
    }
}
