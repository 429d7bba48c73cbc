//! Measurement-noise model.
//!
//! The paper executes every code variant five times and reports the median
//! execution time. Our substrate is analytical, so to exercise the same
//! measurement protocol (and to make the RL training face realistic,
//! slightly noisy rewards) this module perturbs estimated times with
//! multiplicative log-normal-ish noise and reproduces the
//! median-of-N-runs procedure.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A reproducible measurement-noise source.
#[derive(Debug, Clone)]
pub struct MeasurementNoise {
    rng: ChaCha8Rng,
    /// Relative standard deviation of one measurement (the paper observes
    /// about ±5% run-to-run variation).
    pub relative_sigma: f64,
}

impl MeasurementNoise {
    /// Creates a noise source with the given seed and a default ±3% per-run
    /// jitter.
    pub fn new(seed: u64) -> Self {
        Self::with_sigma(seed, 0.03)
    }

    /// Creates a noise source with an explicit relative standard deviation.
    pub fn with_sigma(seed: u64, relative_sigma: f64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            relative_sigma,
        }
    }

    /// One noisy "execution" of a code variant with true time `time_s`.
    pub fn measure_once(&mut self, time_s: f64) -> f64 {
        if self.relative_sigma == 0.0 {
            return time_s;
        }
        // Sum of uniforms approximates a Gaussian; keep it strictly positive.
        let u: f64 = (0..4).map(|_| self.rng.gen_range(-1.0..1.0)).sum::<f64>() / 4.0;
        let factor = (1.0 + self.relative_sigma * u).max(0.5);
        time_s * factor
    }

    /// Runs the measurement `runs` times and returns the median, matching
    /// the paper's protocol (5 runs, median).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn measure_median(&mut self, time_s: f64, runs: usize) -> f64 {
        assert!(runs > 0, "at least one run is required");
        let mut samples: Vec<f64> = (0..runs).map(|_| self.measure_once(time_s)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        samples[samples.len() / 2]
    }
}

/// Median of a slice of times (helper shared by the benchmark harness).
///
/// Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    Some(sorted[sorted.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_exact() {
        let mut n = MeasurementNoise::with_sigma(0, 0.0);
        assert_eq!(n.measure_once(1.5), 1.5);
        assert_eq!(n.measure_median(1.5, 5), 1.5);
    }

    #[test]
    fn noise_is_reproducible_for_same_seed() {
        let mut a = MeasurementNoise::new(42);
        let mut b = MeasurementNoise::new(42);
        for _ in 0..10 {
            assert_eq!(a.measure_once(1.0), b.measure_once(1.0));
        }
    }

    #[test]
    fn noise_stays_within_reasonable_bounds() {
        let mut n = MeasurementNoise::with_sigma(7, 0.05);
        for _ in 0..1000 {
            let t = n.measure_once(1.0);
            assert!(t > 0.8 && t < 1.2, "noisy time {t} out of bounds");
        }
    }

    #[test]
    fn median_of_runs_is_close_to_truth() {
        let mut n = MeasurementNoise::with_sigma(3, 0.05);
        let med = n.measure_median(2.0, 5);
        assert!((med - 2.0).abs() / 2.0 < 0.05);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        MeasurementNoise::new(0).measure_median(1.0, 0);
    }
}
