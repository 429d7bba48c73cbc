//! Reward functions (Sec. IV-C).
//!
//! The reward of an episode is the natural logarithm of the speedup of the
//! optimized code over the baseline, so that per-step rewards accumulate
//! additively into the log of the end-to-end speedup. The paper's default
//! delivers the whole reward at the terminal step (*final reward*); the
//! ablation of Fig. 7 also delivers incremental rewards after every step
//! (*immediate reward*), which requires one cost evaluation per step.

use crate::config::RewardMode;

/// Log-speedup of `new_time` relative to `old_time`.
///
/// Positive when the new code is faster. Returns 0 for non-positive inputs.
pub fn log_speedup(old_time_s: f64, new_time_s: f64) -> f64 {
    if old_time_s <= 0.0 || new_time_s <= 0.0 {
        return 0.0;
    }
    (old_time_s / new_time_s).ln()
}

/// Computes the per-step reward.
///
/// * `mode` — final or immediate reward;
/// * `is_terminal` — whether this step ends the episode;
/// * `baseline_s` — execution time of the unoptimized module;
/// * `previous_s` — execution time before this step;
/// * `current_s` — execution time after this step.
///
/// With [`RewardMode::Final`], every non-terminal step gets 0 and the
/// terminal step gets `ln(baseline / current)`. With
/// [`RewardMode::Immediate`], every step gets `ln(previous / current)`, so
/// the per-episode sum telescopes to the same total.
pub fn step_reward(
    mode: RewardMode,
    is_terminal: bool,
    baseline_s: f64,
    previous_s: f64,
    current_s: f64,
) -> f64 {
    match mode {
        RewardMode::Final => {
            if is_terminal {
                log_speedup(baseline_s, current_s)
            } else {
                0.0
            }
        }
        RewardMode::Immediate => log_speedup(previous_s, current_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_speedup_basic_properties() {
        assert!((log_speedup(2.0, 1.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(log_speedup(1.0, 2.0) < 0.0);
        assert_eq!(log_speedup(0.0, 1.0), 0.0);
        assert_eq!(log_speedup(1.0, 0.0), 0.0);
        assert!((log_speedup(8.0, 2.0).exp() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn final_reward_only_at_terminal_step() {
        assert_eq!(step_reward(RewardMode::Final, false, 10.0, 8.0, 4.0), 0.0);
        let terminal = step_reward(RewardMode::Final, true, 10.0, 8.0, 4.0);
        assert!((terminal - (10.0f64 / 4.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn immediate_rewards_telescope_to_final() {
        // Three steps: 10 -> 8 -> 5 -> 2.
        let times = [10.0, 8.0, 5.0, 2.0];
        let mut total = 0.0;
        for i in 1..times.len() {
            total += step_reward(
                RewardMode::Immediate,
                i == times.len() - 1,
                times[0],
                times[i - 1],
                times[i],
            );
        }
        let final_only = step_reward(RewardMode::Final, true, times[0], times[2], times[3]);
        assert!((total - final_only).abs() < 1e-12);
        assert!((total.exp() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn immediate_reward_can_be_negative() {
        // A step that slows the code down is penalized immediately.
        assert!(step_reward(RewardMode::Immediate, false, 10.0, 4.0, 8.0) < 0.0);
    }
}
