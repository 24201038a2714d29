//! Deterministic trial-level chaos: seeded panic injection for
//! exercising the campaign engine's crash isolation.
//!
//! The checked Monte-Carlo runner (`rem_exec::par_map_checked`) claims
//! two things: a panicking trial is retried and, when the panic was
//! transient, the campaign's result is **bit-identical** to an
//! unfaulted run; a persistently panicking trial is quarantined
//! without taking the campaign down. Both claims need a fault source
//! that is (a) deterministic in `(seed, trial index)` so CI can replay
//! it, and (b) aware of the retry `attempt` so "transient" and
//! "persistent" are choices, not luck. That source is [`ChaosConfig`].
//!
//! The decision hash never touches simulation RNG streams — a chaos
//! run and a clean run draw exactly the same channel realizations,
//! which is what makes the hash-equality CI gate meaningful.

use rem_num::rng::splitmix64;
use serde::{Deserialize, Serialize};

/// Seeded panic-injection policy for checked campaign runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Chaos stream seed (independent of the campaign seed so the same
    /// campaign can be replayed under different fault patterns).
    pub seed: u64,
    /// Probability in `[0, 1]` that a given trial panics.
    pub panic_rate: f64,
    /// `false` (default): a selected trial panics only on attempt 0 —
    /// the retry succeeds and the campaign result must equal a clean
    /// run's. `true`: the trial panics on *every* attempt and ends up
    /// quarantined.
    pub fatal: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { seed: 0, panic_rate: 0.0, fatal: false }
    }
}

impl ChaosConfig {
    /// A transient-panic policy at `rate` under `seed`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self { seed, panic_rate: rate, fatal: false }
    }

    /// A persistent-panic policy at `rate` under `seed`.
    pub fn fatal(seed: u64, rate: f64) -> Self {
        Self { seed, panic_rate: rate, fatal: true }
    }

    /// Whether this trial attempt should panic. Pure in
    /// `(self, index, attempt)`: the same config always selects the
    /// same trials, on any thread count and in any execution order.
    pub fn should_panic(&self, index: usize, attempt: u32) -> bool {
        if self.panic_rate <= 0.0 {
            return false;
        }
        if !self.fatal && attempt > 0 {
            return false;
        }
        trial_unit(self.seed, index) < self.panic_rate
    }

    /// Panics (deliberately) when [`should_panic`](Self::should_panic)
    /// selects this attempt; call at the top of an instrumented trial.
    pub fn maybe_panic(&self, index: usize, attempt: u32) {
        if self.should_panic(index, attempt) {
            panic!("chaos: injected panic in trial {index} (attempt {attempt})");
        }
    }
}

/// Uniform-ish value in `[0, 1)` from `(seed, index)` via the
/// splitmix64 finalizer — no RNG object, no state, no allocation.
fn trial_unit(seed: u64, index: usize) -> f64 {
    let z = splitmix64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // 53 mantissa bits -> [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_panics() {
        let c = ChaosConfig::default();
        for i in 0..1000 {
            assert!(!c.should_panic(i, 0));
        }
        c.maybe_panic(7, 0); // must not panic
    }

    #[test]
    fn full_rate_selects_every_trial_on_attempt_zero_only() {
        let c = ChaosConfig::transient(9, 1.0);
        for i in 0..100 {
            assert!(c.should_panic(i, 0));
            assert!(!c.should_panic(i, 1), "transient chaos must spare retries");
        }
    }

    #[test]
    fn fatal_chaos_panics_on_every_attempt() {
        let c = ChaosConfig::fatal(9, 1.0);
        for attempt in 0..5 {
            assert!(c.should_panic(3, attempt));
        }
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = ChaosConfig::transient(1, 0.3);
        let b = ChaosConfig::transient(1, 0.3);
        let c = ChaosConfig::transient(2, 0.3);
        let pick = |cfg: &ChaosConfig| -> Vec<usize> {
            (0..200).filter(|&i| cfg.should_panic(i, 0)).collect()
        };
        assert_eq!(pick(&a), pick(&b));
        assert_ne!(pick(&a), pick(&c), "different seeds, different victims");
    }

    #[test]
    fn victims_are_pinned() {
        // The trials of 0..64 this config picks. The CI chaos gates run
        // `--chaos-panic 0.5 --chaos-seed 9`, so these victims must not
        // move.
        let c = ChaosConfig::transient(9, 0.5);
        let picks: Vec<usize> = (0..64).filter(|&i| c.should_panic(i, 0)).collect();
        assert_eq!(
            picks,
            [
                1, 3, 4, 7, 8, 15, 17, 22, 23, 24, 25, 27, 28, 29, 30, 32, 33, 39, 42, 43, 44, 45,
                46, 47, 48, 50, 55, 61, 62, 63
            ]
        );
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let c = ChaosConfig::transient(42, 0.25);
        let hits = (0..4000).filter(|&i| c.should_panic(i, 0)).count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.04, "rate={rate}");
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic in trial 5")]
    fn maybe_panic_panics_when_selected() {
        ChaosConfig::transient(3, 1.0).maybe_panic(5, 0);
    }
}
