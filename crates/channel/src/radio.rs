//! Large-scale radio propagation: path loss and correlated shadowing.
//!
//! These drive the RSRP traces of the mobility simulator: received
//! power = transmit power − path loss − shadowing, plus the small-scale
//! fading handled by [`crate::models`]. Values are in dB/dBm
//! throughout, the unit the paper's datasets report (RSRP in
//! [−140, −44] dBm, Table 4).

use rand::Rng;
use rem_num::rng::standard_normal;
use serde::{Deserialize, Serialize};

/// Free-space path loss in dB for distance `d_m` (meters) and carrier
/// `f_hz`. Clamped below at 1 m to avoid negative loss at the mast.
pub fn free_space_pl_db(d_m: f64, f_hz: f64) -> f64 {
    let d_km = (d_m.max(1.0)) / 1000.0;
    let f_mhz = f_hz / 1e6;
    32.45 + 20.0 * d_km.log10() + 20.0 * f_mhz.log10()
}

/// Log-distance path loss: `PL(d) = pl0_db + 10 * n * log10(d / d0)`.
pub fn log_distance_pl_db(d_m: f64, d0_m: f64, pl0_db: f64, exponent: f64) -> f64 {
    pl0_db + 10.0 * exponent * (d_m.max(d0_m) / d0_m).log10()
}

/// 3GPP-style rural-macro path loss (the regime of trackside HSR
/// deployments): `PL = 128.1 + 37.6 log10(d_km)` at 2 GHz, with a
/// `21 log10(f / 2 GHz)` frequency correction. The sum of
/// [`rural_macro_distance_db`] and [`rural_macro_carrier_db`], in that
/// order, so a caller may compute each term once and add them.
pub fn rural_macro_pl_db(d_m: f64, f_hz: f64) -> f64 {
    rural_macro_distance_db(d_m) + rural_macro_carrier_db(f_hz)
}

/// The distance term of [`rural_macro_pl_db`], `128.1 + 37.6
/// log10(d_km)`, with the distance clamped below at 10 m.
pub fn rural_macro_distance_db(d_m: f64) -> f64 {
    let d_km = (d_m.max(10.0)) / 1000.0;
    128.1 + 37.6 * d_km.log10()
}

/// The carrier term of [`rural_macro_pl_db`], `21 log10(f / 2 GHz)`.
pub fn rural_macro_carrier_db(f_hz: f64) -> f64 {
    21.0 * (f_hz / 2e9).log10()
}

/// One step of spatially-correlated log-normal shadowing along a 1-D
/// trajectory (Gudmundson model): the AR(1) coefficients for `delta_m`
/// metres of client movement under standard deviation `sigma_db` and
/// decorrelation distance `d_corr_m`. Every [`ShadowingTrack`] with
/// those parameters advances by the same step, so it is computed once
/// per movement, not once per track.
#[derive(Clone, Copy, Debug)]
pub struct ShadowingStep {
    sigma_db: f64,
    rho: f64,
    innovation_db: f64,
}

impl ShadowingStep {
    /// The step over `delta_m` metres (either direction).
    pub fn new(sigma_db: f64, d_corr_m: f64, delta_m: f64) -> Self {
        assert!(sigma_db >= 0.0 && d_corr_m > 0.0);
        let rho = (-delta_m.abs() / d_corr_m).exp();
        Self { sigma_db, rho, innovation_db: sigma_db * (1.0 - rho * rho).sqrt() }
    }
}

/// One shadowing process: each cell (or site) gets its own independent
/// track, advanced by a shared [`ShadowingStep`].
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ShadowingTrack {
    /// The current value (dB); `None` until the first step.
    state_db: Option<f64>,
}

impl ShadowingTrack {
    /// Advances the track by `step` and returns the new shadowing value
    /// in dB. The first step draws it fresh from `N(0, sigma^2)`.
    pub fn advance(&mut self, rng: &mut impl Rng, step: &ShadowingStep) -> f64 {
        let z = standard_normal(rng);
        let value = match self.state_db {
            None => step.sigma_db * z,
            Some(state) => step.rho * state + step.innovation_db * z,
        };
        self.state_db = Some(value);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::rng::rng_from_seed;
    use rem_num::stats::{mean, std_dev};

    #[test]
    fn free_space_doubles_distance_plus_6db() {
        let a = free_space_pl_db(1000.0, 2e9);
        let b = free_space_pl_db(2000.0, 2e9);
        assert!((b - a - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn free_space_known_value() {
        // 1 km @ 2.4 GHz ~ 100.05 dB.
        let pl = free_space_pl_db(1000.0, 2.4e9);
        assert!((pl - 100.05).abs() < 0.1, "pl={pl}");
    }

    #[test]
    fn log_distance_matches_free_space_with_n2() {
        let pl0 = free_space_pl_db(100.0, 2e9);
        let a = log_distance_pl_db(1000.0, 100.0, pl0, 2.0);
        let b = free_space_pl_db(1000.0, 2e9);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn rural_macro_reasonable_rsrp_range() {
        // 43 dBm EIRP, 500 m: RSRP should land in a plausible band.
        let rsrp = 43.0 - rural_macro_pl_db(500.0, 2e9);
        assert!(rsrp > -100.0 && rsrp < -60.0, "rsrp={rsrp}");
        // And decay with distance.
        assert!(rural_macro_pl_db(2000.0, 2e9) > rural_macro_pl_db(200.0, 2e9));
    }

    #[test]
    fn path_loss_monotone_in_frequency() {
        assert!(rural_macro_pl_db(500.0, 2.6e9) > rural_macro_pl_db(500.0, 0.9e9));
        assert!(free_space_pl_db(500.0, 2.6e9) > free_space_pl_db(500.0, 0.9e9));
    }

    #[test]
    fn shadowing_moments() {
        let mut rng = rng_from_seed(3);
        let mut tr = ShadowingTrack::default();
        // Large steps decorrelate samples -> i.i.d. N(0, 16).
        let step = ShadowingStep::new(4.0, 50.0, 5000.0);
        let xs: Vec<f64> = (0..20_000).map(|_| tr.advance(&mut rng, &step)).collect();
        assert!(mean(&xs).abs() < 0.1);
        assert!((std_dev(&xs) - 4.0).abs() < 0.1);
    }

    #[test]
    fn shadowing_small_steps_are_correlated() {
        let mut rng = rng_from_seed(5);
        let mut tr = ShadowingTrack::default();
        let first = tr.advance(&mut rng, &ShadowingStep::new(6.0, 100.0, 0.0));
        let mut max_jump: f64 = 0.0;
        let mut prev = first;
        // 1 m steps, 100 m decorrelation.
        let step = ShadowingStep::new(6.0, 100.0, 1.0);
        for _ in 0..100 {
            let cur = tr.advance(&mut rng, &step);
            max_jump = max_jump.max((cur - prev).abs());
            prev = cur;
        }
        // 1 m steps with 100 m decorrelation keep innovations small.
        assert!(max_jump < 4.0, "max_jump={max_jump}");
    }

    #[test]
    fn shadowing_deterministic_per_seed() {
        let (mut a, mut b) = (ShadowingTrack::default(), ShadowingTrack::default());
        let mut ra = rng_from_seed(9);
        let mut rb = rng_from_seed(9);
        let step = ShadowingStep::new(4.0, 50.0, 10.0);
        for _ in 0..32 {
            assert_eq!(a.advance(&mut ra, &step), b.advance(&mut rb, &step));
        }
    }
}
