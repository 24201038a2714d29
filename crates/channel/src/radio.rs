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
/// `21 log10(f / 2 GHz)` frequency correction.
pub fn rural_macro_pl_db(d_m: f64, f_hz: f64) -> f64 {
    let d_km = (d_m.max(10.0)) / 1000.0;
    128.1 + 37.6 * d_km.log10() + 21.0 * (f_hz / 2e9).log10()
}

/// Spatially-correlated log-normal shadowing along a 1-D trajectory
/// (Gudmundson model): an AR(1) process over travelled distance with
/// standard deviation `sigma_db` and decorrelation distance
/// `d_corr_m`. Each cell gets its own independent track.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShadowingTrack {
    sigma_db: f64,
    d_corr_m: f64,
    state_db: f64,
    initialized: bool,
}

impl ShadowingTrack {
    /// Creates a track; the first sample is drawn fresh from
    /// `N(0, sigma^2)`.
    pub fn new(sigma_db: f64, d_corr_m: f64) -> Self {
        assert!(sigma_db >= 0.0 && d_corr_m > 0.0);
        Self { sigma_db, d_corr_m, state_db: 0.0, initialized: false }
    }

    /// Advances the track by `delta_m` metres of client movement and
    /// returns the new shadowing value in dB.
    pub fn advance(&mut self, rng: &mut impl Rng, delta_m: f64) -> f64 {
        if !self.initialized {
            self.state_db = self.sigma_db * standard_normal(rng);
            self.initialized = true;
            return self.state_db;
        }
        let rho = (-delta_m.abs() / self.d_corr_m).exp();
        let innov = self.sigma_db * (1.0 - rho * rho).sqrt() * standard_normal(rng);
        self.state_db = rho * self.state_db + innov;
        self.state_db
    }

    /// Configured standard deviation in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
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
        let mut tr = ShadowingTrack::new(4.0, 50.0);
        // Large steps decorrelate samples -> i.i.d. N(0, 16).
        let xs: Vec<f64> = (0..20_000).map(|_| tr.advance(&mut rng, 5000.0)).collect();
        assert!(mean(&xs).abs() < 0.1);
        assert!((std_dev(&xs) - 4.0).abs() < 0.1);
    }

    #[test]
    fn shadowing_small_steps_are_correlated() {
        let mut rng = rng_from_seed(5);
        let mut tr = ShadowingTrack::new(6.0, 100.0);
        let first = tr.advance(&mut rng, 0.0);
        let mut max_jump: f64 = 0.0;
        let mut prev = first;
        for _ in 0..100 {
            let cur = tr.advance(&mut rng, 1.0); // 1 m steps, 100 m decorrelation
            max_jump = max_jump.max((cur - prev).abs());
            prev = cur;
        }
        // 1 m steps with 100 m decorrelation keep innovations small.
        assert!(max_jump < 4.0, "max_jump={max_jump}");
    }

    #[test]
    fn shadowing_deterministic_per_seed() {
        let mut a = ShadowingTrack::new(4.0, 50.0);
        let mut b = ShadowingTrack::new(4.0, 50.0);
        let mut ra = rng_from_seed(9);
        let mut rb = rng_from_seed(9);
        for _ in 0..32 {
            assert_eq!(a.advance(&mut ra, 10.0), b.advance(&mut rb, 10.0));
        }
    }
}
