//! 3GPP reference multipath channel models.
//!
//! The paper evaluates REM against "4G/5G standard channel models"
//! (§1, §7.2): the Extended Pedestrian A / Vehicular A / Typical Urban
//! tapped-delay-line profiles of TS 36.101/36.104 Annex B, plus the
//! high-speed-train (HST) scenario. A *realization* draws a complex
//! Rayleigh gain per tap (Rician for the HST line-of-sight tap) and a
//! per-tap Doppler shift from the Jakes angle-of-arrival model
//! `nu_p = nu_max cos(theta_p)`.

use crate::doppler::max_doppler_hz;
use crate::path::{MultipathChannel, Path};
use rand::Rng;
use rem_num::rng::complex_gaussian;
use rem_num::{Complex64, SimRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// A 3GPP-style tapped-delay-line profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelModel {
    /// Extended Pedestrian A: 7 taps, 410 ns max excess delay. The
    /// paper's low-mobility baseline regimes use this or EVA.
    Epa,
    /// Extended Vehicular A: 9 taps, 2510 ns max excess delay. Used by
    /// the paper's "low mobility (EVA)" comparisons (Fig 10b/11b).
    Eva,
    /// Extended Typical Urban: 9 taps, 5000 ns max excess delay.
    Etu,
    /// High-speed train: strongly Rician (dominant line-of-sight) with
    /// a small scattered component — the paper's HSR regime.
    Hst,
}

impl ChannelModel {
    /// `(delay in ns, relative power in dB)` for each tap.
    pub fn taps(self) -> &'static [(f64, f64)] {
        match self {
            ChannelModel::Epa => &[
                (0.0, 0.0),
                (30.0, -1.0),
                (70.0, -2.0),
                (90.0, -3.0),
                (110.0, -8.0),
                (190.0, -17.2),
                (410.0, -20.8),
            ],
            ChannelModel::Eva => &[
                (0.0, 0.0),
                (30.0, -1.5),
                (150.0, -1.4),
                (310.0, -3.6),
                (370.0, -0.6),
                (710.0, -9.1),
                (1090.0, -7.0),
                (1730.0, -12.0),
                (2510.0, -16.9),
            ],
            ChannelModel::Etu => &[
                (0.0, -1.0),
                (50.0, -1.0),
                (120.0, -1.0),
                (200.0, 0.0),
                (230.0, 0.0),
                (500.0, 0.0),
                (1600.0, -3.0),
                (2300.0, -5.0),
                (5000.0, -7.0),
            ],
            // HST: LOS tap plus sparse scatterers (trackside masts,
            // gantries). Delays reflect the 80–550 m BS-track geometry
            // cited by the paper (§5.2).
            ChannelModel::Hst => &[
                (0.0, 0.0),
                (300.0, -10.0),
                (900.0, -13.0),
                (1600.0, -16.0),
            ],
        }
    }

    /// Rician K-factor in dB for the first tap; `None` means all taps
    /// are Rayleigh.
    pub fn k_factor_db(self) -> Option<f64> {
        match self {
            ChannelModel::Hst => Some(10.0),
            _ => None,
        }
    }

    /// Draws one channel realization for a client at `speed_ms` under
    /// carrier `carrier_hz`. The profile is normalized to unit average
    /// power; tap Doppler shifts follow the Jakes model, except the HST
    /// line-of-sight tap which takes the full `+nu_max` (train
    /// approaching the base station, the worst case the paper studies).
    pub fn realize(self, rng: &mut SimRng, speed_ms: f64, carrier_hz: f64) -> MultipathChannel {
        let taps = self.taps();
        let total_lin: f64 = taps.iter().map(|&(_, p_db)| 10f64.powf(p_db / 10.0)).sum();
        let nu_max = max_doppler_hz(speed_ms, carrier_hz);
        let k_lin = self.k_factor_db().map(|k| 10f64.powf(k / 10.0));

        let mut paths = Vec::with_capacity(taps.len());
        for (idx, &(delay_ns, p_db)) in taps.iter().enumerate() {
            let p_lin = 10f64.powf(p_db / 10.0) / total_lin;
            // Tap positions vary with the local geometry: jitter every
            // non-LOS delay per realization (+-40%). This is what makes
            // the multipath profile location-dependent rather than a
            // fixed fingerprint.
            let delay_ns = if idx == 0 {
                delay_ns
            } else {
                delay_ns * (1.0 + 0.4 * rng.gen_range(-1.0..1.0))
            };
            let (gain, doppler) = if let (0, Some(k)) = (idx, k_lin) {
                // Rician first tap: deterministic LOS + diffuse part.
                let los_pow = p_lin * k / (k + 1.0);
                let nlos_pow = p_lin / (k + 1.0);
                let los_phase: f64 = rng.gen_range(0.0..2.0 * PI);
                let gain = Complex64::cis(los_phase).scale(los_pow.sqrt())
                    + complex_gaussian(rng, nlos_pow);
                (gain, nu_max)
            } else {
                let theta: f64 = rng.gen_range(0.0..2.0 * PI);
                (complex_gaussian(rng, p_lin), nu_max * theta.cos())
            };
            paths.push(Path::new(gain, delay_ns * 1e-9, doppler));
        }
        MultipathChannel::new(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::rng::rng_from_seed;

    #[test]
    fn profiles_are_nontrivial_and_sorted_by_delay() {
        for m in [ChannelModel::Epa, ChannelModel::Eva, ChannelModel::Etu, ChannelModel::Hst] {
            let taps = m.taps();
            assert!(taps.len() >= 4, "{m:?}");
            for w in taps.windows(2) {
                assert!(w[1].0 > w[0].0, "{m:?} delays must increase");
            }
            assert_eq!(taps[0].0, 0.0);
        }
    }

    #[test]
    fn tap_counts_match_3gpp() {
        assert_eq!(ChannelModel::Epa.taps().len(), 7);
        assert_eq!(ChannelModel::Eva.taps().len(), 9);
        assert_eq!(ChannelModel::Etu.taps().len(), 9);
    }

    #[test]
    fn realization_has_unit_mean_power() {
        let mut rng = rng_from_seed(3);
        let n = 4000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += ChannelModel::Eva.realize(&mut rng, 30.0, 2e9).total_power();
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean power {mean}");
    }

    #[test]
    fn doppler_bounded_by_nu_max() {
        let mut rng = rng_from_seed(5);
        let speed = 97.2; // 350 km/h
        let nu_max = max_doppler_hz(speed, 2.6e9);
        for _ in 0..100 {
            let ch = ChannelModel::Hst.realize(&mut rng, speed, 2.6e9);
            assert!(ch.max_doppler_hz() <= nu_max + 1e-9);
        }
    }

    #[test]
    fn hst_is_dominated_by_los() {
        let mut rng = rng_from_seed(7);
        let mut los_frac = 0.0;
        let n = 500;
        for _ in 0..n {
            let ch = ChannelModel::Hst.realize(&mut rng, 97.2, 2e9);
            los_frac += ch.paths()[0].gain.norm_sqr() / ch.total_power();
        }
        los_frac /= n as f64;
        assert!(los_frac > 0.7, "LOS fraction {los_frac}");
    }

    #[test]
    fn hst_los_doppler_is_full_shift() {
        let mut rng = rng_from_seed(11);
        let speed = 97.2;
        let nu_max = max_doppler_hz(speed, 2e9);
        let ch = ChannelModel::Hst.realize(&mut rng, speed, 2e9);
        assert!((ch.paths()[0].doppler_hz - nu_max).abs() < 1e-9);
    }

    #[test]
    fn static_client_realization_has_zero_doppler() {
        let mut rng = rng_from_seed(17);
        let ch = ChannelModel::Epa.realize(&mut rng, 0.0, 2e9);
        assert_eq!(ch.max_doppler_hz(), 0.0);
    }

    #[test]
    fn realizations_are_seed_deterministic() {
        let a = ChannelModel::Eva.realize(&mut rng_from_seed(23), 50.0, 2e9);
        let b = ChannelModel::Eva.realize(&mut rng_from_seed(23), 50.0, 2e9);
        assert_eq!(a, b);
    }
}
