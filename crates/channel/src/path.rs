//! Multipath channel representation in per-path form.
//!
//! A time-varying wireless channel is a sum of `P` discrete propagation
//! paths (paper Eq. 1):
//!
//! ```text
//! h(tau, nu) = sum_p  h_p * delta(tau - tau_p) * delta(nu - nu_p)
//! ```
//!
//! where `h_p` is the complex attenuation, `tau_p` the propagation
//! delay and `nu_p` the Doppler shift of path `p`. The equivalent
//! time-frequency form used by OFDM is
//!
//! ```text
//! H(t, f) = sum_p h_p * exp(j 2 pi (t nu_p - f tau_p))
//! ```
//!
//! This module stores the per-path profile and evaluates both forms.

use rem_num::{CMatrix, Complex64};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// One propagation path: complex gain, delay and Doppler shift.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// Complex attenuation `h_p`.
    pub gain: Complex64,
    /// Propagation delay `tau_p` in seconds.
    pub delay_s: f64,
    /// Doppler frequency shift `nu_p` in Hz.
    pub doppler_hz: f64,
}

impl Path {
    /// Convenience constructor.
    pub fn new(gain: Complex64, delay_s: f64, doppler_hz: f64) -> Self {
        Self { gain, delay_s, doppler_hz }
    }
}

/// A multipath channel: the set `{(h_p, tau_p, nu_p)}`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MultipathChannel {
    paths: Vec<Path>,
}

impl MultipathChannel {
    /// Creates a channel from explicit paths.
    pub fn new(paths: Vec<Path>) -> Self {
        Self { paths }
    }

    /// A single-path (flat, static) channel with the given gain.
    pub fn flat(gain: Complex64) -> Self {
        Self { paths: vec![Path::new(gain, 0.0, 0.0)] }
    }

    /// The paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of paths `P`.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Total average power `sum_p |h_p|^2`.
    pub fn total_power(&self) -> f64 {
        self.paths.iter().map(|p| p.gain.norm_sqr()).sum()
    }

    /// Scales all gains so the total power is 1. No-op on a zero channel.
    pub fn normalize_power(&mut self) {
        let p = self.total_power();
        if p > 0.0 {
            let s = 1.0 / p.sqrt();
            for path in &mut self.paths {
                path.gain = path.gain.scale(s);
            }
        }
    }

    /// Largest absolute Doppler shift across paths, in Hz.
    pub fn max_doppler_hz(&self) -> f64 {
        self.paths.iter().map(|p| p.doppler_hz.abs()).fold(0.0, f64::max)
    }

    /// Evaluates the time-frequency response `H(t, f)`.
    ///
    /// `f` is the frequency offset from the band's reference (carrier)
    /// frequency; the Doppler shifts are assumed already computed for
    /// that carrier.
    pub fn tf_gain(&self, t: f64, f: f64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for p in &self.paths {
            let phase = 2.0 * PI * (t * p.doppler_hz - f * p.delay_s);
            acc += p.gain * Complex64::cis(phase);
        }
        acc
    }

    /// Samples `H` on an OFDM grid: `M` subcarriers spaced `delta_f`,
    /// `N` symbols of duration `t_sym`. Entry `(m, n)` is the gain of
    /// subcarrier `m` during symbol `n`.
    pub fn tf_grid(&self, m: usize, n: usize, delta_f: f64, t_sym: f64) -> CMatrix {
        CMatrix::from_fn(m, n, |sc, sym| self.tf_gain(sym as f64 * t_sym, sc as f64 * delta_f))
    }

    /// Re-derives this channel as seen on another carrier frequency:
    /// delays and attenuations are frequency-independent, Doppler
    /// scales as `nu_2 = nu_1 * f2 / f1` (paper §5.2).
    pub fn scaled_to_carrier(&self, f1_hz: f64, f2_hz: f64) -> Self {
        let ratio = f2_hz / f1_hz;
        Self {
            paths: self
                .paths
                .iter()
                .map(|p| Path::new(p.gain, p.delay_s, p.doppler_hz * ratio))
                .collect(),
        }
    }

    /// Advances the channel by `dt` seconds: each path accumulates the
    /// phase rotation its Doppler dictates. This models the slow
    /// delay-Doppler evolution (paper Appendix A): the profile
    /// `{|h_p|, tau_p, nu_p}` is invariant, only phases rotate.
    pub fn advanced_by(&self, dt: f64) -> Self {
        Self {
            paths: self
                .paths
                .iter()
                .map(|p| {
                    Path::new(
                        p.gain * Complex64::cis(2.0 * PI * p.doppler_hz * dt),
                        p.delay_s,
                        p.doppler_hz,
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::c64;

    fn two_path() -> MultipathChannel {
        MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.0, 100.0),
            Path::new(c64(0.0, 0.5), 1e-6, -50.0),
        ])
    }

    #[test]
    fn flat_channel_is_constant() {
        let ch = MultipathChannel::flat(c64(0.8, 0.6));
        for (t, f) in [(0.0, 0.0), (1e-3, 5e6), (0.5, -2e6)] {
            assert!(ch.tf_gain(t, f).dist(c64(0.8, 0.6)) < 1e-12);
        }
    }

    #[test]
    fn power_and_normalization() {
        let mut ch = two_path();
        assert!((ch.total_power() - 1.25).abs() < 1e-12);
        ch.normalize_power();
        assert!((ch.total_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tf_gain_at_origin_is_gain_sum() {
        let ch = two_path();
        assert!(ch.tf_gain(0.0, 0.0).dist(c64(1.0, 0.5)) < 1e-12);
    }

    #[test]
    fn doppler_rotates_phase_over_time() {
        let ch = MultipathChannel::new(vec![Path::new(Complex64::ONE, 0.0, 100.0)]);
        // After 1/4 of a Doppler period the phase is +pi/2.
        let g = ch.tf_gain(1.0 / 400.0, 0.0);
        assert!(g.dist(Complex64::I) < 1e-12);
    }

    #[test]
    fn delay_rotates_phase_over_frequency() {
        let ch = MultipathChannel::new(vec![Path::new(Complex64::ONE, 1e-6, 0.0)]);
        // f * tau = 0.25 => phase -pi/2.
        let g = ch.tf_gain(0.0, 0.25e6);
        assert!(g.dist(-Complex64::I) < 1e-12);
    }

    #[test]
    fn max_doppler() {
        assert_eq!(two_path().max_doppler_hz(), 100.0);
    }

    #[test]
    fn carrier_scaling_scales_doppler_only() {
        let ch = two_path();
        let s = ch.scaled_to_carrier(1e9, 2e9);
        for (a, b) in ch.paths().iter().zip(s.paths()) {
            assert_eq!(a.gain, b.gain);
            assert_eq!(a.delay_s, b.delay_s);
            assert!((b.doppler_hz - 2.0 * a.doppler_hz).abs() < 1e-9);
        }
    }

    #[test]
    fn advance_preserves_profile_magnitudes() {
        let ch = two_path();
        let adv = ch.advanced_by(0.01);
        for (a, b) in ch.paths().iter().zip(adv.paths()) {
            assert!((a.gain.abs() - b.gain.abs()).abs() < 1e-12);
            assert_eq!(a.delay_s, b.delay_s);
            assert_eq!(a.doppler_hz, b.doppler_hz);
        }
        // Zero-Doppler path unchanged; others rotated.
        let stat = MultipathChannel::flat(Complex64::ONE).advanced_by(1.0);
        assert!(stat.paths()[0].gain.dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn tf_grid_shape_and_values() {
        let ch = two_path();
        let g = ch.tf_grid(4, 3, 15e3, 66.7e-6);
        assert_eq!(g.shape(), (4, 3));
        assert!(g[(2, 1)].dist(ch.tf_gain(66.7e-6, 2.0 * 15e3)) < 1e-12);
    }
}
