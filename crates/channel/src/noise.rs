//! Noise model: Doppler-induced inter-carrier interference.
//!
//! OFDM's orthogonality assumes the channel is static over a symbol;
//! Doppler spread breaks that and leaks power between subcarriers
//! (inter-carrier interference, ICI). The paper's §2/§3 argue this is
//! one of the mechanisms that make signal-strength feedback and OFDM
//! signaling unreliable in extreme mobility. We model ICI as an
//! additional Gaussian noise floor whose relative power follows the
//! classic small-`fd T` expansion for a Jakes spectrum:
//! `P_ici ≈ (pi * fd * T)^2 / 6` of the received signal power.

use std::f64::consts::PI;

/// Relative ICI power (fraction of received signal power) for maximum
/// Doppler `fd_hz` and OFDM symbol duration `t_sym_s`, using the
/// second-order Jakes-spectrum expansion `(pi fd T)^2 / 6`, clamped to
/// at most 1.
pub fn ici_relative_power(fd_hz: f64, t_sym_s: f64) -> f64 {
    let x = PI * fd_hz * t_sym_s;
    (x * x / 6.0).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ici_grows_quadratically_with_doppler() {
        let t = 66.7e-6;
        let p1 = ici_relative_power(100.0, t);
        let p2 = ici_relative_power(200.0, t);
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ici_is_negligible_at_low_mobility() {
        // 60 km/h at 900 MHz: fd ~ 50 Hz.
        let p = ici_relative_power(50.0, 66.7e-6);
        assert!(p < 1e-4, "p={p}");
    }

    #[test]
    fn ici_is_clamped() {
        assert_eq!(ici_relative_power(1e9, 1.0), 1.0);
    }
}
