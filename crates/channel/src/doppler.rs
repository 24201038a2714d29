//! Doppler and coherence-time helpers (paper §2).
//!
//! A client moving at speed `v` under carrier frequency `f` sees a
//! maximum Doppler shift `nu_max = v f / c` and an OFDM coherence time
//! `Tc` proportional to `1 / nu_max`. The paper quantifies `Tc ≈ c /
//! (f v)`, e.g. ~1.2–6.2 ms for 200–350 km/h on LTE bands, versus the
//! 40–640 ms measurement triggering intervals operators configure —
//! the two-orders-of-magnitude gap at the heart of §3.1.

/// Speed of light in m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Converts km/h to m/s.
#[inline]
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}

/// Converts m/s to km/h.
#[inline]
pub fn ms_to_kmh(ms: f64) -> f64 {
    ms * 3.6
}

/// Maximum Doppler shift `nu_max = v f / c` in Hz for speed in m/s and
/// carrier in Hz.
#[inline]
pub fn max_doppler_hz(speed_ms: f64, carrier_hz: f64) -> f64 {
    speed_ms * carrier_hz / SPEED_OF_LIGHT
}

/// OFDM coherence time using the paper's estimate `Tc ≈ c / (f v)`
/// (i.e. `1 / nu_max`), in seconds. Returns `f64::INFINITY` for a
/// static client.
#[inline]
pub fn coherence_time_s(speed_ms: f64, carrier_hz: f64) -> f64 {
    let nu = max_doppler_hz(speed_ms, carrier_hz);
    if nu == 0.0 {
        f64::INFINITY
    } else {
        1.0 / nu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion() {
        assert!((kmh_to_ms(360.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn doppler_at_350kmh_2ghz() {
        // 350 km/h at 2 GHz: ~648 Hz.
        let nu = max_doppler_hz(kmh_to_ms(350.0), 2e9);
        assert!((nu - 648.6).abs() < 1.0, "nu={nu}");
    }

    #[test]
    fn paper_coherence_time_range() {
        // Paper §3.1: Tc in [1.16 ms, 6.18 ms] for f in [874.2, 2665] MHz
        // and v in [200, 350] km/h.
        let tc_min = coherence_time_s(kmh_to_ms(350.0), 2665e6);
        let tc_max = coherence_time_s(kmh_to_ms(200.0), 874.2e6);
        assert!((tc_min * 1e3 - 1.16).abs() < 0.02, "tc_min={}", tc_min * 1e3);
        assert!((tc_max * 1e3 - 6.18).abs() < 0.03, "tc_max={}", tc_max * 1e3);
    }

    #[test]
    fn paper_low_mobility_example() {
        // §2: vehicle at 60 km/h under 900 MHz -> Tc ≈ 20 ms.
        let tc = coherence_time_s(kmh_to_ms(60.0), 900e6);
        assert!((tc * 1e3 - 20.0).abs() < 0.5, "tc={}", tc * 1e3);
    }

    #[test]
    fn static_client_has_infinite_coherence() {
        assert!(coherence_time_s(0.0, 2e9).is_infinite());
    }
}
