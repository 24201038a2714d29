//! Fast per-message signaling error model.
//!
//! The campaign simulator decides tens of thousands of message
//! deliveries per run; running the full coded Monte-Carlo pipeline of
//! `rem-phy` for each would dominate runtime. This model reproduces
//! the pipeline's *behaviour* analytically and is cross-checked
//! against it in tests:
//!
//! * **Fading**: one Rayleigh/Rician power draw per message (a 1 ms
//!   signaling block sits well within one coherence interval at HSR
//!   speeds). OTFS spreads each message over the grid, so it sees the
//!   mean channel, not the draw.
//! * **CSI aging** (OFDM only): pilot-hold equalisation leaves a
//!   residual-error floor `SIR = 3 / (2 pi fd P T)^2` for pilot period
//!   `P` symbols — the mechanism measured in `rem_phy::link`.
//! * **ICI**: the Jakes second-order term, both waveforms.
//! * The resulting effective SINR feeds the calibrated BLER waterfall
//!   of [`rem_phy::link::bler_estimate`].
//!
//! A message's SINR is "draw, then evaluate": `LinkDraw::new` takes
//! its random half off the link stream (the fading draw's uniforms),
//! and `LinkDraw::sinr_db` is the pure rest. [`effective_sinr_db`]
//! composes the two; a caller that may never read the SINR (the
//! replay's BLER-before-failure window) keeps the draw and evaluates
//! it later, with the stream advanced exactly as if it had not waited.

use rand::Rng;
use rem_channel::doppler::max_doppler_hz;
use rem_channel::noise::ici_relative_power;
use rem_num::rng::{complex_gaussian_of, uniform_pair};
use rem_num::stats::{db_to_lin, lin_to_db};
use rem_num::{Complex64, SimRng};
use rem_phy::link::bler_estimate;
use rem_phy::{Modulation, Waveform};
use serde::{Deserialize, Serialize};

/// LTE symbol duration (s) used by the aging/ICI terms.
const T_SYM: f64 = 66.7e-6;
/// Pilot period in symbols for the legacy pilot-hold receiver.
const PILOT_PERIOD: f64 = 4.0;

/// Link-model parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SignalingLinkCfg {
    /// Rician K-factor (dB) of the fading draw; `None` = Rayleigh.
    pub k_factor_db: Option<f64>,
    /// Residual implementation loss of the OTFS receiver (dB).
    pub otfs_loss_db: f64,
    /// Signaling protection gain (dB): control messages ride heavily
    /// protected formats (PDCCH aggregation, very low effective code
    /// rate), reaching several dB below the data waterfall. Applied to
    /// the effective SINR before the BLER lookup.
    pub signaling_gain_db: f64,
}

impl Default for SignalingLinkCfg {
    fn default() -> Self {
        // Trackside HSR links are strongly line-of-sight.
        Self { k_factor_db: Some(8.0), otfs_loss_db: 0.5, signaling_gain_db: 6.0 }
    }
}

/// The random half of one message's effective SINR: what it draws from
/// its link stream. [`LinkDraw::sinr_db`] is the pure half.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkDraw {
    /// OFDM: the uniform pairs of the message's fading draw.
    Ofdm([(f64, f64); 2]),
    /// OTFS spreads the message over the grid and sees the mean
    /// channel: it draws nothing.
    Otfs,
}

impl LinkDraw {
    /// Draws the randomness of one `waveform` message from `rng`.
    #[inline]
    pub(crate) fn new(waveform: Waveform, rng: &mut SimRng) -> Self {
        match waveform {
            Waveform::Ofdm => Self::Ofdm([uniform_pair(rng), uniform_pair(rng)]),
            Waveform::Otfs => Self::Otfs,
        }
    }

    /// Effective post-receiver SINR (dB) of the message this draw
    /// belongs to, on a link of `mean_snr_db` at `speed_ms` and
    /// `carrier_hz`.
    pub(crate) fn sinr_db(
        self,
        cfg: &SignalingLinkCfg,
        mean_snr_db: f64,
        speed_ms: f64,
        carrier_hz: f64,
    ) -> f64 {
        let snr = db_to_lin(mean_snr_db);
        let fd = max_doppler_hz(speed_ms, carrier_hz);
        let ici = ici_relative_power(fd, T_SYM);
        let sinr = match self {
            Self::Ofdm(fading) => {
                let faded = snr * fade_gain(cfg, fading);
                // CSI-aging self-interference floor.
                let phase = 2.0 * std::f64::consts::PI * fd * PILOT_PERIOD * T_SYM;
                let aging = if phase > 0.0 { 3.0 / (phase * phase) } else { f64::INFINITY };
                1.0 / (1.0 / faded.max(1e-12) + 1.0 / aging + ici)
            }
            Self::Otfs => {
                // Grid-spread: sees the mean channel; small implementation loss.
                let loss = db_to_lin(-cfg.otfs_loss_db);
                1.0 / (1.0 / (snr * loss) + ici)
            }
        };
        lin_to_db(sinr.max(1e-12)) + cfg.signaling_gain_db
    }
}

/// One fading power gain (linear, unit mean) from the uniform pairs
/// of its draw.
fn fade_gain(cfg: &SignalingLinkCfg, pairs: [(f64, f64); 2]) -> f64 {
    match cfg.k_factor_db {
        None => {
            // Rayleigh: |CN(0,1)|^2 ~ Exp(1).
            complex_gaussian_of(pairs, 1.0).norm_sqr()
        }
        Some(k_db) => {
            let k = db_to_lin(k_db);
            let los = (k / (k + 1.0)).sqrt();
            let nlos = complex_gaussian_of(pairs, 1.0 / (k + 1.0));
            (Complex64::from_real(los) + nlos).norm_sqr()
        }
    }
}

/// Effective post-receiver SINR (dB) of one signaling message: its
/// draw from `rng`, evaluated at once.
pub fn effective_sinr_db(
    cfg: &SignalingLinkCfg,
    mean_snr_db: f64,
    speed_ms: f64,
    carrier_hz: f64,
    waveform: Waveform,
    rng: &mut SimRng,
) -> f64 {
    LinkDraw::new(waveform, rng).sinr_db(cfg, mean_snr_db, speed_ms, carrier_hz)
}

/// Outcome of one message: `(delivered, effective_sinr_db, bler)`.
pub fn message_outcome(
    cfg: &SignalingLinkCfg,
    mean_snr_db: f64,
    speed_ms: f64,
    carrier_hz: f64,
    waveform: Waveform,
    rng: &mut SimRng,
) -> (bool, f64, f64) {
    let sinr = effective_sinr_db(cfg, mean_snr_db, speed_ms, carrier_hz, waveform, rng);
    let bler = bler_estimate(sinr, Modulation::Qpsk);
    let delivered = rng.gen::<f64>() >= bler;
    (delivered, sinr, bler)
}

/// Delivery attempt with `max_harq` retransmissions (each an
/// independent draw); returns `(delivered, attempts, last_bler)`.
pub fn deliver_with_harq(
    cfg: &SignalingLinkCfg,
    mean_snr_db: f64,
    speed_ms: f64,
    carrier_hz: f64,
    waveform: Waveform,
    max_harq: usize,
    rng: &mut SimRng,
) -> (bool, usize, f64) {
    let mut last_bler = 1.0;
    for attempt in 1..=max_harq.max(1) {
        let (ok, _, bler) = message_outcome(cfg, mean_snr_db, speed_ms, carrier_hz, waveform, rng);
        last_bler = bler;
        if ok {
            return (true, attempt, bler);
        }
    }
    (false, max_harq.max(1), last_bler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_channel::doppler::kmh_to_ms;
    use rem_num::rng::rng_from_seed;

    fn mean_delivery(
        cfg: &SignalingLinkCfg,
        snr: f64,
        speed: f64,
        wf: Waveform,
        seed: u64,
    ) -> f64 {
        let mut rng = rng_from_seed(seed);
        let n = 2000;
        let ok = (0..n)
            .filter(|_| message_outcome(cfg, snr, speed, 2.6e9, wf, &mut rng).0)
            .count();
        ok as f64 / n as f64
    }

    #[test]
    fn draw_then_evaluate_is_bit_identical_to_effective_sinr() {
        // The BLER window keeps the draw and evaluates it later: both
        // halves together must be the one-call SINR, bit for bit, and
        // leave the stream where the one call leaves it.
        let fading = [None, Some(8.0)];
        for (k_factor_db, waveform) in
            fading.into_iter().flat_map(|k| [(k, Waveform::Ofdm), (k, Waveform::Otfs)])
        {
            let cfg = SignalingLinkCfg { k_factor_db, ..Default::default() };
            let (mut whole, mut split) = (rng_from_seed(8), rng_from_seed(8));
            for snr in [-12.0, -2.5, 0.0, 7.0, 40.0] {
                for speed in [0.0, kmh_to_ms(120.0), kmh_to_ms(350.0)] {
                    for carrier in [8e8, 1.9e9, 2.6e9, 3.5e9] {
                        let want =
                            effective_sinr_db(&cfg, snr, speed, carrier, waveform, &mut whole);
                        let draw = LinkDraw::new(waveform, &mut split);
                        let got = draw.sinr_db(&cfg, snr, speed, carrier);
                        assert_eq!(got.to_bits(), want.to_bits(), "{cfg:?} {waveform:?}");
                    }
                }
            }
            assert_eq!(whole.gen::<u64>(), split.gen::<u64>(), "{cfg:?} {waveform:?}");
        }
    }

    #[test]
    fn high_snr_static_both_reliable() {
        let cfg = SignalingLinkCfg::default();
        for wf in [Waveform::Ofdm, Waveform::Otfs] {
            let p = mean_delivery(&cfg, 20.0, 0.0, wf, 1);
            assert!(p > 0.97, "{wf:?} p={p}");
        }
    }

    #[test]
    fn hsr_speed_degrades_ofdm_not_otfs() {
        // The Fig 10 relationship at the message level, at the SINR
        // regime where handovers execute (cell edge, ~0 dB).
        let cfg = SignalingLinkCfg::default();
        let speed = kmh_to_ms(350.0);
        let p_ofdm = mean_delivery(&cfg, -2.0, speed, Waveform::Ofdm, 2);
        let p_otfs = mean_delivery(&cfg, -2.0, speed, Waveform::Otfs, 2);
        assert!(p_otfs > 0.9, "otfs p={p_otfs}");
        assert!(p_ofdm < p_otfs - 0.1, "ofdm={p_ofdm} otfs={p_otfs}");
    }

    #[test]
    fn static_parity_between_waveforms() {
        // Backward compatibility: no mobility, no penalty worth noting.
        let cfg = SignalingLinkCfg::default();
        let p_ofdm = mean_delivery(&cfg, 8.0, 0.0, Waveform::Ofdm, 3);
        let p_otfs = mean_delivery(&cfg, 8.0, 0.0, Waveform::Otfs, 3);
        assert!((p_ofdm - p_otfs).abs() < 0.15, "ofdm={p_ofdm} otfs={p_otfs}");
    }

    #[test]
    fn delivery_monotone_in_snr() {
        let cfg = SignalingLinkCfg::default();
        let speed = kmh_to_ms(300.0);
        let lo = mean_delivery(&cfg, -5.0, speed, Waveform::Otfs, 4);
        let hi = mean_delivery(&cfg, 15.0, speed, Waveform::Otfs, 4);
        assert!(hi > lo);
    }

    #[test]
    fn aging_floor_dominates_ofdm_at_high_snr_and_speed() {
        // At 350 km/h the pilot-hold aging floor bounds the legacy
        // effective SINR regardless of SNR: delivery at 40 dB is no
        // better than at 15 dB, while a static client is perfect.
        let cfg = SignalingLinkCfg::default();
        let speed = kmh_to_ms(350.0);
        let p40 = mean_delivery(&cfg, 40.0, speed, Waveform::Ofdm, 5);
        let p15 = mean_delivery(&cfg, 15.0, speed, Waveform::Ofdm, 5);
        assert!((p40 - p15).abs() < 0.02, "p40={p40} p15={p15}");
        let p_static = mean_delivery(&cfg, 40.0, 0.0, Waveform::Ofdm, 5);
        assert!(p_static > p40 - 0.01, "static={p_static} hsr={p40}");
    }

    #[test]
    fn harq_improves_delivery() {
        let cfg = SignalingLinkCfg::default();
        let speed = kmh_to_ms(300.0);
        let mut rng = rng_from_seed(6);
        let n = 1500;
        let one = (0..n)
            .filter(|_| {
                deliver_with_harq(&cfg, 3.0, speed, 2.6e9, Waveform::Ofdm, 1, &mut rng).0
            })
            .count();
        let mut rng = rng_from_seed(6);
        let three = (0..n)
            .filter(|_| {
                deliver_with_harq(&cfg, 3.0, speed, 2.6e9, Waveform::Ofdm, 3, &mut rng).0
            })
            .count();
        assert!(three > one, "three={three} one={one}");
    }

    #[test]
    fn rayleigh_vs_rician_severity() {
        // Rayleigh (no LOS) fades deeper: worse delivery at mid SNR.
        let rician = SignalingLinkCfg { k_factor_db: Some(10.0), ..Default::default() };
        let rayleigh = SignalingLinkCfg { k_factor_db: None, ..Default::default() };
        let p_ric = mean_delivery(&rician, 8.0, 10.0, Waveform::Ofdm, 7);
        let p_ray = mean_delivery(&rayleigh, 8.0, 10.0, Waveform::Ofdm, 7);
        assert!(p_ric > p_ray, "rician={p_ric} rayleigh={p_ray}");
    }
}
