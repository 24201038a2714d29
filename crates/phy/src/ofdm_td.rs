//! Sample-level (time-domain) OFDM: IFFT, cyclic prefix, and a tapped
//! delay line with per-tap Doppler rotation.
//!
//! The rest of the workspace models OFDM at the resource-element level
//! (`Y = H ∘ X` plus an analytic ICI term). This test-only reference
//! implements the actual waveform so that model is *validated* rather
//! than assumed:
//!
//! * static multipath inside the CP → the demodulated grid matches the
//!   sampled `H(f)` exactly (no ISI);
//! * Doppler on the taps → inter-carrier interference emerges from the
//!   samples themselves, and its measured power matches the analytic
//!   `(pi f_d T)^2 / 6` term used everywhere else (see tests);
//! * delays beyond the CP → ISI appears, as it must.
//!
//! Conventions: `fft_size >= M` subcarriers; occupied bins are
//! `0..M` (baseband-adjacent mapping); sample rate `fs = fft_size *
//! delta_f`; tap delays are rounded to whole samples.

use rem_channel::{DdGrid, MultipathChannel};
use rem_num::fft::{fft, ifft};
use rem_num::{CMatrix, Complex64};
use std::f64::consts::PI;

/// Time-domain OFDM parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TdParams {
    /// IFFT/FFT size (must be a power of two and `>= grid.m`).
    fft_size: usize,
    /// Cyclic-prefix length in samples.
    cp_len: usize,
}

impl TdParams {
    /// LTE-ish defaults for a given grid: 128-point FFT, 9-sample CP
    /// (normal CP ratio ~1/14).
    fn lte_like() -> Self {
        Self { fft_size: 128, cp_len: 9 }
    }

    /// Samples per OFDM symbol including CP.
    fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Sample rate implied by a grid's subcarrier spacing.
    fn sample_rate(&self, grid: &DdGrid) -> f64 {
        self.fft_size as f64 * grid.delta_f
    }
}

/// Modulates a frequency-domain grid (rows = subcarriers, cols = OFDM
/// symbols) to time samples with cyclic prefixes.
///
/// # Panics
/// Panics if `fft_size < grid rows` or `fft_size` is not a power of two.
fn td_modulate(grid_data: &CMatrix, p: &TdParams) -> Vec<Complex64> {
    let (m, n) = grid_data.shape();
    assert!(p.fft_size >= m, "fft_size must cover the occupied subcarriers");
    assert!(p.fft_size.is_power_of_two(), "fft_size must be a power of two");
    let mut out = Vec::with_capacity(n * p.symbol_len());
    let mut buf = vec![Complex64::ZERO; p.fft_size];
    for sym in 0..n {
        buf.fill(Complex64::ZERO);
        for sc in 0..m {
            buf[sc] = grid_data[(sc, sym)];
        }
        ifft(&mut buf);
        // ifft yields per-sample power M/N^2 for unit-power symbols on
        // M of N bins; scaling by N/sqrt(M) restores unit average
        // sample power on air.
        let amp = p.fft_size as f64 / (m as f64).sqrt();
        for b in &buf[p.fft_size - p.cp_len..] {
            out.push(b.scale(amp));
        }
        for &b in buf.iter() {
            out.push(b.scale(amp));
        }
    }
    out
}

/// Applies a multipath channel to time samples: each tap delays by
/// `round(tau * fs)` samples and rotates with its Doppler:
/// `y[i] = sum_p h_p e^{j 2 pi nu_p t_i} x[i - d_p]`.
fn td_channel(
    samples: &[Complex64],
    ch: &MultipathChannel,
    sample_rate_hz: f64,
) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; samples.len()];
    for path in ch.paths() {
        let d = (path.delay_s * sample_rate_hz).round() as usize;
        for i in d..samples.len() {
            let t = i as f64 / sample_rate_hz;
            let rot = Complex64::cis(2.0 * PI * path.doppler_hz * t);
            out[i] += path.gain * rot * samples[i - d];
        }
    }
    out
}

/// Demodulates time samples back to the frequency-domain grid
/// (inverse of [`td_modulate`], assuming symbol alignment).
fn td_demodulate(samples: &[Complex64], m: usize, n: usize, p: &TdParams) -> CMatrix {
    assert!(samples.len() >= n * p.symbol_len(), "not enough samples");
    let mut out = CMatrix::zeros(m, n);
    let mut buf = vec![Complex64::ZERO; p.fft_size];
    // Inverse of the modulator's N/sqrt(M) amplitude scaling.
    let amp = p.fft_size as f64 / (m as f64).sqrt();
    for sym in 0..n {
        let start = sym * p.symbol_len() + p.cp_len;
        buf.copy_from_slice(&samples[start..start + p.fft_size]);
        fft(&mut buf);
        for sc in 0..m {
            out[(sc, sym)] = buf[sc].scale(1.0 / amp);
        }
    }
    out
}

/// Modulate, run the channel, demodulate. Returns the received
/// frequency-domain grid.
fn td_through_channel(
    grid_data: &CMatrix,
    grid: &DdGrid,
    ch: &MultipathChannel,
    p: &TdParams,
) -> CMatrix {
    let fs = p.sample_rate(grid);
    let tx = td_modulate(grid_data, p);
    let rx = td_channel(&tx, ch, fs);
    td_demodulate(&rx, grid_data.rows(), grid_data.cols(), p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_channel::noise::ici_relative_power;
    use rem_channel::Path;
    use rem_num::c64;

    fn qpskish_grid(m: usize, n: usize) -> CMatrix {
        CMatrix::from_fn(m, n, |r, c| {
            let s = 1.0 / 2f64.sqrt();
            c64(
                if (r + c) % 2 == 0 { s } else { -s },
                if (r * 3 + c) % 2 == 0 { s } else { -s },
            )
        })
    }

    #[test]
    fn flat_channel_round_trip() {
        let grid = DdGrid::lte(12, 14);
        let p = TdParams::lte_like();
        let x = qpskish_grid(12, 14);
        let ch = MultipathChannel::flat(Complex64::ONE);
        let y = td_through_channel(&x, &grid, &ch, &p);
        assert!(y.frobenius_dist(&x) < 1e-9 * x.frobenius_norm().max(1.0));
    }

    #[test]
    fn tx_power_is_unit_per_sample() {
        let p = TdParams::lte_like();
        let x = qpskish_grid(12, 14);
        let tx = td_modulate(&x, &p);
        let pw: f64 = tx.iter().map(|z| z.norm_sqr()).sum::<f64>() / tx.len() as f64;
        // Unit-power constellation on 12 of 128 bins, amplitude-scaled:
        // per-sample power is ~1; the CP repeats a body segment whose
        // local power differs slightly from the symbol average for a
        // structured (non-random) grid.
        assert!((pw - 1.0).abs() < 0.1, "pw={pw}");
    }

    #[test]
    fn static_multipath_matches_sampled_hf() {
        // Delays inside the CP: per-subcarrier gain equals
        // H(f_sc) = sum h_p e^{-j 2 pi f_sc tau_p} with tau rounded to
        // samples.
        let grid = DdGrid::lte(12, 4);
        let p = TdParams::lte_like();
        let fs = p.sample_rate(&grid);
        // Delays exactly on the sample lattice.
        let ch = MultipathChannel::new(vec![
            Path::new(c64(0.8, 0.0), 3.0 / fs, 0.0),
            Path::new(c64(0.0, 0.5), 7.0 / fs, 0.0),
        ]);
        let x = qpskish_grid(12, 4);
        let y = td_through_channel(&x, &grid, &ch, &p);
        for sc in 0..12 {
            let f = sc as f64 * grid.delta_f;
            let h = ch.tf_gain(0.0, f);
            for sym in 0..4 {
                let got = y[(sc, sym)] / x[(sc, sym)];
                assert!(got.dist(h) < 1e-6, "sc={sc} sym={sym} got={got:?} want={h:?}");
            }
        }
    }

    #[test]
    fn doppler_ici_emerges_and_matches_analytic_model() {
        // Transmit a single occupied subcarrier; with tap Doppler the
        // other bins pick up leaked power. The leaked fraction should
        // match the Jakes second-order ICI term within a small factor.
        let grid = DdGrid::lte(12, 14);
        let p = TdParams::lte_like();
        let fd = 800.0;
        let ch = MultipathChannel::new(vec![Path::new(Complex64::ONE, 0.0, fd)]);
        let mut x = CMatrix::zeros(12, 14);
        for sym in 0..14 {
            x[(5, sym)] = Complex64::ONE;
        }
        let y = td_through_channel(&x, &grid, &ch, &p);
        let mut sig = 0.0;
        let mut leak = 0.0;
        for sym in 0..14 {
            for sc in 0..12 {
                let pw = y[(sc, sym)].norm_sqr();
                if sc == 5 {
                    sig += pw;
                } else {
                    leak += pw;
                }
            }
        }
        let measured = leak / sig;
        let analytic = ici_relative_power(fd, grid.t_sym);
        assert!(
            measured > 0.2 * analytic && measured < 5.0 * analytic,
            "measured={measured:.2e} analytic={analytic:.2e}"
        );
    }

    #[test]
    fn excess_delay_beyond_cp_causes_isi() {
        let grid = DdGrid::lte(12, 6);
        let p = TdParams::lte_like(); // CP = 9 samples
        let fs = p.sample_rate(&grid);
        let x = qpskish_grid(12, 6);
        // In-CP delay: clean. Beyond-CP delay: distorted.
        let ch_ok = MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.0, 0.0),
            Path::new(c64(0.5, 0.0), 6.0 / fs, 0.0),
        ]);
        let ch_bad = MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.0, 0.0),
            Path::new(c64(0.5, 0.0), 40.0 / fs, 0.0),
        ]);
        let err = |ch: &MultipathChannel| -> f64 {
            let y = td_through_channel(&x, &grid, ch, &p);
            // Compare against the ideal per-subcarrier model.
            let mut e = 0.0;
            for sc in 0..12 {
                let h = ch.tf_gain(0.0, sc as f64 * grid.delta_f);
                for sym in 1..6 {
                    e += (y[(sc, sym)] - h * x[(sc, sym)]).norm_sqr();
                }
            }
            e
        };
        let e_ok = err(&ch_ok);
        let e_bad = err(&ch_bad);
        assert!(e_ok < 1e-9, "in-CP delay should be ISI-free: {e_ok}");
        assert!(e_bad > 1e-3, "beyond-CP delay must distort: {e_bad}");
    }

    #[test]
    fn grid_level_model_cross_validation() {
        // The workspace's grid-level model (Y = H ∘ X) agrees with the
        // sample-level waveform for static in-CP multipath.
        let grid = DdGrid::lte(12, 8);
        let p = TdParams::lte_like();
        let fs = p.sample_rate(&grid);
        let ch = MultipathChannel::new(vec![
            Path::new(c64(0.9, 0.1), 2.0 / fs, 0.0),
            Path::new(c64(-0.2, 0.4), 5.0 / fs, 0.0),
        ]);
        let x = qpskish_grid(12, 8);
        let y_td = td_through_channel(&x, &grid, &ch, &p);
        let gains = crate::ofdm::tf_channel(&grid, &ch);
        let y_grid = CMatrix::from_fn(12, 8, |sc, sym| gains[(sc, sym)] * x[(sc, sym)]);
        let rel = y_td.frobenius_dist(&y_grid) / y_grid.frobenius_norm();
        assert!(rel < 1e-6, "rel={rel}");
    }
}
