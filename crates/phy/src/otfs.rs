//! OTFS modulation: the symplectic finite Fourier transform pair.
//!
//! OTFS places symbols on the `M x N` delay-Doppler grid `x[k, l]` and
//! converts them to the OFDM time-frequency grid `X[n, m]` with the
//! SFFT (paper Eq. 2), transmitting the result over the legacy OFDM
//! radio. The receiver applies the ISFFT (Eq. 3). Because each
//! delay-Doppler symbol is spread over *every* time-frequency slot,
//! it experiences the grid-averaged channel — the full time-frequency
//! diversity that stabilises REM's signaling (paper §5.1).
//!
//! Matrix convention throughout: rows index delay `k` (equivalently
//! subcarrier `m`), columns index Doppler `l` (equivalently OFDM symbol
//! `n`). So a `CMatrix` in the TF domain has entry `(m, n) = X[n, m]`
//! of the paper.

use crate::dsp::{with_thread_scratch, Axis, DspScratch};
use rem_num::{CMatrix, FftDirection};

/// SFFT, paper convention (no normalisation):
/// `X[n, m] = sum_{k, l} x[k, l] e^{-j 2 pi (m k / M - n l / N)}`.
pub fn sfft(x: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(x.rows(), x.cols());
        sfft_into(x, &mut out, ws);
        out
    })
}

/// [`sfft`] into a caller-provided output matrix with reused plans and
/// buffers: zero heap allocations in steady state.
///
/// # Panics
/// Panics if `out` is not the same shape as `x`.
pub fn sfft_into(x: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    assert_eq!(out.shape(), x.shape(), "output shape mismatch");
    out.as_mut_slice().copy_from_slice(x.as_slice());
    // Step 1: unnormalised inverse DFT along the Doppler axis (l -> n),
    // four rows per batched transform. The plan's unnormalised inverse
    // replaces the old `ifft` + multiply-back-by-`n` pair.
    ws.transform_lines(out, Axis::Rows, FftDirection::InverseUnnormalized);
    // Step 2: forward DFT along the delay axis (k -> m), four columns
    // per batched transform.
    ws.transform_lines(out, Axis::Cols, FftDirection::Forward);
}

/// ISFFT, paper convention (includes the `1/(N M)` factor):
/// `x[k, l] = (1/NM) sum_{n, m} X[n, m] e^{+j 2 pi (m k / M - n l / N)}`.
pub fn isfft(big_x: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(big_x.rows(), big_x.cols());
        isfft_into(big_x, &mut out, ws);
        out
    })
}

/// [`isfft`] into a caller-provided output matrix with reused plans and
/// buffers: zero heap allocations in steady state.
///
/// # Panics
/// Panics if `out` is not the same shape as `big_x`.
pub fn isfft_into(big_x: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    let (m, n) = big_x.shape();
    assert_eq!(out.shape(), (m, n), "output shape mismatch");
    out.as_mut_slice().copy_from_slice(big_x.as_slice());
    // Step 1: unnormalised inverse DFT along the delay axis (m -> k),
    // four columns per batched transform.
    ws.transform_lines(out, Axis::Cols, FftDirection::InverseUnnormalized);
    // Step 2: forward DFT along the time axis (n -> l), four rows per
    // batched transform, then one fused `1/(NM)` pass (was: 1/M inside
    // ifft + 1/N per element).
    ws.transform_lines(out, Axis::Rows, FftDirection::Forward);
    out.scale_mut(1.0 / (m * n) as f64);
}

/// Unitary (power-preserving) OTFS modulator: `sfft(x) / sqrt(MN)`.
/// Use this for symbol transmission so average TX power equals average
/// constellation power.
pub fn otfs_modulate(x_dd: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(x_dd.rows(), x_dd.cols());
        otfs_modulate_into(x_dd, &mut out, ws);
        out
    })
}

/// [`otfs_modulate`] into a caller-provided output matrix with reused
/// plans and buffers.
pub fn otfs_modulate_into(x_dd: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    let (m, n) = x_dd.shape();
    sfft_into(x_dd, out, ws);
    out.scale_mut(1.0 / ((m * n) as f64).sqrt());
}

/// Unitary OTFS demodulator, inverse of [`otfs_modulate`].
pub fn otfs_demodulate(x_tf: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(x_tf.rows(), x_tf.cols());
        otfs_demodulate_into(x_tf, &mut out, ws);
        out
    })
}

/// [`otfs_demodulate`] into a caller-provided output matrix with reused
/// plans and buffers.
pub fn otfs_demodulate_into(x_tf: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    let (m, n) = x_tf.shape();
    isfft_into(x_tf, out, ws);
    out.scale_mut(((m * n) as f64).sqrt());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_num::{c64, Complex64, FftPlanner, FftScratch};
    use std::f64::consts::PI;

    fn test_grid(m: usize, n: usize) -> CMatrix {
        CMatrix::from_fn(m, n, |r, c| c64((r as f64 * 0.7).sin() + c as f64 * 0.1, (c as f64 - r as f64) * 0.05))
    }

    #[test]
    fn sfft_isfft_round_trip() {
        for (m, n) in [(4usize, 4usize), (12, 14), (8, 5), (3, 7)] {
            let x = test_grid(m, n);
            let back = isfft(&sfft(&x));
            assert!(back.frobenius_dist(&x) < 1e-9, "({m},{n})");
        }
    }

    #[test]
    fn isfft_sfft_round_trip() {
        let x = test_grid(12, 14);
        let back = sfft(&isfft(&x));
        assert!(back.frobenius_dist(&x) < 1e-9);
    }

    #[test]
    fn sfft_matches_direct_sum() {
        let (m, n) = (4usize, 3usize);
        let x = test_grid(m, n);
        let got = sfft(&x);
        // Direct evaluation of Eq. 2.
        for mm in 0..m {
            for nn in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..m {
                    for l in 0..n {
                        let ang = -2.0 * PI * (mm as f64 * k as f64 / m as f64 - nn as f64 * l as f64 / n as f64);
                        acc += x[(k, l)] * Complex64::cis(ang);
                    }
                }
                assert!(got[(mm, nn)].dist(acc) < 1e-9, "({mm},{nn})");
            }
        }
    }

    #[test]
    fn unitary_pair_preserves_energy() {
        let x = test_grid(12, 14);
        let tx = otfs_modulate(&x);
        let ein = x.frobenius_norm();
        let eout = tx.frobenius_norm();
        assert!((ein - eout).abs() < 1e-9 * ein);
        let back = otfs_demodulate(&tx);
        assert!(back.frobenius_dist(&x) < 1e-9);
    }

    #[test]
    fn single_dd_symbol_spreads_over_full_grid() {
        // The diversity mechanism: one delay-Doppler symbol occupies
        // every time-frequency slot with equal magnitude.
        let mut x = CMatrix::zeros(6, 8);
        x[(2, 3)] = Complex64::ONE;
        let tx = otfs_modulate(&x);
        let expected = 1.0 / (6.0f64 * 8.0).sqrt();
        for v in tx.as_slice() {
            assert!((v.abs() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn dd_dc_maps_to_tf_dc() {
        // An all-ones DD grid concentrates on the (0,0) TF bin.
        let x = CMatrix::from_fn(4, 6, |_, _| Complex64::ONE);
        let tx = sfft(&x);
        assert!(tx[(0, 0)].dist(c64(24.0, 0.0)) < 1e-9);
        let off: f64 = tx
            .as_slice()
            .iter()
            .map(|z| z.abs())
            .sum::<f64>()
            - tx[(0, 0)].abs();
        assert!(off < 1e-8);
    }

    #[test]
    fn into_variants_match_allocating_versions_exactly() {
        // Satellite contract: the `_into` paths are the implementation
        // of the allocating wrappers, so outputs must be bit-identical,
        // including across scratch reuse.
        let mut ws = DspScratch::new();
        for (m, n) in [(4usize, 4usize), (12, 14), (8, 5), (3, 7), (16, 12)] {
            let x = test_grid(m, n);
            let mut out = CMatrix::zeros(m, n);

            sfft_into(&x, &mut out, &mut ws);
            assert_eq!(sfft(&x).as_slice(), out.as_slice(), "sfft ({m},{n})");

            isfft_into(&x, &mut out, &mut ws);
            assert_eq!(isfft(&x).as_slice(), out.as_slice(), "isfft ({m},{n})");

            otfs_modulate_into(&x, &mut out, &mut ws);
            assert_eq!(otfs_modulate(&x).as_slice(), out.as_slice(), "mod ({m},{n})");

            otfs_demodulate_into(&x, &mut out, &mut ws);
            assert_eq!(otfs_demodulate(&x).as_slice(), out.as_slice(), "demod ({m},{n})");
        }
    }

    /// The SFFT as one-vector plan calls: every row, then every column,
    /// one transform each.
    fn reference_sfft(x: &CMatrix) -> CMatrix {
        let (m, n) = x.shape();
        let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
        let mut out = x.clone();
        let row_plan = planner.plan(n);
        for k in 0..m {
            row_plan.inverse_unnormalized(out.row_mut(k), &mut scratch);
        }
        let col_plan = planner.plan(m);
        let mut col = vec![Complex64::ZERO; m];
        for c in 0..n {
            out.copy_col_into(c, &mut col);
            col_plan.forward(&mut col, &mut scratch);
            out.set_col(c, &col);
        }
        out
    }

    /// The ISFFT as one-vector plan calls: every column, then every row.
    fn reference_isfft(x: &CMatrix) -> CMatrix {
        let (m, n) = x.shape();
        let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
        let mut out = x.clone();
        let col_plan = planner.plan(m);
        let mut col = vec![Complex64::ZERO; m];
        for c in 0..n {
            out.copy_col_into(c, &mut col);
            col_plan.inverse_unnormalized(&mut col, &mut scratch);
            out.set_col(c, &col);
        }
        let row_plan = planner.plan(n);
        for k in 0..m {
            row_plan.forward(out.row_mut(k), &mut scratch);
        }
        out.scale_mut(1.0 / (m * n) as f64);
        out
    }

    fn bits(x: &CMatrix) -> Vec<(u64, u64)> {
        x.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn batched_grid_transforms_match_one_vector_loops_bit_for_bit() {
        let mut ws = DspScratch::new();
        let shapes = (1..=16usize).flat_map(|m| (1..=16usize).map(move |n| (m, n)));
        for (m, n) in shapes.chain([(12, 14), (48, 14)]) {
            let x = test_grid(m, n);
            let mut out = CMatrix::zeros(m, n);
            sfft_into(&x, &mut out, &mut ws);
            assert_eq!(bits(&out), bits(&reference_sfft(&x)), "sfft ({m},{n})");
            isfft_into(&x, &mut out, &mut ws);
            assert_eq!(bits(&out), bits(&reference_isfft(&x)), "isfft ({m},{n})");
        }
    }

    #[test]
    fn linearity() {
        let a = test_grid(5, 6);
        let b = CMatrix::from_fn(5, 6, |r, c| c64(c as f64, r as f64));
        let lhs = sfft(&(&a + &b));
        let rhs = &sfft(&a) + &sfft(&b);
        assert!(lhs.frobenius_dist(&rhs) < 1e-9);
    }
}
