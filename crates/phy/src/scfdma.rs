//! SC-FDMA (DFT-spread OFDM), the 4G/5G uplink waveform.
//!
//! The paper's overhead argument (§5.1) notes that REM's SFFT/ISFFT
//! pre/post-processing costs the same order as the uplink's SC-FDMA —
//! an extra DFT in front of OFDM. This module implements that
//! precoding so the claim is checkable in-code: per-column DFT spread
//! at the transmitter, inverse at the receiver, with the classic
//! side-effect that the time-domain envelope is much closer to
//! single-carrier (lower PAPR).

use crate::dsp::{with_thread_scratch, Axis, DspScratch};
use rem_num::{CMatrix, Complex64, FftDirection};

/// DFT-spreads each OFDM symbol (column): the `M` constellation
/// symbols of a column are replaced by their unitary DFT before
/// subcarrier mapping.
pub fn scfdma_precode(grid_data: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(grid_data.rows(), grid_data.cols());
        scfdma_precode_into(grid_data, &mut out, ws);
        out
    })
}

/// [`scfdma_precode`] into a caller-provided output matrix with reused
/// plans and buffers, four columns per batched transform.
///
/// # Panics
/// Panics if `out` is not the same shape as `grid_data`.
pub fn scfdma_precode_into(grid_data: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    assert_eq!(out.shape(), grid_data.shape(), "output shape mismatch");
    out.as_mut_slice().copy_from_slice(grid_data.as_slice());
    ws.transform_lines(out, Axis::Cols, FftDirection::Forward);
    out.scale_mut(1.0 / (grid_data.rows() as f64).sqrt());
}

/// Inverse of [`scfdma_precode`].
pub fn scfdma_deprecode(grid_data: &CMatrix) -> CMatrix {
    with_thread_scratch(|ws| {
        let mut out = CMatrix::zeros(grid_data.rows(), grid_data.cols());
        scfdma_deprecode_into(grid_data, &mut out, ws);
        out
    })
}

/// [`scfdma_deprecode`] into a caller-provided output matrix with
/// reused plans and buffers, four columns per batched transform. The
/// inverse transform's `1/M` and the unitary `sqrt(M)` are fused into a
/// single `1/sqrt(M)` pass.
///
/// # Panics
/// Panics if `out` is not the same shape as `grid_data`.
pub fn scfdma_deprecode_into(grid_data: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    assert_eq!(out.shape(), grid_data.shape(), "output shape mismatch");
    out.as_mut_slice().copy_from_slice(grid_data.as_slice());
    ws.transform_lines(out, Axis::Cols, FftDirection::InverseUnnormalized);
    out.scale_mut(1.0 / (grid_data.rows() as f64).sqrt());
}

/// Peak-to-average power ratio of a sample stream, in dB.
pub fn papr_db(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let peak = samples.iter().map(|z| z.norm_sqr()).fold(0.0, f64::max);
    let mean = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
    10.0 * (peak / mean.max(1e-300)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm_td::{td_modulate, TdParams};
    use crate::qam::{modulate, Modulation};
    use rand::Rng;
    use rem_num::rng::rng_from_seed;
    use rem_num::{FftPlanner, FftScratch};

    fn random_qpsk_grid(m: usize, n: usize, seed: u64) -> CMatrix {
        let mut rng = rng_from_seed(seed);
        let bits: Vec<bool> = (0..m * n * 2).map(|_| rng.gen()).collect();
        CMatrix::from_vec(m, n, modulate(&bits, Modulation::Qpsk))
    }

    #[test]
    fn precode_round_trip() {
        let x = random_qpsk_grid(12, 14, 1);
        let back = scfdma_deprecode(&scfdma_precode(&x));
        assert!(back.frobenius_dist(&x) < 1e-9);
    }

    #[test]
    fn into_variants_match_allocating_versions_exactly() {
        let mut ws = DspScratch::new();
        for (m, n) in [(12usize, 14usize), (8, 4), (5, 3)] {
            let x = random_qpsk_grid(m, n, 77);
            let mut out = CMatrix::zeros(m, n);
            scfdma_precode_into(&x, &mut out, &mut ws);
            assert_eq!(scfdma_precode(&x).as_slice(), out.as_slice(), "precode ({m},{n})");
            scfdma_deprecode_into(&x, &mut out, &mut ws);
            assert_eq!(scfdma_deprecode(&x).as_slice(), out.as_slice(), "deprecode ({m},{n})");
        }
    }

    /// Per-column one-vector plan calls, then the `1/sqrt(M)` scale.
    fn reference(x: &CMatrix, dir: FftDirection) -> CMatrix {
        let (m, n) = x.shape();
        let (mut planner, mut scratch) = (FftPlanner::new(), FftScratch::new());
        let plan = planner.plan(m);
        let mut out = x.clone();
        let mut col = vec![Complex64::ZERO; m];
        for c in 0..n {
            out.copy_col_into(c, &mut col);
            match dir {
                FftDirection::Forward => plan.forward(&mut col, &mut scratch),
                FftDirection::InverseUnnormalized => {
                    plan.inverse_unnormalized(&mut col, &mut scratch)
                }
            }
            out.set_col(c, &col);
        }
        out.scale_mut(1.0 / (m as f64).sqrt());
        out
    }

    #[test]
    fn batched_columns_match_one_vector_plans_bit_for_bit() {
        let bits = |x: &CMatrix| -> Vec<(u64, u64)> {
            x.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let mut ws = DspScratch::new();
        for (m, n) in [(1usize, 1usize), (5, 3), (8, 4), (12, 14), (7, 9), (48, 14)] {
            let x = CMatrix::from_fn(m, n, |r, c| {
                rem_num::c64((r as f64 * 0.3 + c as f64).sin(), (r as f64 - 0.7 * c as f64).cos())
            });
            let mut out = CMatrix::zeros(m, n);
            scfdma_precode_into(&x, &mut out, &mut ws);
            let want = reference(&x, FftDirection::Forward);
            assert_eq!(bits(&out), bits(&want), "precode ({m},{n})");
            scfdma_deprecode_into(&x, &mut out, &mut ws);
            let want = reference(&x, FftDirection::InverseUnnormalized);
            assert_eq!(bits(&out), bits(&want), "deprecode ({m},{n})");
        }
    }

    #[test]
    fn precode_is_unitary() {
        let x = random_qpsk_grid(12, 14, 2);
        let y = scfdma_precode(&x);
        assert!((y.frobenius_norm() - x.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn scfdma_lowers_papr_vs_ofdm() {
        // The defining property: DFT-spread symbols produce a flatter
        // time-domain envelope than plain OFDM (averaged over frames).
        let p = TdParams::lte_like();
        let frames = 20;
        let mut ofdm_papr = 0.0;
        let mut sc_papr = 0.0;
        for f in 0..frames {
            let x = random_qpsk_grid(12, 14, 100 + f);
            ofdm_papr += papr_db(&td_modulate(&x, &p));
            sc_papr += papr_db(&td_modulate(&scfdma_precode(&x), &p));
        }
        ofdm_papr /= frames as f64;
        sc_papr /= frames as f64;
        assert!(
            sc_papr < ofdm_papr - 0.5,
            "sc-fdma {sc_papr:.2} dB should be below ofdm {ofdm_papr:.2} dB"
        );
    }

    #[test]
    fn papr_edge_cases() {
        assert_eq!(papr_db(&[]), 0.0);
        // Constant envelope: 0 dB.
        let flat = vec![rem_num::c64(1.0, 0.0); 64];
        assert!(papr_db(&flat).abs() < 1e-9);
    }
}
