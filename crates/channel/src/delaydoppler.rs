//! Sampled delay-Doppler channel matrices (paper §5.2, Eq. 5–6).
//!
//! Discretising the OFDM time-frequency plane into an `M x N` grid
//! (subcarrier spacing `delta_f`, symbol duration `T`) induces a dual
//! `M x N` delay-Doppler grid with quantisation steps
//! `delta_tau = 1 / (M delta_f)` and `delta_nu = 1 / (N T)`. The
//! windowed channel sampled on that grid factorises as
//!
//! ```text
//! H = Γ · P · Φ
//! ```
//!
//! with `Γ (M x P)` the frequency-independent delay-spread factor,
//! `P (P x P)` the diagonal of path magnitudes, and `Φ (P x N)` the
//! frequency-dependent Doppler-spread factor — the decomposition that
//! REM approximates with an SVD for cross-band estimation.

use crate::path::MultipathChannel;
use rem_num::{CMatrix, Complex64};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// An `M x N` delay-Doppler grid induced by an OFDM numerology.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DdGrid {
    /// Number of delay bins (= OFDM subcarriers), `M`.
    pub m: usize,
    /// Number of Doppler bins (= OFDM symbols), `N`.
    pub n: usize,
    /// Subcarrier spacing in Hz, `delta_f`.
    pub delta_f: f64,
    /// Symbol duration in seconds, `T`.
    pub t_sym: f64,
}

impl DdGrid {
    /// Standard 4G LTE numerology: `delta_f = 15 kHz`, `T = 66.7 us`.
    pub fn lte(m: usize, n: usize) -> Self {
        Self { m, n, delta_f: 15e3, t_sym: 1.0 / 15e3 }
    }

    /// One LTE subframe: 12 subcarriers x 14 symbols (1 ms).
    pub fn lte_subframe() -> Self {
        Self::lte(12, 14)
    }

    /// 5G NR numerology `mu` (paper §3.4 / TS 38.211): subcarrier
    /// spacing `15 * 2^mu` kHz, symbol duration `1/(15*2^mu kHz)`.
    /// `mu` in 0..=4 covers 15/30/60/120/240 kHz.
    pub fn nr(mu: u32, m: usize, n: usize) -> Self {
        let scs = 15e3 * 2f64.powi(mu as i32);
        Self { m, n, delta_f: scs, t_sym: 1.0 / scs }
    }

    /// Delay quantisation step `delta_tau = 1 / (M delta_f)`, seconds.
    pub fn delta_tau(&self) -> f64 {
        1.0 / (self.m as f64 * self.delta_f)
    }

    /// Doppler quantisation step `delta_nu = 1 / (N T)`, Hz.
    pub fn delta_nu(&self) -> f64 {
        1.0 / (self.n as f64 * self.t_sym)
    }

    /// Total grid duration `N T`, seconds.
    pub fn duration_s(&self) -> f64 {
        self.n as f64 * self.t_sym
    }
}

/// Delay-spread entry `Γ(k delta_tau, tau_p) = sum_{d=0}^{M-1}
/// e^{j 2 pi (k delta_tau - tau_p) d delta_f}` (geometric sum, closed
/// form away from the unit-ratio singularity).
fn gamma_entry(grid: &DdGrid, k: usize, tau_p: f64) -> Complex64 {
    let x = 2.0 * PI * (k as f64 * grid.delta_tau() - tau_p) * grid.delta_f;
    geometric_phasor_sum(x, grid.m)
}

/// Doppler-spread entry `Φ(l delta_nu, nu_p) = sum_{c=0}^{N-1}
/// e^{-j 2 pi (l delta_nu - nu_p) c T}`.
pub fn phi_entry(grid: &DdGrid, l: usize, nu_p: f64) -> Complex64 {
    let x = -2.0 * PI * (l as f64 * grid.delta_nu() - nu_p) * grid.t_sym;
    geometric_phasor_sum(x, grid.n)
}

/// `sum_{d=0}^{n-1} e^{j x d}`.
fn geometric_phasor_sum(x: f64, n: usize) -> Complex64 {
    let r = Complex64::cis(x);
    if r.dist(Complex64::ONE) < 1e-12 {
        Complex64::from_real(n as f64)
    } else {
        (Complex64::ONE - Complex64::cis(x * n as f64)) / (Complex64::ONE - r)
    }
}

/// The delay factor `Γ / M` as an `M x P` matrix (paper's normalised
/// form, so that `H = Γ P Φ` with the `1/(MN)` absorbed).
pub fn gamma_matrix(grid: &DdGrid, ch: &MultipathChannel) -> CMatrix {
    let paths = ch.paths();
    CMatrix::from_fn(grid.m, paths.len(), |k, p| {
        gamma_entry(grid, k, paths[p].delay_s).scale(1.0 / grid.m as f64)
    })
}

/// The diagonal magnitude factor `P` (`P x P`).
pub fn p_matrix(ch: &MultipathChannel) -> CMatrix {
    let mags: Vec<f64> = ch.paths().iter().map(|p| p.gain.abs()).collect();
    CMatrix::diag_real(&mags)
}

/// The Doppler factor `Φ / N` as a `P x N` matrix, including each
/// path's phase term `e^{-j(theta_p + 2 pi tau_p nu_p)}` where
/// `h_p = |h_p| e^{-j theta_p}`.
pub fn phi_matrix(grid: &DdGrid, ch: &MultipathChannel) -> CMatrix {
    let paths = ch.paths();
    CMatrix::from_fn(paths.len(), grid.n, |p, l| {
        let path = paths[p];
        // h_p = |h_p| e^{-j theta_p}  =>  theta_p = -arg(h_p).
        let theta_p = -path.gain.arg();
        let phase = Complex64::cis(-(theta_p + 2.0 * PI * path.delay_s * path.doppler_hz));
        phi_entry(grid, l, path.doppler_hz) * phase.scale(1.0 / grid.n as f64)
    })
}

/// The sampled delay-Doppler channel matrix `H = (Γ/M) P (Φ/N)`
/// (`M x N`), i.e. entry `(k, l)` is `h_w(k delta_tau, l delta_nu) / (M N)`
/// in the paper's notation. This is the quantity Algorithm 1 receives
/// as its input "channel estimation matrix".
pub fn dd_channel_matrix(grid: &DdGrid, ch: &MultipathChannel) -> CMatrix {
    gamma_matrix(grid, ch).matmul(&p_matrix(ch)).matmul(&phi_matrix(grid, ch))
}

/// Places each path on its nearest delay-Doppler bin — the "on-grid"
/// idealisation under which Theorem 1 holds exactly. Returns a new
/// channel whose delays/Dopplers are integer multiples of the grid
/// steps.
pub fn snap_to_grid(grid: &DdGrid, ch: &MultipathChannel) -> MultipathChannel {
    let dt = grid.delta_tau();
    let dv = grid.delta_nu();
    MultipathChannel::new(
        ch.paths()
            .iter()
            .map(|p| {
                let k = (p.delay_s / dt).round().max(0.0);
                let l = (p.doppler_hz / dv).round();
                crate::path::Path::new(p.gain, k * dt, l * dv)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use rem_num::c64;

    fn on_grid_channel(grid: &DdGrid) -> MultipathChannel {
        // Paths exactly on distinct grid points (Theorem 1 condition ii).
        let dt = grid.delta_tau();
        let dv = grid.delta_nu();
        MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.0, 0.0),
            Path::new(c64(0.0, 0.6), 2.0 * dt, 3.0 * dv),
            Path::new(c64(-0.3, 0.3), 5.0 * dt, -2.0 * dv + grid.n as f64 * dv),
        ])
    }

    #[test]
    fn grid_steps() {
        let g = DdGrid::lte_subframe();
        assert_eq!(g.m, 12);
        assert_eq!(g.n, 14);
        assert!((g.delta_tau() - 1.0 / (12.0 * 15e3)).abs() < 1e-18);
        assert!((g.delta_nu() - 15e3 / 14.0).abs() < 1e-9);
        assert!((g.duration_s() - 14.0 / 15e3).abs() < 1e-12);
    }

    #[test]
    fn gamma_peaks_at_matching_bin() {
        let g = DdGrid::lte(16, 8);
        let tau = 3.0 * g.delta_tau();
        // At k=3 the phasor sum is coherent: magnitude M.
        assert!((gamma_entry(&g, 3, tau).abs() - 16.0).abs() < 1e-9);
        // At other bins of an on-grid path it is zero.
        assert!(gamma_entry(&g, 5, tau).abs() < 1e-9);
    }

    #[test]
    fn phi_peaks_at_matching_bin() {
        let g = DdGrid::lte(8, 16);
        let nu = 5.0 * g.delta_nu();
        assert!((phi_entry(&g, 5, nu).abs() - 16.0).abs() < 1e-9);
        assert!(phi_entry(&g, 2, nu).abs() < 1e-9);
    }

    #[test]
    fn off_grid_path_leaks_to_neighbours() {
        let g = DdGrid::lte(16, 8);
        let tau = 3.5 * g.delta_tau();
        // Fractional delay: energy spreads, peak below M.
        assert!(gamma_entry(&g, 3, tau).abs() < 16.0);
        assert!(gamma_entry(&g, 4, tau).abs() > 1.0);
    }

    #[test]
    fn dd_matrix_of_on_grid_channel_is_sparse() {
        let g = DdGrid::lte(16, 12);
        let ch = on_grid_channel(&g);
        let h = dd_channel_matrix(&g, &ch);
        // Energy should be concentrated on exactly num_paths entries.
        let mut mags: Vec<f64> = h.as_slice().iter().map(|z| z.abs()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(mags[2] > 1e-3);
        assert!(mags[3] < 1e-9, "expected sparsity, got {}", mags[3]);
    }

    #[test]
    fn dd_matrix_entries_match_path_magnitudes() {
        let g = DdGrid::lte(16, 12);
        let ch = on_grid_channel(&g);
        let h = dd_channel_matrix(&g, &ch);
        // Path 2 sits at (k=2, l=3) with |h| = 0.6; the normalised
        // matrix entry magnitude equals the path magnitude.
        assert!((h[(2, 3)].abs() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn factorisation_matches_direct_product() {
        let g = DdGrid::lte(10, 9);
        let ch = MultipathChannel::new(vec![
            Path::new(c64(0.9, 0.1), 0.3e-6, 120.0),
            Path::new(c64(-0.2, 0.5), 1.1e-6, -80.0),
        ]);
        let h = dd_channel_matrix(&g, &ch);
        let g1 = gamma_matrix(&g, &ch);
        let p = p_matrix(&ch);
        let f = phi_matrix(&g, &ch);
        assert!(h.frobenius_dist(&g1.matmul(&p).matmul(&f)) < 1e-12);
        assert_eq!(h.shape(), (10, 9));
    }

    #[test]
    fn snap_to_grid_quantises() {
        let g = DdGrid::lte(12, 14);
        let ch = MultipathChannel::new(vec![Path::new(
            c64(1.0, 0.0),
            2.4 * g.delta_tau(),
            3.6 * g.delta_nu(),
        )]);
        let s = snap_to_grid(&g, &ch);
        assert!((s.paths()[0].delay_s / g.delta_tau() - 2.0).abs() < 1e-9);
        assert!((s.paths()[0].doppler_hz / g.delta_nu() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_matrix_is_frequency_independent_of_doppler() {
        // Changing path Doppler must not change Γ (delay factor).
        let g = DdGrid::lte(8, 8);
        let ch1 = MultipathChannel::new(vec![Path::new(c64(1.0, 0.0), 0.5e-6, 100.0)]);
        let ch2 = MultipathChannel::new(vec![Path::new(c64(1.0, 0.0), 0.5e-6, 999.0)]);
        assert!(gamma_matrix(&g, &ch1).frobenius_dist(&gamma_matrix(&g, &ch2)) < 1e-12);
    }
}
