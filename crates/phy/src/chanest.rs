//! Delay-Doppler channel estimation from reference signals (paper §5.2).
//!
//! REM reuses the 4G/5G cell reference signals but post-processes them
//! in the delay-Doppler domain (Fig 7): the receiver estimates the
//! time-frequency response per resource element from known pilots, then
//! applies the inverse symplectic transform to obtain the sampled
//! delay-Doppler channel matrix `H` — the input of Algorithm 1.
//!
//! The identity used here: with `H_tf[m, n] = sum_p h_p
//! e^{j 2 pi (n T nu_p - m df tau_p)}` and negligible `tau_p * nu_p`
//! products (microseconds times hundreds of Hz), the ISFFT of the
//! sampled `H_tf` equals the normalised delay-Doppler matrix
//! `(Γ/M) P (Φ/N)` of [`rem_channel::delaydoppler`].

use crate::dsp::DspScratch;
use crate::otfs::{isfft, isfft_into};
use rem_channel::{DdGrid, MultipathChannel};
use rem_num::rng::complex_gaussian;
use rem_num::stats::db_to_lin;
use rem_num::{CMatrix, SimRng};

/// Pilot-based time-frequency channel estimate: true gains plus
/// estimation noise at the given pilot SNR (per resource element).
fn estimate_tf(
    grid: &DdGrid,
    ch: &MultipathChannel,
    pilot_snr_db: f64,
    rng: &mut SimRng,
) -> CMatrix {
    let nv = db_to_lin(-pilot_snr_db);
    let truth = ch.tf_grid(grid.m, grid.n, grid.delta_f, grid.t_sym);
    CMatrix::from_fn(grid.m, grid.n, |m, n| truth[(m, n)] + complex_gaussian(rng, nv))
}

/// Transforms a sampled time-frequency channel to the delay-Doppler
/// domain (the smoothing step the paper credits for noise robustness:
/// white TF noise spreads evenly over the DD grid) into a
/// caller-provided output matrix with reused plans and buffers, for
/// per-subframe estimation loops.
pub fn tf_to_dd_into(tf: &CMatrix, out: &mut CMatrix, ws: &mut DspScratch) {
    isfft_into(tf, out, ws);
}

/// End-to-end delay-Doppler channel estimation: pilots -> TF estimate
/// -> ISFFT. With `pilot_snr_db = f64::INFINITY` this returns the exact
/// sampled DD channel.
pub fn estimate_dd(
    grid: &DdGrid,
    ch: &MultipathChannel,
    pilot_snr_db: f64,
    rng: &mut SimRng,
) -> CMatrix {
    if pilot_snr_db.is_infinite() {
        isfft(&ch.tf_grid(grid.m, grid.n, grid.delta_f, grid.t_sym))
    } else {
        isfft(&estimate_tf(grid, ch, pilot_snr_db, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rem_channel::delaydoppler::{dd_channel_matrix, snap_to_grid};
    use rem_channel::Path;
    use rem_num::rng::rng_from_seed;
    use rem_num::{c64, Complex64};

    #[test]
    fn noiseless_estimate_matches_gamma_p_phi_on_grid() {
        // Paths with zero tau*nu product: identity is exact.
        let grid = DdGrid::lte(16, 12);
        let ch = MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.0, 3.0 * grid.delta_nu()),
            Path::new(c64(0.0, 0.5), 4.0 * grid.delta_tau(), 0.0),
        ]);
        let mut rng = rng_from_seed(1);
        let est = estimate_dd(&grid, &ch, f64::INFINITY, &mut rng);
        let truth = dd_channel_matrix(&grid, &ch);
        let rel = est.frobenius_dist(&truth) / truth.frobenius_norm();
        assert!(rel < 1e-9, "rel={rel}");
    }

    #[test]
    fn realistic_channel_small_relative_error() {
        // Realistic delays/Dopplers: tau*nu ~ 1e-4, identity holds to
        // a fraction of a percent.
        let grid = DdGrid::lte(24, 16);
        let ch = MultipathChannel::new(vec![
            Path::new(c64(0.8, 0.1), 0.3e-6, 480.0),
            Path::new(c64(-0.2, 0.4), 1.4e-6, -230.0),
            Path::new(c64(0.1, -0.3), 2.2e-6, 120.0),
        ]);
        let mut rng = rng_from_seed(2);
        let est = estimate_dd(&grid, &ch, f64::INFINITY, &mut rng);
        let truth = dd_channel_matrix(&grid, &ch);
        let rel = est.frobenius_dist(&truth) / truth.frobenius_norm();
        assert!(rel < 0.01, "rel={rel}");
    }

    #[test]
    fn noise_is_spread_by_the_transform() {
        // White TF noise of variance nv maps to DD entries of variance
        // nv/(MN) each (the "smoothing" of paper §5.2): the error energy
        // is preserved but spread thin across the grid.
        let grid = DdGrid::lte(12, 14);
        let ch = MultipathChannel::flat(Complex64::ONE);
        let truth = isfft(&ch.tf_grid(grid.m, grid.n, grid.delta_f, grid.t_sym));
        let mut rng = rng_from_seed(3);
        let est = estimate_dd(&grid, &ch, 10.0, &mut rng);
        let err = &est - &truth;
        let mn = (grid.m * grid.n) as f64;
        // Total error energy ~ nv (= 0.1) spread over MN entries; each
        // entry holds ~ nv/MN.
        let per_entry = err.mean_power();
        let expected = 0.1 / mn;
        assert!(per_entry < 4.0 * expected, "per_entry={per_entry} expected~{expected}");
    }

    #[test]
    fn estimate_improves_with_pilot_snr() {
        let grid = DdGrid::lte(12, 14);
        let mut rng = rng_from_seed(4);
        let ch = MultipathChannel::new(vec![
            Path::new(c64(0.9, 0.0), 0.5e-6, 200.0),
            Path::new(c64(0.0, 0.4), 1.5e-6, -100.0),
        ]);
        let truth = estimate_dd(&grid, &ch, f64::INFINITY, &mut rng);
        let lo = estimate_dd(&grid, &ch, 0.0, &mut rng);
        let hi = estimate_dd(&grid, &ch, 30.0, &mut rng);
        assert!(hi.frobenius_dist(&truth) < lo.frobenius_dist(&truth));
    }

    #[test]
    fn snapped_channel_concentrates_energy() {
        // After snapping to the grid, the DD estimate is sparse: the
        // top-P entries carry essentially all energy.
        let grid = DdGrid::lte(16, 12);
        let raw = MultipathChannel::new(vec![
            Path::new(c64(1.0, 0.0), 0.4e-6, 150.0),
            Path::new(c64(0.3, 0.3), 1.1e-6, -90.0),
        ]);
        let ch = snap_to_grid(&grid, &raw);
        let mut rng = rng_from_seed(5);
        let est = estimate_dd(&grid, &ch, f64::INFINITY, &mut rng);
        let mut mags: Vec<f64> = est.as_slice().iter().map(|z| z.norm_sqr()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: f64 = mags[..2].iter().sum();
        let total: f64 = mags.iter().sum();
        assert!(top / total > 0.98, "top fraction {}", top / total);
    }
}

/// Embedded-pilot delay-Doppler channel estimation (Raviteja et al.,
/// paper ref \[49\]; the mechanism behind REM's delay-Doppler reference
/// signals in Fig 7).
///
/// A single pilot symbol is placed on the delay-Doppler grid; because
/// the channel acts as a 2-D (twisted) circular convolution in that
/// domain, the received grid *is* the channel response translated to
/// the pilot position. The estimator reads it back out, circularly
/// re-centred. Returns the estimated DD channel matrix (same
/// normalisation as [`estimate_dd`]).
pub fn estimate_dd_embedded_pilot(
    grid: &DdGrid,
    ch: &MultipathChannel,
    pilot_snr_db: f64,
    rng: &mut SimRng,
) -> CMatrix {
    use crate::ofdm::{tf_channel, transmit};
    use crate::otfs::{otfs_demodulate, otfs_modulate};

    // Pilot-only frame (the paper's reference signals are scheduled on
    // their own overlay slots, so no data interference here). Placing
    // the pilot at the origin makes re-centring trivial; amplitude
    // sqrt(MN) concentrates the frame's energy in one symbol the way a
    // boosted pilot does.
    let mn = (grid.m * grid.n) as f64;
    let mut dd = CMatrix::zeros(grid.m, grid.n);
    dd[(0, 0)] = rem_num::Complex64::from_real(mn.sqrt());

    let tx = otfs_modulate(&dd);
    let gains = tf_channel(grid, ch);
    let noise_var = if pilot_snr_db.is_infinite() { 0.0 } else { db_to_lin(-pilot_snr_db) };
    let rx = transmit(&tx, &gains, grid, ch, noise_var, rng);
    let y = otfs_demodulate(&rx);

    // y[k, l] = pilot_amp * h_dd[k, l] (+ noise): divide the amplitude
    // back out.
    CMatrix::from_fn(grid.m, grid.n, |k, l| y[(k, l)].scale(1.0 / mn.sqrt()))
}

#[cfg(test)]
mod pilot_tests {
    use super::*;
    use rem_channel::delaydoppler::snap_to_grid;
    use rem_channel::Path;
    use rem_num::rng::rng_from_seed;
    use rem_num::c64;

    fn test_channel(grid: &DdGrid) -> MultipathChannel {
        snap_to_grid(
            grid,
            &MultipathChannel::new(vec![
                Path::new(c64(0.9, 0.1), 0.5e-6, 200.0),
                Path::new(c64(0.0, 0.4), 1.6e-6, -120.0),
            ]),
        )
    }

    #[test]
    fn pilot_estimate_matches_isfft_estimate() {
        // The two estimation paths (genie TF + ISFFT vs embedded pilot
        // through the actual modem) must agree on a static-ish channel.
        let grid = DdGrid::lte(16, 12);
        let ch = test_channel(&grid);
        let mut rng = rng_from_seed(1);
        let genie = estimate_dd(&grid, &ch, f64::INFINITY, &mut rng);
        let pilot = estimate_dd_embedded_pilot(&grid, &ch, f64::INFINITY, &mut rng);
        let rel = pilot.frobenius_dist(&genie) / genie.frobenius_norm();
        assert!(rel < 0.05, "rel={rel}");
    }

    #[test]
    fn pilot_estimate_improves_with_snr() {
        let grid = DdGrid::lte(12, 14);
        let ch = test_channel(&grid);
        let mut rng = rng_from_seed(2);
        let truth = estimate_dd_embedded_pilot(&grid, &ch, f64::INFINITY, &mut rng);
        let lo = estimate_dd_embedded_pilot(&grid, &ch, 5.0, &mut rng);
        let hi = estimate_dd_embedded_pilot(&grid, &ch, 35.0, &mut rng);
        assert!(hi.frobenius_dist(&truth) < lo.frobenius_dist(&truth));
    }

    #[test]
    fn pilot_estimate_feeds_algorithm1_inputs() {
        // The sparse structure survives the round trip: top-2 entries
        // carry nearly all energy for a 2-path on-grid channel.
        let grid = DdGrid::lte(16, 12);
        let ch = test_channel(&grid);
        let mut rng = rng_from_seed(3);
        let est = estimate_dd_embedded_pilot(&grid, &ch, 30.0, &mut rng);
        let mut mags: Vec<f64> = est.as_slice().iter().map(|z| z.norm_sqr()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top: f64 = mags[..2].iter().sum();
        let total: f64 = mags.iter().sum();
        assert!(top / total > 0.9, "top fraction {}", top / total);
    }
}
