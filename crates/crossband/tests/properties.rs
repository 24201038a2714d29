//! Property-based tests for Algorithm 1 and its baselines.

use rem_channel::delaydoppler::{dd_channel_matrix, DdGrid};
use rem_channel::{MultipathChannel, Path};
use rem_crossband::{estimate_band2, SvdEstimatorConfig};
use rem_integration::{check, Gen};
use rem_num::c64;
use std::f64::consts::TAU;

/// Cases per property.
const CASES: usize = 48;

/// Random channels with pairwise-distinct delay bins *and* pairwise-
/// distinct Doppler bins — Theorem 1's condition (ii) requires both
/// (two paths sharing either coordinate make Γ or Φ rank-deficient).
fn on_grid_channel(g: &mut Gen) -> MultipathChannel {
    let ks = g.set(1..4, |g| g.range(0usize..8));
    let ls = g.set(3..4, |g| g.range(0usize..6));
    let gains: Vec<(f64, f64)> = (0..4).map(|_| (g.range(0.2..1.0), g.range(0.0..TAU))).collect();
    let grid = DdGrid::lte(16, 12);
    let paths: Vec<Path> = ks
        .into_iter()
        .zip(ls)
        .zip(gains)
        .map(|((k, l), (mag, ph))| {
            Path::new(
                c64(mag * ph.cos(), mag * ph.sin()),
                k as f64 * grid.delta_tau(),
                l as f64 * grid.delta_nu(),
            )
        })
        .collect();
    MultipathChannel::new(paths)
}

/// Same-band estimation is (near-)exact for on-grid channels.
#[test]
fn same_band_identity() {
    check("same_band_identity", CASES, on_grid_channel, |ch| {
        let grid = DdGrid::lte(16, 12);
        let h1 = dd_channel_matrix(&grid, ch);
        let est = estimate_band2(&grid, &h1, 2e9, 2e9, &SvdEstimatorConfig::default());
        let rel = est.h2_dd.frobenius_dist(&h1) / h1.frobenius_norm().max(1e-12);
        assert!(rel < 0.02, "rel={rel}");
    });
}

/// Cross-band estimation preserves total channel power (delays and
/// attenuations are frequency independent).
#[test]
fn power_preserved_across_bands() {
    check(
        "power_preserved_across_bands",
        CASES,
        |g| (on_grid_channel(g), g.range(1.0f64..3.0)),
        |(ch, f2)| {
            let grid = DdGrid::lte(16, 12);
            let h1 = dd_channel_matrix(&grid, ch);
            let est = estimate_band2(&grid, &h1, 2e9, f2 * 1e9, &SvdEstimatorConfig::default());
            let p1 = h1.frobenius_norm();
            let p2 = est.h2_dd.frobenius_norm();
            assert!((p1 - p2).abs() / p1.max(1e-12) < 0.05, "p1={p1} p2={p2}");
        },
    );
}

/// Recovered magnitudes match the true path magnitudes (as the
/// dominant singular values), sorted descending.
#[test]
fn recovered_magnitudes_match() {
    check("recovered_magnitudes_match", CASES, on_grid_channel, |ch| {
        let grid = DdGrid::lte(16, 12);
        let h1 = dd_channel_matrix(&grid, ch);
        let est = estimate_band2(&grid, &h1, 2e9, 2e9, &SvdEstimatorConfig::default());
        let mut true_mags: Vec<f64> = ch.paths().iter().map(|p| p.gain.abs()).collect();
        true_mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in est.paths.iter().zip(&true_mags) {
            // Rank truncation may drop the weakest; compare matched ones.
            assert!(
                (got.magnitude - want).abs() < 0.15 * want.max(0.2),
                "got={} want={}",
                got.magnitude,
                want
            );
        }
    });
}

/// Doppler scaling is exactly linear in the carrier ratio.
#[test]
fn doppler_scaling_is_linear() {
    check("doppler_scaling_is_linear", CASES, on_grid_channel, |ch| {
        let grid = DdGrid::lte(16, 12);
        let h1 = dd_channel_matrix(&grid, ch);
        let cfg = SvdEstimatorConfig::default();
        let e1 = estimate_band2(&grid, &h1, 2e9, 2.5e9, &cfg);
        let e2 = estimate_band2(&grid, &h1, 2e9, 3.0e9, &cfg);
        // The recovered band-1 profiles are identical regardless of f2.
        for (a, b) in e1.paths.iter().zip(&e2.paths) {
            assert!((a.doppler_hz - b.doppler_hz).abs() < 1e-6);
            assert!((a.delay_s - b.delay_s).abs() < 1e-12);
        }
    });
}

/// Two channels outside Theorem 1's distinct-bin condition, which
/// [`on_grid_channel`] never draws: the first has two paths in one
/// Doppler bin, the second two paths in one delay bin.
fn shared_bin_channels(grid: &DdGrid) -> [MultipathChannel; 2] {
    let (dt, dn) = (grid.delta_tau(), grid.delta_nu());
    [
        MultipathChannel::new(vec![
            Path::new(c64(0.426555, 0.0), 0.0, 2.0 * dn),
            Path::new(c64(0.592496, 0.0), dt, 2.0 * dn),
        ]),
        MultipathChannel::new(vec![
            Path::new(c64(0.2, 0.0), 7.0 * dt, 0.0),
            Path::new(c64(0.2, 0.0), 7.0 * dt, 2.0 * dn),
        ]),
    ]
}

/// What Algorithm 1 does on the shared-bin channels: finite
/// output, total power preserved to 4 digits, and the two paths merged
/// into one recovered path, at the same band and across bands.
/// Same-band identity survives the shared Doppler bin but not the
/// shared delay bin, where the estimate misses by `sqrt(2)`.
#[test]
fn shared_bin_channels_merge_into_one_path() {
    let grid = DdGrid::lte(16, 12);
    let cfg = SvdEstimatorConfig::default();
    let [shared_doppler, shared_delay] = shared_bin_channels(&grid);
    let mut same_band_rel = Vec::new();
    for ch in [&shared_doppler, &shared_delay] {
        let h1 = dd_channel_matrix(&grid, ch);
        let p1 = h1.frobenius_norm();
        for f2 in [2e9, 2.5e9] {
            let est = estimate_band2(&grid, &h1, 2e9, f2, &cfg);
            assert!(est.h2_dd.as_slice().iter().all(|z| z.re.is_finite() && z.im.is_finite()));
            let p2 = est.h2_dd.frobenius_norm();
            assert!((p1 - p2).abs() < 1e-4 * p1, "f2={f2} p1={p1} p2={p2}");
            assert_eq!(est.paths.len(), 1, "f2={f2}: {:?}", est.paths);
            if f2 == 2e9 {
                same_band_rel.push(est.h2_dd.frobenius_dist(&h1) / p1);
            }
        }
    }
    assert!(same_band_rel[0] < 0.02, "shared Doppler bin: rel={}", same_band_rel[0]);
    let miss = same_band_rel[1] - std::f64::consts::SQRT_2;
    assert!(miss.abs() < 0.01, "shared delay bin: rel={}", same_band_rel[1]);
}
