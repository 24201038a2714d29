//! Property-based tests for the numerical foundations.

use rem_integration::{check, Gen};
use rem_num::fft::{dft_naive, fft_vec, ifft_vec};
use rem_num::simd::SimdTier;
use rem_num::svd::svd;
use rem_num::{
    c64, CMatrix, Complex64, FftDirection, FftPlan, FftPlanner, FftScratch, Lanes, BATCH,
};

/// Deterministic non-trivial input for length-parameterised FFT tests.
fn test_signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            c64((0.3 * x).sin() + 0.1 * x.cos(), (0.7 * x).cos() - 0.2)
        })
        .collect()
}

/// Every length exercised by the LTE/OTFS grids plus all short lengths:
/// 1..=64 covers the radix-2 and Bluestein branch points, 12/14 the
/// delay-Doppler grid, 72/600/1200 the occupied-subcarrier widths.
fn plan_lengths() -> impl Iterator<Item = usize> {
    (1..=64).chain([72, 600, 1200])
}

#[test]
fn planned_fft_matches_naive_dft_for_all_plan_lengths() {
    let mut scratch = FftScratch::new();
    for n in plan_lengths() {
        let plan = FftPlan::new(n);
        assert_eq!(plan.len(), n);
        let x = test_signal(n);

        let mut fwd = x.clone();
        plan.forward(&mut fwd, &mut scratch);
        let want = dft_naive(&x, false);
        for (a, b) in fwd.iter().zip(&want) {
            assert!(a.dist(*b) < 1e-8 * (n as f64) * (1.0 + b.abs()), "n={n}");
        }

        // dft_naive(_, true) already applies the 1/N normalisation.
        let mut inv = x.clone();
        plan.inverse(&mut inv, &mut scratch);
        let want_inv = dft_naive(&x, true);
        for (a, b) in inv.iter().zip(&want_inv) {
            assert!(a.dist(*b) < 1e-8 * (n as f64) * (1.0 + b.abs()), "n={n}");
        }

        // Unnormalised inverse is the inverse DFT sum with no 1/N.
        let mut raw = x.clone();
        plan.inverse_unnormalized(&mut raw, &mut scratch);
        let want_raw: Vec<Complex64> =
            dft_naive(&x, true).into_iter().map(|z| z.scale(n as f64)).collect();
        for (a, b) in raw.iter().zip(&want_raw) {
            assert!(a.dist(*b) < 1e-8 * (n as f64) * (1.0 + b.abs()), "n={n}");
        }
    }
}

#[test]
fn plan_reuse_is_bit_identical_to_fresh_plans() {
    let mut planner = FftPlanner::new();
    let mut scratch = FftScratch::new();
    for n in plan_lengths() {
        let x = test_signal(n);
        // Two passes through the cached plan (planner.plan hits the
        // cache on the second call) vs a fresh plan each time.
        for _ in 0..2 {
            let cached = planner.plan(n);
            let mut a = x.clone();
            cached.forward(&mut a, &mut scratch);
            let mut b = x.clone();
            FftPlan::new(n).forward(&mut b, &mut FftScratch::new());
            assert_eq!(a, b, "forward n={n}");

            let mut ai = x.clone();
            cached.inverse(&mut ai, &mut scratch);
            let mut bi = x.clone();
            FftPlan::new(n).inverse(&mut bi, &mut FftScratch::new());
            assert_eq!(ai, bi, "inverse n={n}");
        }
    }
}

/// Cases per property.
const CASES: usize = 128;

fn complex_vec(g: &mut Gen, len: std::ops::Range<usize>, bound: f64) -> Vec<Complex64> {
    g.vec(len, |g| c64(g.range(-bound..bound), g.range(-bound..bound)))
}

/// 1..=8 rows and columns, entries in [-10, 10).
fn complex_matrix(g: &mut Gen) -> CMatrix {
    let (r, c) = (g.range(1usize..9), g.range(1usize..9));
    CMatrix::from_fn(r, c, |_, _| c64(g.range(-10.0..10.0), g.range(-10.0..10.0)))
}

#[test]
fn fft_inverts() {
    check(
        "fft_inverts",
        CASES,
        |g| complex_vec(g, 1..64, 100.0),
        |v| {
            let back = ifft_vec(&fft_vec(v));
            for (a, b) in v.iter().zip(&back) {
                assert!(a.dist(*b) < 1e-6 * (1.0 + a.abs()));
            }
        },
    );
}

#[test]
fn fft_matches_naive_dft() {
    check(
        "fft_matches_naive_dft",
        CASES,
        |g| complex_vec(g, 1..24, 100.0),
        |v| {
            let got = fft_vec(v);
            let want = dft_naive(v, false);
            for (a, b) in got.iter().zip(&want) {
                assert!(a.dist(*b) < 1e-6 * (1.0 + b.abs()));
            }
        },
    );
}

#[test]
fn free_fft_is_bit_identical_to_explicit_plan() {
    check(
        "free_fft_is_bit_identical_to_explicit_plan",
        CASES,
        |g| complex_vec(g, 1..64, 100.0),
        |v| {
            // The thread-local planner behind `fft_vec` must give exactly
            // the result of a plan built from scratch — plan caching can
            // never change bits.
            let via_free = fft_vec(v);
            let mut via_plan = v.clone();
            FftPlan::new(v.len()).forward(&mut via_plan, &mut FftScratch::new());
            assert_eq!(via_free, via_plan);
        },
    );
}

#[test]
fn parseval() {
    check(
        "parseval",
        CASES,
        |g| complex_vec(g, 1..48, 100.0),
        |v| {
            let y = fft_vec(v);
            let ex: f64 = v.iter().map(|z| z.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / v.len() as f64;
            assert!((ex - ey).abs() < 1e-6 * ex.max(1.0));
        },
    );
}

#[test]
fn fft_linearity() {
    check(
        "fft_linearity",
        CASES,
        |g| complex_vec(g, 1..16, 100.0),
        |a| {
            // fft(2a) == 2 fft(a)
            let doubled: Vec<Complex64> = a.iter().map(|z| z.scale(2.0)).collect();
            let lhs = fft_vec(&doubled);
            let rhs: Vec<Complex64> = fft_vec(a).into_iter().map(|z| z.scale(2.0)).collect();
            for (x, y) in lhs.iter().zip(&rhs) {
                assert!(x.dist(*y) < 1e-7 * (1.0 + y.abs()));
            }
        },
    );
}

#[test]
fn svd_reconstructs() {
    check("svd_reconstructs", CASES, complex_matrix, |m| {
        let d = svd(m);
        let err = d.reconstruct().frobenius_dist(m);
        assert!(err < 1e-8 * m.frobenius_norm().max(1.0), "err={err}");
    });
}

#[test]
fn svd_values_sorted_nonnegative() {
    check("svd_values_sorted_nonnegative", CASES, complex_matrix, |m| {
        let d = svd(m);
        for w in d.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
        assert!(d.s.iter().all(|&s| s >= 0.0));
        assert_eq!(d.s.len(), m.rows().min(m.cols()));
    });
}

#[test]
fn svd_energy_identity() {
    check("svd_energy_identity", CASES, complex_matrix, |m| {
        // ||A||_F^2 == sum sigma_i^2
        let d = svd(m);
        let fro2 = m.frobenius_norm().powi(2);
        let sv2: f64 = d.s.iter().map(|s| s * s).sum();
        assert!((fro2 - sv2).abs() < 1e-6 * fro2.max(1.0));
    });
}

#[test]
fn hermitian_is_involution() {
    check("hermitian_is_involution", CASES, complex_matrix, |m| {
        assert_eq!(&m.hermitian().hermitian(), m);
    });
}

#[test]
fn matmul_associative() {
    check("matmul_associative", CASES, complex_matrix, |a| {
        // (A * A^H) * A == A * (A^H * A)
        let ah = a.hermitian();
        let lhs = a.matmul(&ah).matmul(a);
        let rhs = a.matmul(&ah.matmul(a));
        assert!(lhs.frobenius_dist(&rhs) < 1e-6 * lhs.frobenius_norm().max(1.0));
    });
}

#[test]
fn percentile_bounds() {
    check(
        "percentile_bounds",
        CASES,
        |g| (g.vec(1..200, |g| g.range(-1e6f64..1e6)), g.range(0.0f64..100.0)),
        |(v, p)| {
            let q = rem_num::stats::percentile(v, *p);
            let mut v = v.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!(q >= v[0] - 1e-9 && q <= v[v.len() - 1] + 1e-9);
        },
    );
}

#[test]
fn ecdf_monotone() {
    check(
        "ecdf_monotone",
        CASES,
        |g| g.vec(1..100, |g| g.range(-1e3f64..1e3)),
        |v| {
            let e = rem_num::stats::Ecdf::new(v);
            let s = e.series(20);
            for w in s.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        },
    );
}

// SIMD tier equivalence (contract in `rem_num::simd`): the vectorised
// butterflies and the Bluestein pointwise product must be bit-identical
// to the scalar reference on arbitrary signals — all lengths (radix-2
// and Bluestein branches, lane remainders) and unaligned slice starts.
// On a CPU without a vector tier, `active_tier()` is `Scalar` and the
// property holds trivially.

#[test]
fn fft_plan_simd_tier_is_bit_identical_to_scalar() {
    check(
        "fft_plan_simd_tier_is_bit_identical_to_scalar",
        CASES,
        |g| complex_vec(g, 1..200, 5.0),
        |x| {
            let plan = FftPlan::new(x.len());
            let mut scratch = FftScratch::new();
            let tier = rem_num::simd::active_tier();

            let mut reference = x.clone();
            plan.forward_with_tier(&mut reference, &mut scratch, rem_num::simd::SimdTier::Scalar);
            let mut fast = x.clone();
            plan.forward_with_tier(&mut fast, &mut scratch, tier);
            assert_eq!(&reference, &fast);

            plan.inverse_with_tier(&mut reference, &mut scratch, rem_num::simd::SimdTier::Scalar);
            plan.inverse_with_tier(&mut fast, &mut scratch, tier);
            assert_eq!(reference, fast);
        },
    );
}

#[test]
fn cmul_simd_is_bit_identical_on_unaligned_slices() {
    check(
        "cmul_simd_is_bit_identical_on_unaligned_slices",
        CASES,
        |g| (complex_vec(g, 1..80, 5.0), g.range(0usize..3)),
        |(a, skip)| {
            let b: Vec<Complex64> = a.iter().map(|z| c64(z.im, -z.re)).collect();
            let lo = (*skip).min(a.len());
            let mut reference = a[lo..].to_vec();
            rem_num::simd::cmul_in_place_with_tier(
                &mut reference,
                &b[lo..],
                rem_num::simd::SimdTier::Scalar,
            );
            // Multiply inside the original (possibly unaligned) slice.
            let mut fast = a.clone();
            rem_num::simd::cmul_in_place_with_tier(
                &mut fast[lo..],
                &b[lo..],
                rem_num::simd::active_tier(),
            );
            assert_eq!(reference, fast[lo..].to_vec());
        },
    );
}

/// One batched-transform case: `vectors.len()` live lanes of length
/// `n`, transformed in direction `dir`.
#[derive(Debug)]
struct BatchCase {
    n: usize,
    dir: FftDirection,
    vectors: Vec<Vec<Complex64>>,
}

/// An entry that is, at `specials` > 0, sometimes ±0 or subnormal and,
/// at `specials` > 1, sometimes ±Inf.
fn special_entry(g: &mut Gen, specials: usize) -> f64 {
    const ROUND: [f64; 4] = [0.0, -0.0, f64::MIN_POSITIVE / 8.0, -f64::MIN_POSITIVE / 3.0];
    const INF: [f64; 2] = [f64::INFINITY, f64::NEG_INFINITY];
    match g.range(0usize..16) {
        0 if specials > 0 => g.pick(&ROUND),
        1 if specials > 1 => g.pick(&INF),
        _ => g.range(-4.0..4.0),
    }
}

/// Bitwise equality, except that any NaN equals any NaN: tiers may
/// propagate different NaN payloads, never a NaN in another place.
fn same_bits(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        a.is_nan() && b.is_nan()
    } else {
        a.to_bits() == b.to_bits()
    }
}

#[test]
fn batched_lanes_are_bit_identical_to_one_vector_plans() {
    // Every length once per direction, 1-4 live lanes, on each tier.
    // Idle lanes hold NaN, which must not reach a live lane.
    let lengths: Vec<usize> = (1..=64).chain([72, 128, 600, 1200]).collect();
    let mut case = 0usize;
    check(
        "batched_lanes_are_bit_identical_to_one_vector_plans",
        2 * lengths.len(),
        |g| {
            let n = lengths[case / 2];
            let dir = if case.is_multiple_of(2) {
                FftDirection::Forward
            } else {
                FftDirection::InverseUnnormalized
            };
            case += 1;
            let live = g.range(1..=BATCH);
            let specials = g.range(0usize..3);
            let vectors = (0..live)
                .map(|_| {
                    (0..n)
                        .map(|_| c64(special_entry(g, specials), special_entry(g, specials)))
                        .collect()
                })
                .collect();
            BatchCase { n, dir, vectors }
        },
        |c| {
            let plan = FftPlan::new(c.n);
            let mut scratch = FftScratch::new();
            let want: Vec<Vec<Complex64>> = c
                .vectors
                .iter()
                .map(|v| {
                    let mut v = v.clone();
                    match c.dir {
                        FftDirection::Forward => plan.forward(&mut v, &mut scratch),
                        FftDirection::InverseUnnormalized => {
                            plan.inverse_unnormalized(&mut v, &mut scratch)
                        }
                    }
                    v
                })
                .collect();
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Neon] {
                let mut re: Vec<Lanes> = vec![[f64::NAN; BATCH]; c.n];
                let mut im: Vec<Lanes> = vec![[f64::NAN; BATCH]; c.n];
                for (l, v) in c.vectors.iter().enumerate() {
                    for (k, z) in v.iter().enumerate() {
                        re[k][l] = z.re;
                        im[k][l] = z.im;
                    }
                }
                plan.transform_batch_with_tier(c.dir, &mut re, &mut im, &mut scratch, tier);
                for (l, w) in want.iter().enumerate() {
                    for (k, z) in w.iter().enumerate() {
                        assert!(
                            same_bits(re[k][l], z.re) && same_bits(im[k][l], z.im),
                            "tier={} lane={l} k={k}: got ({}, {}), want ({}, {})",
                            tier.name(),
                            re[k][l],
                            im[k][l],
                            z.re,
                            z.im
                        );
                    }
                }
            }
        },
    );
}
