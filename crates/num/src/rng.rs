//! Deterministic random sources for reproducible simulation.
//!
//! Every stochastic component of the workspace (noise, fading,
//! shadowing, packet loss) draws from an explicitly seeded ChaCha8
//! stream so that a simulation run is reproducible bit-for-bit across
//! machines and releases — the property that makes the replay-based
//! evaluation methodology (paper §7) meaningful.

use crate::complex::{c64, Complex64};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// The workspace-wide RNG type: seedable, portable, fast.
pub type SimRng = ChaCha8Rng;

/// Creates a [`SimRng`] from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SimRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent child stream from a parent seed and a label,
/// so subsystems can be re-ordered or added without perturbing each
/// other's random streams.
pub fn child_rng(seed: u64, label: &str) -> SimRng {
    rng_from_seed(seed ^ crate::hash::stream_label_hash(label))
}

/// The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA'14): a
/// well-mixed 64-bit permutation, the workspace's one stateless mixer
/// for counter-based draws such as chaos trial selection and fleet
/// randomness.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a standard normal sample via Box–Muller: [`uniform_pair`],
/// then [`box_muller`].
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    box_muller(uniform_pair(rng))
}

/// The random half of one [`standard_normal`] draw: the uniform pair
/// `(u1, u2)`, `u1` in `[MIN_POSITIVE, 1)` (guards against log(0)) and
/// `u2` in `[0, 1)`, drawn in that order.
#[inline]
pub fn uniform_pair(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// The pure half of one [`standard_normal`] draw: Box–Muller's normal
/// sample of a [`uniform_pair`].
#[inline]
pub fn box_muller((u1, u2): (f64, f64)) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Draws a circularly-symmetric complex Gaussian sample with total
/// variance `var` (i.e. each component has variance `var / 2`). This is
/// the standard model for both AWGN and Rayleigh path gains.
pub fn complex_gaussian(rng: &mut impl Rng, var: f64) -> Complex64 {
    complex_gaussian_of([uniform_pair(rng), uniform_pair(rng)], var)
}

/// The pure half of one [`complex_gaussian`] draw: the sample of
/// variance `var` whose real and imaginary parts are the
/// [`box_muller`] samples of `pairs[0]` and `pairs[1]`.
#[inline]
pub fn complex_gaussian_of(pairs: [(f64, f64); 2], var: f64) -> Complex64 {
    let s = (var / 2.0).sqrt();
    c64(s * box_muller(pairs[0]), s * box_muller(pairs[1]))
}

/// Draws an exponential sample with the given mean.
pub fn exponential(rng: &mut impl Rng, mean_value: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean_value * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn splitmix64_known_answer() {
        // The first output of the reference SplitMix64 generator seeded
        // with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn first_outputs_are_pinned() {
        // Every RNG stream in the workspace starts here: a change to
        // the seeding or to the label fold moves every digest.
        let roots = [
            (0u64, [0xb585_f767_a79a_3b6c, 0x7746_a55f_bad8_c037]),
            (1, [0x6709_4cea_8ca4_0db1, 0x1494_06d8_fc0e_8e6b]),
            (7, [0x2865_5334_23d7_43bb, 0x2b01_59d3_2e9b_293a]),
            (0xdead_beef, [0xff01_307f_43ec_8df9, 0x946b_5cc5_2dc1_b3db]),
        ];
        for (seed, want) in roots {
            let mut rng = rng_from_seed(seed);
            assert_eq!([rng.gen::<u64>(), rng.gen::<u64>()], want, "seed={seed}");
        }
        let children = [
            (0u64, "", [0x0cab_52e4_7e47_6df3, 0x1539_2a2d_0d76_db90]),
            (1, "noise", [0x6765_5a69_33b2_09d4, 0xdf11_3d1e_d53e_c810]),
            (7, "fading", [0x0764_2ae5_b5be_72b7, 0x5836_b3e2_a3ed_58cc]),
            (42, "link-legacy", [0x91c4_18be_0bc6_258f, 0x5172_25f1_2e41_defa]),
            (0xdead_beef, "shadowing", [0x3483_a985_d485_5664, 0xf4c0_f73a_ed7a_a1ad]),
        ];
        for (seed, label, want) in children {
            let mut rng = child_rng(seed, label);
            assert_eq!([rng.gen::<u64>(), rng.gen::<u64>()], want, "seed={seed} label={label}");
        }
    }

    #[test]
    fn child_streams_are_independent_of_label_order() {
        let mut x1 = child_rng(7, "noise");
        let mut y1 = child_rng(7, "fading");
        let x_first: Vec<u64> = (0..8).map(|_| x1.gen()).collect();
        // Recreate in the opposite order: streams must be unchanged.
        let mut y2 = child_rng(7, "fading");
        let mut x2 = child_rng(7, "noise");
        let y_second: Vec<u64> = (0..8).map(|_| y2.gen()).collect();
        let x_second: Vec<u64> = (0..8).map(|_| x2.gen()).collect();
        let y_first: Vec<u64> = (0..8).map(|_| y1.gen()).collect();
        assert_eq!(x_first, x_second);
        assert_eq!(y_first, y_second);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(9);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(mean(&xs).abs() < 0.05);
        assert!((std_dev(&xs) - 1.0).abs() < 0.05);
    }

    #[test]
    fn complex_gaussian_variance() {
        let mut rng = rng_from_seed(11);
        let var = 4.0;
        let n = 20_000;
        let power: f64 =
            (0..n).map(|_| complex_gaussian(&mut rng, var).norm_sqr()).sum::<f64>() / n as f64;
        assert!((power - var).abs() < 0.15, "power={power}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = rng_from_seed(13);
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut rng, 3.0)).collect();
        assert!((mean(&xs) - 3.0).abs() < 0.1);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = rng_from_seed(17);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        assert!((mean(&xs) - 10.0).abs() < 0.1);
        assert!((std_dev(&xs) - 2.0).abs() < 0.1);
    }
}
