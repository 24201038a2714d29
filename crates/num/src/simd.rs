//! Runtime-dispatched SIMD tiers for the DSP hot kernels.
//!
//! The Monte-Carlo link pipeline bottoms out in a handful of inner
//! loops — FFT butterflies, QAM soft-demap distances, Viterbi
//! add-compare-select — that are all data-parallel over `f64` lanes.
//! This module picks a vector instruction set **once per process** at
//! first use (`std::arch` runtime feature detection: AVX2 on x86_64,
//! NEON on aarch64) and the kernels in `rem-num`/`rem-phy` dispatch on
//! the result.
//!
//! ## The bit-identity contract
//!
//! Every SIMD kernel in the workspace is written so each output element
//! is produced by **the same IEEE-754 operations in the same order** as
//! the scalar reference — no FMA contraction, no reassociated
//! reductions, no approximate reciprocals. SIMD therefore changes
//! throughput, never results: `rem compare --hash` digests are
//! bit-identical across tiers, and CI gates `REM_DSP_SIMD=off` against
//! the auto-detected tier.
//!
//! ## Override
//!
//! `REM_DSP_SIMD` controls dispatch (read once, cached):
//!
//! * `off` / `scalar` / `0` — force the scalar reference path;
//! * `avx2` / `neon` — request a specific tier (falls back to scalar,
//!   with no error, when the CPU lacks it or the build targets another
//!   architecture);
//! * `auto` or unset — use the best tier the CPU supports.
//!
//! The active tier and detected CPU features are recorded in every
//! REMMANIFEST1 run manifest so benchmark provenance stays auditable
//! across machines.

use crate::complex::Complex64;
use std::sync::OnceLock;

/// One vector instruction tier the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// The scalar reference path (always available; the bit-exact
    /// ground truth every other tier is gated against).
    Scalar,
    /// 256-bit AVX2 on x86_64: 4 `f64` lanes.
    Avx2,
    /// 128-bit NEON on aarch64: 2 `f64` lanes.
    Neon,
}

impl SimdTier {
    /// Stable lower-case name (`"scalar"`, `"avx2"`, `"neon"`), as
    /// recorded in run manifests and `BENCH_dsp.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Neon => "neon",
        }
    }

    /// Number of `f64` lanes per vector register in this tier (1 for
    /// scalar). Property tests sweep all remainder lengths around this.
    pub fn lanes(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 4,
            SimdTier::Neon => 2,
        }
    }

    /// True when the running CPU (and compilation target) can execute
    /// this tier.
    pub fn is_available(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            SimdTier::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdTier::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }
}

/// The best tier the running CPU supports, ignoring the environment
/// override. Not cached; prefer [`active_tier`] in kernels.
pub fn detected_tier() -> SimdTier {
    if SimdTier::Avx2.is_available() {
        SimdTier::Avx2
    } else if SimdTier::Neon.is_available() {
        SimdTier::Neon
    } else {
        SimdTier::Scalar
    }
}

/// The tier all dispatching kernels use: `REM_DSP_SIMD` if set (see
/// module docs), otherwise the auto-detected best tier. Resolved once
/// per process and cached; tests and benches that need to compare
/// tiers in one process use the explicit `*_with_tier` kernel entry
/// points instead of re-reading the environment.
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let requested = std::env::var("REM_DSP_SIMD").unwrap_or_default();
        let tier = match requested.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" => SimdTier::Scalar,
            "avx2" => SimdTier::Avx2,
            "neon" => SimdTier::Neon,
            _ => detected_tier(),
        };
        if tier.is_available() {
            tier
        } else {
            SimdTier::Scalar
        }
    })
}

/// Comma-separated description of the vector features the running CPU
/// exposes (independent of the override), e.g. `"avx2,fma,sse4.2"` or
/// `"neon"`; `"none"` when nothing relevant is detected. Recorded in
/// run manifests for provenance.
pub fn cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            feats.push("neon");
        }
    }
    if feats.is_empty() {
        "none".to_string()
    } else {
        feats.join(",")
    }
}

/// Element-wise in-place complex product `a[i] *= b[i]` on the active
/// tier. This is the Bluestein circular-convolution pointwise multiply,
/// the only non-butterfly hot loop inside [`crate::fft`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cmul_in_place(a: &mut [Complex64], b: &[Complex64]) {
    cmul_in_place_with_tier(a, b, active_tier());
}

/// [`cmul_in_place`] on an explicit tier (scalar fallback when the tier
/// is unavailable on this CPU). Exposed so equivalence tests and the
/// `dsp_json` benchmark can compare tiers within one process.
pub fn cmul_in_place_with_tier(a: &mut [Complex64], b: &[Complex64], tier: SimdTier) {
    assert_eq!(a.len(), b.len(), "cmul length mismatch");
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 if SimdTier::Avx2.is_available() => unsafe { cmul_avx2(a, b) },
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon if SimdTier::Neon.is_available() => unsafe { cmul_neon(a, b) },
        _ => cmul_scalar(a, b),
    }
}

fn cmul_scalar(a: &mut [Complex64], b: &[Complex64]) {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= *y;
    }
}

/// AVX2 pointwise complex product over interleaved `[re, im]` doubles,
/// two complex numbers per 256-bit register.
///
/// Per element the lanes compute exactly the scalar
/// `(ar*br - ai*bi, ar*bi + ai*br)`:
/// even lane `addsub` gives `ar*br - ai*bi`, odd lane gives
/// `ai*br + ar*bi`, which equals the scalar imaginary part bit-for-bit
/// because IEEE-754 addition is commutative. No FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cmul_avx2(a: &mut [Complex64], b: &[Complex64]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let ap = a.as_mut_ptr() as *mut f64;
    let bp = b.as_ptr() as *const f64;
    let pairs = n / 2;
    for p in 0..pairs {
        let x = _mm256_loadu_pd(ap.add(2 * p * 2));
        let y = _mm256_loadu_pd(bp.add(2 * p * 2));
        let yr = _mm256_movedup_pd(y); // [br0, br0, br1, br1]
        let yi = _mm256_permute_pd(y, 0b1111); // [bi0, bi0, bi1, bi1]
        let t1 = _mm256_mul_pd(x, yr); // [ar*br, ai*br, ...]
        let xs = _mm256_permute_pd(x, 0b0101); // [ai, ar, ...]
        let t2 = _mm256_mul_pd(xs, yi); // [ai*bi, ar*bi, ...]
        let prod = _mm256_addsub_pd(t1, t2);
        _mm256_storeu_pd(ap.add(2 * p * 2), prod);
    }
    cmul_scalar(&mut a[2 * pairs..], &b[2 * pairs..]);
}

/// NEON pointwise complex product: de-interleaved loads (`vld2q_f64`)
/// compute the scalar expression verbatim on 2-wide re/im vectors.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn cmul_neon(a: &mut [Complex64], b: &[Complex64]) {
    use std::arch::aarch64::*;
    let n = a.len();
    let ap = a.as_mut_ptr() as *mut f64;
    let bp = b.as_ptr() as *const f64;
    let pairs = n / 2;
    for p in 0..pairs {
        let x = vld2q_f64(ap.add(2 * p * 2)); // x.0 = [ar0, ar1], x.1 = [ai0, ai1]
        let y = vld2q_f64(bp.add(2 * p * 2));
        let re = vsubq_f64(vmulq_f64(x.0, y.0), vmulq_f64(x.1, y.1));
        let im = vaddq_f64(vmulq_f64(x.0, y.1), vmulq_f64(x.1, y.0));
        vst2q_f64(ap.add(2 * p * 2), float64x2x2_t(re, im));
    }
    cmul_scalar(&mut a[2 * pairs..], &b[2 * pairs..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| c64(0.25 * i as f64 - 1.0, 0.5 - 0.125 * i as f64)).collect()
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert_eq!(SimdTier::Neon.name(), "neon");
        assert_eq!(SimdTier::Scalar.lanes(), 1);
    }

    #[test]
    fn scalar_tier_is_always_available() {
        assert!(SimdTier::Scalar.is_available());
        // Whatever was detected must itself be available.
        assert!(detected_tier().is_available());
        assert!(active_tier().is_available());
    }

    #[test]
    fn cmul_matches_scalar_on_every_tier_and_remainder() {
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Neon] {
            for n in 0..=11 {
                let b = ramp(n + 3)[3..].to_vec();
                let mut want = ramp(n);
                cmul_scalar(&mut want, &b);
                let mut got = ramp(n);
                cmul_in_place_with_tier(&mut got, &b, tier);
                assert_eq!(got, want, "tier={} n={n}", tier.name());
            }
        }
    }

    #[test]
    fn cmul_dispatching_entry_matches_scalar() {
        let b = ramp(9);
        let mut want = ramp(9);
        cmul_scalar(&mut want, &b);
        let mut got = ramp(9);
        cmul_in_place(&mut got, &b);
        assert_eq!(got, want);
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}
