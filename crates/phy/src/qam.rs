//! Gray-coded QAM constellation mapping and soft demapping.
//!
//! The link layer carries coded signaling/data bits as QPSK, 16-QAM or
//! 64-QAM symbols. The demapper emits per-bit log-likelihood ratios
//! (max-log approximation) for the soft-decision Viterbi decoder.
//! Constellations are normalised to unit average energy.

use rem_num::simd::{self, SimdTier};
use rem_num::{c64, Complex64};
use serde::{Deserialize, Serialize};

/// Supported modulation orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Per-axis amplitude normaliser giving unit average symbol energy.
    fn scale(self) -> f64 {
        match self {
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Per-axis PAM levels (Gray order index -> amplitude).
    fn levels(self) -> &'static [f64] {
        match self {
            Modulation::Qpsk => &[-1.0, 1.0],
            Modulation::Qam16 => &[-3.0, -1.0, 1.0, 3.0],
            Modulation::Qam64 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        }
    }
}

/// Gray-maps `bits_per_axis` bits to a PAM level index.
fn gray_to_index(bits: &[bool]) -> usize {
    // Binary-reflected Gray decode.
    let mut acc = 0usize;
    let mut prev = 0usize;
    for &b in bits {
        let cur = prev ^ (b as usize);
        acc = (acc << 1) | cur;
        prev = cur;
    }
    acc
}

/// Inverse of [`gray_to_index`].
fn index_to_gray(mut idx: usize, nbits: usize, out: &mut Vec<bool>) {
    let gray = idx ^ (idx >> 1);
    for i in (0..nbits).rev() {
        out.push((gray >> i) & 1 == 1);
    }
    idx = gray; // silence unused warning path
    let _ = idx;
}

/// Maps bits to complex symbols. Trailing bits that do not fill a
/// symbol are zero-padded.
pub fn modulate(bits: &[bool], m: Modulation) -> Vec<Complex64> {
    let bps = m.bits_per_symbol();
    let half = bps / 2;
    let levels = m.levels();
    let s = m.scale();
    let mut out = Vec::with_capacity(bits.len().div_ceil(bps));
    let mut padded: Vec<bool>;
    let bits = if bits.len().is_multiple_of(bps) {
        bits
    } else {
        padded = bits.to_vec();
        padded.resize(bits.len().div_ceil(bps) * bps, false);
        &padded
    };
    for chunk in bits.chunks(bps) {
        let i_idx = gray_to_index(&chunk[..half]);
        let q_idx = gray_to_index(&chunk[half..]);
        out.push(c64(levels[i_idx] * s, levels[q_idx] * s));
    }
    out
}

/// Hard-decision demapping: nearest constellation point.
pub fn demodulate_hard(symbols: &[Complex64], m: Modulation) -> Vec<bool> {
    let bps = m.bits_per_symbol();
    let half = bps / 2;
    let levels = m.levels();
    let s = m.scale();
    let mut out = Vec::with_capacity(symbols.len() * bps);
    for &sym in symbols {
        let i_idx = nearest_level(sym.re / s, levels);
        let q_idx = nearest_level(sym.im / s, levels);
        index_to_gray(i_idx, half, &mut out);
        index_to_gray(q_idx, half, &mut out);
    }
    out
}

/// Soft demapping with one noise variance for the whole slice, on the
/// active SIMD tier: the uniform-variance reference the tests check the
/// demapper against.
#[cfg(test)]
fn demodulate_soft(symbols: &[Complex64], m: Modulation, noise_var: f64) -> Vec<f64> {
    let mut out = Vec::new();
    demod_dispatch(symbols, m, NvSrc::Uniform(noise_var), &mut out, simd::active_tier());
    out
}

/// Soft demapping to per-bit LLRs (`> 0` favours bit value 0 under the
/// convention `llr = log P(b=0) - log P(b=1)`), max-log approximation,
/// with one total complex noise variance **per symbol** — the
/// receiver's case, where each resource element sees its own
/// post-equalisation noise level. Appends `bits_per_symbol` LLRs per
/// symbol into a caller-provided buffer. Runs on the active SIMD tier
/// (bit-identical to the scalar path, see [`rem_num::simd`]). Each
/// variance is clamped to `>= 1e-12`.
///
/// # Panics
/// Panics if `noise_vars.len() != symbols.len()`.
pub fn demodulate_soft_per_symbol_into(
    symbols: &[Complex64],
    m: Modulation,
    noise_vars: &[f64],
    out: &mut Vec<f64>,
) {
    demod_dispatch(symbols, m, NvSrc::PerSymbol(noise_vars), out, simd::active_tier());
}

/// Soft demapping with one noise variance for every symbol, on an
/// explicit SIMD tier (scalar fallback when unavailable); for
/// equivalence tests and the `dsp_json` bench.
pub fn demodulate_soft_into_with_tier(
    symbols: &[Complex64],
    m: Modulation,
    noise_var: f64,
    out: &mut Vec<f64>,
    tier: SimdTier,
) {
    demod_dispatch(symbols, m, NvSrc::Uniform(noise_var), out, tier);
}

/// [`demodulate_soft_per_symbol_into`] on an explicit SIMD tier.
pub fn demodulate_soft_per_symbol_into_with_tier(
    symbols: &[Complex64],
    m: Modulation,
    noise_vars: &[f64],
    out: &mut Vec<f64>,
    tier: SimdTier,
) {
    demod_dispatch(symbols, m, NvSrc::PerSymbol(noise_vars), out, tier);
}

/// Where the demapper takes its noise variance from.
#[derive(Clone, Copy)]
enum NvSrc<'a> {
    /// One variance for the whole slice.
    Uniform(f64),
    /// One variance per symbol (same length as the symbol slice).
    PerSymbol(&'a [f64]),
}

fn demod_dispatch(
    symbols: &[Complex64],
    m: Modulation,
    nv: NvSrc,
    out: &mut Vec<f64>,
    tier: SimdTier,
) {
    if let NvSrc::PerSymbol(vs) = nv {
        assert_eq!(vs.len(), symbols.len(), "one noise variance per symbol");
    }
    let bps = m.bits_per_symbol();
    let half = bps / 2;
    let levels = m.levels();
    let s = m.scale();
    let tier = if tier.is_available() { tier } else { SimdTier::Scalar };
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            let base = out.len();
            out.resize(base + symbols.len() * bps, 0.0);
            unsafe { demod_avx2(symbols, levels, half, bps, s, nv, &mut out[base..]) };
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => {
            let base = out.len();
            out.resize(base + symbols.len() * bps, 0.0);
            unsafe { demod_neon(symbols, levels, half, bps, s, nv, &mut out[base..]) };
        }
        _ => {
            out.reserve(symbols.len() * bps);
            match nv {
                NvSrc::Uniform(v) => {
                    let nv = v.max(1e-12);
                    for &sym in symbols {
                        axis_llrs(sym.re / s, levels, half, s, nv, out);
                        axis_llrs(sym.im / s, levels, half, s, nv, out);
                    }
                }
                NvSrc::PerSymbol(vs) => {
                    for (&sym, &v) in symbols.iter().zip(vs) {
                        let nv = v.max(1e-12);
                        axis_llrs(sym.re / s, levels, half, s, nv, out);
                        axis_llrs(sym.im / s, levels, half, s, nv, out);
                    }
                }
            }
        }
    }
}

fn axis_llrs(y: f64, levels: &[f64], nbits: usize, s: f64, nv: f64, out: &mut Vec<f64>) {
    // Max-log LLR per bit: min distance over constellation points with
    // that bit = 0 minus min distance with bit = 1.
    for bit in 0..nbits {
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for (idx, &lv) in levels.iter().enumerate() {
            let gray = idx ^ (idx >> 1);
            let b = (gray >> (nbits - 1 - bit)) & 1;
            let d = (y - lv) * (y - lv);
            if b == 0 {
                d0 = d0.min(d);
            } else {
                d1 = d1.min(d);
            }
        }
        out.push((d1 - d0) * s * s / nv);
    }
}

/// [`axis_llrs`] writing by index instead of pushing — used by the SIMD
/// kernels for their scalar remainder symbol. Arithmetic is verbatim
/// [`axis_llrs`], so outputs are bit-identical.
#[allow(dead_code)] // only referenced from arch-gated kernels
fn axis_llrs_into(y: f64, levels: &[f64], nbits: usize, s: f64, nv: f64, dst: &mut [f64]) {
    for (bit, slot) in dst.iter_mut().enumerate().take(nbits) {
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for (idx, &lv) in levels.iter().enumerate() {
            let gray = idx ^ (idx >> 1);
            let b = (gray >> (nbits - 1 - bit)) & 1;
            let d = (y - lv) * (y - lv);
            if b == 0 {
                d0 = d0.min(d);
            } else {
                d1 = d1.min(d);
            }
        }
        *slot = (d1 - d0) * s * s / nv;
    }
}

/// AVX2 soft demapper: two symbols per 256-bit register, lanes
/// `[I0, Q0, I1, Q1]` over the interleaved `repr(C)` symbol layout.
///
/// Every lane performs exactly the scalar [`axis_llrs`] operations in
/// order — `y = axis / s` (a real division, not a reciprocal multiply),
/// per-bit min over levels in level order, `((d1 - d0) * s) * s / nv` —
/// so finite outputs are bit-identical to the scalar path.
/// (`_mm256_min_pd`/`_mm256_max_pd` differ from `f64::min`/`f64::max`
/// only when an operand is NaN, which here requires a NaN input symbol;
/// the link pipeline sanitizes non-finite LLRs either way.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn demod_avx2(
    symbols: &[Complex64],
    levels: &[f64],
    half: usize,
    bps: usize,
    s: f64,
    nv: NvSrc,
    dst: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = symbols.len();
    let pairs = n / 2;
    let sp = symbols.as_ptr() as *const f64;
    let sv = _mm256_set1_pd(s);
    let eps = _mm256_set1_pd(1e-12);
    let inf = _mm256_set1_pd(f64::INFINITY);
    let uniform_nv = match nv {
        NvSrc::Uniform(v) => _mm256_max_pd(_mm256_set1_pd(v), eps),
        NvSrc::PerSymbol(_) => eps,
    };
    for p in 0..pairs {
        let y = _mm256_div_pd(_mm256_loadu_pd(sp.add(4 * p)), sv);
        let nvv = match nv {
            NvSrc::Uniform(_) => uniform_nv,
            NvSrc::PerSymbol(vs) => {
                let (v0, v1) = (vs[2 * p], vs[2 * p + 1]);
                _mm256_max_pd(_mm256_set_pd(v1, v1, v0, v0), eps)
            }
        };
        for bit in 0..half {
            let mut d0 = inf;
            let mut d1 = inf;
            for (idx, &lv) in levels.iter().enumerate() {
                let diff = _mm256_sub_pd(y, _mm256_set1_pd(lv));
                let d = _mm256_mul_pd(diff, diff);
                let gray = idx ^ (idx >> 1);
                if (gray >> (half - 1 - bit)) & 1 == 0 {
                    d0 = _mm256_min_pd(d0, d);
                } else {
                    d1 = _mm256_min_pd(d1, d);
                }
            }
            let llr = _mm256_div_pd(
                _mm256_mul_pd(_mm256_mul_pd(_mm256_sub_pd(d1, d0), sv), sv),
                nvv,
            );
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), llr);
            let o = 2 * p * bps;
            dst[o + bit] = lanes[0];
            dst[o + half + bit] = lanes[1];
            dst[o + bps + bit] = lanes[2];
            dst[o + bps + half + bit] = lanes[3];
        }
    }
    if n % 2 == 1 {
        demod_tail(symbols, levels, half, bps, s, nv, dst, n - 1);
    }
}

/// NEON soft demapper: one symbol per 128-bit register, lanes
/// `[I, Q]`; same verbatim-scalar arithmetic as the AVX2 kernel.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn demod_neon(
    symbols: &[Complex64],
    levels: &[f64],
    half: usize,
    bps: usize,
    s: f64,
    nv: NvSrc,
    dst: &mut [f64],
) {
    use std::arch::aarch64::*;
    let sp = symbols.as_ptr() as *const f64;
    let sv = vdupq_n_f64(s);
    for i in 0..symbols.len() {
        let y = vdivq_f64(vld1q_f64(sp.add(2 * i)), sv);
        let nvi = match nv {
            NvSrc::Uniform(v) => v.max(1e-12),
            NvSrc::PerSymbol(vs) => vs[i].max(1e-12),
        };
        let nvv = vdupq_n_f64(nvi);
        for bit in 0..half {
            let mut d0 = vdupq_n_f64(f64::INFINITY);
            let mut d1 = vdupq_n_f64(f64::INFINITY);
            for (idx, &lv) in levels.iter().enumerate() {
                let diff = vsubq_f64(y, vdupq_n_f64(lv));
                let d = vmulq_f64(diff, diff);
                let gray = idx ^ (idx >> 1);
                if (gray >> (half - 1 - bit)) & 1 == 0 {
                    d0 = vminq_f64(d0, d);
                } else {
                    d1 = vminq_f64(d1, d);
                }
            }
            let llr = vdivq_f64(vmulq_f64(vmulq_f64(vsubq_f64(d1, d0), sv), sv), nvv);
            dst[i * bps + bit] = vgetq_lane_f64::<0>(llr);
            dst[i * bps + half + bit] = vgetq_lane_f64::<1>(llr);
        }
    }
}

/// Scalar demap of the single symbol at `i`, writing into `dst` — the
/// odd-length remainder of the SIMD kernels.
#[allow(dead_code)] // only referenced from arch-gated kernels
#[allow(clippy::too_many_arguments)]
fn demod_tail(
    symbols: &[Complex64],
    levels: &[f64],
    half: usize,
    bps: usize,
    s: f64,
    nv: NvSrc,
    dst: &mut [f64],
    i: usize,
) {
    let sym = symbols[i];
    let nvi = match nv {
        NvSrc::Uniform(v) => v.max(1e-12),
        NvSrc::PerSymbol(vs) => vs[i].max(1e-12),
    };
    let o = i * bps;
    axis_llrs_into(sym.re / s, levels, half, s, nvi, &mut dst[o..o + half]);
    axis_llrs_into(sym.im / s, levels, half, s, nvi, &mut dst[o + half..o + bps]);
}

fn nearest_level(y: f64, levels: &[f64]) -> usize {
    let mut best = 0usize;
    let mut bd = f64::INFINITY;
    for (i, &lv) in levels.iter().enumerate() {
        let d = (y - lv).abs();
        if d < bd {
            bd = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rem_num::rng::{complex_gaussian, rng_from_seed};

    const MODS: [Modulation; 3] = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn round_trip_noiseless() {
        for m in MODS {
            let bits = random_bits(m.bits_per_symbol() * 100, 1);
            let syms = modulate(&bits, m);
            let back = demodulate_hard(&syms, m);
            assert_eq!(bits, back, "{m:?}");
        }
    }

    #[test]
    fn unit_average_energy() {
        for m in MODS {
            let bits = random_bits(m.bits_per_symbol() * 4096, 2);
            let syms = modulate(&bits, m);
            let e: f64 = syms.iter().map(|z| z.norm_sqr()).sum::<f64>() / syms.len() as f64;
            assert!((e - 1.0).abs() < 0.05, "{m:?} energy {e}");
        }
    }

    #[test]
    fn constellation_size() {
        for m in MODS {
            let bps = m.bits_per_symbol();
            let mut pts = std::collections::BTreeSet::new();
            for v in 0..(1usize << bps) {
                let bits: Vec<bool> = (0..bps).rev().map(|i| (v >> i) & 1 == 1).collect();
                let sym = modulate(&bits, m)[0];
                pts.insert((format!("{:.6}", sym.re), format!("{:.6}", sym.im)));
            }
            assert_eq!(pts.len(), 1 << bps, "{m:?}");
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        // Adjacent PAM levels must differ by exactly one bit (Gray).
        for m in MODS {
            let nbits = m.bits_per_symbol() / 2;
            let levels = m.levels();
            for i in 0..levels.len() - 1 {
                let g1 = i ^ (i >> 1);
                let g2 = (i + 1) ^ ((i + 1) >> 1);
                assert_eq!((g1 ^ g2).count_ones(), 1, "{m:?} {nbits}");
            }
        }
    }

    #[test]
    fn soft_llr_sign_matches_hard_decision() {
        let mut rng = rng_from_seed(3);
        for m in MODS {
            let bits = random_bits(m.bits_per_symbol() * 200, 4);
            let mut syms = modulate(&bits, m);
            for s in syms.iter_mut() {
                *s += complex_gaussian(&mut rng, 0.001); // very high SNR
            }
            let llrs = demodulate_soft(&syms, m, 0.001);
            for (b, llr) in bits.iter().zip(&llrs) {
                // llr > 0 -> bit 0; llr < 0 -> bit 1.
                assert_eq!(*b, *llr < 0.0, "{m:?}");
            }
        }
    }

    #[test]
    fn llr_magnitude_scales_with_snr() {
        let bits = vec![false, false];
        let syms = modulate(&bits, Modulation::Qpsk);
        let l_hi = demodulate_soft(&syms, Modulation::Qpsk, 0.01);
        let l_lo = demodulate_soft(&syms, Modulation::Qpsk, 1.0);
        assert!(l_hi[0] > 10.0 * l_lo[0]);
    }

    #[test]
    fn partial_symbol_padding() {
        let bits = vec![true, false, true]; // 3 bits into QPSK: pads to 4
        let syms = modulate(&bits, Modulation::Qpsk);
        assert_eq!(syms.len(), 2);
        let back = demodulate_hard(&syms, Modulation::Qpsk);
        assert_eq!(&back[..3], &bits[..]);
        assert!(!back[3]);
    }

    #[test]
    fn noisy_qpsk_mostly_correct_at_10db() {
        let mut rng = rng_from_seed(7);
        let bits = random_bits(2000, 8);
        let mut syms = modulate(&bits, Modulation::Qpsk);
        let nv = rem_num::stats::db_to_lin(-10.0);
        for s in syms.iter_mut() {
            *s += complex_gaussian(&mut rng, nv);
        }
        let back = demodulate_hard(&syms, Modulation::Qpsk);
        let errs = bits.iter().zip(&back).filter(|(a, b)| a != b).count();
        // Uncoded QPSK at 10 dB: BER ~ 8e-4 over 2000 bits (expect a few).
        assert!(errs < 20, "errs={errs}");
    }
}

#[cfg(test)]
mod simd_tests {
    use super::*;
    use rem_num::simd::SimdTier;

    /// Deterministic "noisy" symbols without drawing from `rand`: a
    /// coarse lattice walk across and beyond the constellation.
    fn test_symbols(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64(0.37 * t - 0.11 * t * t % 3.0, 1.9 - 0.53 * t % 4.0)
            })
            .collect()
    }

    fn nvs(n: usize) -> Vec<f64> {
        // Includes zero and sub-clamp values to exercise the 1e-12 floor.
        (0..n).map(|i| [0.5, 0.01, 0.0, 1e-15, 2.0][i % 5]).collect()
    }

    #[test]
    fn tiers_match_scalar_for_all_remainders_and_modulations() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            for tier in [SimdTier::Avx2, SimdTier::Neon] {
                for n in 0..=11usize {
                    let syms = test_symbols(n);
                    let mut want = vec![-1.0; 3]; // non-empty prefix: appends only
                    demodulate_soft_into_with_tier(&syms, m, 0.2, &mut want, SimdTier::Scalar);
                    let mut got = vec![-1.0; 3];
                    demodulate_soft_into_with_tier(&syms, m, 0.2, &mut got, tier);
                    assert_eq!(got, want, "{m:?} uniform tier={} n={n}", tier.name());

                    let vars = nvs(n);
                    let mut want = Vec::new();
                    demodulate_soft_per_symbol_into_with_tier(
                        &syms,
                        m,
                        &vars,
                        &mut want,
                        SimdTier::Scalar,
                    );
                    let mut got = Vec::new();
                    demodulate_soft_per_symbol_into_with_tier(&syms, m, &vars, &mut got, tier);
                    assert_eq!(got, want, "{m:?} per-symbol tier={} n={n}", tier.name());
                }
            }
        }
    }

    #[test]
    fn tiers_match_scalar_on_unaligned_slices() {
        let backing = test_symbols(33);
        let vars = nvs(33);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            for tier in [SimdTier::Avx2, SimdTier::Neon] {
                for off in 1..=3usize {
                    let mut want = Vec::new();
                    demodulate_soft_per_symbol_into_with_tier(
                        &backing[off..],
                        m,
                        &vars[off..],
                        &mut want,
                        SimdTier::Scalar,
                    );
                    let mut got = Vec::new();
                    demodulate_soft_per_symbol_into_with_tier(
                        &backing[off..],
                        m,
                        &vars[off..],
                        &mut got,
                        tier,
                    );
                    assert_eq!(got, want, "{m:?} tier={} off={off}", tier.name());
                }
            }
        }
    }

    #[test]
    fn per_symbol_with_uniform_vars_equals_uniform_entry() {
        let syms = test_symbols(24);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let a = demodulate_soft(&syms, m, 0.3);
            let mut b = Vec::new();
            demodulate_soft_per_symbol_into(&syms, m, &[0.3; 24], &mut b);
            assert_eq!(a, b, "{m:?}");
        }
    }
}

#[cfg(test)]
mod qam64_tests {
    use super::*;

    #[test]
    fn qam64_corner_and_center_points() {
        // All-zero bits map to the most-negative corner (Gray index 0);
        // magnitude = sqrt(2)*7/sqrt(42).
        let bits = vec![false; 6];
        let s = modulate(&bits, Modulation::Qam64)[0];
        let corner = 7.0 / 42f64.sqrt();
        assert!((s.re + corner).abs() < 1e-12);
        assert!((s.im + corner).abs() < 1e-12);
    }

    #[test]
    fn qam64_soft_llrs_order_by_reliability() {
        // The MSB of each axis has the largest decision distance: its
        // LLR magnitude must dominate the lower bits at a corner point.
        let bits = vec![false; 6];
        let s = modulate(&bits, Modulation::Qam64)[0];
        let llrs = demodulate_soft(&[s], Modulation::Qam64, 0.1);
        assert_eq!(llrs.len(), 6);
        // I-axis bits: 0..3 (MSB first); corner => |llr0| >= |llr2|.
        assert!(llrs[0] >= llrs[2] - 1e-9, "{llrs:?}");
        assert!(llrs.iter().all(|&l| l > 0.0), "all bits are 0: {llrs:?}");
    }

    #[test]
    fn higher_order_needs_more_snr_for_same_ber() {
        use rem_num::rng::{complex_gaussian, rng_from_seed};
        let mut rng = rng_from_seed(5);
        let nbits = 6_000;
        let ber = |m: Modulation, rng: &mut rem_num::SimRng| {
            let bits: Vec<bool> = (0..nbits).map(|i| i % 3 == 0).collect();
            let mut syms = modulate(&bits, m);
            for s in syms.iter_mut() {
                *s += complex_gaussian(rng, 0.05); // 13 dB
            }
            let back = demodulate_hard(&syms, m);
            bits.iter().zip(&back).filter(|(a, b)| a != b).count() as f64 / nbits as f64
        };
        let b_qpsk = ber(Modulation::Qpsk, &mut rng);
        let b_64 = ber(Modulation::Qam64, &mut rng);
        assert!(b_64 > b_qpsk, "64qam={b_64} qpsk={b_qpsk}");
    }
}
