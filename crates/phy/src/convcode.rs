//! Rate-1/2 constraint-length-7 convolutional code with Viterbi decoding.
//!
//! This is the classic (133, 171) octal code used by LTE control
//! channels (and many others). The encoder is zero-terminated (six tail
//! bits flush the register) so the decoder can start and end in state
//! 0. The Viterbi decoder accepts soft inputs (LLRs from the QAM
//! demapper) and degrades gracefully to hard decisions when given ±1.
//!
//! The add-compare-select inner loop dispatches on the active
//! [`rem_num::simd`] tier. Each next-state has exactly two
//! predecessors (differing only in their LSB) and a branch cost drawn
//! from a 4-entry table, so the update for a group of consecutive
//! next-states vectorises cleanly: AVX2 settles 4 states per iteration,
//! reading their costs with one lane permute of the cost vector, NEON
//! settles 2. Decisions are bit-identical to the scalar loop (same
//! IEEE-754 additions, same strict-less tie-breaking towards the even
//! predecessor) and gated by the same tier-equivalence tests as the FFT
//! and demapper kernels.

use rem_num::simd::{self, SimdTier};

/// Constraint length.
pub const K: usize = 7;
/// Number of trellis states.
pub const STATES: usize = 1 << (K - 1);
/// Generator polynomials (octal 133, 171).
pub const GENERATORS: [u32; 2] = [0o133, 0o171];
/// Code rate denominator: output bits per input bit.
pub const RATE_INV: usize = 2;
/// Tail bits appended by [`encode`].
pub const TAIL_BITS: usize = K - 1;

#[inline]
fn parity(x: u32) -> bool {
    x.count_ones() & 1 == 1
}

/// Output pair for input bit `bit` leaving state `state` (state = last
/// K-1 input bits, most recent in the high bit).
#[inline]
fn outputs(state: usize, bit: bool) -> [bool; 2] {
    let reg = ((bit as u32) << (K - 1)) | state as u32;
    [parity(reg & GENERATORS[0]), parity(reg & GENERATORS[1])]
}

#[inline]
fn next_state(state: usize, bit: bool) -> usize {
    ((state >> 1) | ((bit as usize) << (K - 2))) & (STATES - 1)
}

/// Encodes `payload` with zero termination. Output length is
/// `2 * (payload.len() + 6)` bits.
pub fn encode(payload: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(RATE_INV * (payload.len() + TAIL_BITS));
    let mut state = 0usize;
    for &b in payload.iter().chain(std::iter::repeat_n(&false, TAIL_BITS)) {
        let o = outputs(state, b);
        out.push(o[0]);
        out.push(o[1]);
        state = next_state(state, b);
    }
    out
}

/// Per-state output pairs, packed at compile time.
///
/// Bits `0..2` hold `(o0, o1)` for input bit 0 and bits `2..4` for
/// input bit 1, with `o1` in the higher bit of each pair, so
/// `(packed >> (2 * bit)) & 3` indexes a per-step branch-cost table
/// laid out as `o0 + 2 * o1`.
const OUT_TABLE: [u8; STATES] = build_out_table();

const fn build_out_table() -> [u8; STATES] {
    let mut table = [0u8; STATES];
    let mut s = 0;
    while s < STATES {
        let mut packed = 0u8;
        let mut bit = 0;
        while bit < 2 {
            let reg = ((bit as u32) << (K - 1)) | s as u32;
            let o0 = (reg & GENERATORS[0]).count_ones() & 1;
            let o1 = (reg & GENERATORS[1]).count_ones() & 1;
            packed |= ((o0 | (o1 << 1)) as u8) << (2 * bit);
            bit += 1;
        }
        table[s] = packed;
        s += 1;
    }
    table
}

/// SIMD add-compare-select kernels over the flat bit-packed trellis.
///
/// Reformulation: instead of scattering from each live predecessor
/// (the scalar loop), gather into each next-state `ns`. Its two
/// predecessors are `s0 = (ns << 1) & (STATES-1)` and `s1 = s0 | 1`,
/// and the input bit consumed is the top bit of `ns`, so the branch
/// cost indices are compile-time constants per `ns` ([`IDX0`]/
/// [`IDX1`]). The winner is `min(metric[s0]+c0, metric[s1]+c1)` with
/// strict-less preference for `s0` — exactly the scalar loop's
/// ascending-`s` first-write-wins order — and the traceback bit is the
/// winning predecessor's LSB (0 for `s0`, 1 for `s1`). Unreachable
/// states propagate as `INF + cost = INF` with traceback bit 0, which
/// matches the scalar loop never touching them.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod acs {
    use super::{K, OUT_TABLE, STATES};

    /// `IDX0[ns]` = branch-cost index (`o0 + 2*o1`) on the edge from
    /// even predecessor `s0 = (ns << 1) & 63` into `ns`.
    pub(super) const IDX0: [i64; STATES] = build_idx(0);
    /// Same for the odd predecessor `s1 = s0 | 1`.
    pub(super) const IDX1: [i64; STATES] = build_idx(1);

    const fn build_idx(lsb: usize) -> [i64; STATES] {
        let mut t = [0i64; STATES];
        let mut ns = 0;
        while ns < STATES {
            let bit = ns >> (K - 2);
            let s = ((ns << 1) & (STATES - 1)) | lsb;
            t[ns] = ((OUT_TABLE[s] >> (2 * bit)) & 3) as i64;
            ns += 1;
        }
        t
    }

    /// `PERM0[8g..8g + 8]` is the `_mm256_permutevar8x32_ps` index
    /// vector that moves, for each `ns = 4g + i`, cost `IDX0[ns]` into
    /// 64-bit lane `i`: entry `IDX0[ns]` becomes the 32-bit lane pair
    /// `2 * IDX0[ns], 2 * IDX0[ns] + 1` of the 4-entry cost vector.
    #[cfg(target_arch = "x86_64")]
    pub(super) const PERM0: [i32; 2 * STATES] = build_perm(&IDX0);
    /// Same for [`IDX1`].
    #[cfg(target_arch = "x86_64")]
    pub(super) const PERM1: [i32; 2 * STATES] = build_perm(&IDX1);

    #[cfg(target_arch = "x86_64")]
    const fn build_perm(idx: &[i64; STATES]) -> [i32; 2 * STATES] {
        let mut p = [0i32; 2 * STATES];
        let mut i = 0;
        while i < STATES {
            p[2 * i] = 2 * idx[i] as i32;
            p[2 * i + 1] = 2 * idx[i] as i32 + 1;
            i += 1;
        }
        p
    }

    /// One AVX2 trellis step: all 64 next-state metrics and the packed
    /// traceback word, 4 states per iteration.
    ///
    /// The predecessors of group `ns = 4g..4g+4` live at metric indices
    /// `base..base+8` with `base = 8*(g mod 8)`; an unpack/permute pair
    /// splits them into even (`s0`) and odd (`s1`) metric vectors. The
    /// 4-entry `costs` is loaded once per step, and each group's
    /// per-`ns` costs are one [`PERM0`]/[`PERM1`] lane permute of it,
    /// which moves the costs' bits unchanged. Comparison is
    /// `_CMP_LT_OQ` so ties and INF-only groups resolve exactly like the
    /// scalar strict `<`.
    ///
    /// # Safety
    /// Requires a CPU with AVX2. Group `g < 16` reads `metric[8(g mod
    /// 8)..+8]`, `PERM0`/`PERM1[8g..8g + 8]` and writes `next[4g..4g +
    /// 4]`, all in bounds.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn step_avx2(
        metric: &[f64; STATES],
        next: &mut [f64; STATES],
        costs: &[f64; 4],
    ) -> u64 {
        use std::arch::x86_64::*;
        let mut tb = 0u64;
        let cost = _mm256_castpd_ps(_mm256_loadu_pd(costs.as_ptr()));
        for g in 0..STATES / 4 {
            let base = 8 * (g & (STATES / 8 - 1));
            let a = _mm256_loadu_pd(metric.as_ptr().add(base));
            let b = _mm256_loadu_pd(metric.as_ptr().add(base + 4));
            // [a0,b0,a2,b2] / [a1,b1,a3,b3] -> permute lanes 0,2,1,3
            // to de-interleave into metric[base + {0,2,4,6}] etc.
            let lo = _mm256_unpacklo_pd(a, b);
            let hi = _mm256_unpackhi_pd(a, b);
            let even = _mm256_permute4x64_pd::<0b1101_1000>(lo);
            let odd = _mm256_permute4x64_pd::<0b1101_1000>(hi);
            let p0 = _mm256_loadu_si256(PERM0.as_ptr().add(8 * g) as *const __m256i);
            let p1 = _mm256_loadu_si256(PERM1.as_ptr().add(8 * g) as *const __m256i);
            let c0 = _mm256_castps_pd(_mm256_permutevar8x32_ps(cost, p0));
            let c1 = _mm256_castps_pd(_mm256_permutevar8x32_ps(cost, p1));
            let cand0 = _mm256_add_pd(even, c0);
            let cand1 = _mm256_add_pd(odd, c1);
            let take = _mm256_cmp_pd::<_CMP_LT_OQ>(cand1, cand0);
            let best = _mm256_blendv_pd(cand0, cand1, take);
            _mm256_storeu_pd(next.as_mut_ptr().add(4 * g), best);
            tb |= ((_mm256_movemask_pd(take) as u64) & 0xf) << (4 * g);
        }
        tb
    }

    /// One NEON trellis step, 2 next-states per iteration.
    /// `vld2q_f64` de-interleaves even/odd predecessor metrics; the two
    /// cost lanes are assembled from the const index tables (a 4-entry
    /// gather has no NEON instruction, and the table fits in cache).
    #[cfg(target_arch = "aarch64")]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn step_neon(
        metric: &[f64; STATES],
        next: &mut [f64; STATES],
        costs: &[f64; 4],
    ) -> u64 {
        use std::arch::aarch64::*;
        let mut tb = 0u64;
        for g in 0..STATES / 2 {
            let base = 4 * (g & (STATES / 4 - 1));
            let m = vld2q_f64(metric.as_ptr().add(base));
            let c0 = [
                costs[IDX0[2 * g] as usize],
                costs[IDX0[2 * g + 1] as usize],
            ];
            let c1 = [
                costs[IDX1[2 * g] as usize],
                costs[IDX1[2 * g + 1] as usize],
            ];
            let cand0 = vaddq_f64(m.0, vld1q_f64(c0.as_ptr()));
            let cand1 = vaddq_f64(m.1, vld1q_f64(c1.as_ptr()));
            let take = vcltq_f64(cand1, cand0);
            let best = vbslq_f64(take, cand1, cand0);
            vst1q_f64(next.as_mut_ptr().add(2 * g), best);
            let bits =
                (vgetq_lane_u64::<0>(take) & 1) | ((vgetq_lane_u64::<1>(take) & 1) << 1);
            tb |= bits << (2 * g);
        }
        tb
    }
}

/// Reusable traceback storage for the Viterbi decoder.
///
/// The survivor structure is a flat bit-packed trellis: one `u64` per
/// trellis step, where bit `s` records the LSB of the predecessor that
/// won state `s` (each state has exactly two predecessors differing
/// only in their LSB, and the input bit is the state's top bit, so one
/// bit per state per step fully determines the traceback). Hoisting
/// this buffer out of the decoder removes the per-call
/// `Vec<Vec<(u16, bool)>>` survivor allocation.
#[derive(Debug, Default, Clone)]
pub struct TrellisScratch {
    traceback: Vec<u64>,
}

impl TrellisScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

// The bit-packed traceback stores one bit per state in a u64.
const _: () = assert!(STATES <= 64, "traceback word too narrow");

/// Shared add-compare-select + traceback core for hard and soft
/// decoding. `llr_at(i)` yields the LLR of coded bit `i` (positive
/// favours 0); the closure lets `decode_hard` feed ±1 pseudo-LLRs
/// without materialising a `Vec<f64>`.
fn viterbi_flat(
    llr_at: impl Fn(usize) -> f64,
    payload_len: usize,
    ws: &mut TrellisScratch,
    tier: SimdTier,
) -> Vec<bool> {
    let total = payload_len + TAIL_BITS;
    const INF: f64 = f64::INFINITY;
    let mut metric = [INF; STATES];
    let mut next = [INF; STATES];
    metric[0] = 0.0;
    ws.traceback.clear();
    ws.traceback.resize(total, 0);
    let tier = if tier.is_available() {
        tier
    } else {
        SimdTier::Scalar
    };

    for (t, tb_out) in ws.traceback.iter_mut().enumerate() {
        let l0 = llr_at(2 * t);
        let l1 = llr_at(2 * t + 1);
        // Branch costs for the four possible output pairs, indexed
        // o0 + 2*o1 (summation order matches the per-branch original,
        // keeping decisions bit-identical).
        let costs = [
            branch_cost(false, l0) + branch_cost(false, l1),
            branch_cost(true, l0) + branch_cost(false, l1),
            branch_cost(false, l0) + branch_cost(true, l1),
            branch_cost(true, l0) + branch_cost(true, l1),
        ];
        let tb = match tier {
            // The SIMD steps write every next-state (unreached ones as
            // INF), so no `next.fill(INF)` is needed on these arms.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { acs::step_avx2(&metric, &mut next, &costs) },
            #[cfg(target_arch = "aarch64")]
            SimdTier::Neon => unsafe { acs::step_neon(&metric, &mut next, &costs) },
            _ => {
                next.fill(INF);
                let mut tb = 0u64;
                for s in 0..STATES {
                    let m = metric[s];
                    if m == INF {
                        continue;
                    }
                    let packed = OUT_TABLE[s];
                    for bit in 0..2usize {
                        let c = costs[((packed >> (2 * bit)) & 3) as usize];
                        let ns = (s >> 1) | (bit << (K - 2));
                        let cand = m + c;
                        if cand < next[ns] {
                            next[ns] = cand;
                            tb = (tb & !(1u64 << ns)) | (((s & 1) as u64) << ns);
                        }
                    }
                }
                tb
            }
        };
        *tb_out = tb;
        std::mem::swap(&mut metric, &mut next);
    }

    // Zero-terminated: trace back from state 0. The input bit at step
    // t is the top bit of the state the step landed in; the surviving
    // predecessor is recovered from its recorded LSB.
    let mut state = 0usize;
    let mut bits = vec![false; total];
    for t in (0..total).rev() {
        bits[t] = (state >> (K - 2)) & 1 == 1;
        let lsb = ((ws.traceback[t] >> state) & 1) as usize;
        state = ((state & (STATES / 2 - 1)) << 1) | lsb;
    }
    bits.truncate(payload_len);
    bits
}

/// Viterbi decode from soft inputs.
///
/// `llrs[i] > 0` means coded bit `i` is more likely 0 (same convention
/// as the QAM demapper). `payload_len` is the original message length
/// (tail bits are stripped). Returns `None` if `llrs` is too short.
pub fn decode_soft(llrs: &[f64], payload_len: usize) -> Option<Vec<bool>> {
    crate::dsp::with_thread_scratch(|ws| decode_soft_with(llrs, payload_len, &mut ws.trellis))
}

/// [`decode_soft`] with caller-provided trellis scratch (no per-call
/// survivor allocation; used by the link-level hot loop).
pub fn decode_soft_with(
    llrs: &[f64],
    payload_len: usize,
    ws: &mut TrellisScratch,
) -> Option<Vec<bool>> {
    decode_soft_with_tier(llrs, payload_len, ws, simd::active_tier())
}

/// [`decode_soft_with`] on an explicit SIMD tier (scalar fallback when
/// the tier is unavailable on this CPU). Exposed so equivalence tests
/// and the `dsp_json` benchmark can compare tiers within one process.
pub fn decode_soft_with_tier(
    llrs: &[f64],
    payload_len: usize,
    ws: &mut TrellisScratch,
    tier: SimdTier,
) -> Option<Vec<bool>> {
    let total = payload_len + TAIL_BITS;
    if llrs.len() < RATE_INV * total {
        return None;
    }
    Some(viterbi_flat(|i| llrs[i], payload_len, ws, tier))
}

/// Cost of hypothesising coded bit value `bit` when the channel says
/// `llr` (positive favours 0). Choosing the *likely* value costs 0;
/// choosing against the evidence costs `|llr|`.
#[inline]
fn branch_cost(bit: bool, llr: f64) -> f64 {
    if bit {
        llr.max(0.0)
    } else {
        (-llr).max(0.0)
    }
}

/// Hard-decision decoding: equivalent to feeding ±1 pseudo-LLRs to
/// [`decode_soft`]. Routes through the same flat-trellis core as soft
/// decoding, deriving the pseudo-LLRs on the fly instead of allocating
/// a `Vec<f64>`.
pub fn decode_hard(coded: &[bool], payload_len: usize) -> Option<Vec<bool>> {
    let total = payload_len + TAIL_BITS;
    if coded.len() < RATE_INV * total {
        return None;
    }
    let llr = |i: usize| if coded[i] { -1.0 } else { 1.0 };
    Some(crate::dsp::with_thread_scratch(|ws| {
        viterbi_flat(llr, payload_len, &mut ws.trellis, simd::active_tier())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rem_num::rng::rng_from_seed;

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn encode_length_and_rate() {
        let coded = encode(&random_bits(100, 1));
        assert_eq!(coded.len(), 2 * 106);
    }

    #[test]
    fn noiseless_round_trip() {
        for len in [1usize, 10, 57, 256] {
            let payload = random_bits(len, len as u64);
            let coded = encode(&payload);
            assert_eq!(decode_hard(&coded, len), Some(payload), "len={len}");
        }
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let payload = random_bits(120, 5);
        let mut coded = encode(&payload);
        // Free distance 10: sparse single errors are easily corrected.
        for &i in &[3usize, 40, 90, 150, 210] {
            coded[i] = !coded[i];
        }
        assert_eq!(decode_hard(&coded, 120), Some(payload));
    }

    #[test]
    fn fails_gracefully_under_heavy_corruption() {
        let payload = random_bits(100, 6);
        let mut coded = encode(&payload);
        let mut rng = rng_from_seed(7);
        for b in coded.iter_mut() {
            if rng.gen::<f64>() < 0.5 {
                *b = rng.gen();
            }
        }
        // Decoder still returns *something* of the right length.
        let out = decode_hard(&coded, 100).unwrap();
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn soft_beats_hard_at_moderate_snr() {
        let mut rng = rng_from_seed(8);
        let trials = 60;
        let len = 100;
        let sigma = 0.9; // BPSK-ish noise level
        let mut hard_errs = 0usize;
        let mut soft_errs = 0usize;
        for t in 0..trials {
            let payload = random_bits(len, 100 + t);
            let coded = encode(&payload);
            // BPSK over AWGN: y = (1-2b) + n; llr = 2y/sigma^2.
            let ys: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    (if b { -1.0 } else { 1.0 })
                        + sigma * rem_num::rng::standard_normal(&mut rng)
                })
                .collect();
            let soft: Vec<f64> = ys.iter().map(|&y| 2.0 * y / (sigma * sigma)).collect();
            let hard: Vec<bool> = ys.iter().map(|&y| y < 0.0).collect();
            if decode_soft(&soft, len).unwrap() != payload {
                soft_errs += 1;
            }
            if decode_hard(&hard, len).unwrap() != payload {
                hard_errs += 1;
            }
        }
        assert!(soft_errs <= hard_errs, "soft={soft_errs} hard={hard_errs}");
    }

    #[test]
    fn empty_payload() {
        let coded = encode(&[]);
        assert_eq!(coded.len(), 2 * TAIL_BITS);
        assert_eq!(decode_hard(&coded, 0), Some(vec![]));
    }

    #[test]
    fn short_input_rejected() {
        assert!(decode_soft(&[1.0; 4], 100).is_none());
    }

    #[test]
    fn generators_have_free_distance_behaviour() {
        // A single input 1 produces exactly weight-10 output for
        // (133,171) when the register flushes: the code's free distance.
        let coded = encode(&[true]);
        let weight = coded.iter().filter(|&&b| b).count();
        assert_eq!(weight, 10);
    }

    #[test]
    fn hard_and_soft_agree_on_noiseless_input_for_all_payload_lengths() {
        // Both decoders share the flat-trellis core; on noiseless
        // input they must produce identical (and correct) payloads for
        // every length 0..=64.
        for len in 0..=64usize {
            let payload = random_bits(len, 1000 + len as u64);
            let coded = encode(&payload);
            let llrs: Vec<f64> = coded.iter().map(|&b| if b { -1.0 } else { 1.0 }).collect();
            let hard = decode_hard(&coded, len);
            let soft = decode_soft(&llrs, len);
            assert_eq!(hard, soft, "len={len}");
            assert_eq!(hard, Some(payload), "len={len}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        let mut shared = TrellisScratch::new();
        let mut rng = rng_from_seed(42);
        for trial in 0..20u64 {
            let payload = random_bits(80, 2000 + trial);
            let coded = encode(&payload);
            // Noisy LLRs so ties and near-ties exercise the survivor
            // bookkeeping, not just the noiseless fast path.
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    (if b { -1.0 } else { 1.0 })
                        + 1.2 * rem_num::rng::standard_normal(&mut rng)
                })
                .collect();
            let reused = decode_soft_with(&llrs, 80, &mut shared);
            let fresh = decode_soft_with(&llrs, 80, &mut TrellisScratch::new());
            assert_eq!(reused, fresh, "trial={trial}");
        }
    }

    /// The pre-flat-trellis decoder, kept verbatim as a reference to
    /// pin down bit-identical behaviour of the packed survivor path.
    fn reference_decode_soft(llrs: &[f64], payload_len: usize) -> Option<Vec<bool>> {
        let total = payload_len + TAIL_BITS;
        if llrs.len() < RATE_INV * total {
            return None;
        }
        const INF: f64 = f64::INFINITY;
        let mut metric = vec![INF; STATES];
        metric[0] = 0.0;
        let mut survivors: Vec<Vec<(u16, bool)>> = Vec::with_capacity(total);
        for t in 0..total {
            let l0 = llrs[2 * t];
            let l1 = llrs[2 * t + 1];
            let mut next = vec![INF; STATES];
            let mut surv = vec![(0u16, false); STATES];
            #[allow(clippy::needless_range_loop)]
            for s in 0..STATES {
                let m = metric[s];
                if m == INF {
                    continue;
                }
                for bit in [false, true] {
                    let o = outputs(s, bit);
                    let c = branch_cost(o[0], l0) + branch_cost(o[1], l1);
                    let ns = next_state(s, bit);
                    let cand = m + c;
                    if cand < next[ns] {
                        next[ns] = cand;
                        surv[ns] = (s as u16, bit);
                    }
                }
            }
            metric = next;
            survivors.push(surv);
        }
        let mut state = 0usize;
        let mut bits = vec![false; total];
        for t in (0..total).rev() {
            let (prev, bit) = survivors[t][state];
            bits[t] = bit;
            state = prev as usize;
        }
        bits.truncate(payload_len);
        Some(bits)
    }

    #[test]
    fn flat_trellis_is_bit_identical_to_reference_decoder() {
        let mut rng = rng_from_seed(9);
        for trial in 0..40u64 {
            let len = 1 + (trial as usize * 7) % 120;
            let payload = random_bits(len, 3000 + trial);
            let coded = encode(&payload);
            for sigma in [0.4, 0.9, 1.5] {
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| {
                        let y = (if b { -1.0 } else { 1.0 })
                            + sigma * rem_num::rng::standard_normal(&mut rng);
                        2.0 * y / (sigma * sigma)
                    })
                    .collect();
                assert_eq!(
                    decode_soft(&llrs, len),
                    reference_decode_soft(&llrs, len),
                    "trial={trial} sigma={sigma}"
                );
            }
        }
    }

    /// Deterministic pseudo-noisy LLR stream (no RNG so the test runs
    /// in any environment): a sign pattern from the coded bits plus a
    /// bounded irrational-stride wobble producing ties, near-ties and
    /// sign flips.
    fn synthetic_llrs(coded: &[bool]) -> Vec<f64> {
        coded
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let t = i as f64;
                let wobble = (t * 0.618_034).fract() * 3.0 - 1.5;
                (if b { -1.0 } else { 1.0 }) + wobble
            })
            .collect()
    }

    #[test]
    fn simd_tiers_are_bit_identical_to_scalar() {
        use rem_num::SimdTier;
        for tier in [SimdTier::Avx2, SimdTier::Neon] {
            if !tier.is_available() {
                continue;
            }
            for len in [0usize, 1, 2, 5, 17, 40, 64, 100, 120] {
                let payload: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
                let coded = encode(&payload);
                let llrs = synthetic_llrs(&coded);
                let want =
                    decode_soft_with_tier(&llrs, len, &mut TrellisScratch::new(), SimdTier::Scalar);
                let got = decode_soft_with_tier(&llrs, len, &mut TrellisScratch::new(), tier);
                assert_eq!(got, want, "tier={} len={len}", tier.name());
            }
        }
    }

    #[test]
    fn simd_tiers_handle_saturated_and_zero_llrs() {
        use rem_num::SimdTier;
        // Extreme inputs: all-zero LLRs (every branch ties) and
        // infinite LLRs (unreachable-state INF propagation) must take
        // identical decisions on every tier.
        for tier in [SimdTier::Avx2, SimdTier::Neon] {
            if !tier.is_available() {
                continue;
            }
            let len = 24usize;
            let coded = encode(&[true; 24]);
            for llrs in [
                vec![0.0; coded.len()],
                coded
                    .iter()
                    .map(|&b| if b { f64::NEG_INFINITY } else { f64::INFINITY })
                    .collect::<Vec<f64>>(),
            ] {
                let want =
                    decode_soft_with_tier(&llrs, len, &mut TrellisScratch::new(), SimdTier::Scalar);
                let got = decode_soft_with_tier(&llrs, len, &mut TrellisScratch::new(), tier);
                assert_eq!(got, want, "tier={}", tier.name());
            }
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn acs_index_tables_match_trellis_structure() {
        for ns in 0..STATES {
            let bit = ns >> (K - 2) == 1;
            for (lsb, table) in [(0usize, &acs::IDX0), (1usize, &acs::IDX1)] {
                let s = ((ns << 1) & (STATES - 1)) | lsb;
                // The edge s -> ns must exist and carry the claimed
                // output pair.
                assert_eq!(next_state(s, bit), ns);
                let o = outputs(s, bit);
                let want = (o[0] as i64) | ((o[1] as i64) << 1);
                assert_eq!(table[ns], want, "ns={ns} lsb={lsb}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn acs_permute_tables_select_the_indexed_costs() {
        for (perm, idx) in [(&acs::PERM0, &acs::IDX0), (&acs::PERM1, &acs::IDX1)] {
            for ns in 0..STATES {
                let lanes = [perm[2 * ns], perm[2 * ns + 1]];
                assert_eq!(lanes, [2 * idx[ns] as i32, 2 * idx[ns] as i32 + 1], "ns={ns}");
                // A permute index only sees the low 3 bits: every pair
                // must name one of the 4 costs, whole.
                assert!((0..8).contains(&lanes[0]) && lanes[0] % 2 == 0, "ns={ns}");
            }
        }
    }

    #[test]
    fn out_table_matches_outputs_fn() {
        for (s, &out) in OUT_TABLE.iter().enumerate() {
            for (bit, want) in [(false, outputs(s, false)), (true, outputs(s, true))] {
                let pair = (out >> (2 * bit as usize)) & 3;
                assert_eq!(pair & 1 == 1, want[0], "s={s} bit={bit}");
                assert_eq!(pair >> 1 == 1, want[1], "s={s} bit={bit}");
            }
        }
    }
}
