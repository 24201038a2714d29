//! Discrete Fourier transforms of arbitrary length, with cached plans.
//!
//! The OTFS symplectic transform (SFFT) needs DFTs along both axes of
//! the delay-Doppler grid, and 4G/5G grid dimensions are rarely powers
//! of two (a subframe is 12 x 14). We therefore provide:
//!
//! * an iterative radix-2 Cooley-Tukey FFT for power-of-two lengths,
//! * Bluestein's chirp-z algorithm for every other length (it reduces an
//!   arbitrary-N DFT to a power-of-two circular convolution),
//! * a naive `O(N^2)` reference DFT used by the test-suite as ground
//!   truth.
//!
//! ## Plans
//!
//! Every Monte-Carlo trial bottoms out in these kernels, so the
//! per-length setup work — the bit-reversal permutation, the per-stage
//! twiddle factors, and (for Bluestein) the chirp and the forward
//! transform of the chirp kernel — is computed **once** per length in an
//! [`FftPlan`] and reused for every subsequent call:
//!
//! * [`FftPlan`] holds the precomputed tables and exposes in-place
//!   [`forward`](FftPlan::forward), [`inverse`](FftPlan::inverse) and
//!   [`inverse_unnormalized`](FftPlan::inverse_unnormalized) with
//!   caller-provided [`FftScratch`] (Bluestein needs one work buffer of
//!   the inner power-of-two length; radix-2 needs none).
//! * [`FftPlanner`] caches plans keyed by length. The free functions
//!   [`fft`]/[`ifft`] route through a thread-local planner + scratch,
//!   so steady-state transforms perform **zero heap allocations**.
//! * [`FftPlan::transform_batch`] runs [`BATCH`] vectors of one length
//!   through one call, held as a structure of arrays ([`Lanes`]): every
//!   step of the plan runs once for all four vectors, and on AVX2 the
//!   four vectors are the four lanes of a register. The grid transforms
//!   of the OTFS SFFT/ISFFT are its callers. Each lane is bit-identical
//!   to the one-vector call.
//!
//! Plans are pure functions of the length: a cached plan produces
//! bit-identical output to a freshly built one, and any thread count
//! produces bit-identical results (each worker's planner builds the
//! same tables). The original per-call implementation stays as
//! [`fft_unplanned`]/[`ifft_unplanned`]: the baseline the `dsp_json`
//! benchmark records, and the reference the planned path must match
//! bit for bit.
//!
//! Conventions: `fft` computes `X[k] = sum_n x[n] e^{-j 2 pi k n / N}`
//! (no scaling); `ifft` applies the `+j` kernel and divides by `N`, so
//! `ifft(fft(x)) == x`; `ifft_unnormalized` applies the `+j` kernel
//! without the `1/N` division (the SFFT needs exactly that, saving a
//! rescale pass).

use crate::complex::Complex64;
use crate::simd::{self, SimdTier};
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::rc::Rc;

/// In-place forward FFT. Accepts any length; length 0 is a no-op.
pub fn fft(data: &mut [Complex64]) {
    if data.len() <= 1 {
        return;
    }
    with_thread_planner(|planner, scratch| {
        let plan = planner.plan(data.len());
        plan.forward(data, scratch);
    });
}

/// In-place inverse FFT (includes the `1/N` scaling).
pub fn ifft(data: &mut [Complex64]) {
    if data.len() <= 1 {
        return;
    }
    with_thread_planner(|planner, scratch| {
        let plan = planner.plan(data.len());
        plan.inverse(data, scratch);
    });
}

/// In-place inverse FFT **without** the `1/N` scaling: the raw `+j`
/// kernel sum. `ifft_unnormalized(x) == ifft(x) * N` up to rounding,
/// with one fewer pass over the data.
pub fn ifft_unnormalized(data: &mut [Complex64]) {
    if data.len() <= 1 {
        return;
    }
    with_thread_planner(|planner, scratch| {
        let plan = planner.plan(data.len());
        plan.inverse_unnormalized(data, scratch);
    });
}

/// Out-of-place forward FFT convenience wrapper.
pub fn fft_vec(input: &[Complex64]) -> Vec<Complex64> {
    let mut v = input.to_vec();
    fft(&mut v);
    v
}

/// Out-of-place inverse FFT convenience wrapper.
pub fn ifft_vec(input: &[Complex64]) -> Vec<Complex64> {
    let mut v = input.to_vec();
    ifft(&mut v);
    v
}

/// In-place forward FFT through the original per-call implementation:
/// twiddles are recomputed by recurrence and the Bluestein chirp kernel
/// is rebuilt (and re-transformed) on every call. Kept as the measured
/// baseline for `BENCH_dsp.json` and as the reference the planned path
/// must match bit-for-bit.
pub fn fft_unplanned(data: &mut [Complex64]) {
    legacy::transform(data, legacy::Direction::Forward);
}

/// In-place inverse FFT (with `1/N` scaling) through the original
/// per-call implementation; see [`fft_unplanned`].
pub fn ifft_unplanned(data: &mut [Complex64]) {
    legacy::transform(data, legacy::Direction::Inverse);
    let n = data.len();
    if n > 1 {
        let s = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }
}

/// Naive `O(N^2)` DFT, used as a reference implementation in tests and
/// for very short transforms where setup cost dominates.
pub fn dft_naive(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * PI * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex64::cis(ang);
        }
        *o = acc;
    }
    if inverse {
        let s = 1.0 / n as f64;
        for z in out.iter_mut() {
            *z = z.scale(s);
        }
    }
    out
}

thread_local! {
    static THREAD_PLANNER: RefCell<(FftPlanner, FftScratch)> =
        RefCell::new((FftPlanner::new(), FftScratch::new()));
}

fn with_thread_planner<R>(f: impl FnOnce(&mut FftPlanner, &mut FftScratch) -> R) -> R {
    THREAD_PLANNER.with(|cell| {
        let mut guard = cell.borrow_mut();
        let (planner, scratch) = &mut *guard;
        f(planner, scratch)
    })
}

/// Reusable work memory for plan execution. Radix-2 plans need none;
/// Bluestein plans borrow one buffer of the inner power-of-two length,
/// and batched Bluestein transforms two such rows of [`Lanes`]. The
/// buffers grow to the largest length seen and are then reused, so
/// steady-state transforms allocate nothing.
#[derive(Debug, Default)]
pub struct FftScratch {
    buf: Vec<Complex64>,
    /// Batched Bluestein work memory: `m` real rows, then `m` imaginary.
    lanes: Vec<Lanes>,
}

impl FftScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mutable view of at least `len` elements (contents arbitrary).
    fn ensure(&mut self, len: usize) -> &mut [Complex64] {
        if self.buf.len() < len {
            self.buf.resize(len, Complex64::ZERO);
        }
        &mut self.buf[..len]
    }

    /// Real and imaginary batched work rows, `len` each (contents
    /// arbitrary).
    fn ensure_lanes(&mut self, len: usize) -> (&mut [Lanes], &mut [Lanes]) {
        if self.lanes.len() < 2 * len {
            self.lanes.resize(2 * len, [0.0; BATCH]);
        }
        self.lanes[..2 * len].split_at_mut(len)
    }
}

/// Vectors one batched transform carries: the four `f64` lanes of an
/// AVX2 register.
pub const BATCH: usize = 4;

/// One element of [`BATCH`] vectors, lane `l` holding vector `l`'s. A
/// batch of length-`n` vectors is `n` of these per component: element
/// `k` of vector `l` is `re[k][l]` and `im[k][l]` (flat index
/// `BATCH * k + l`).
pub type Lanes = [f64; BATCH];

/// The transform [`FftPlan::transform_batch`] applies to every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftDirection {
    /// [`FftPlan::forward`].
    Forward,
    /// [`FftPlan::inverse_unnormalized`].
    InverseUnnormalized,
}

/// `a * b` in every lane with `b` shared, operand for operand the
/// scalar `Complex64` product `(ar*br - ai*bi, ar*bi + ai*br)`.
#[inline(always)]
fn cmul_lanes(ar: &Lanes, ai: &Lanes, b: Complex64) -> (Lanes, Lanes) {
    let mut re = [0.0; BATCH];
    let mut im = [0.0; BATCH];
    for l in 0..BATCH {
        re[l] = ar[l] * b.re - ai[l] * b.im;
        im[l] = ar[l] * b.im + ai[l] * b.re;
    }
    (re, im)
}

/// One portable radix-2 stage over a batch: [`scalar_stage`]'s
/// butterfly `u + v*w` / `u - v*w` in every lane. With
/// [`lane_cmul_rows`] this is the batched reference every tier is
/// held to. Always inlined, so [`lanes_avx2`] compiles this same
/// loop for AVX2.
#[inline(always)]
fn lane_stage(re: &mut [Lanes], im: &mut [Lanes], len: usize, stage: &[Complex64]) {
    let half = len / 2;
    for (rb, ib) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (ru, rv) = rb.split_at_mut(half);
        let (iu, iv) = ib.split_at_mut(half);
        let pairs = ru.iter_mut().zip(iu).zip(rv.iter_mut().zip(iv));
        for (((ur, ui), (vr, vi)), &w) in pairs.zip(stage) {
            let (tr, ti) = cmul_lanes(vr, vi, w);
            for l in 0..BATCH {
                let (a, b) = (ur[l], ui[l]);
                ur[l] = a + tr[l];
                ui[l] = b + ti[l];
                vr[l] = a - tr[l];
                vi[l] = b - ti[l];
            }
        }
    }
}

/// Element `k` of every lane times `b[k]`, in place, after scaling it
/// by `scale` when one is given: the chirp, kernel and output products
/// of [`BluesteinPlan::execute`] over a batch. Always inlined, like
/// [`lane_stage`].
#[inline(always)]
fn lane_cmul_rows(re: &mut [Lanes], im: &mut [Lanes], b: &[Complex64], scale: Option<f64>) {
    for ((r, i), &c) in re.iter_mut().zip(im.iter_mut()).zip(b) {
        if let Some(s) = scale {
            *r = r.map(|x| x * s);
            *i = i.map(|x| x * s);
        }
        (*r, *i) = cmul_lanes(r, i, c);
    }
}

/// [`lane_stage`] and [`lane_cmul_rows`] compiled for AVX2: the same
/// source, inlined into functions that may use AVX2, so the 256-bit
/// registers carry the lanes. Rust never contracts a multiply and an
/// add into an FMA, so every lane keeps the portable loop's bits.
#[cfg(target_arch = "x86_64")]
mod lanes_avx2 {
    use super::{Complex64, Lanes};

    /// [`super::lane_stage`].
    ///
    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix2_stage(
        re: &mut [Lanes],
        im: &mut [Lanes],
        len: usize,
        stage: &[Complex64],
    ) {
        super::lane_stage(re, im, len, stage)
    }

    /// [`super::lane_cmul_rows`].
    ///
    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmul_rows(
        re: &mut [Lanes],
        im: &mut [Lanes],
        b: &[Complex64],
        scale: Option<f64>,
    ) {
        super::lane_cmul_rows(re, im, b, scale)
    }
}

/// [`lane_stage`] on `tier` (AVX2 or the portable loop).
fn stage_lanes(
    re: &mut [Lanes],
    im: &mut [Lanes],
    len: usize,
    stage: &[Complex64],
    tier: SimdTier,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `transform_batch_with_tier` resolved the tier, so the
        // CPU has AVX2.
        SimdTier::Avx2 => unsafe { lanes_avx2::radix2_stage(re, im, len, stage) },
        _ => lane_stage(re, im, len, stage),
    }
}

/// [`lane_cmul_rows`] on `tier` (AVX2 or the portable loop).
fn cmul_rows(
    re: &mut [Lanes],
    im: &mut [Lanes],
    b: &[Complex64],
    scale: Option<f64>,
    tier: SimdTier,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `stage_lanes`, the tier was resolved to one the
        // CPU has.
        SimdTier::Avx2 => unsafe { lanes_avx2::cmul_rows(re, im, b, scale) },
        _ => lane_cmul_rows(re, im, b, scale),
    }
}

/// A transform plan for one fixed length: every per-length table the
/// kernels need, computed once at construction.
///
/// * power-of-two lengths: the bit-reversal swap list and per-stage
///   twiddle tables (forward and inverse);
/// * other lengths (Bluestein): the chirp `c[k] = e^{±j pi k^2 / n}`,
///   the **pre-transformed** convolution kernel `FFT(b)`, and the inner
///   power-of-two radix-2 sub-plan of length `m = next_pow2(2n-1)`.
///
/// Execution is in place over caller memory with caller-provided
/// [`FftScratch`] — no per-call heap allocation.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug)]
enum PlanKind {
    /// Lengths 0 and 1: the transform is the identity.
    Trivial,
    Radix2(Radix2Plan),
    Bluestein(BluesteinPlan),
}

/// Cached tables for an iterative radix-2 Cooley-Tukey transform.
#[derive(Debug)]
struct Radix2Plan {
    n: usize,
    /// Bit-reversal permutation as an explicit swap list `(i, j)`,
    /// `j > i`, in ascending `i` order.
    swaps: Vec<(u32, u32)>,
    /// Per-stage twiddles, stages concatenated in ascending span order:
    /// the stage with butterfly span `len` contributes `len/2` entries
    /// `w^k = e^{-j 2 pi k / len}`. Total `n - 1` entries.
    ///
    /// Built with the same `w *= wlen` recurrence the per-call kernel
    /// used, so planned output is bit-identical to the legacy path —
    /// the recurrence now runs once per plan instead of once per call.
    tw_fwd: Vec<Complex64>,
    /// Inverse-kernel twiddles (`+j`), same layout.
    tw_inv: Vec<Complex64>,
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let levels = n.trailing_zeros();
        let mut swaps = Vec::new();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
            if j > i {
                swaps.push((i as u32, j as u32));
            }
        }
        let build = |sign: f64| -> Vec<Complex64> {
            let mut tw = Vec::with_capacity(n - 1);
            let mut len = 2usize;
            while len <= n {
                let ang = sign * 2.0 * PI / len as f64;
                let wlen = Complex64::cis(ang);
                let mut w = Complex64::ONE;
                for _ in 0..len / 2 {
                    tw.push(w);
                    w *= wlen;
                }
                len <<= 1;
            }
            tw
        };
        Self { n, swaps, tw_fwd: build(-1.0), tw_inv: build(1.0) }
    }

    /// In-place transform with the cached tables; no scaling either way.
    /// The butterfly stages run on `tier` (each SIMD stage kernel is
    /// bit-identical to the scalar loop — see [`crate::simd`]).
    fn execute(&self, data: &mut [Complex64], inverse: bool, tier: SimdTier) {
        let n = self.n;
        debug_assert_eq!(data.len(), n);
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let tw = if inverse { &self.tw_inv } else { &self.tw_fwd };
        let mut off = 0usize;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage = &tw[off..off + half];
            match tier {
                #[cfg(target_arch = "x86_64")]
                // Availability is checked by the public entry points.
                SimdTier::Avx2 => unsafe { butterfly_avx2::radix2_stage(data, len, stage) },
                #[cfg(target_arch = "aarch64")]
                SimdTier::Neon => unsafe { butterfly_neon::radix2_stage(data, len, stage) },
                _ => scalar_stage(data, len, stage),
            }
            off += half;
            len <<= 1;
        }
    }

    /// [`execute`](Self::execute) on every lane of a batch: the same
    /// swaps, then the same stages with the same twiddles.
    fn execute_lanes(&self, re: &mut [Lanes], im: &mut [Lanes], inverse: bool, tier: SimdTier) {
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let tw = if inverse { &self.tw_inv } else { &self.tw_fwd };
        let mut off = 0usize;
        let mut len = 2usize;
        while len <= self.n {
            let half = len / 2;
            stage_lanes(re, im, len, &tw[off..off + half], tier);
            off += half;
            len <<= 1;
        }
    }
}

/// One scalar radix-2 stage: butterfly span `len`, `stage` holding the
/// `len/2` twiddles. This loop is the bit-exact reference the SIMD
/// stage kernels reproduce.
fn scalar_stage(data: &mut [Complex64], len: usize, stage: &[Complex64]) {
    let n = data.len();
    let half = len / 2;
    let mut start = 0;
    while start < n {
        for (k, &w) in stage.iter().enumerate() {
            let u = data[start + k];
            let v = data[start + k + half] * w;
            data[start + k] = u + v;
            data[start + k + half] = u - v;
        }
        start += len;
    }
}

/// AVX2 butterfly stage: two complex butterflies per 256-bit register
/// over the interleaved `[re, im]` layout (`Complex64` is `repr(C)`).
///
/// Lane algebra per element, matching the scalar `u + v*w` / `u - v*w`
/// exactly: `addsub(v*wr, swap(v)*wi)` yields
/// `(vr*wr - vi*wi, vi*wr + vr*wi)`; the imaginary part is the scalar
/// `vr*wi + vi*wr` with the addition operands commuted, which IEEE-754
/// addition makes bit-identical. No FMA anywhere (the scalar path
/// compiles to separate mul/add).
#[cfg(target_arch = "x86_64")]
mod butterfly_avx2 {
    use super::Complex64;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix2_stage(data: &mut [Complex64], len: usize, stage: &[Complex64]) {
        let n = data.len();
        let half = len / 2;
        let ptr = data.as_mut_ptr() as *mut f64;
        let twp = stage.as_ptr() as *const f64;
        let mut start = 0usize;
        while start < n {
            let mut k = 0usize;
            while k + 2 <= half {
                let ui = 2 * (start + k);
                let vi = 2 * (start + k + half);
                let u = _mm256_loadu_pd(ptr.add(ui));
                let v = _mm256_loadu_pd(ptr.add(vi));
                let w = _mm256_loadu_pd(twp.add(2 * k));
                let wr = _mm256_movedup_pd(w); // [wr0, wr0, wr1, wr1]
                let wi = _mm256_permute_pd::<0b1111>(w); // [wi0, wi0, wi1, wi1]
                let t1 = _mm256_mul_pd(v, wr); // [vr*wr, vi*wr, ...]
                let vs = _mm256_permute_pd::<0b0101>(v); // [vi, vr, ...]
                let t2 = _mm256_mul_pd(vs, wi); // [vi*wi, vr*wi, ...]
                let vw = _mm256_addsub_pd(t1, t2);
                _mm256_storeu_pd(ptr.add(ui), _mm256_add_pd(u, vw));
                _mm256_storeu_pd(ptr.add(vi), _mm256_sub_pd(u, vw));
                k += 2;
            }
            // Remainder: the half == 1 first stage and odd trailing k.
            while k < half {
                let u = data[start + k];
                let v = data[start + k + half] * stage[k];
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                k += 1;
            }
            start += len;
        }
    }
}

/// NEON butterfly stage: de-interleaved (`vld2q_f64`) 2-wide re/im
/// vectors evaluate the scalar complex-multiply expression verbatim,
/// so it is bit-identical to [`scalar_stage`] by construction.
#[cfg(target_arch = "aarch64")]
mod butterfly_neon {
    use super::Complex64;
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn radix2_stage(data: &mut [Complex64], len: usize, stage: &[Complex64]) {
        let n = data.len();
        let half = len / 2;
        let ptr = data.as_mut_ptr() as *mut f64;
        let twp = stage.as_ptr() as *const f64;
        let mut start = 0usize;
        while start < n {
            let mut k = 0usize;
            while k + 2 <= half {
                let ui = 2 * (start + k);
                let vi = 2 * (start + k + half);
                let u = vld2q_f64(ptr.add(ui)); // u.0 = re lanes, u.1 = im lanes
                let v = vld2q_f64(ptr.add(vi));
                let w = vld2q_f64(twp.add(2 * k));
                let re = vsubq_f64(vmulq_f64(v.0, w.0), vmulq_f64(v.1, w.1));
                let im = vaddq_f64(vmulq_f64(v.0, w.1), vmulq_f64(v.1, w.0));
                vst2q_f64(ptr.add(ui), float64x2x2_t(vaddq_f64(u.0, re), vaddq_f64(u.1, im)));
                vst2q_f64(ptr.add(vi), float64x2x2_t(vsubq_f64(u.0, re), vsubq_f64(u.1, im)));
                k += 2;
            }
            while k < half {
                let u = data[start + k];
                let v = data[start + k + half] * stage[k];
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                k += 1;
            }
            start += len;
        }
    }
}

/// Cached state for Bluestein's chirp-z algorithm: the DFT as a
/// circular convolution of chirp-premultiplied input with a chirp
/// kernel, evaluated with the inner power-of-two sub-plan.
#[derive(Debug)]
struct BluesteinPlan {
    /// Inner convolution length `(2n - 1).next_power_of_two()`.
    m: usize,
    /// The power-of-two sub-plan the convolution runs on.
    inner: Radix2Plan,
    /// Forward chirp `c[k] = e^{-j pi k^2 / n}` (argument reduced mod 2n).
    chirp_fwd: Vec<Complex64>,
    /// Inverse chirp (`+j` kernel).
    chirp_inv: Vec<Complex64>,
    /// `FFT(b)` for the forward chirp kernel `b[k] = conj(c[k])`,
    /// wrapped circularly — transformed once here instead of per call.
    bfft_fwd: Vec<Complex64>,
    /// `FFT(b)` for the inverse chirp kernel.
    bfft_inv: Vec<Complex64>,
}

impl BluesteinPlan {
    fn new(n: usize) -> Self {
        debug_assert!(n >= 2 && !n.is_power_of_two());
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2Plan::new(m);
        let chirp = |sign: f64| -> Vec<Complex64> {
            let mut c = Vec::with_capacity(n);
            for k in 0..n as u64 {
                let kk = (k * k) % (2 * n as u64);
                c.push(Complex64::cis(sign * PI * kk as f64 / n as f64));
            }
            c
        };
        let chirp_fwd = chirp(-1.0);
        let chirp_inv = chirp(1.0);
        let kernel = |c: &[Complex64]| -> Vec<Complex64> {
            let mut b = vec![Complex64::ZERO; m];
            b[0] = c[0].conj();
            for k in 1..n {
                let v = c[k].conj();
                b[k] = v;
                b[m - k] = v;
            }
            inner.execute(&mut b, false, simd::active_tier());
            b
        };
        let bfft_fwd = kernel(&chirp_fwd);
        let bfft_inv = kernel(&chirp_inv);
        Self { m, inner, chirp_fwd, chirp_inv, bfft_fwd, bfft_inv }
    }

    fn execute(
        &self,
        data: &mut [Complex64],
        inverse: bool,
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        let n = data.len();
        let m = self.m;
        let (chirp, bfft) = if inverse {
            (&self.chirp_inv, &self.bfft_inv)
        } else {
            (&self.chirp_fwd, &self.bfft_fwd)
        };
        let a = scratch.ensure(m);
        for k in 0..n {
            a[k] = data[k] * chirp[k];
        }
        for z in &mut a[n..] {
            *z = Complex64::ZERO;
        }
        self.inner.execute(a, false, tier);
        simd::cmul_in_place_with_tier(a, bfft, tier);
        self.inner.execute(a, true, tier);
        let scale = 1.0 / m as f64;
        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k].scale(scale) * chirp[k];
        }
    }

    /// [`execute`](Self::execute) on every lane of a batch, step for
    /// step: chirp premultiply, zero padding, the inner forward
    /// transform, the product with the kernel FFT, the inner inverse,
    /// then the `1/m` scale and the output chirp.
    fn execute_lanes(
        &self,
        re: &mut [Lanes],
        im: &mut [Lanes],
        inverse: bool,
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        let n = re.len();
        let (chirp, bfft) = if inverse {
            (&self.chirp_inv, &self.bfft_inv)
        } else {
            (&self.chirp_fwd, &self.bfft_fwd)
        };
        let (ar, ai) = scratch.ensure_lanes(self.m);
        ar[..n].copy_from_slice(re);
        ai[..n].copy_from_slice(im);
        cmul_rows(&mut ar[..n], &mut ai[..n], chirp, None, tier);
        ar[n..].fill([0.0; BATCH]);
        ai[n..].fill([0.0; BATCH]);
        self.inner.execute_lanes(ar, ai, false, tier);
        cmul_rows(ar, ai, bfft, None, tier);
        self.inner.execute_lanes(ar, ai, true, tier);
        cmul_rows(&mut ar[..n], &mut ai[..n], chirp, Some(1.0 / self.m as f64), tier);
        re.copy_from_slice(&ar[..n]);
        im.copy_from_slice(&ai[..n]);
    }
}

impl FftPlan {
    /// Builds the plan for transforms of length `n` (any length).
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            PlanKind::Trivial
        } else if n.is_power_of_two() {
            PlanKind::Radix2(Radix2Plan::new(n))
        } else {
            PlanKind::Bluestein(BluesteinPlan::new(n))
        };
        Self { n, kind }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the length-0 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scratch elements [`forward`](Self::forward)/[`inverse`](Self::inverse)
    /// will borrow: 0 for power-of-two lengths, the inner convolution
    /// length for Bluestein.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Bluestein(b) => b.m,
            _ => 0,
        }
    }

    /// In-place forward transform (no scaling), on the active SIMD tier.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64], scratch: &mut FftScratch) {
        self.execute(data, false, scratch, simd::active_tier());
    }

    /// In-place inverse transform with the `1/N` scaling, the inverse of
    /// [`forward`](Self::forward).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64], scratch: &mut FftScratch) {
        self.execute(data, true, scratch, simd::active_tier());
        self.normalize(data);
    }

    /// In-place inverse transform **without** the `1/N` scaling: the raw
    /// `+j`-kernel DFT sum.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse_unnormalized(&self, data: &mut [Complex64], scratch: &mut FftScratch) {
        self.execute(data, true, scratch, simd::active_tier());
    }

    /// [`forward`](Self::forward) on an explicit SIMD tier (scalar
    /// fallback when the tier is unavailable on this CPU). Every tier
    /// produces bit-identical output; the equivalence tests and the
    /// `dsp_json` benchmark use this to compare tiers in one process,
    /// since [`crate::simd::active_tier`] is resolved only once.
    pub fn forward_with_tier(
        &self,
        data: &mut [Complex64],
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        self.execute(data, false, scratch, resolve_tier(tier));
    }

    /// [`inverse`](Self::inverse) on an explicit SIMD tier; see
    /// [`forward_with_tier`](Self::forward_with_tier).
    pub fn inverse_with_tier(
        &self,
        data: &mut [Complex64],
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        self.execute(data, true, scratch, resolve_tier(tier));
        self.normalize(data);
    }

    /// Transforms [`BATCH`] vectors of this plan's length in place, on
    /// the active SIMD tier. The vectors are a structure of arrays (see
    /// [`Lanes`]): element `k` of vector `l` is `re[k][l]` / `im[k][l]`.
    /// Every lane runs exactly the steps of the one-vector call, so lane
    /// `l`'s output is bit-identical to [`forward`](Self::forward) or
    /// [`inverse_unnormalized`](Self::inverse_unnormalized) on vector `l`
    /// alone. Bluestein lengths borrow `2 * scratch_len()` [`Lanes`] of
    /// `scratch`; power-of-two lengths none.
    ///
    /// # Panics
    /// Panics if `re` or `im` does not hold `self.len()` elements.
    pub fn transform_batch(
        &self,
        dir: FftDirection,
        re: &mut [Lanes],
        im: &mut [Lanes],
        scratch: &mut FftScratch,
    ) {
        self.transform_batch_with_tier(dir, re, im, scratch, simd::active_tier());
    }

    /// [`transform_batch`](Self::transform_batch) on an explicit SIMD
    /// tier (scalar fallback when the tier is unavailable on this CPU).
    /// AVX2 holds one lane per `f64` of a 256-bit register; every other
    /// tier runs the portable lane loop, the reference.
    pub fn transform_batch_with_tier(
        &self,
        dir: FftDirection,
        re: &mut [Lanes],
        im: &mut [Lanes],
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        assert_eq!(re.len(), self.n, "plan length mismatch");
        assert_eq!(im.len(), self.n, "plan length mismatch");
        let inverse = dir == FftDirection::InverseUnnormalized;
        let tier = resolve_tier(tier);
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Radix2(p) => p.execute_lanes(re, im, inverse, tier),
            PlanKind::Bluestein(p) => p.execute_lanes(re, im, inverse, scratch, tier),
        }
    }

    fn normalize(&self, data: &mut [Complex64]) {
        if self.n > 1 {
            let s = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(s);
            }
        }
    }

    fn execute(
        &self,
        data: &mut [Complex64],
        inverse: bool,
        scratch: &mut FftScratch,
        tier: SimdTier,
    ) {
        assert_eq!(data.len(), self.n, "plan length mismatch");
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Radix2(p) => p.execute(data, inverse, tier),
            PlanKind::Bluestein(p) => p.execute(data, inverse, scratch, tier),
        }
    }
}

/// `tier` if the running CPU can execute it, otherwise scalar — the
/// fallback rule every `*_with_tier` entry point applies.
fn resolve_tier(tier: SimdTier) -> SimdTier {
    if tier.is_available() {
        tier
    } else {
        SimdTier::Scalar
    }
}

/// A cache of [`FftPlan`]s keyed by length.
///
/// Not thread-safe by design: give each worker its own planner (plans
/// are pure functions of the length, so every worker builds identical
/// tables and results stay bit-identical at any thread count — the
/// `rem-exec` determinism contract). The free functions [`fft`]/[`ifft`]
/// use a thread-local planner automatically.
#[derive(Debug, Default)]
pub struct FftPlanner {
    plans: HashMap<usize, Rc<FftPlan>>,
}

impl FftPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached plan for length `n`, building it on first request.
    pub fn plan(&mut self, n: usize) -> Rc<FftPlan> {
        self.plans.entry(n).or_insert_with(|| Rc::new(FftPlan::new(n))).clone()
    }

    /// Number of distinct lengths planned so far.
    pub fn cached_lengths(&self) -> usize {
        self.plans.len()
    }
}

/// The original per-call transform implementation, kept verbatim as the
/// measured baseline and the bit-identity reference for plans.
mod legacy {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Direction {
        Forward,
        Inverse,
    }

    impl Direction {
        fn sign(self) -> f64 {
            match self {
                Direction::Forward => -1.0,
                Direction::Inverse => 1.0,
            }
        }
    }

    pub(super) fn transform(data: &mut [Complex64], dir: Direction) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        if n.is_power_of_two() {
            radix2(data, dir);
        } else {
            bluestein(data, dir);
        }
    }

    /// Iterative radix-2 Cooley-Tukey with bit-reversal permutation.
    fn radix2(data: &mut [Complex64], dir: Direction) {
        let n = data.len();
        debug_assert!(n.is_power_of_two());
        let levels = n.trailing_zeros();

        // Bit-reversal permutation.
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - levels)) & (n - 1);
            if j > i {
                data.swap(i, j);
            }
        }

        let sign = dir.sign();
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = Complex64::cis(ang);
            let half = len / 2;
            let mut start = 0;
            while start < n {
                let mut w = Complex64::ONE;
                for k in 0..half {
                    let u = data[start + k];
                    let v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                    w *= wlen;
                }
                start += len;
            }
            len <<= 1;
        }
    }

    /// Bluestein's algorithm: express the DFT as a circular convolution
    /// of chirp-premultiplied input with a chirp kernel, evaluated with
    /// a power-of-two FFT of length `>= 2N-1`.
    fn bluestein(data: &mut [Complex64], dir: Direction) {
        let n = data.len();
        let sign = dir.sign();
        let m = (2 * n - 1).next_power_of_two();

        // Chirp c[k] = e^{sign * j pi k^2 / n}. Use k^2 mod 2n to keep
        // the argument small and numerically accurate for large k.
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n as u64 {
            let kk = (k * k) % (2 * n as u64);
            chirp.push(Complex64::cis(sign * PI * kk as f64 / n as f64));
        }

        let mut a = vec![Complex64::ZERO; m];
        for k in 0..n {
            a[k] = data[k] * chirp[k];
        }
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let v = chirp[k].conj();
            b[k] = v;
            b[m - k] = v;
        }

        radix2(&mut a, Direction::Forward);
        radix2(&mut b, Direction::Forward);
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x *= *y;
        }
        radix2(&mut a, Direction::Inverse);
        let scale = 1.0 / m as f64;
        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k].scale(scale) * chirp[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn close(a: &[Complex64], b: &[Complex64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.dist(*y) < tol)
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| c64(i as f64, (i as f64) * 0.5 - 1.0)).collect()
    }

    #[test]
    fn radix2_matches_naive() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = ramp(n);
            let got = fft_vec(&x);
            let want = dft_naive(&x, false);
            assert!(close(&got, &want, 1e-8), "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        for n in [3usize, 5, 6, 7, 12, 13, 14, 15, 60, 100] {
            let x = ramp(n);
            let got = fft_vec(&x);
            let want = dft_naive(&x, false);
            assert!(close(&got, &want, 1e-7), "n={n}");
        }
    }

    #[test]
    fn inverse_round_trip_all_lengths() {
        for n in 1..=40usize {
            let x = ramp(n);
            let y = ifft_vec(&fft_vec(&x));
            assert!(close(&x, &y, 1e-8), "n={n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 14];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for z in &x {
            assert!(z.dist(Complex64::ONE) < 1e-10);
        }
    }

    #[test]
    fn constant_transforms_to_delta() {
        let mut x = vec![Complex64::ONE; 12];
        fft(&mut x);
        assert!(x[0].dist(c64(12.0, 0.0)) < 1e-10);
        for z in &x[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        for n in [8usize, 12, 14, 21] {
            let x = ramp(n);
            let y = fft_vec(&x);
            let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((ex - ey).abs() < 1e-6 * ex.max(1.0), "n={n}");
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 20;
        let bin = 7usize;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * bin as f64 * t as f64 / n as f64))
            .collect();
        let y = fft_vec(&x);
        for (k, z) in y.iter().enumerate() {
            if k == bin {
                assert!(z.dist(c64(n as f64, 0.0)) < 1e-8);
            } else {
                assert!(z.abs() < 1e-8, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut e: Vec<Complex64> = vec![];
        fft(&mut e);
        assert!(e.is_empty());
        let mut s = vec![c64(2.0, 3.0)];
        fft(&mut s);
        assert_eq!(s[0], c64(2.0, 3.0));
        ifft(&mut s);
        assert_eq!(s[0], c64(2.0, 3.0));
    }

    #[test]
    fn planned_is_bit_identical_to_legacy() {
        // The plan caches exactly what the per-call kernel recomputed,
        // so outputs must match to the last bit, both directions, for
        // radix-2 and Bluestein lengths alike.
        let mut scratch = FftScratch::new();
        for n in (1..=64).chain([72usize, 128, 600, 1024, 1200]) {
            let x = ramp(n);
            let plan = FftPlan::new(n);

            let mut planned = x.clone();
            plan.forward(&mut planned, &mut scratch);
            let mut leg = x.clone();
            fft_unplanned(&mut leg);
            assert_eq!(planned, leg, "forward n={n}");

            let mut planned = x.clone();
            plan.inverse(&mut planned, &mut scratch);
            let mut leg = x.clone();
            ifft_unplanned(&mut leg);
            assert_eq!(planned, leg, "inverse n={n}");
        }
    }

    #[test]
    fn plan_reuse_is_bit_identical_to_fresh_plans() {
        let mut scratch = FftScratch::new();
        let mut planner = FftPlanner::new();
        for n in [7usize, 12, 14, 64, 72, 600] {
            let x = ramp(n);
            for rep in 0..3 {
                let cached = planner.plan(n);
                let fresh = FftPlan::new(n);
                let mut a = x.clone();
                cached.forward(&mut a, &mut scratch);
                let mut b = x.clone();
                fresh.forward(&mut b, &mut FftScratch::new());
                assert_eq!(a, b, "n={n} rep={rep}");
            }
        }
        assert_eq!(planner.cached_lengths(), 6);
    }

    #[test]
    fn unnormalized_inverse_is_scaled_inverse() {
        for n in [4usize, 12, 14, 30] {
            let x = ramp(n);
            let mut raw = x.clone();
            ifft_unnormalized(&mut raw);
            let mut scaled = x.clone();
            ifft(&mut scaled);
            for (r, s) in raw.iter().zip(&scaled) {
                assert!(r.dist(s.scale(n as f64)) < 1e-9 * (1.0 + r.abs()), "n={n}");
            }
        }
    }

    #[test]
    fn simd_tiers_are_bit_identical_to_scalar() {
        // Sweep every lane-remainder length around the widest tier
        // (1..=4*lanes+3) plus the LTE grid sizes the link simulator
        // actually transforms. Unavailable tiers fall back to scalar,
        // so this test is meaningful on any machine and exhaustive on
        // CPUs with the tier.
        let mut scratch = FftScratch::new();
        for tier in [SimdTier::Avx2, SimdTier::Neon] {
            for n in (1..=19usize).chain([64, 72, 128, 600, 1024, 1200]) {
                let x = ramp(n);
                let plan = FftPlan::new(n);

                let mut fast = x.clone();
                plan.forward_with_tier(&mut fast, &mut scratch, tier);
                let mut reference = x.clone();
                plan.forward_with_tier(&mut reference, &mut scratch, SimdTier::Scalar);
                assert_eq!(fast, reference, "forward tier={} n={n}", tier.name());

                let mut fast = x.clone();
                plan.inverse_with_tier(&mut fast, &mut scratch, tier);
                let mut reference = x.clone();
                plan.inverse_with_tier(&mut reference, &mut scratch, SimdTier::Scalar);
                assert_eq!(fast, reference, "inverse tier={} n={n}", tier.name());
            }
        }
    }

    #[test]
    fn simd_tiers_are_bit_identical_on_unaligned_slices() {
        // Offset the data by one element so the kernel's loads start
        // 16 bytes off any 32-byte boundary; loadu must not care.
        let mut scratch = FftScratch::new();
        for tier in [SimdTier::Avx2, SimdTier::Neon] {
            for n in [8usize, 12, 16, 600, 1024] {
                let backing = ramp(n + 1);
                let plan = FftPlan::new(n);

                let mut fast = backing.clone();
                plan.forward_with_tier(&mut fast[1..], &mut scratch, tier);
                let mut reference = backing.clone();
                plan.forward_with_tier(&mut reference[1..], &mut scratch, SimdTier::Scalar);
                assert_eq!(fast, reference, "unaligned tier={} n={n}", tier.name());
            }
        }
    }

    #[test]
    fn scratch_len_reports_bluestein_inner_length() {
        assert_eq!(FftPlan::new(8).scratch_len(), 0);
        assert_eq!(FftPlan::new(12).scratch_len(), 32);
        assert_eq!(FftPlan::new(1200).scratch_len(), 4096);
        assert_eq!(FftPlan::new(1).scratch_len(), 0);
        assert!(FftPlan::new(0).is_empty());
    }
}
