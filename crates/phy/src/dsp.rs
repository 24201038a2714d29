//! Reusable DSP scratch state for the link-level hot paths.
//!
//! Every Monte-Carlo trial runs the same transforms over the same grid
//! sizes, so the expensive setup — FFT plans (twiddle tables, bit
//! reversal, Bluestein kernels), the Viterbi traceback trellis, and the
//! batched-line and LLR working buffers — is hoisted into a
//! [`DspScratch`] that a worker builds once and threads through every
//! block it simulates (see `rem_exec::par_map_with`).
//!
//! Determinism: scratch contents are caches and fully-overwritten
//! buffers — they never influence computed values, so results are
//! bit-identical whether a scratch is fresh, reused, or shared across
//! trials on any thread count.

use crate::convcode::TrellisScratch;
use rem_num::{c64, CMatrix, Complex64, FftDirection, FftPlanner, FftScratch, Lanes, BATCH};
use std::cell::RefCell;

/// Per-worker scratch for the coded-block pipeline: FFT planner + plan
/// scratch (one-vector and batched), the batched grid lines, the
/// demapper's LLR buffer and the Viterbi trellis.
#[derive(Debug, Default)]
pub struct DspScratch {
    /// Cached FFT plans keyed by length.
    planner: FftPlanner,
    /// Bluestein convolution scratch shared by every plan, one-vector
    /// and batched.
    fft: FftScratch,
    /// [`BATCH`] grid lines as a structure of arrays, one [`Lanes`] per
    /// element: the real parts here, the imaginary parts in `lines_im`.
    lines_re: Vec<Lanes>,
    lines_im: Vec<Lanes>,
    /// Soft-demapper LLR accumulation buffer.
    pub(crate) llrs: Vec<f64>,
    /// Flat bit-packed Viterbi traceback.
    pub(crate) trellis: TrellisScratch,
}

impl DspScratch {
    /// An empty scratch; every buffer grows on first use and is reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transforms every row or every column of `mat` in place, [`BATCH`]
    /// lines per batched plan call: lane `l` of a batch carries line
    /// `first + l`, and a short last batch zero-fills its idle lanes and
    /// drops their output. Each line's result is bit-identical to the
    /// one-vector plan call on it.
    pub(crate) fn transform_lines(&mut self, mat: &mut CMatrix, axis: Axis, dir: FftDirection) {
        let (r, c) = mat.shape();
        // Line `i`, element `j` sits at `data[i * line_step + j * elem_step]`.
        let (lines, len, line_step, elem_step) = match axis {
            Axis::Rows => (r, c, c, 1),
            Axis::Cols => (c, r, 1, c),
        };
        let plan = self.planner.plan(len);
        self.lines_re.resize(len, [0.0; BATCH]);
        self.lines_im.resize(len, [0.0; BATCH]);
        let data = mat.as_mut_slice();
        for first in (0..lines).step_by(BATCH) {
            let live = (lines - first).min(BATCH);
            let lanes = self.lines_re.iter_mut().zip(self.lines_im.iter_mut());
            for (j, (re, im)) in lanes.enumerate() {
                for l in 0..BATCH {
                    let z = if l < live {
                        data[(first + l) * line_step + j * elem_step]
                    } else {
                        Complex64::ZERO
                    };
                    re[l] = z.re;
                    im[l] = z.im;
                }
            }
            plan.transform_batch(dir, &mut self.lines_re, &mut self.lines_im, &mut self.fft);
            for (j, (re, im)) in self.lines_re.iter().zip(&self.lines_im).enumerate() {
                for l in 0..live {
                    data[(first + l) * line_step + j * elem_step] = c64(re[l], im[l]);
                }
            }
        }
    }
}

/// The lines of a matrix [`DspScratch::transform_lines`] transforms.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Axis {
    Rows,
    Cols,
}

thread_local! {
    static SCRATCH: RefCell<DspScratch> = RefCell::new(DspScratch::new());
}

/// Runs `f` with this thread's shared [`DspScratch`]. The allocating
/// convenience wrappers (`sfft`, `decode_soft`, …) route through here
/// so repeated calls on one thread still reuse plans and buffers.
///
/// Re-entrant calls (a wrapper invoked while the thread scratch is
/// already borrowed) fall back to a fresh scratch instead of
/// panicking; hot loops avoid that cost by passing their scratch to
/// the `_with`/`_into` variants explicitly.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut DspScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut DspScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_scratch_is_reentrant_safe() {
        let inner_len = with_thread_scratch(|ws| {
            ws.llrs.push(1.0);
            // A nested wrapper call while the thread scratch is held
            // must not panic; it gets a fresh scratch of its own.
            with_thread_scratch(|inner| inner.llrs.len())
        });
        assert_eq!(inner_len, 0);
    }
}
