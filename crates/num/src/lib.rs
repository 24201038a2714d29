#![warn(missing_docs)]

//! # rem-num
//!
//! Numerical foundations for the REM reproduction: complex arithmetic,
//! FFTs of arbitrary length, dense complex matrices, a one-sided Jacobi
//! SVD, descriptive statistics and deterministic random sources.
//!
//! Everything here is implemented from scratch (no external linear
//! algebra or FFT crates) so the whole signal path of the paper —
//! OFDM/OTFS modulation, delay-Doppler channel estimation and the
//! SVD-based cross-band estimator of Algorithm 1 — is auditable within
//! this workspace.
//!
//! ## Quick tour
//!
//! ```
//! use rem_num::{c64, fft::fft_vec, matrix::CMatrix, svd::svd};
//!
//! // FFT of a delta is flat.
//! let mut x = vec![rem_num::Complex64::ZERO; 8];
//! x[0] = rem_num::Complex64::ONE;
//! let y = fft_vec(&x);
//! assert!(y.iter().all(|z| z.dist(rem_num::Complex64::ONE) < 1e-12));
//!
//! // SVD reconstructs its input.
//! let a = CMatrix::from_fn(4, 3, |r, c| c64(r as f64, c as f64));
//! let d = svd(&a);
//! assert!(d.reconstruct().frobenius_dist(&a) < 1e-9);
//! ```

pub mod complex;
pub mod fft;
pub mod hash;
pub mod health;
pub mod matrix;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod svd;

pub use complex::{c64, Complex64};
pub use fft::{FftDirection, FftPlan, FftPlanner, FftScratch, Lanes, BATCH};
pub use health::DegradedStats;
pub use matrix::CMatrix;
pub use rng::SimRng;
pub use simd::SimdTier;
pub use svd::{svd, svd_checked, svd_monitored, Svd, SvdError, SvdOptions, SvdReport};
