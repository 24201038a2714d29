//! Dense complex matrices.
//!
//! Channel matrices `H`, the delay/Doppler spread factors `Γ`, `P`, `Φ`
//! of REM's cross-band decomposition, and the SVD all operate on small
//! to medium dense matrices (a 4G subframe is 12 x 14; the largest grid
//! used by the paper's analysis is 1200 x 560). A straightforward
//! row-major `Vec<Complex64>` with explicit loops is simple, cache
//! friendly at these sizes, and keeps the numerics auditable.

use crate::complex::Complex64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates an all-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Creates a square diagonal matrix from real diagonal entries.
    pub fn diag_real(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = Complex64::from_real(v);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies out one column.
    pub fn col(&self, c: usize) -> Vec<Complex64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copies column `c` into `out` without allocating (the hot-path
    /// sibling of [`col`](Self::col), used by the column-wise FFT
    /// passes of the symplectic transforms).
    ///
    /// # Panics
    /// Panics if `out.len() != self.rows()` or `c` is out of range.
    pub fn copy_col_into(&self, c: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.rows, "column buffer size mismatch");
        assert!(c < self.cols, "column index out of range");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cols + c];
        }
    }

    /// Writes `src` into column `c`, the inverse of
    /// [`copy_col_into`](Self::copy_col_into).
    ///
    /// # Panics
    /// Panics if `src.len() != self.rows()` or `c` is out of range.
    pub fn set_col(&mut self, c: usize, src: &[Complex64]) {
        assert_eq!(src.len(), self.rows, "column buffer size mismatch");
        assert!(c < self.cols, "column index out of range");
        for (r, &v) in src.iter().enumerate() {
            self.data[r * self.cols + c] = v;
        }
    }

    /// Conjugate transpose `A^H`.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `A^T` (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Self::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Multiplies every entry by a real scalar, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }

    /// Returns `self` scaled by a real scalar.
    pub fn scaled(&self, s: f64) -> Self {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Frobenius distance `||self - other||_F`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn frobenius_dist(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// True when `A^H A` is within `tol` of the identity (columns are
    /// orthonormal).
    pub fn is_unitary_columns(&self, tol: f64) -> bool {
        let g = self.hermitian().matmul(self);
        let n = g.rows();
        for r in 0..n {
            for c in 0..n {
                let want = if r == c { Complex64::ONE } else { Complex64::ZERO };
                if g[(r, c)].dist(want) > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Mean of squared magnitudes over all entries (average power).
    pub fn mean_power(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>() / self.data.len() as f64
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: Self) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape());
        CMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: Self) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape());
        CMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Self) -> CMatrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_fn(3, 3, |r, c| c64((r * 3 + c) as f64, (r as f64) - (c as f64)));
        let i = CMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        // [[1, i], [0, 2]] * [[1, 0], [1, 1]] = [[1+i, i], [2, 2]]
        let a = CMatrix::from_vec(2, 2, vec![c64(1.0, 0.0), Complex64::I, Complex64::ZERO, c64(2.0, 0.0)]);
        let b = CMatrix::from_vec(2, 2, vec![Complex64::ONE, Complex64::ZERO, Complex64::ONE, Complex64::ONE]);
        let p = a.matmul(&b);
        assert!(p[(0, 0)].dist(c64(1.0, 1.0)) < 1e-12);
        assert!(p[(0, 1)].dist(Complex64::I) < 1e-12);
        assert!(p[(1, 0)].dist(c64(2.0, 0.0)) < 1e-12);
        assert!(p[(1, 1)].dist(c64(2.0, 0.0)) < 1e-12);
    }

    #[test]
    fn hermitian_involution_and_product_rule() {
        let a = CMatrix::from_fn(2, 3, |r, c| c64(r as f64 + 1.0, c as f64 - 1.0));
        let b = CMatrix::from_fn(3, 2, |r, c| c64(c as f64, r as f64));
        assert_eq!(a.hermitian().hermitian(), a);
        // (AB)^H == B^H A^H
        let lhs = a.matmul(&b).hermitian();
        let rhs = b.hermitian().matmul(&a.hermitian());
        assert!(lhs.frobenius_dist(&rhs) < 1e-12);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = CMatrix::from_vec(1, 2, vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn identity_columns_are_unitary() {
        assert!(CMatrix::identity(5).is_unitary_columns(1e-12));
        let mut a = CMatrix::identity(3);
        a[(0, 1)] = c64(0.5, 0.0);
        assert!(!a.is_unitary_columns(1e-6));
    }

    #[test]
    fn diag_real_builds_expected() {
        let d = CMatrix::diag_real(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], c64(2.0, 0.0));
        assert_eq!(d[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = CMatrix::from_fn(2, 2, |r, c| c64(r as f64, c as f64));
        let b = CMatrix::from_fn(2, 2, |r, c| c64(c as f64, r as f64));
        let sum = &a + &b;
        let back = &sum - &b;
        assert!(back.frobenius_dist(&a) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_and_col_access() {
        let a = CMatrix::from_fn(3, 2, |r, c| c64(r as f64, c as f64));
        assert_eq!(a.row(1), &[c64(1.0, 0.0), c64(1.0, 1.0)]);
        assert_eq!(a.col(1), vec![c64(0.0, 1.0), c64(1.0, 1.0), c64(2.0, 1.0)]);
    }
}
