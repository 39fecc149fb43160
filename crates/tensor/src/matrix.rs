//! Row-major dense matrix.

use crate::kernels::{self, ShapeError};
use crate::CscMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// All operations are bounds-checked; dimension mismatches panic with a
/// message naming the offending shapes, because in this workspace a shape
/// mismatch is always a programming error rather than a recoverable
/// condition.
///
/// # Examples
///
/// ```
/// use abonn_tensor::Matrix;
///
/// let eye = Matrix::identity(3);
/// let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
/// assert_eq!(eye.matmul(&a), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "MatrixRepr", into = "MatrixRepr")]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Serialised form of [`Matrix`]; deserialisation re-validates the shape.
#[derive(Serialize, Deserialize)]
struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl TryFrom<MatrixRepr> for Matrix {
    type Error = String;

    fn try_from(r: MatrixRepr) -> Result<Self, Self::Error> {
        if r.data.len() != r.rows * r.cols {
            return Err(format!(
                "matrix {}x{} needs {} values, got {}",
                r.rows,
                r.cols,
                r.rows * r.cols,
                r.data.len()
            ));
        }
        Ok(Matrix {
            rows: r.rows,
            cols: r.cols,
            data: r.data,
        })
    }
}

impl From<Matrix> for MatrixRepr {
    fn from(m: Matrix) -> Self {
        MatrixRepr {
            rows: m.rows,
            cols: m.cols,
            data: m.data,
        }
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} but row 0 has length {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that owns `data` laid out row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {rows}x{cols} needs {} values, got {}",
            rows * cols,
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at (`i`, `j`).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "Matrix::get: index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j]
    }

    /// Sets the entry at (`i`, `j`).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "Matrix::set: index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "Matrix::row: {i} out of {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "Matrix::row_mut: {i} out of {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "Matrix::col: {j} out of {} cols", self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Borrows the backing row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the backing row-major storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix–matrix product `self * rhs`: register-tiled over rows and
    /// output columns, with each output element summed over `k` in
    /// ascending order (the `ikj` loop's order; see the `kernels` module).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        match self.try_matmul(rhs) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked [`matmul`](Self::matmul).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        kernels::check_matmul("matmul", self.rows, self.cols, rhs.rows, rhs.cols)?;
        let mut out = Matrix::zeros(0, 0);
        self.matmul_body(rhs, &mut out);
        Ok(out)
    }

    /// Like [`matmul`](Self::matmul) but writes into `out`, reusing its
    /// allocation. `out` is resized and zero-filled; it must not alias
    /// `self` or `rhs`.
    ///
    /// The per-element summation order is identical to `matmul`, so the
    /// result is bit-for-bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        if let Err(e) = self.try_matmul_into(rhs, out) {
            panic!("{e}");
        }
    }

    /// Checked [`matmul_into`](Self::matmul_into).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        kernels::check_matmul("matmul_into", self.rows, self.cols, rhs.rows, rhs.cols)?;
        self.matmul_body(rhs, out);
        Ok(())
    }

    /// Shared unchecked matmul body.
    fn matmul_body(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize_zeroed(self.rows, rhs.cols);
        kernels::matmul_blocked(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Fused affine back-substitution step over a block-sparse column
    /// set: computes `self * weight` into `out` while accumulating
    /// `self * bias` into `consts`, in one pass over `self`, where only
    /// the columns of `self` covered by `runs` participate. This is the
    /// inner step of DeepPoly back-substitution (`A ← A·W`, `c ← c + A·b`)
    /// without the intermediate products.
    ///
    /// `runs` are ascending, disjoint, half-open `(start, end)` column
    /// intervals; columns outside every run are dropped entirely — their
    /// entry of `self`, row of `weight` and entry of `bias` are treated as
    /// absent, so callers must guarantee those coefficients are
    /// semantically zero (back-substitution uses this for neurons whose
    /// ReLU relaxation is identically zero). Whole masked blocks are
    /// skipped structurally instead of per column.
    ///
    /// Bit-for-bit contract: `out` and `consts` match the rolled masked
    /// loop (per-element `k`-ascending summation over the covered
    /// columns; see the `kernels` module docs for the zero-coefficient
    /// fine print), and each `consts[i]` receives its dot over the covered
    /// columns added once.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, including a run that does not fit
    /// `self.cols()`.
    pub fn fused_affine_into_runs(
        &self,
        weight: &Matrix,
        bias: &[f64],
        consts: &mut [f64],
        out: &mut Matrix,
        runs: &[(usize, usize)],
    ) {
        if let Err(e) = self.try_fused_affine_into_runs(weight, bias, consts, out, runs) {
            panic!("{e}");
        }
    }

    /// Checked [`fused_affine_into_runs`](Self::fused_affine_into_runs).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on any shape mismatch, including a run
    /// that does not fit `self.cols()`.
    pub fn try_fused_affine_into_runs(
        &self,
        weight: &Matrix,
        bias: &[f64],
        consts: &mut [f64],
        out: &mut Matrix,
        runs: &[(usize, usize)],
    ) -> Result<(), ShapeError> {
        kernels::check_fused_affine(
            "fused_affine_into_runs",
            self.rows,
            self.cols,
            weight.rows,
            weight.cols,
            bias.len(),
            consts.len(),
        )?;
        kernels::check_runs("fused_affine_into_runs", runs, self.cols)?;
        out.resize_zeroed(self.rows, weight.cols);
        kernels::fused_affine_runs(
            &self.data,
            self.cols,
            &weight.data,
            weight.cols,
            bias,
            consts,
            &mut out.data,
            runs,
        );
        Ok(())
    }

    /// Neuron-major counterpart of
    /// [`fused_affine_into_runs`](Self::fused_affine_into_runs) over a
    /// compressed sparse weight, visiting only its stored entries.
    ///
    /// `self` is the transposed coefficient block: one row per neuron
    /// (column of the row-major block), one column (lane) per expression
    /// row, its width padded to a multiple of [`LANE_WIDTH`](crate::LANE_WIDTH).
    /// `out` becomes the transposed product `(Aᵀ·W)ᵀ`, `weight.cols() ×
    /// self.cols()`, and `consts` (one slot per lane) gains each lane's
    /// bias dot over the rows covered by `runs`. Rows outside `runs` are
    /// dropped as in the row-major step, by zeroing them in `self`.
    ///
    /// Bit-for-bit contract: each lane of `out` and `consts` matches the
    /// row-major step on the corresponding row; per element the terms
    /// still arrive in ascending neuron order, and the terms either side
    /// skips are exact `±0.0` (see the `kernels` module docs).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, a width that is not lane-padded, or
    /// runs that are not ascending, disjoint and within `self.rows()`.
    pub fn fused_affine_csc_into_runs(
        &mut self,
        weight: &CscMatrix,
        bias: &[f64],
        consts: &mut [f64],
        out: &mut Matrix,
        runs: &[(usize, usize)],
    ) {
        if let Err(e) = self.try_fused_affine_csc_into_runs(weight, bias, consts, out, runs) {
            panic!("{e}");
        }
    }

    /// Checked [`fused_affine_csc_into_runs`](Self::fused_affine_csc_into_runs).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on any shape mismatch, a width that is
    /// not lane-padded, or runs that are not ascending, disjoint and
    /// within `self.rows()`.
    pub fn try_fused_affine_csc_into_runs(
        &mut self,
        weight: &CscMatrix,
        bias: &[f64],
        consts: &mut [f64],
        out: &mut Matrix,
        runs: &[(usize, usize)],
    ) -> Result<(), ShapeError> {
        const OP: &str = "fused_affine_csc_into_runs";
        kernels::check_fused_affine(
            OP,
            self.cols,
            self.rows,
            weight.rows(),
            weight.cols(),
            bias.len(),
            consts.len(),
        )?;
        kernels::check_lanes(OP, self.cols)?;
        kernels::check_runs(OP, runs, self.rows)?;
        out.resize_zeroed(weight.cols(), self.cols);
        kernels::fused_affine_csc_runs(
            &mut self.data,
            self.cols,
            weight,
            bias,
            consts,
            &mut out.data,
            runs,
        );
        Ok(())
    }

    /// Writes the `rows × cols` window of `self`'s transpose into `out`,
    /// reusing its allocation: `out[i][j] = self[j][i]` where `self` has
    /// that entry, `0.0` elsewhere. Back-substitution switches its
    /// coefficient blocks between row-major and zero-padded neuron-major
    /// layouts with it.
    pub fn transpose_into(&self, rows: usize, cols: usize, out: &mut Matrix) {
        // The kernel overwrites every entry, so stale contents may stay.
        out.rows = rows;
        out.cols = cols;
        out.data.resize(rows * cols, 0.0);
        kernels::transpose_window(&self.data, self.cols, &mut out.data, cols);
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out);
        out
    }

    /// Like [`matvec`](Self::matvec) but writes into `out`, reusing its
    /// allocation. The per-row dot order is unchanged, so results are
    /// bit-for-bit identical to `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            x.len(),
            self.cols,
            "Matrix::matvec: vector length {} does not match {} cols",
            x.len(),
            self.cols
        );
        out.clear();
        out.extend((0..self.rows).map(|i| crate::vecops::dot(self.row(i), x)));
    }

    /// Vector–matrix product `x^T * self`, i.e. the transpose applied to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    #[must_use]
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows,
            "Matrix::tr_matvec: vector length {} does not match {} rows",
            x.len(),
            self.rows
        );
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        out
    }

    /// Returns the transposed matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(self.cols, self.rows, &mut out);
        out
    }

    /// Applies `f` to every entry, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// Applies `f` to every entry in place, without allocating.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns `self * s` for a scalar `s`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Multiplies every entry by `s` in place, without allocating.
    pub fn scale_in_place(&mut self, s: f64) {
        self.map_in_place(|v| v * s);
    }

    /// Makes `self` a copy of `src`, reusing the existing allocation when
    /// it is large enough.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Resizes to `rows × cols` and fills with zeros, reusing the existing
    /// allocation when it is large enough.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Adds `s * rhs` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, s: f64, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "Matrix::axpy: shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Maximum absolute entry, or 0.0 for an empty matrix.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        // lint: allow(float-reduction-order, self.data is the row-major Vec backing store so iteration is storage ordered)
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k / cols, k % cols, v))
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix — the natural seed for reusable scratch
    /// buffers filled via [`Matrix::copy_from`] / [`Matrix::resize_zeroed`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self.get(i, j))?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
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
    use crate::approx_eq;
    use crate::CscMatrix;
    use proptest::prelude::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i as f64) - 2.0 * (j as f64));
        assert_eq!(Matrix::identity(4).matmul(&a), a);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]);
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![6.0, 0.0]);
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64 * 0.5 - 3.0);
        let x = vec![1.0, -2.0, 0.5];
        let via_transpose = a.transpose().matvec(&x);
        let direct = a.tr_matvec(&x);
        for (u, v) in direct.iter().zip(&via_transpose) {
            assert!(approx_eq(*u, *v, 1e-12));
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let a = Matrix::from_fn(3, 7, |i, j| (i + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let b = a.scale(3.0);
        let c = &(&a + &b) - &a;
        assert_eq!(c, b);
    }

    #[test]
    fn max_abs_and_frobenius() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert!(approx_eq(a.frobenius_norm(), 5.0, 1e-12));
    }

    #[test]
    fn iter_yields_row_major_triples() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let triples: Vec<_> = a.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0..10.0_f64, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    /// The pre-optimization `ikj` matmul, written against the public API
    /// so it cannot share code (or bugs) with either substrate path.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.row(i)[k];
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.row_mut(i)[j] += av * b.row(k)[j];
                }
            }
        }
        out
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (u, v) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    /// Test matrix with natural zeros sprinkled in (the formula hits 0.0
    /// whenever the hash lands on 6), so the zero-skip paths are hit.
    fn seeded(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 7 + j * 3 + salt) % 13) as f64 - 6.0
        })
    }

    /// The rolled masked fused-affine loop the block-sparse kernel
    /// replaced, written against the public API like
    /// [`matmul_reference`]: columns flagged in `skip` contribute to
    /// neither the product nor the bias dot, and each row's dot is added
    /// into its `consts` slot once.
    fn fused_affine_reference(
        a: &Matrix,
        w: &Matrix,
        bias: &[f64],
        consts: &mut [f64],
        skip: &[bool],
    ) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), w.cols());
        for (i, cslot) in consts.iter_mut().enumerate() {
            let mut c = 0.0;
            for k in 0..a.cols() {
                if skip[k] {
                    continue;
                }
                let av = a.row(i)[k];
                c += av * bias[k];
                if av == 0.0 {
                    continue;
                }
                for j in 0..w.cols() {
                    out.row_mut(i)[j] += av * w.row(k)[j];
                }
            }
            *cslot += c;
        }
        out
    }

    /// The skip mask a run list encodes: columns outside every run.
    fn skip_outside(runs: &[(usize, usize)], cols: usize) -> Vec<bool> {
        (0..cols)
            .map(|t| !runs.iter().any(|&(s, e)| (s..e).contains(&t)))
            .collect()
    }

    /// SplitMix64: a generator that shares no code with the kernels.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` entries uniform in `[-4, 4)`, a quarter of them exact `0.0`
    /// or `-0.0` so the zero-skip branches and signed zeros are exercised.
    fn entries(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                let r = splitmix(&mut state);
                match r % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0,
                }
            })
            .collect()
    }

    /// Ascending, disjoint runs over `0..cols`: usually a chain of runs 0–6
    /// wide (zero-width included) separated by gaps of 0–2 columns, and
    /// sometimes no run or one run covering every column.
    fn random_runs(seed: u64, cols: usize) -> Vec<(usize, usize)> {
        let mut state = seed;
        match splitmix(&mut state) % 8 {
            0 => return Vec::new(),
            1 => return vec![(0, cols)],
            _ => {}
        }
        let mut runs = Vec::new();
        let mut t = 0;
        for _ in 0..2 + splitmix(&mut state) % 10 {
            t += (splitmix(&mut state) % 3) as usize;
            if t > cols {
                break;
            }
            let end = (t + (splitmix(&mut state) % 7) as usize).min(cols);
            runs.push((t, end));
            t = end;
        }
        runs
    }

    /// `matmul`/`matmul_into` against [`matmul_reference`] on one seeded
    /// `m×k * k×n` input, bit for bit.
    fn assert_matmul_matches_oracle(m: usize, k: usize, n: usize, seed: u64) {
        let a = Matrix::from_vec(m, k, entries(seed, m * k));
        let b = Matrix::from_vec(k, n, entries(seed.wrapping_add(1), k * n));
        let want = matmul_reference(&a, &b);
        assert_bits_eq(&a.matmul(&b), &want);
        let mut out = Matrix::from_fn(2, 9, |_, _| 42.0);
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &want);
    }

    /// `fused_affine_into_runs` against [`fused_affine_reference`] on one
    /// seeded `m×k * k×n` input with random runs, bit for bit in both the
    /// product and the constants.
    fn assert_runs_match_oracle(m: usize, k: usize, n: usize, seed: u64) {
        let a = Matrix::from_vec(m, k, entries(seed, m * k));
        let w = Matrix::from_vec(k, n, entries(seed.wrapping_add(1), k * n));
        let bias = entries(seed.wrapping_add(2), k);
        let consts = entries(seed.wrapping_add(3), m);
        let runs = random_runs(seed.wrapping_add(4), k);
        let mut want_c = consts.clone();
        let want = fused_affine_reference(&a, &w, &bias, &mut want_c, &skip_outside(&runs, k));
        let mut got_c = consts;
        let mut got = Matrix::from_fn(2, 9, |_, _| 42.0);
        a.fused_affine_into_runs(&w, &bias, &mut got_c, &mut got, &runs);
        assert_bits_eq(&got, &want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got_c),
            bits(&want_c),
            "consts, {m}x{k}x{n} runs {runs:?}"
        );
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference_across_block_boundaries() {
        // Shapes straddle the 4-row and 16-column register tiles (full
        // tiles, column tails, remainder rows) plus degenerate 0-extent
        // cases.
        for &(m, k, n) in &[
            (5, 200, 7),
            (8, 64, 16),
            (9, 65, 33),
            (2, 1, 1),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
        ] {
            let a = seeded(m, k, 1);
            let b = seeded(k, n, 5);
            assert_bits_eq(&a.matmul(&b), &matmul_reference(&a, &b));
            let mut out = Matrix::from_fn(2, 9, |_, _| 42.0);
            a.matmul_into(&b, &mut out);
            assert_bits_eq(&out, &matmul_reference(&a, &b));
        }
    }

    /// Degenerate kernel shapes — 0-row, 0-col, 0-width, and 1×N panels
    /// narrower than any register tile — against both rolled oracles.
    #[test]
    fn kernels_match_rolled_oracles_on_degenerate_shapes() {
        let shapes = [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (0, 0, 0),
            (1, 37, 5),
            (4, 1, 33),
            (2, 17, 1),
            (5, 6, 7),
        ];
        for &(m, k, n) in &shapes {
            for seed in 0..8u64 {
                let seed = seed * 1_000 + (m * 31 + k * 7 + n) as u64;
                assert_matmul_matches_oracle(m, k, n, seed);
                assert_runs_match_oracle(m, k, n, seed);
            }
        }
    }

    #[test]
    fn fused_affine_runs_handles_degenerate_shapes() {
        // Empty runs list: only the `+= 0.0` const normalization happens.
        let a = seeded(3, 4, 0);
        let w = seeded(4, 2, 1);
        let bias = vec![1.0; 4];
        let mut c = vec![-0.0_f64, 1.0, -2.0];
        let mut out = Matrix::default();
        a.fused_affine_into_runs(&w, &bias, &mut c, &mut out, &[]);
        assert_eq!(c[0].to_bits(), 0.0_f64.to_bits());
        assert_bits_eq(&out, &Matrix::zeros(3, 2));
        // Zero-length run behaves like no run at all.
        a.fused_affine_into_runs(&w, &bias, &mut c, &mut out, &[(2, 2)]);
        assert_bits_eq(&out, &Matrix::zeros(3, 2));
        // 0-col lhs and 0-col weight.
        let e = Matrix::zeros(3, 0);
        let w0 = Matrix::zeros(0, 2);
        let mut c0 = vec![0.5; 3];
        e.fused_affine_into_runs(&w0, &[], &mut c0, &mut out, &[]);
        assert_bits_eq(&out, &Matrix::zeros(3, 2));
        let wn = Matrix::zeros(4, 0);
        let mut cn = vec![0.5; 3];
        a.fused_affine_into_runs(&wn, &bias, &mut cn, &mut out, &[(0, 4)]);
        let mut cm = vec![0.5; 3];
        let _ = fused_affine_reference(&a, &wn, &bias, &mut cm, &[false; 4]);
        for (u, v) in cn.iter().zip(&cm) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn fused_affine_runs_rejects_out_of_range_runs() {
        let a = seeded(2, 3, 0);
        let w = seeded(3, 2, 1);
        let mut c = vec![0.0; 2];
        let mut out = Matrix::default();
        a.fused_affine_into_runs(&w, &[0.0; 3], &mut c, &mut out, &[(1, 4)]);
    }

    /// Both checked run-walking entries, on runs that fit the width but
    /// are descending or overlapping: each would visit a column twice or
    /// out of order, so each must be a `ShapeError`.
    #[test]
    fn run_steps_reject_descending_and_overlapping_runs() {
        let a = seeded(2, 6, 0);
        let w = seeded(6, 3, 1);
        let csc = CscMatrix::from_dense(&w);
        let mut at = Matrix::default();
        a.transpose_into(6, crate::LANE_WIDTH, &mut at);
        let mut out = Matrix::default();
        for runs in [
            &[(3, 5), (0, 2)][..],
            &[(0, 3), (2, 5)][..],
            &[(4, 4), (1, 2)][..],
            &[(0, 6), (0, 6)][..],
        ] {
            let mut c = vec![0.0; 2];
            let err = a
                .try_fused_affine_into_runs(&w, &[0.0; 6], &mut c, &mut out, runs)
                .expect_err("row-major step accepted bad runs");
            assert!(err.to_string().contains("ascending and disjoint"), "{err}");
            let mut c = vec![0.0; crate::LANE_WIDTH];
            let err = at
                .try_fused_affine_csc_into_runs(&csc, &[0.0; 6], &mut c, &mut out, runs)
                .expect_err("neuron-major step accepted bad runs");
            assert!(err.to_string().contains("ascending and disjoint"), "{err}");
        }
        // Adjacent and zero-width runs are still ascending and disjoint.
        let mut c = vec![0.0; 2];
        a.fused_affine_into_runs(&w, &[0.0; 6], &mut c, &mut out, &[(0, 2), (2, 2), (2, 6)]);
    }

    #[test]
    fn neuron_major_step_rejects_unpadded_blocks_and_shape_mismatches() {
        let w = CscMatrix::from_dense(&seeded(4, 3, 1));
        let mut out = Matrix::default();
        let mut narrow = Matrix::zeros(4, 5);
        let err = narrow
            .try_fused_affine_csc_into_runs(&w, &[0.0; 4], &mut [0.0; 5], &mut out, &[])
            .expect_err("unpadded width accepted");
        assert!(err.to_string().contains("multiple of"), "{err}");
        let mut tall = Matrix::zeros(5, crate::LANE_WIDTH);
        let err = tall
            .try_fused_affine_csc_into_runs(&w, &[0.0; 5], &mut [0.0; 8], &mut out, &[])
            .expect_err("row mismatch accepted");
        assert!(err.to_string().contains("not defined"), "{err}");
    }

    /// A lowered convolution (`conv_to_matrix`) over a 2×6×6 input with
    /// 3×3 kernels into 3 channels, its weights drawn from [`entries`]
    /// (so some are exact `±0.0`), plus a bias per output neuron.
    fn conv_stage(seed: u64, stride: usize, padding: usize) -> (Matrix, Vec<f64>) {
        let (weights, bias) = (entries(seed, 54), entries(seed ^ 1, 3));
        let conv = abonn_nn::Conv2d::new(2, 3, 3, 3, stride, padding, weights, bias);
        let (m, b) = abonn_nn::lowering::conv_to_matrix(&conv, 6, 6);
        (Matrix::from_vec(m.rows(), m.cols(), m.into_vec()), b)
    }

    /// The neuron-major step against [`fused_affine_reference`]: an
    /// `rows × n` block over the conv stage's `n` neurons, transposed to
    /// lane-padded neuron-major form, stepped, and transposed back. The
    /// product and the constants must match bit for bit, and the padding
    /// lanes must come out as exact `+0.0`.
    fn assert_csc_step_matches_oracle(rows: usize, stride: usize, padding: usize, seed: u64) {
        let (w, _) = conv_stage(seed, stride, padding);
        let n = w.rows();
        let a = Matrix::from_vec(rows, n, entries(seed.wrapping_add(1), rows * n));
        let bias = entries(seed.wrapping_add(2), n);
        let consts = entries(seed.wrapping_add(3), rows);
        let runs = random_runs(seed.wrapping_add(4), n);
        let mut want_c = consts.clone();
        let want = fused_affine_reference(&a, &w, &bias, &mut want_c, &skip_outside(&runs, n));

        let lanes = crate::lane_padded(rows);
        let mut at = Matrix::from_fn(3, 5, |_, _| 42.0);
        a.transpose_into(n, lanes, &mut at);
        let mut got_c = consts;
        got_c.resize(lanes, 0.0);
        let mut out_t = Matrix::from_fn(2, 9, |_, _| 42.0);
        let csc = CscMatrix::from_dense(&w);
        at.fused_affine_csc_into_runs(&csc, &bias, &mut got_c, &mut out_t, &runs);
        let mut got = Matrix::default();
        out_t.transpose_into(rows, w.cols(), &mut got);
        assert_bits_eq(&got, &want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (got_bits, want_bits) = (bits(&got_c[..rows]), bits(&want_c));
        assert_eq!(got_bits, want_bits, "consts, {rows} rows runs {runs:?}");
        let zero = 0.0_f64.to_bits();
        assert!(got_c[rows..].iter().all(|v| v.to_bits() == zero));
        for j in 0..out_t.rows() {
            assert!(out_t.row(j)[rows..].iter().all(|v| v.to_bits() == zero));
        }
    }

    proptest! {
        /// Stride 1/2 and padding 0/1 lowered convolutions, padded as in
        /// production (`lane_padded`): 1 and 7 rows fill part of one
        /// 8-lane tile, 9 rows one 16-lane tile, 33 rows (40 lanes) a
        /// 32-lane tile and an 8-lane tail, 49 rows (56 lanes) a 32-, a
        /// 16- and an 8-lane tile, and 64 rows take the extra cache line
        /// (72 lanes: two 32-lane tiles and an 8-lane tail).
        #[test]
        fn csc_step_matches_rolled_oracle_on_lowered_convs(
            row_pick in 0usize..6,
            stride in 1usize..=2,
            padding in 0usize..=1,
            seed in 0u64..u64::MAX,
        ) {
            let rows = [1, 7, 9, 33, 49, 64][row_pick];
            assert_csc_step_matches_oracle(rows, stride, padding, seed);
        }
    }

    proptest! {
        /// Two full 4-row tiles plus 1–3 remainder rows, and at least one
        /// full 16-column tile plus (except at n = 32) a column tail.
        #[test]
        fn matmul_matches_rolled_oracle_on_register_tiles(
            m in 9usize..=11,
            k in 1usize..=40,
            n in 17usize..=47,
            seed in 0u64..u64::MAX,
        ) {
            assert_matmul_matches_oracle(m, k, n, seed);
        }

        /// Same tile coverage for the block-sparse kernel, with gapped,
        /// empty and zero-width runs.
        #[test]
        fn fused_affine_runs_matches_rolled_oracle_on_register_tiles(
            m in 9usize..=11,
            k in 1usize..=40,
            n in 17usize..=47,
            seed in 0u64..u64::MAX,
        ) {
            assert_runs_match_oracle(m, k, n, seed);
        }
    }

    proptest! {
        #[test]
        fn matmul_is_associative(
            a in small_matrix(3, 4),
            b in small_matrix(4, 2),
            c in small_matrix(2, 5),
        ) {
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            for ((_, _, u), (_, _, v)) in left.iter().zip(right.iter()) {
                prop_assert!(approx_eq(u, v, 1e-6));
            }
        }

        #[test]
        fn matvec_is_linear(
            a in small_matrix(4, 3),
            x in proptest::collection::vec(-5.0..5.0_f64, 3),
            y in proptest::collection::vec(-5.0..5.0_f64, 3),
            s in -3.0..3.0_f64,
        ) {
            // A(x + s y) == A x + s A y
            let combined: Vec<f64> = x.iter().zip(&y).map(|(u, v)| u + s * v).collect();
            let lhs = a.matvec(&combined);
            let ax = a.matvec(&x);
            let ay = a.matvec(&y);
            for i in 0..lhs.len() {
                prop_assert!(approx_eq(lhs[i], ax[i] + s * ay[i], 1e-8));
            }
        }

        #[test]
        fn transpose_swaps_matmul_order(
            a in small_matrix(3, 4),
            b in small_matrix(4, 2),
        ) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for ((_, _, u), (_, _, v)) in lhs.iter().zip(rhs.iter()) {
                prop_assert!(approx_eq(u, v, 1e-9));
            }
        }

        #[test]
        fn matmul_into_is_bit_identical_to_matmul(
            a in small_matrix(3, 4),
            b in small_matrix(4, 5),
        ) {
            // Start from a dirty, differently-shaped buffer to prove the
            // reset is complete.
            let mut out = Matrix::from_fn(7, 2, |_, _| 42.0);
            a.matmul_into(&b, &mut out);
            let expect = a.matmul(&b);
            prop_assert_eq!(out.rows(), expect.rows());
            prop_assert_eq!(out.cols(), expect.cols());
            for (u, v) in out.as_slice().iter().zip(expect.as_slice()) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn fused_affine_full_run_matches_matmul_plus_dot(
            a in small_matrix(3, 4),
            w in small_matrix(4, 5),
            bias in proptest::collection::vec(-5.0..5.0_f64, 4),
            consts in proptest::collection::vec(-5.0..5.0_f64, 3),
        ) {
            let mut fused_c = consts.clone();
            let mut out = Matrix::zeros(0, 0);
            a.fused_affine_into_runs(&w, &bias, &mut fused_c, &mut out, &[(0, 4)]);
            let expect = a.matmul(&w);
            for (u, v) in out.as_slice().iter().zip(expect.as_slice()) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
            for (i, c0) in consts.iter().enumerate() {
                let want = c0 + crate::vecops::dot(a.row(i), &bias);
                prop_assert_eq!(fused_c[i].to_bits(), want.to_bits());
            }
        }

        #[test]
        fn matvec_into_reuses_buffer_and_matches(
            a in small_matrix(4, 3),
            x in proptest::collection::vec(-5.0..5.0_f64, 3),
        ) {
            let mut out = vec![9.0; 17];
            a.matvec_into(&x, &mut out);
            prop_assert_eq!(&out, &a.matvec(&x));
        }
    }

    #[test]
    fn in_place_map_and_scale_match_allocating_variants() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64 - 6.5);
        let mut b = a.clone();
        b.map_in_place(|v| v.abs() + 1.0);
        assert_eq!(b, a.map(|v| v.abs() + 1.0));
        let mut c = a.clone();
        c.scale_in_place(-2.5);
        assert_eq!(c, a.scale(-2.5));
    }

    #[test]
    fn copy_from_and_resize_zeroed_reset_shape_and_contents() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let mut buf = Matrix::from_fn(5, 5, |_, _| 1.0);
        buf.copy_from(&a);
        assert_eq!(buf, a);
        buf.resize_zeroed(4, 2);
        assert_eq!(buf, Matrix::zeros(4, 2));
    }
}
