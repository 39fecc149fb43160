//! Compressed sparse column storage for mostly-zero weight matrices.

use crate::Matrix;

/// A matrix stored by columns, keeping only its non-zero entries.
///
/// Column `j`'s entries sit in `col_ptr[j]..col_ptr[j + 1]` of `row_idx`
/// and `vals`, in ascending row order. Exact zeros (`0.0` and `-0.0`) are
/// dropped: a product against them only ever contributes a `±0.0` term.
///
/// # Examples
///
/// ```
/// use abonn_tensor::{CscMatrix, Matrix};
///
/// let m = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0], &[4.0, 5.0]]);
/// let csc = CscMatrix::from_dense(&m);
/// assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(1, 3.0), (2, 4.0)]);
/// assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Compresses the non-zero entries of `m`.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> Self {
        let mut col_ptr = Vec::with_capacity(m.cols() + 1);
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0);
        for j in 0..m.cols() {
            for i in 0..m.rows() {
                let v = m.get(i, j);
                if v != 0.0 {
                    row_idx.push(i);
                    vals.push(v);
                }
            }
            col_ptr.push(vals.len());
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            col_ptr,
            row_idx,
            vals,
        }
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

    /// Iterates column `j`'s `(row, value)` entries in ascending row order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(
            j < self.cols,
            "CscMatrix::col: {j} out of {} cols",
            self.cols
        );
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.vals[span].iter().copied())
    }

    /// The raw `(col_ptr, row_idx, vals)` arrays, for the kernels.
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.col_ptr, &self.row_idx, &self.vals)
    }
}
