#![forbid(unsafe_code)]
//! Dense linear-algebra substrate for the ABONN reproduction.
//!
//! The verification stack (bound propagation, LP solving, neural-network
//! inference and training) only needs small, dense, double-precision
//! matrices and vectors, so this crate provides exactly that: a row-major
//! [`Matrix`] plus a set of slice-based vector helpers in [`vecops`].
//!
//! # Examples
//!
//! ```
//! use abonn_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = vec![1.0, -1.0];
//! assert_eq!(a.matvec(&x), vec![-1.0, -1.0]);
//! ```

pub mod kernels;
mod matrix;
pub mod vecops;

pub use kernels::ShapeError;
pub use matrix::Matrix;

/// Absolute tolerance used by the approximate comparisons in this workspace.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if `a` and `b` differ by at most `tol`.
///
/// # Examples
///
/// ```
/// assert!(abonn_tensor::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!abonn_tensor::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(0.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 5e-10, EPSILON));
        assert!(!approx_eq(1.0, 1.0 + 2e-9, EPSILON));
    }
}
