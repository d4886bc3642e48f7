//! Dense linear algebra kernels for the EECS reproduction.
//!
//! This crate provides exactly the numerical machinery the paper's pipeline
//! needs, implemented from scratch:
//!
//! * [`Mat`] — a dense, row-major, `f64` matrix with the usual algebraic
//!   operations,
//! * [`qr`] — Householder QR factorization (used to orthonormalize bases on
//!   the Grassmann manifold),
//! * [`svd`] — one-sided Jacobi singular value decomposition (used for the
//!   geodesic flow kernel, Eq. 2 of the paper, and for RANSAC homography
//!   estimation),
//! * [`eig`] — a cyclic Jacobi eigensolver for symmetric matrices (used by
//!   the homography DLT),
//! * [`solve`] — LU decomposition with partial pivoting, matrix inversion and
//!   Cholesky factorization,
//! * [`stats`] — sample means, covariance matrices and the Mahalanobis
//!   distance used by the cross-camera re-identification stage
//!   (Section IV-C).
//!
//! # Example
//!
//! ```
//! use eecs_linalg::Mat;
//!
//! let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
//! let svd = eecs_linalg::svd::thin_svd(&a);
//! assert!((svd.singular_values[0] - 3.0).abs() < 1e-12);
//! ```

pub mod eig;
pub mod mat;
pub mod qr;
pub mod solve;
pub mod stats;
pub mod svd;

pub use eig::SymmetricEigen;
pub use mat::Mat;
pub use qr::QrDecomposition;
pub use solve::{Cholesky, Lu};
pub use svd::ThinSvd;

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be
    /// inverted/solved.
    Singular,
    /// The matrix is not positive definite (Cholesky).
    NotPositiveDefinite,
    /// An iterative algorithm failed to converge within its iteration cap.
    NoConvergence {
        /// The algorithm that failed.
        algorithm: &'static str,
    },
    /// An argument was out of the valid domain (e.g. requesting more
    /// principal components than data columns).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::NoConvergence { algorithm } => {
                write!(f, "{algorithm} failed to converge")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for LinalgError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<LinalgError>();
    }
}
