//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! The homography DLT takes its solution from the eigendecomposition of the
//! symmetric positive semi-definite matrix `AᵀA`; the Jacobi method is exact
//! enough and simple to verify.

use crate::mat::Mat;
use crate::{LinalgError, Result};

/// Eigendecomposition `A = V Λ Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are sorted in non-increasing order; `eigenvectors` stores the
/// corresponding unit eigenvectors as **columns**.
///
/// # Example
///
/// ```
/// use eecs_linalg::{Mat, eig::symmetric_eigen};
///
/// let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]);
/// let e = symmetric_eigen(&a).unwrap();
/// assert!((e.eigenvalues[0] - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, non-increasing.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose columns are the unit eigenvectors, same order as
    /// `eigenvalues`.
    pub eigenvectors: Mat,
}

impl SymmetricEigen {
    /// Reconstructs `V Λ Vᵀ`; useful in tests.
    pub fn reconstruct(&self) -> Mat {
        let lambda = Mat::from_diag(&self.eigenvalues);
        self.eigenvectors
            .matmul(&lambda)
            .matmul(&self.eigenvectors.transpose())
    }
}

/// Computes the eigendecomposition of a symmetric matrix using the cyclic
/// Jacobi method.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is not square.
/// * [`LinalgError::InvalidArgument`] if `a` is not symmetric to `1e-8`
///   relative tolerance.
/// * [`LinalgError::NoConvergence`] if 100 sweeps do not reach convergence.
pub fn symmetric_eigen(a: &Mat) -> Result<SymmetricEigen> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::NotSquare { shape: (m, n) });
    }
    let scale = a.max_abs().max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > 1e-8 * scale {
                return Err(LinalgError::InvalidArgument(format!(
                    "matrix is not symmetric at ({i},{j})"
                )));
            }
        }
    }
    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: vec![],
            eigenvectors: Mat::zeros(0, 0),
        });
    }

    let mut w = a.clone();
    // Symmetrize exactly so rotations stay consistent.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (w[(i, j)] + w[(j, i)]);
            w[(i, j)] = avg;
            w[(j, i)] = avg;
        }
    }
    let mut v = Mat::identity(n);

    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += w[(p, q)] * w[(p, q)];
            }
        }
        if off.sqrt() <= 1e-13 * scale {
            return Ok(finalize(w, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = w[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(q, q)];
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Update rows/columns p and q of W = Jᵀ W J.
                for i in 0..n {
                    let wip = w[(i, p)];
                    let wiq = w[(i, q)];
                    w[(i, p)] = c * wip - s * wiq;
                    w[(i, q)] = s * wip + c * wiq;
                }
                for i in 0..n {
                    let wpi = w[(p, i)];
                    let wqi = w[(q, i)];
                    w[(p, i)] = c * wpi - s * wqi;
                    w[(q, i)] = s * wpi + c * wqi;
                }
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        algorithm: "cyclic Jacobi eigendecomposition",
    })
}

fn finalize(w: Mat, v: Mat) -> SymmetricEigen {
    let n = w.rows();
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (w[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut eigenvalues = Vec::with_capacity(n);
    let mut eigenvectors = Mat::zeros(n, n);
    for (dst, &(lambda, src)) in pairs.iter().enumerate() {
        eigenvalues.push(lambda);
        eigenvectors.set_col(dst, &v.col(src));
    }
    SymmetricEigen {
        eigenvalues,
        eigenvectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_eigenvalues() {
        let a = Mat::from_diag(&[1.0, 4.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 4.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_random() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..15 {
            let n = rng.random_range(1..8usize);
            let b = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            let a = b.transpose_matmul(&b).unwrap(); // symmetric PSD
            let e = symmetric_eigen(&a).unwrap();
            assert!(e.reconstruct().approx_eq(&a, 1e-9));
            // PSD ⇒ eigenvalues non-negative.
            assert!(e.eigenvalues.iter().all(|&l| l > -1e-10));
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        let gram = e.eigenvectors.transpose_matmul(&e.eigenvectors).unwrap();
        assert!(gram.approx_eq(&Mat::identity(3), 1e-10));
    }

    #[test]
    fn av_equals_lambda_v() {
        let a = Mat::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]);
        let e = symmetric_eigen(&a).unwrap();
        for k in 0..2 {
            let v = e.eigenvectors.col(k);
            let av = a.matvec(&v);
            for i in 0..2 {
                assert!((av[i] - e.eigenvalues[k] * v[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_nonsquare() {
        assert!(matches!(
            symmetric_eigen(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(symmetric_eigen(&a).is_err());
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 7.0]]);
        let e = symmetric_eigen(&a).unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }
}
