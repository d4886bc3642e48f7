//! Householder QR factorization.
//!
//! QR orthonormalizes subspace bases before they are placed on the
//! Grassmann manifold (Section III of the paper).

use crate::mat::Mat;
use crate::{LinalgError, Result};

/// The thin QR factorization `A = Q R` of an `m × n` matrix with `m ≥ n`:
/// `Q` is `m × n` with orthonormal columns and `R` is `n × n` upper
/// triangular.
///
/// # Example
///
/// ```
/// use eecs_linalg::{Mat, qr::householder_qr};
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[1.0, 0.0]]);
/// let qr = householder_qr(&a).unwrap();
/// let recon = qr.q.matmul(&qr.r);
/// assert!(recon.approx_eq(&a, 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// `m × n` matrix with orthonormal columns.
    pub q: Mat,
    /// `n × n` upper-triangular factor.
    pub r: Mat,
}

/// Computes the thin QR factorization of `a` using Householder reflections.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] when `a` has more columns than
/// rows (the thin factorization is undefined there).
pub fn householder_qr(a: &Mat) -> Result<QrDecomposition> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::InvalidArgument(format!(
            "thin QR requires rows >= cols, got {m}x{n}"
        )));
    }
    // Work on a full m×m accumulation of Q and an m×n copy of A.
    let mut r = a.clone();
    let mut q = Mat::identity(m);

    for k in 0..n {
        // Build the Householder vector for column k below the diagonal.
        let mut v = vec![0.0; m - k];
        for i in k..m {
            v[i - k] = r[(i, k)];
        }
        let alpha = -v[0].signum() * crate::mat::norm(&v);
        if alpha == 0.0 {
            continue; // column already zero below the diagonal
        }
        v[0] -= alpha;
        let vnorm = crate::mat::norm(&v);
        if vnorm == 0.0 {
            continue;
        }
        for x in &mut v {
            *x /= vnorm;
        }
        // Apply H = I - 2 v vᵀ to R (rows k..m) and accumulate into Q.
        for j in k..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i - k] * r[(i, j)];
            }
            for i in k..m {
                r[(i, j)] -= 2.0 * v[i - k] * s;
            }
        }
        for j in 0..m {
            let mut s = 0.0;
            for i in k..m {
                s += v[i - k] * q[(i, j)];
            }
            for i in k..m {
                q[(i, j)] -= 2.0 * v[i - k] * s;
            }
        }
    }
    // Q accumulated as the product of reflectors applied to I gives Qᵀ; the
    // thin factors are the first n columns of Qᵀᵀ = Q and the top n×n of R.
    let q_full = q.transpose();
    let q_thin = q_full.submatrix(0, 0, m, n);
    let mut r_thin = r.submatrix(0, 0, n, n);
    // Force exact zeros below the diagonal (they are ~1e-17 garbage).
    for i in 0..n {
        for j in 0..i {
            r_thin[(i, j)] = 0.0;
        }
    }
    Ok(QrDecomposition {
        q: q_thin,
        r: r_thin,
    })
}

/// Returns an orthonormal basis for the column space of `a` (the `Q` factor),
/// dropping columns whose `R` diagonal is below `tol` (rank deficiency).
///
/// # Errors
///
/// Propagates errors from [`householder_qr`].
pub fn orthonormal_columns(a: &Mat, tol: f64) -> Result<Mat> {
    let qr = householder_qr(a)?;
    let keep: Vec<usize> = (0..qr.r.rows())
        .filter(|&i| qr.r[(i, i)].abs() > tol)
        .collect();
    let mut out = Mat::zeros(a.rows(), keep.len());
    for (dst, &src) in keep.iter().enumerate() {
        out.set_col(dst, &qr.q.col(src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal(q: &Mat, tol: f64) {
        let gram = q.transpose_matmul(q).unwrap();
        assert!(
            gram.approx_eq(&Mat::identity(q.cols()), tol),
            "columns not orthonormal: {gram:?}"
        );
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = Mat::from_rows(&[
            &[4.0, 1.0, 2.0],
            &[2.0, 3.0, 0.0],
            &[0.0, 1.0, 5.0],
            &[1.0, 1.0, 1.0],
        ]);
        let qr = householder_qr(&a).unwrap();
        assert!(qr.q.matmul(&qr.r).approx_eq(&a, 1e-12));
        assert_orthonormal(&qr.q, 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let qr = householder_qr(&a).unwrap();
        assert_eq!(qr.r[(1, 0)], 0.0);
    }

    #[test]
    fn qr_of_identity() {
        let a = Mat::identity(3);
        let qr = householder_qr(&a).unwrap();
        assert!(qr.q.matmul(&qr.r).approx_eq(&a, 1e-14));
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(householder_qr(&a).is_err());
    }

    #[test]
    fn rank_deficient_basis_is_smaller() {
        // Second column is twice the first.
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let q = orthonormal_columns(&a, 1e-9).unwrap();
        assert_eq!(q.cols(), 1);
        assert_orthonormal(&q, 1e-12);
    }

    #[test]
    fn random_matrices_roundtrip() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let m = rng.random_range(3..10usize);
            let n = rng.random_range(1..=m);
            let a = Mat::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0));
            let qr = householder_qr(&a).unwrap();
            assert!(qr.q.matmul(&qr.r).approx_eq(&a, 1e-10));
            assert_orthonormal(&qr.q, 1e-10);
        }
    }
}
