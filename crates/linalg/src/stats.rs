//! Sample statistics and the Mahalanobis distance.
//!
//! Section IV-C of the paper verifies homography-matched detections using
//! the Mahalanobis distance between mean-color features.

use crate::mat::Mat;
use crate::solve::Cholesky;
use crate::{LinalgError, Result};

/// Sample mean of the rows of `data`.
///
/// # Panics
///
/// Panics if `data` has no rows.
pub fn row_mean(data: &Mat) -> Vec<f64> {
    assert!(data.rows() > 0, "mean of empty data");
    let (k, n) = data.shape();
    let mut mean = vec![0.0; n];
    for row in data.iter_rows() {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= k as f64;
    }
    mean
}

/// Unbiased sample covariance of the rows of `data` (`samples × features`).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] for fewer than 2 samples.
pub fn covariance(data: &Mat) -> Result<Mat> {
    let (k, n) = data.shape();
    if k < 2 {
        return Err(LinalgError::InvalidArgument(
            "covariance requires at least 2 samples".into(),
        ));
    }
    let mean = row_mean(data);
    let centered = Mat::from_fn(k, n, |i, j| data[(i, j)] - mean[j]);
    Ok(centered
        .transpose_matmul(&centered)?
        .scale(1.0 / (k as f64 - 1.0)))
}

/// A fitted Mahalanobis metric: a mean and the Cholesky factor of a
/// (regularized) covariance.
///
/// # Example
///
/// ```
/// use eecs_linalg::{Mat, stats::MahalanobisMetric};
///
/// let data = Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0], &[0.5, 1.5]]);
/// let metric = MahalanobisMetric::fit(&data, 1e-6).unwrap();
/// let d = metric.distance(&[1.0, 1.0], &[1.0, 1.0]);
/// assert!(d.abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MahalanobisMetric {
    chol: Cholesky,
    dim: usize,
}

impl MahalanobisMetric {
    /// Fits the metric to `data` (`samples × features`), adding `ridge` to
    /// the covariance diagonal for numerical stability.
    ///
    /// # Errors
    ///
    /// Propagates covariance/Cholesky failures (e.g. not enough samples).
    pub fn fit(data: &Mat, ridge: f64) -> Result<MahalanobisMetric> {
        let mut cov = covariance(data)?;
        for i in 0..cov.rows() {
            cov[(i, i)] += ridge;
        }
        let chol = Cholesky::decompose(&cov)?;
        Ok(MahalanobisMetric {
            dim: cov.rows(),
            chol,
        })
    }

    /// Builds the metric directly from a covariance matrix.
    ///
    /// # Errors
    ///
    /// Fails if `cov` is not symmetric positive definite.
    pub fn from_covariance(cov: &Mat) -> Result<MahalanobisMetric> {
        Ok(MahalanobisMetric {
            dim: cov.rows(),
            chol: Cholesky::decompose(cov)?,
        })
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mahalanobis distance `√((a-b)ᵀ Σ⁻¹ (a-b))` between two vectors.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths differ from the fitted dimension.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.distance_squared(a, b).sqrt()
    }

    /// Squared Mahalanobis distance.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths differ from the fitted dimension.
    pub fn distance_squared(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.dim, "dimension mismatch");
        assert_eq!(b.len(), self.dim, "dimension mismatch");
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        // dᵀ Σ⁻¹ d = ||L⁻¹ d||² via forward substitution.
        let mut y = vec![0.0; self.dim];
        for i in 0..self.dim {
            let mut s = diff[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                s -= self.chol.l[(i, j)] * yj;
            }
            y[i] = s / self.chol.l[(i, i)];
        }
        y.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_rows() {
        let data = Mat::from_rows(&[&[2.0, 3.0], &[2.0, 3.0]]);
        assert_eq!(row_mean(&data), vec![2.0, 3.0]);
    }

    #[test]
    fn covariance_of_identity_like_data() {
        // Two independent unit-variance dimensions.
        let data = Mat::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]);
        let cov = covariance(&data).unwrap();
        assert!((cov[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 2.0 / 3.0).abs() < 1e-12);
        assert!(cov[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn covariance_requires_two_samples() {
        assert!(covariance(&Mat::zeros(1, 3)).is_err());
    }

    #[test]
    fn identity_covariance_reduces_to_euclidean() {
        let metric = MahalanobisMetric::from_covariance(&Mat::identity(2)).unwrap();
        let d = metric.distance(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_covariance_shrinks_distance() {
        // Variance 4 along x ⇒ distance along x is halved.
        let cov = Mat::from_diag(&[4.0, 1.0]);
        let metric = MahalanobisMetric::from_covariance(&cov).unwrap();
        let dx = metric.distance(&[0.0, 0.0], &[2.0, 0.0]);
        let dy = metric.distance(&[0.0, 0.0], &[0.0, 2.0]);
        assert!((dx - 1.0).abs() < 1e-12);
        assert!((dy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_equal() {
        let data = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0], &[0.5, 0.2]]);
        let metric = MahalanobisMetric::fit(&data, 1e-6).unwrap();
        let a = [0.3, 0.7];
        let b = [0.9, 0.1];
        assert!((metric.distance(&a, &b) - metric.distance(&b, &a)).abs() < 1e-12);
        assert_eq!(metric.distance(&a, &a), 0.0);
    }

    #[test]
    fn ridge_rescues_degenerate_covariance() {
        // All samples identical in dimension 1 ⇒ singular covariance;
        // the ridge keeps the metric usable.
        let data = Mat::from_rows(&[&[1.0, 5.0], &[2.0, 5.0], &[3.0, 5.0]]);
        let metric = MahalanobisMetric::fit(&data, 1e-3).unwrap();
        assert!(metric.distance(&[0.0, 0.0], &[0.0, 1.0]).is_finite());
    }

    #[test]
    fn triangle_inequality_samples() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let data = Mat::from_fn(30, 3, |_, _| rng.random_range(-1.0..1.0));
        let metric = MahalanobisMetric::fit(&data, 1e-6).unwrap();
        for _ in 0..50 {
            let a: Vec<f64> = (0..3).map(|_| rng.random_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..3).map(|_| rng.random_range(-1.0..1.0)).collect();
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(-1.0..1.0)).collect();
            let ab = metric.distance(&a, &b);
            let bc = metric.distance(&b, &c);
            let ac = metric.distance(&a, &c);
            assert!(ac <= ab + bc + 1e-9);
        }
    }
}
