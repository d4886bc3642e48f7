//! 3×3 projective transforms and DLT estimation.
//!
//! The paper builds homographies between camera ground planes from landmark
//! correspondences (Section IV-C). We estimate them with the normalized
//! direct linear transform: the null vector of the 2n×9 design matrix,
//! obtained as the smallest eigenvector of `AᵀA`.

use crate::point::Point2;
use crate::{GeometryError, Result};
use eecs_linalg::eig::symmetric_eigen;
use eecs_linalg::solve::invert;
use eecs_linalg::Mat;

/// A 3×3 homography mapping `p ↦ H p` in homogeneous coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Homography {
    h: Mat,
}

impl Homography {
    /// The identity transform.
    pub fn identity() -> Homography {
        Homography {
            h: Mat::identity(3),
        }
    }

    /// Estimates the homography mapping each `src[i]` to `dst[i]` using the
    /// normalized DLT.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::NotEnoughPoints`] with fewer than 4 pairs,
    /// * [`GeometryError::Degenerate`] for degenerate configurations
    ///   (e.g. collinear points).
    pub fn estimate(src: &[Point2], dst: &[Point2]) -> Result<Homography> {
        if src.len() != dst.len() || src.len() < 4 {
            return Err(GeometryError::NotEnoughPoints {
                needed: 4,
                got: src.len().min(dst.len()),
            });
        }
        // Hartley normalization: translate to centroid, scale to mean √2.
        let t_src = normalizing_transform(src)?;
        let t_dst = normalizing_transform(dst)?;
        let ns: Vec<Point2> = src.iter().map(|p| apply_mat(&t_src, p)).collect();
        let nd: Vec<Point2> = dst.iter().map(|p| apply_mat(&t_dst, p)).collect();

        // Build the 2n×9 DLT design matrix.
        let n = ns.len();
        let mut a = Mat::zeros(2 * n, 9);
        for i in 0..n {
            let (x, y) = (ns[i].x, ns[i].y);
            let (u, v) = (nd[i].x, nd[i].y);
            let r0 = 2 * i;
            for (j, val) in [-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u]
                .iter()
                .enumerate()
            {
                a[(r0, j)] = *val;
            }
            for (j, val) in [0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v]
                .iter()
                .enumerate()
            {
                a[(r0 + 1, j)] = *val;
            }
        }
        // Null vector = eigenvector of AᵀA with the smallest eigenvalue.
        let ata = a
            .transpose_matmul(&a)
            .map_err(|e| GeometryError::Degenerate(e.to_string()))?;
        let eig = symmetric_eigen(&ata).map_err(|e| GeometryError::Degenerate(e.to_string()))?;
        // Degeneracy check: the second-smallest eigenvalue must clearly
        // dominate the smallest (unique null direction).
        let evs = &eig.eigenvalues;
        let smallest = evs[8].max(0.0);
        let second = evs[7].max(0.0);
        if second < 1e-9 {
            return Err(GeometryError::Degenerate(
                "multiple null directions: points are degenerate".into(),
            ));
        }
        let _ = smallest;
        let hvec = eig.eigenvectors.col(8);
        let hn = Mat::from_vec(3, 3, hvec);

        // Denormalize: H = T_dst⁻¹ · Hn · T_src.
        let t_dst_inv = invert(&t_dst).map_err(|e| GeometryError::Degenerate(e.to_string()))?;
        let mut h = t_dst_inv.matmul(&hn).matmul(&t_src);
        // Scale so h[2][2] = 1 when possible (canonical form).
        let scale = h[(2, 2)];
        if scale.abs() > 1e-12 {
            h = h.scale(1.0 / scale);
        }
        Ok(Homography { h })
    }

    /// Applies the homography to a point.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Unprojectable`] if the point maps to
    /// infinity (`w ≈ 0`).
    pub fn apply(&self, p: &Point2) -> Result<Point2> {
        let w = self.h[(2, 0)] * p.x + self.h[(2, 1)] * p.y + self.h[(2, 2)];
        if w.abs() < 1e-12 {
            return Err(GeometryError::Unprojectable);
        }
        Ok(Point2::new(
            (self.h[(0, 0)] * p.x + self.h[(0, 1)] * p.y + self.h[(0, 2)]) / w,
            (self.h[(1, 0)] * p.x + self.h[(1, 1)] * p.y + self.h[(1, 2)]) / w,
        ))
    }

    /// The inverse homography.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Degenerate`] if the matrix is singular.
    pub fn inverse(&self) -> Result<Homography> {
        let inv = invert(&self.h).map_err(|e| GeometryError::Degenerate(e.to_string()))?;
        Ok(Homography { h: inv })
    }

    /// The underlying 3×3 matrix.
    pub fn matrix(&self) -> &Mat {
        &self.h
    }

    /// Mean reprojection error over correspondence pairs (∞ if any point is
    /// unprojectable).
    pub fn reprojection_error(&self, src: &[Point2], dst: &[Point2]) -> f64 {
        if src.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (s, d) in src.iter().zip(dst) {
            match self.apply(s) {
                Ok(p) => total += p.distance(d),
                Err(_) => return f64::INFINITY,
            }
        }
        total / src.len() as f64
    }
}

/// Builds the Hartley normalization transform for a point set.
fn normalizing_transform(pts: &[Point2]) -> Result<Mat> {
    let n = pts.len() as f64;
    let cx = pts.iter().map(|p| p.x).sum::<f64>() / n;
    let cy = pts.iter().map(|p| p.y).sum::<f64>() / n;
    let mean_dist = pts
        .iter()
        .map(|p| ((p.x - cx).powi(2) + (p.y - cy).powi(2)).sqrt())
        .sum::<f64>()
        / n;
    if mean_dist < 1e-12 {
        return Err(GeometryError::Degenerate("all points coincide".into()));
    }
    let s = std::f64::consts::SQRT_2 / mean_dist;
    Ok(Mat::from_rows(&[
        &[s, 0.0, -s * cx],
        &[0.0, s, -s * cy],
        &[0.0, 0.0, 1.0],
    ]))
}

fn apply_mat(t: &Mat, p: &Point2) -> Point2 {
    Point2::new(
        t[(0, 0)] * p.x + t[(0, 1)] * p.y + t[(0, 2)],
        t[(1, 0)] * p.x + t[(1, 1)] * p.y + t[(1, 2)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.25),
        ]
    }

    #[test]
    fn identity_maps_points_to_themselves() {
        let h = Homography::identity();
        let p = Point2::new(3.2, -1.5);
        assert_eq!(h.apply(&p).unwrap(), p);
    }

    #[test]
    fn estimates_translation() {
        let src = square();
        let dst: Vec<Point2> = src
            .iter()
            .map(|p| Point2::new(p.x + 5.0, p.y - 2.0))
            .collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        assert!(h.reprojection_error(&src, &dst) < 1e-8);
    }

    #[test]
    fn estimates_affine_scale_rotation() {
        let src = square();
        let dst: Vec<Point2> = src
            .iter()
            .map(|p| Point2::new(2.0 * p.x - 1.0 * p.y + 3.0, 1.0 * p.x + 2.0 * p.y - 4.0))
            .collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        assert!(h.reprojection_error(&src, &dst) < 1e-8);
    }

    #[test]
    fn estimates_projective_warp() {
        // A genuine perspective transform.
        let true_h = Homography {
            h: Mat::from_rows(&[&[1.2, 0.1, 5.0], &[-0.2, 0.9, 1.0], &[0.001, 0.002, 1.0]]),
        };
        let src: Vec<Point2> = (0..8)
            .map(|i| Point2::new((i % 3) as f64 * 40.0, (i / 3) as f64 * 30.0 + i as f64))
            .collect();
        let dst: Vec<Point2> = src.iter().map(|p| true_h.apply(p).unwrap()).collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        assert!(h.reprojection_error(&src, &dst) < 1e-6);
    }

    #[test]
    fn inverse_roundtrip() {
        let src = square();
        let dst: Vec<Point2> = src
            .iter()
            .map(|p| Point2::new(3.0 * p.x + 1.0, 2.0 * p.y - 1.0))
            .collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        let hinv = h.inverse().unwrap();
        for p in &src {
            let roundtrip = hinv.apply(&h.apply(p).unwrap()).unwrap();
            assert!(roundtrip.distance(p) < 1e-8);
        }
    }

    #[test]
    fn rejects_too_few_points() {
        let pts = vec![Point2::new(0.0, 0.0); 3];
        assert!(matches!(
            Homography::estimate(&pts, &pts),
            Err(GeometryError::NotEnoughPoints { .. })
        ));
    }

    #[test]
    fn rejects_coincident_points() {
        let pts = vec![Point2::new(1.0, 1.0); 5];
        assert!(Homography::estimate(&pts, &pts).is_err());
    }

    #[test]
    fn rejects_collinear_points() {
        let src: Vec<Point2> = (0..5)
            .map(|i| Point2::new(i as f64, 2.0 * i as f64))
            .collect();
        let dst: Vec<Point2> = (0..5)
            .map(|i| Point2::new(i as f64, 3.0 * i as f64))
            .collect();
        assert!(Homography::estimate(&src, &dst).is_err());
    }

    #[test]
    fn unprojectable_point_detected() {
        let h = Homography {
            h: Mat::from_rows(&[
                &[1.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0],
                &[0.0, 1.0, 0.0], // w = y
            ]),
        };
        assert!(matches!(
            h.apply(&Point2::new(1.0, 0.0)),
            Err(GeometryError::Unprojectable)
        ));
        assert!(h.apply(&Point2::new(1.0, 1.0)).is_ok());
    }

    #[test]
    fn noisy_estimation_stays_close() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let src: Vec<Point2> = (0..30)
            .map(|_| Point2::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect();
        let dst: Vec<Point2> = src
            .iter()
            .map(|p| {
                Point2::new(
                    0.8 * p.x + 0.1 * p.y + 10.0 + rng.random_range(-0.05..0.05),
                    -0.1 * p.x + 0.9 * p.y - 5.0 + rng.random_range(-0.05..0.05),
                )
            })
            .collect();
        let h = Homography::estimate(&src, &dst).unwrap();
        assert!(h.reprojection_error(&src, &dst) < 0.2);
    }
}
