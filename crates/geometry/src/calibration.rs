//! Landmark-based ground-plane calibration.
//!
//! Section IV-C of the paper: "a set of landmark points on the ground are
//! chosen in the real world coordinate system. The locations of these
//! landmarks are then identified in the captured images of each individual
//! camera" — from these, per-camera image↔ground homographies and
//! camera↔camera ground-plane mappings are built offline (recalibrated only
//! if the camera geometry changes).

use crate::camera::Camera;
use crate::homography::Homography;
use crate::point::{Point2, Point3};
use crate::ransac::{ransac_homography, RansacConfig};
use crate::Result;

/// A calibrated view: homographies between a camera's image plane and the
/// world ground plane.
#[derive(Debug, Clone)]
pub struct GroundCalibration {
    image_to_ground: Homography,
    ground_to_image: Homography,
}

impl GroundCalibration {
    /// Calibrates from landmark correspondences: ground positions (world
    /// meters) and the pixels where each landmark appears in this camera.
    ///
    /// Uses RANSAC so a handful of mis-clicked landmarks do not corrupt the
    /// mapping.
    ///
    /// # Errors
    ///
    /// Propagates RANSAC failures ([`crate::GeometryError::NotEnoughPoints`],
    /// [`crate::GeometryError::NoConsensus`]).
    pub fn from_landmarks(
        ground: &[Point2],
        pixels: &[Point2],
        config: &RansacConfig,
    ) -> Result<GroundCalibration> {
        let fit = ransac_homography(pixels, ground, config)?;
        let image_to_ground = fit.homography;
        let ground_to_image = image_to_ground.inverse()?;
        Ok(GroundCalibration {
            image_to_ground,
            ground_to_image,
        })
    }

    /// Builds the calibration by synthetically projecting a landmark grid
    /// through a known camera — how the scene simulator produces the
    /// "provided homographies" that ship with the EPFL/Graz datasets.
    ///
    /// # Errors
    ///
    /// Fails if too few grid landmarks are visible to this camera.
    pub fn from_camera(camera: &Camera, landmarks: &[Point2]) -> Result<GroundCalibration> {
        let mut ground = Vec::new();
        let mut pixels = Vec::new();
        for lm in landmarks {
            if let Ok(px) = camera.project(&Point3::on_ground(lm.x, lm.y)) {
                ground.push(*lm);
                pixels.push(px);
            }
        }
        let config = RansacConfig {
            min_inliers: ground.len().max(4).min(ground.len()),
            ..Default::default()
        };
        GroundCalibration::from_landmarks(&ground, &pixels, &config)
    }

    /// Maps an image pixel to ground coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GeometryError::Unprojectable`] for horizon pixels.
    pub fn image_to_ground(&self, pixel: &Point2) -> Result<Point2> {
        self.image_to_ground.apply(pixel)
    }

    /// Maps ground coordinates to an image pixel.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GeometryError::Unprojectable`] for points that map to
    /// infinity.
    pub fn ground_to_image(&self, ground: &Point2) -> Result<Point2> {
        self.ground_to_image.apply(ground)
    }
}

/// A default 5×5 landmark grid spanning `[0, extent] × [0, extent]` meters.
pub fn landmark_grid(extent: f64, per_side: usize) -> Vec<Point2> {
    assert!(per_side >= 2, "need at least a 2x2 grid");
    let step = extent / (per_side - 1) as f64;
    let mut out = Vec::with_capacity(per_side * per_side);
    for i in 0..per_side {
        for j in 0..per_side {
            out.push(Point2::new(i as f64 * step, j as f64 * step));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_at(x: f64, y: f64, yaw: f64) -> Camera {
        Camera::new(
            Point3::new(x, y, 3.0),
            yaw,
            25f64.to_radians(),
            320.0,
            360,
            288,
        )
    }

    /// Camera placed south of the grid looking north.
    fn south_camera() -> Camera {
        camera_at(5.0, -6.0, std::f64::consts::FRAC_PI_2)
    }

    /// Camera placed west of the grid looking east.
    fn west_camera() -> Camera {
        camera_at(-6.0, 5.0, 0.0)
    }

    #[test]
    fn calibration_roundtrips_ground_points() {
        let cam = south_camera();
        let cal = GroundCalibration::from_camera(&cam, &landmark_grid(10.0, 5)).unwrap();
        for (gx, gy) in [(2.0, 3.0), (7.0, 8.0), (5.0, 5.0)] {
            let g = Point2::new(gx, gy);
            let px = cal.ground_to_image(&g).unwrap();
            let back = cal.image_to_ground(&px).unwrap();
            assert!(back.distance(&g) < 1e-6, "roundtrip for ({gx},{gy})");
        }
    }

    #[test]
    fn calibration_matches_true_camera_projection() {
        let cam = south_camera();
        let cal = GroundCalibration::from_camera(&cam, &landmark_grid(10.0, 5)).unwrap();
        let g = Point2::new(4.0, 6.0);
        let true_px = cam.project(&Point3::on_ground(g.x, g.y)).unwrap();
        let est_px = cal.ground_to_image(&g).unwrap();
        assert!(true_px.distance(&est_px) < 1e-4);
    }

    #[test]
    fn cross_view_mapping_finds_same_person() {
        let cam_a = south_camera();
        let cam_b = west_camera();
        let lm = landmark_grid(10.0, 5);
        let cal_a = GroundCalibration::from_camera(&cam_a, &lm).unwrap();
        let cal_b = GroundCalibration::from_camera(&cam_b, &lm).unwrap();
        // A person's feet at (5, 5): project into A, map A → ground → B,
        // compare with the true projection in B.
        let feet = Point3::on_ground(5.0, 5.0);
        let px_a = cam_a.project(&feet).unwrap();
        let ground = cal_a.image_to_ground(&px_a).unwrap();
        let mapped = cal_b.ground_to_image(&ground).unwrap();
        let true_b = cam_b.project(&feet).unwrap();
        assert!(
            mapped.distance(&true_b) < 1e-3,
            "mapped {mapped:?} vs {true_b:?}"
        );
    }

    #[test]
    fn landmark_grid_shape() {
        let g = landmark_grid(10.0, 3);
        assert_eq!(g.len(), 9);
        assert_eq!(g[0], Point2::new(0.0, 0.0));
        assert_eq!(g[8], Point2::new(10.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn grid_requires_two_per_side() {
        landmark_grid(10.0, 1);
    }

    #[test]
    fn noisy_landmarks_still_calibrate() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cam = south_camera();
        let lm = landmark_grid(10.0, 5);
        let mut ground = Vec::new();
        let mut pixels = Vec::new();
        for p in &lm {
            if let Ok(px) = cam.project(&Point3::on_ground(p.x, p.y)) {
                ground.push(*p);
                pixels.push(Point2::new(
                    px.x + rng.random_range(-0.5..0.5),
                    px.y + rng.random_range(-0.5..0.5),
                ));
            }
        }
        let cal = GroundCalibration::from_landmarks(
            &ground,
            &pixels,
            &RansacConfig {
                inlier_threshold: 0.5,
                min_inliers: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let g = Point2::new(5.0, 5.0);
        let est = cal.ground_to_image(&g).unwrap();
        let truth = cam.project(&Point3::on_ground(5.0, 5.0)).unwrap();
        assert!(est.distance(&truth) < 3.0, "error {}", est.distance(&truth));
    }
}
