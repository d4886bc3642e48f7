//! Pinhole camera model.
//!
//! The synthetic stand-in for the testbed phone cameras: a position, a yaw
//! (optical-axis bearing in the ground plane), a downward pitch, and a focal
//! length in pixels. World frame: X east, Y north, Z up (meters). Image
//! frame: x right, y **down**, origin at the top-left pixel.

use crate::point::{Point2, Point3};
use crate::{GeometryError, Result};

/// A calibrated pinhole camera.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    /// Optical center in world coordinates (meters).
    pub position: Point3,
    /// Bearing of the optical axis in the ground plane, radians from +X.
    pub yaw: f64,
    /// Downward tilt in radians (positive looks down).
    pub pitch: f64,
    /// Focal length in pixels (square pixels assumed).
    pub focal_px: f64,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Panics
    ///
    /// Panics if `focal_px` is not positive or the image is empty.
    pub fn new(
        position: Point3,
        yaw: f64,
        pitch: f64,
        focal_px: f64,
        width: usize,
        height: usize,
    ) -> Camera {
        assert!(focal_px > 0.0, "focal length must be positive");
        assert!(width > 0 && height > 0, "image must be non-empty");
        Camera {
            position,
            yaw,
            pitch,
            focal_px,
            width,
            height,
        }
    }

    /// Camera-frame basis vectors in world coordinates:
    /// `(right, down, forward)` — right-handed with `right × down = forward`.
    pub fn basis(&self) -> (Point3, Point3, Point3) {
        let (cy, sy) = (self.yaw.cos(), self.yaw.sin());
        let (cp, sp) = (self.pitch.cos(), self.pitch.sin());
        let forward = Point3::new(cy * cp, sy * cp, -sp);
        let right = Point3::new(sy, -cy, 0.0);
        let down = forward.cross(&right);
        (right, down, forward)
    }

    /// Projects a world point into the image plane.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Unprojectable`] when the point is on or
    /// behind the camera plane. The returned pixel may lie outside the
    /// image bounds — use [`Camera::contains`] to test visibility.
    pub fn project(&self, world: &Point3) -> Result<Point2> {
        let (right, down, forward) = self.basis();
        let rel = *world - self.position;
        let z = rel.dot(&forward);
        if z <= 1e-9 {
            return Err(GeometryError::Unprojectable);
        }
        let x = rel.dot(&right);
        let y = rel.dot(&down);
        Ok(Point2::new(
            self.width as f64 / 2.0 + self.focal_px * x / z,
            self.height as f64 / 2.0 + self.focal_px * y / z,
        ))
    }

    /// Whether a pixel lies inside the image bounds.
    pub fn contains(&self, pixel: &Point2) -> bool {
        pixel.x >= 0.0
            && pixel.y >= 0.0
            && pixel.x < self.width as f64
            && pixel.y < self.height as f64
    }

    /// Projects the axis-aligned bounding box of a standing person at ground
    /// position `(x, y)` with the given height and width (meters). Returns
    /// `(x0, y0, x1, y1)` in image pixels (possibly partially outside the
    /// image).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::Unprojectable`] when the person is behind
    /// the camera.
    pub fn person_bbox(
        &self,
        ground: &Point2,
        person_height: f64,
        person_width: f64,
    ) -> Result<(f64, f64, f64, f64)> {
        let feet = Point3::new(ground.x, ground.y, 0.0);
        let head = Point3::new(ground.x, ground.y, person_height);
        let feet_px = self.project(&feet)?;
        let head_px = self.project(&head)?;
        // Width: project a point displaced half a body width along the
        // camera's right direction at mid height.
        let (right, _, _) = self.basis();
        let mid = Point3::new(ground.x, ground.y, person_height / 2.0);
        let side = mid + right * (person_width / 2.0);
        let mid_px = self.project(&mid)?;
        let side_px = self.project(&side)?;
        let half_w = (side_px.x - mid_px.x).abs().max(1.0);
        Ok((
            feet_px.x.min(head_px.x) - half_w,
            head_px.y.min(feet_px.y),
            feet_px.x.max(head_px.x) + half_w,
            feet_px.y.max(head_px.y),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A camera at 3 m height looking north, pitched 20° down.
    fn test_camera() -> Camera {
        Camera::new(
            Point3::new(0.0, 0.0, 3.0),
            std::f64::consts::FRAC_PI_2, // +Y (north)
            20f64.to_radians(),
            300.0,
            360,
            288,
        )
    }

    #[test]
    fn basis_is_orthonormal_right_handed() {
        let cam = test_camera();
        let (r, d, f) = cam.basis();
        assert!(r.dot(&d).abs() < 1e-12);
        assert!(r.dot(&f).abs() < 1e-12);
        assert!(d.dot(&f).abs() < 1e-12);
        assert!((r.dot(&r) - 1.0).abs() < 1e-12);
        let cross = r.cross(&d);
        assert!(cross.distance(&f) < 1e-12);
    }

    #[test]
    fn point_on_axis_projects_to_center() {
        let cam = test_camera();
        let (_, _, fwd) = cam.basis();
        let p = cam.position + fwd * 5.0;
        let px = cam.project(&p).unwrap();
        assert!((px.x - 180.0).abs() < 1e-9);
        assert!((px.y - 144.0).abs() < 1e-9);
    }

    #[test]
    fn point_behind_camera_unprojectable() {
        let cam = test_camera();
        let behind = Point3::new(0.0, -10.0, 1.0);
        assert!(matches!(
            cam.project(&behind),
            Err(GeometryError::Unprojectable)
        ));
    }

    #[test]
    fn closer_objects_appear_larger() {
        let cam = test_camera();
        let near = cam.person_bbox(&Point2::new(0.0, 4.0), 1.7, 0.5).unwrap();
        let far = cam.person_bbox(&Point2::new(0.0, 12.0), 1.7, 0.5).unwrap();
        let near_h = near.3 - near.1;
        let far_h = far.3 - far.1;
        assert!(near_h > far_h, "near {near_h} vs far {far_h}");
    }

    #[test]
    fn feet_below_head_in_image() {
        // Image y grows downward, so feet pixels have larger y than head.
        let cam = test_camera();
        let feet = cam.project(&Point3::new(0.0, 6.0, 0.0)).unwrap();
        let head = cam.project(&Point3::new(0.0, 6.0, 1.7)).unwrap();
        assert!(feet.y > head.y);
    }

    #[test]
    fn contains_respects_bounds() {
        let cam = test_camera();
        assert!(cam.contains(&Point2::new(0.0, 0.0)));
        assert!(cam.contains(&Point2::new(359.9, 287.9)));
        assert!(!cam.contains(&Point2::new(360.0, 100.0)));
        assert!(!cam.contains(&Point2::new(-0.1, 100.0)));
    }

    #[test]
    #[should_panic(expected = "focal length")]
    fn rejects_nonpositive_focal() {
        Camera::new(Point3::default(), 0.0, 0.0, 0.0, 10, 10);
    }

    #[test]
    fn person_centered_ahead_is_horizontally_centered() {
        let cam = test_camera();
        let (x0, _, x1, _) = cam.person_bbox(&Point2::new(0.0, 6.0), 1.7, 0.5).unwrap();
        let cx = (x0 + x1) / 2.0;
        assert!((cx - 180.0).abs() < 1.5, "center {cx}");
    }
}
