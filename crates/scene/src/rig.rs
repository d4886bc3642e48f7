//! The four-camera rig.
//!
//! Each dataset in the paper was captured by four overlapping cameras. We
//! place the cameras at the arena's four sides, raised and pitched down so
//! their views overlap over most of the walkable area — the overlap is what
//! gives EECS its camera-diversity savings.

use crate::dataset::DatasetProfile;
use eecs_geometry::calibration::{landmark_grid, GroundCalibration};
use eecs_geometry::camera::Camera;
use eecs_geometry::point::Point3;

/// Number of cameras per dataset, as in the paper.
pub const CAMERAS_PER_DATASET: usize = 4;

/// Builds the four-camera rig for a dataset profile.
///
/// Cameras sit just outside the four sides of the arena at ~2.5–3 m height,
/// looking at the arena center.
pub fn camera_rig(profile: &DatasetProfile) -> Vec<Camera> {
    let a = profile.arena;
    let c = a / 2.0;
    let d = a * 0.75; // distance of each camera from the arena center
                      // Positions on the four sides (south, west, north, east).
    let spots = [
        (c, c - d, 2.8),
        (c - d, c, 2.6),
        (c, c + d, 3.0),
        (c + d, c, 2.7),
    ];
    spots
        .iter()
        .enumerate()
        .map(|(i, &(x, y, z))| {
            let yaw = (c - y).atan2(c - x);
            // Pitch chosen so the arena center is near the image center.
            let ground_dist = ((c - x).powi(2) + (c - y).powi(2)).sqrt();
            let pitch = (z / ground_dist).atan() * 0.9;
            // Focal length scales with resolution so the same field of view
            // covers the arena at 360×288 and 1024×768.
            let focal = profile.width as f64 * 0.9;
            let _ = i;
            Camera::new(
                Point3::new(x, y, z),
                yaw,
                pitch,
                focal,
                profile.width,
                profile.height,
            )
        })
        .collect()
}

/// Builds the per-camera ground calibrations (the "provided homographies" of
/// the real datasets), from a landmark grid over the arena.
///
/// # Panics
///
/// Panics if calibration fails, which would mean a camera cannot see the
/// arena — a rig construction bug, not a runtime condition.
pub fn rig_calibrations(profile: &DatasetProfile, cameras: &[Camera]) -> Vec<GroundCalibration> {
    let landmarks = landmark_grid(profile.arena, 5);
    cameras
        .iter()
        .map(|cam| {
            GroundCalibration::from_camera(cam, &landmarks)
                .expect("rig camera cannot be calibrated against the arena")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetId, DatasetProfile};
    use eecs_geometry::point::Point2;

    #[test]
    fn rig_has_four_cameras() {
        let rig = camera_rig(&DatasetProfile::lab());
        assert_eq!(rig.len(), CAMERAS_PER_DATASET);
    }

    #[test]
    fn all_cameras_see_arena_center() {
        for id in DatasetId::ALL {
            let p = DatasetProfile::for_id(id);
            let rig = camera_rig(&p);
            let center = Point3::on_ground(p.arena / 2.0, p.arena / 2.0);
            for (i, cam) in rig.iter().enumerate() {
                let px = cam.project(&center).expect("center behind camera");
                assert!(
                    cam.contains(&px),
                    "camera {i} of {id} misses center: {px:?}"
                );
            }
        }
    }

    #[test]
    fn views_overlap_substantially() {
        // Most arena points should be visible to at least 3 cameras.
        let p = DatasetProfile::lab();
        let rig = camera_rig(&p);
        let mut well_covered = 0;
        let mut total = 0;
        for i in 1..9 {
            for j in 1..9 {
                let g = Point3::on_ground(p.arena * i as f64 / 9.0, p.arena * j as f64 / 9.0);
                let seen = rig
                    .iter()
                    .filter(|cam| cam.project(&g).map(|px| cam.contains(&px)).unwrap_or(false))
                    .count();
                total += 1;
                if seen >= 3 {
                    well_covered += 1;
                }
            }
        }
        assert!(
            well_covered * 10 >= total * 7,
            "only {well_covered}/{total} points covered by >= 3 cameras"
        );
    }

    #[test]
    fn calibrations_roundtrip() {
        let p = DatasetProfile::lab();
        let rig = camera_rig(&p);
        let cals = rig_calibrations(&p, &rig);
        assert_eq!(cals.len(), 4);
        let g = Point2::new(p.arena / 2.0, p.arena / 2.0);
        for cal in &cals {
            let px = cal.ground_to_image(&g).unwrap();
            let back = cal.image_to_ground(&px).unwrap();
            assert!(back.distance(&g) < 1e-5);
        }
    }

    #[test]
    fn cameras_have_distinct_viewpoints() {
        let rig = camera_rig(&DatasetProfile::lab());
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(rig[i].position.distance(&rig[j].position) > 1.0);
            }
        }
    }
}
