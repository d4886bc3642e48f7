//! Frame rasterization.
//!
//! Renders one camera's view of the world: background (indoor walls /
//! outdoor sky), furniture clutter, and depth-sorted human sprites, followed
//! by illumination gain and sensor noise. The goal is not photorealism but
//! the *feature statistics* the detectors key on: vertical body edges,
//! head-shoulder gradients, clothing color bands, and — for dataset #2 —
//! person-sized high-contrast furniture that confuses a cleanly trained HOG
//! template.

use crate::dataset::DatasetProfile;
use crate::world::{World, WorldRng};
use eecs_geometry::camera::Camera;
use eecs_geometry::point::Point2;
use eecs_vision::draw;
use eecs_vision::image::RgbImage;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Renders the world as seen by `camera` at the world's current frame.
///
/// Rendering is deterministic: the sensor-noise RNG is seeded from
/// `(profile seed, camera_index, frame)`.
pub fn render_frame(world: &World, camera: &Camera, camera_index: usize) -> RgbImage {
    let profile = world.profile();
    let mut img = RgbImage::new(profile.width, profile.height);
    draw_background(&mut img, profile);
    draw_ground_grid(&mut img, profile, camera);
    draw_landmarks(&mut img, profile, camera);

    // Painter's algorithm over clutter + humans by distance to the camera.
    enum Entity<'a> {
        Human(&'a crate::world::Human),
        Clutter(&'a crate::world::ClutterItem),
    }
    let mut draw_list: Vec<(f64, Entity<'_>)> = Vec::new();
    for h in world.humans() {
        let d = dist_to_camera(camera, &h.position);
        draw_list.push((d, Entity::Human(h)));
    }
    for c in world.clutter() {
        let d = dist_to_camera(camera, &c.position);
        draw_list.push((d, Entity::Clutter(c)));
    }
    // Farthest first.
    draw_list.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    for (_, e) in draw_list {
        match e {
            Entity::Clutter(c) => {
                if let Ok((x0, y0, x1, y1)) = camera.person_bbox(&c.position, c.height, c.width) {
                    draw_clutter(&mut img, x0, y0, x1, y1, c.colors);
                }
            }
            Entity::Human(h) => {
                if let Ok((x0, y0, x1, y1)) = camera.person_bbox(&h.position, h.height, h.width) {
                    draw::draw_human(&mut img, x0, y0, x1, y1, h.clothing, h.skin);
                }
            }
        }
    }

    img.scale_brightness(profile.brightness);
    apply_color_cast(&mut img, profile, camera_index);
    let mut rng = noise_rng(profile, camera_index, world.frame());
    draw::add_noise(&mut img, profile.noise, &mut rng);
    img
}

/// Per-camera white-balance/exposure cast: each physical camera has its own
/// sensor response (the testbed's phones certainly did), which is one of
/// the cues that lets the video-comparison stage tell *views* apart
/// (Table V). Deterministic per `(dataset, camera)`.
fn apply_color_cast(img: &mut RgbImage, profile: &DatasetProfile, camera_index: usize) {
    let mut rng = WorldRng::new(
        profile
            .seed
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add(camera_index as u64 + 1),
    );
    let mut next = || (rng.next_u64() >> 11) as f32 / (1u64 << 53) as f32;
    let gains = [
        0.88 + 0.24 * next(),
        0.88 + 0.24 * next(),
        0.88 + 0.24 * next(),
    ];
    for (ch, gain) in [&mut img.r, &mut img.g, &mut img.b].into_iter().zip(gains) {
        for p in ch.as_mut_slice() {
            *p = (*p * gain).clamp(0.0, 1.0);
        }
    }
}

/// Deterministic per-frame noise RNG.
fn noise_rng(profile: &DatasetProfile, camera_index: usize, frame: usize) -> StdRng {
    StdRng::seed_from_u64(
        profile
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(camera_index as u64 * 97)
            .wrapping_add(frame as u64),
    )
}

fn dist_to_camera(camera: &Camera, ground: &Point2) -> f64 {
    ((camera.position.x - ground.x).powi(2) + (camera.position.y - ground.y).powi(2)).sqrt()
}

/// Static world-anchored landmarks (wall posters / planters): wide colored
/// billboards around the arena perimeter. They are what makes the *views*
/// of one dataset distinguishable from each other — exactly the role the
/// real rooms' furniture and wall structure played for the paper's video
/// comparison (Table V): the same landmark projects to different image
/// regions in different cameras, and different datasets have different
/// landmark sets.
///
/// Landmarks are deliberately wide (aspect ≫ person) so they do not read
/// as pedestrians to the detectors, and they are drawn beneath all dynamic
/// entities.
fn draw_landmarks(img: &mut RgbImage, profile: &DatasetProfile, camera: &Camera) {
    let c = profile.arena / 2.0;
    let r = profile.arena * 0.62;
    let mut rng = WorldRng::new(profile.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut next = || rng.next_u64() as f64 / u64::MAX as f64;
    for k in 0..6 {
        let angle = k as f64 / 6.0 * std::f64::consts::TAU + next() * 0.6;
        let pos = Point2::new(c + r * angle.cos(), c + r * angle.sin());
        let color = [
            (0.25 + 0.7 * next()) as f32,
            (0.25 + 0.7 * next()) as f32,
            (0.25 + 0.7 * next()) as f32,
        ];
        let height = 1.0 + next() * 0.8;
        let width = 2.0 + next() * 1.2;
        if let Ok((x0, y0, x1, y1)) = camera.person_bbox(&pos, height, width) {
            draw::fill_rect(img, x0 as i64, y0 as i64, x1 as i64, y1 as i64, color);
            // A horizontal divider for texture.
            let mid = ((y0 + y1) / 2.0) as i64;
            draw::fill_rect(
                img,
                x0 as i64,
                mid,
                x1 as i64,
                mid + 1,
                [color[0] * 0.4, color[1] * 0.4, color[2] * 0.4],
            );
        }
    }
}

fn draw_background(img: &mut RgbImage, profile: &DatasetProfile) {
    if profile.indoor {
        // Wall fading into a darker floor.
        draw::vertical_gradient(img, [0.72, 0.70, 0.66], [0.38, 0.36, 0.34]);
    } else {
        // Sky over a warm terrace floor.
        let h = img.height();
        draw::vertical_gradient(img, [0.65, 0.78, 0.92], [0.60, 0.74, 0.88]);
        let horizon = (h as f64 * 0.35) as i64;
        draw::fill_rect(
            img,
            0,
            horizon,
            img.width() as i64,
            h as i64,
            [0.62, 0.58, 0.52],
        );
    }
}

/// Terrace tile seams, anchored in *world* coordinates so each camera sees
/// them at its own angle (a fixed image-space texture would make all views
/// statistically identical, which no real terrace is).
fn draw_ground_grid(img: &mut RgbImage, profile: &DatasetProfile, camera: &Camera) {
    if profile.indoor {
        return;
    }
    let seam = [0.56f32, 0.52, 0.47];
    let arena = profile.arena;
    let mut line = |a: Point2, b: Point2| {
        let steps = 160;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let p = Point2::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
            if let Ok(px) = camera.project(&eecs_geometry::point::Point3::on_ground(p.x, p.y)) {
                if camera.contains(&px) {
                    draw::fill_rect(
                        img,
                        px.x as i64,
                        px.y as i64,
                        px.x as i64 + 2,
                        px.y as i64 + 1,
                        seam,
                    );
                }
            }
        }
    };
    let mut k = 0.0;
    while k <= arena {
        line(Point2::new(k, 0.0), Point2::new(k, arena));
        line(Point2::new(0.0, k), Point2::new(arena, k));
        k += 2.0;
    }
}

/// Furniture uses the shared sprite so detector training can synthesize
/// identical clutter negatives.
fn draw_clutter(
    img: &mut RgbImage,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    colors: ([f32; 3], [f32; 3]),
) {
    draw::draw_furniture(img, x0, y0, x1, y1, colors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetId, DatasetProfile};
    use crate::rig::camera_rig;

    fn mini_world(id: DatasetId) -> (World, Vec<Camera>) {
        let p = DatasetProfile::miniature(id);
        let rig = camera_rig(&p);
        (World::new(p), rig)
    }

    #[test]
    fn frame_has_profile_dimensions() {
        let (w, rig) = mini_world(DatasetId::Lab);
        let img = render_frame(&w, &rig[0], 0);
        assert_eq!(img.width(), 180);
        assert_eq!(img.height(), 144);
    }

    #[test]
    fn rendering_is_deterministic() {
        let (w, rig) = mini_world(DatasetId::Lab);
        let a = render_frame(&w, &rig[1], 1);
        let b = render_frame(&w, &rig[1], 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_cameras_see_different_images() {
        let (w, rig) = mini_world(DatasetId::Lab);
        let a = render_frame(&w, &rig[0], 0);
        let b = render_frame(&w, &rig[2], 2);
        assert_ne!(a, b);
    }

    #[test]
    fn frames_change_over_time() {
        let p = DatasetProfile::miniature(DatasetId::Lab);
        let rig = camera_rig(&p);
        let w0 = World::at_frame(p.clone(), 0);
        let w50 = World::at_frame(p, 50);
        let a = render_frame(&w0, &rig[0], 0);
        let b = render_frame(&w50, &rig[0], 0);
        assert_ne!(a, b);
    }

    #[test]
    fn humans_are_visible() {
        // A rendered frame should differ substantially from an empty render
        // of the same background.
        let p = DatasetProfile::miniature(DatasetId::Lab);
        let rig = camera_rig(&p);
        let world = World::new(p.clone());
        let mut empty_profile = p.clone();
        empty_profile.num_people = 0;
        let empty_world = World::new(empty_profile);
        let with = render_frame(&world, &rig[0], 0);
        let without = render_frame(&empty_world, &rig[0], 0);
        let mut differing = 0usize;
        for y in 0..with.height() {
            for x in 0..with.width() {
                let a = with.get(x, y);
                let b = without.get(x, y);
                if (a[0] - b[0]).abs() + (a[1] - b[1]).abs() + (a[2] - b[2]).abs() > 0.15 {
                    differing += 1;
                }
            }
        }
        assert!(differing > 100, "humans changed only {differing} pixels");
    }

    #[test]
    fn chap_renders_clutter() {
        let p = DatasetProfile::miniature(DatasetId::Chap);
        let rig = camera_rig(&p);
        let world = World::new(p.clone());
        let mut no_clutter = p.clone();
        no_clutter.clutter_items = 0;
        no_clutter.num_people = 0;
        let mut no_people = p;
        no_people.num_people = 0;
        let with_clutter = render_frame(&World::new(no_people), &rig[0], 0);
        let bare = render_frame(&World::new(no_clutter), &rig[0], 0);
        assert_ne!(with_clutter, bare, "clutter not rendered");
        let _ = world;
    }

    #[test]
    fn color_cast_differs_across_cameras() {
        // Same world, two cameras: the per-camera sensor cast must make the
        // *global color statistics* differ even where scene content is
        // similar (this is a Table-V discrimination cue).
        let p = DatasetProfile::miniature(DatasetId::Lab);
        let rig = camera_rig(&p);
        let mut empty = p.clone();
        empty.num_people = 0;
        empty.noise = 0.0;
        let world = World::new(empty);
        let a = render_frame(&world, &rig[0], 0);
        let b = render_frame(&world, &rig[1], 1);
        let mean =
            |img: &RgbImage, ch: fn(&RgbImage) -> &eecs_vision::image::GrayImage| ch(img).mean();
        let dr = (mean(&a, |i| &i.r) - mean(&b, |i| &i.r)).abs();
        let dg = (mean(&a, |i| &i.g) - mean(&b, |i| &i.g)).abs();
        let db = (mean(&a, |i| &i.b) - mean(&b, |i| &i.b)).abs();
        assert!(dr + dg + db > 0.01, "casts too similar: {dr} {dg} {db}");
    }

    #[test]
    fn landmarks_are_static_over_time() {
        // Landmarks must not move between frames (they anchor the view
        // identity); check a pixel region far from any person.
        let mut p = DatasetProfile::miniature(DatasetId::Lab);
        p.num_people = 0;
        p.noise = 0.0;
        let rig = camera_rig(&p);
        let w0 = World::at_frame(p.clone(), 0);
        let w9 = World::at_frame(p, 9);
        let a = render_frame(&w0, &rig[0], 0);
        let b = render_frame(&w9, &rig[0], 0);
        assert_eq!(a, b, "static scene changed between frames");
    }

    #[test]
    fn terrace_grid_is_view_dependent() {
        let p = DatasetProfile::miniature(DatasetId::Terrace);
        let mut empty = p.clone();
        empty.num_people = 0;
        empty.noise = 0.0;
        let rig = camera_rig(&empty);
        let world = World::new(empty);
        let a = render_frame(&world, &rig[0], 0);
        let b = render_frame(&world, &rig[2], 2);
        // The projected world grid must differ pixel-wise between opposite
        // cameras (an image-space texture would be identical).
        assert_ne!(a, b);
    }

    #[test]
    fn outdoor_has_sky_indoor_does_not() {
        let (lw, lrig) = mini_world(DatasetId::Lab);
        let (tw, trig) = mini_world(DatasetId::Terrace);
        let lab = render_frame(&lw, &lrig[0], 0);
        let ter = render_frame(&tw, &trig[0], 0);
        // Terrace top rows are blue-ish (b > r); lab walls are not.
        let l = lab.get(90, 2);
        let t = ter.get(90, 2);
        assert!(t[2] > t[0], "terrace sky should be blue: {t:?}");
        assert!(l[0] >= l[2], "lab wall should be neutral/warm: {l:?}");
    }
}
