//! The simulated world: people walking in a bounded arena.
//!
//! Movement follows the random-waypoint model: each person walks toward a
//! uniformly chosen target at their individual speed and picks a new target
//! on arrival. Furniture clutter (dataset #2) occupies fixed world-space
//! boxes.

use crate::dataset::DatasetProfile;
use eecs_geometry::point::Point2;

/// SplitMix64's output finalizer: a bijective avalanche of `z`. The
/// scene's seeded draws ([`WorldRng`] streams and the sensor-fault rolls)
/// mix their own key layout into `z` and finalize it here.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny clonable deterministic PRNG (SplitMix64) for world evolution.
///
/// `rand::rngs::StdRng` is not `Clone`, and cloning a [`World`] (to fork a
/// simulation at a frame) is part of this crate's contract, so the world
/// carries its own generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldRng(u64);

impl WorldRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> WorldRng {
        WorldRng(seed)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.range_f64(lo as f64, hi as f64) as f32
    }
}

/// A walking person.
#[derive(Debug, Clone, PartialEq)]
pub struct Human {
    /// Stable identifier within the dataset.
    pub id: usize,
    /// Current ground position (meters).
    pub position: Point2,
    /// Current waypoint target.
    pub target: Point2,
    /// Walking speed in meters per frame (~1.2 m/s at 25 fps).
    pub speed: f64,
    /// Body height in meters.
    pub height: f64,
    /// Body width in meters.
    pub width: f64,
    /// Clothing color (RGB in `[0,1]`), stable per person — the signal the
    /// re-identification stage keys on.
    pub clothing: [f32; 3],
    /// Skin tone (RGB).
    pub skin: [f32; 3],
}

/// A fixed furniture item: a world-space box on the ground.
#[derive(Debug, Clone, PartialEq)]
pub struct ClutterItem {
    /// Ground position of the box center (meters).
    pub position: Point2,
    /// Box height in meters (person-like, which is what fools HOG).
    pub height: f64,
    /// Box width in meters.
    pub width: f64,
    /// Two stripe colors.
    pub colors: ([f32; 3], [f32; 3]),
}

/// The world state at some frame.
#[derive(Debug, Clone)]
pub struct World {
    profile: DatasetProfile,
    humans: Vec<Human>,
    clutter: Vec<ClutterItem>,
    rng: WorldRng,
    frame: usize,
}

impl World {
    /// Creates the world at frame 0 for a dataset profile.
    pub fn new(profile: DatasetProfile) -> World {
        let mut rng = WorldRng::new(profile.seed);
        let arena = profile.arena;
        let humans = (0..profile.num_people)
            .map(|id| {
                let position = random_point(&mut rng, arena);
                let target = random_point(&mut rng, arena);
                Human {
                    id,
                    position,
                    target,
                    speed: rng.range_f64(0.035, 0.060), // 0.9–1.5 m/s at 25 fps
                    height: rng.range_f64(1.55, 1.90),
                    width: rng.range_f64(0.42, 0.55),
                    clothing: [
                        rng.range_f32(0.1, 1.0),
                        rng.range_f32(0.1, 1.0),
                        rng.range_f32(0.1, 1.0),
                    ],
                    skin: [
                        rng.range_f32(0.55, 0.95),
                        rng.range_f32(0.45, 0.75),
                        rng.range_f32(0.35, 0.60),
                    ],
                }
            })
            .collect();
        let clutter = (0..profile.clutter_items)
            .map(|_| ClutterItem {
                position: random_point(&mut rng, arena),
                height: rng.range_f64(1.2, 1.8),
                width: rng.range_f64(0.5, 0.9),
                colors: (
                    [
                        rng.range_f32(0.3, 0.9),
                        rng.range_f32(0.2, 0.6),
                        rng.range_f32(0.1, 0.4),
                    ],
                    [
                        rng.range_f32(0.05, 0.3),
                        rng.range_f32(0.05, 0.3),
                        rng.range_f32(0.05, 0.3),
                    ],
                ),
            })
            .collect();
        World {
            profile,
            humans,
            clutter,
            rng,
            frame: 0,
        }
    }

    /// Creates the world and advances it to `frame`.
    pub fn at_frame(profile: DatasetProfile, frame: usize) -> World {
        let mut w = World::new(profile);
        for _ in 0..frame {
            w.step();
        }
        w
    }

    /// Advances the simulation by one frame.
    pub fn step(&mut self) {
        self.frame += 1;
        let arena = self.profile.arena;
        for h in &mut self.humans {
            let to_target = h.target - h.position;
            let dist = to_target.norm();
            if dist < h.speed {
                h.position = h.target;
                h.target = random_point(&mut self.rng, arena);
            } else {
                h.position = h.position + to_target * (h.speed / dist);
            }
        }
    }

    /// Current frame index.
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// The dataset profile driving this world.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// The people in the world.
    pub fn humans(&self) -> &[Human] {
        &self.humans
    }

    /// The furniture clutter.
    pub fn clutter(&self) -> &[ClutterItem] {
        &self.clutter
    }
}

fn random_point(rng: &mut WorldRng, arena: f64) -> Point2 {
    // Keep a margin so sprites are not degenerate at the very border.
    let m = 0.5;
    Point2::new(rng.range_f64(m, arena - m), rng.range_f64(m, arena - m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetId, DatasetProfile};

    #[test]
    fn world_has_profile_population() {
        let w = World::new(DatasetProfile::lab());
        assert_eq!(w.humans().len(), 6);
        assert!(w.clutter().is_empty());
        let c = World::new(DatasetProfile::chap());
        assert_eq!(c.clutter().len(), 7);
    }

    #[test]
    fn people_stay_in_arena() {
        let mut w = World::new(DatasetProfile::miniature(DatasetId::Terrace));
        let arena = w.profile().arena;
        for _ in 0..500 {
            w.step();
            for h in w.humans() {
                assert!(h.position.x >= 0.0 && h.position.x <= arena);
                assert!(h.position.y >= 0.0 && h.position.y <= arena);
            }
        }
    }

    #[test]
    fn people_actually_move() {
        let mut w = World::new(DatasetProfile::lab());
        let before: Vec<Point2> = w.humans().iter().map(|h| h.position).collect();
        for _ in 0..50 {
            w.step();
        }
        let moved = w
            .humans()
            .iter()
            .zip(&before)
            .filter(|(h, b)| h.position.distance(b) > 0.5)
            .count();
        assert!(moved >= 4, "only {moved} of 6 moved");
    }

    #[test]
    fn deterministic_replay() {
        let a = World::at_frame(DatasetProfile::lab(), 123);
        let b = World::at_frame(DatasetProfile::lab(), 123);
        for (ha, hb) in a.humans().iter().zip(b.humans()) {
            assert_eq!(ha.position, hb.position);
        }
    }

    #[test]
    fn different_datasets_have_different_people() {
        let lab = World::new(DatasetProfile::lab());
        let terrace = World::new(DatasetProfile::terrace());
        assert_ne!(lab.humans()[0].clothing, terrace.humans()[0].clothing);
    }

    #[test]
    fn clothing_is_stable_over_time() {
        let w0 = World::at_frame(DatasetProfile::chap(), 0);
        let w9 = World::at_frame(DatasetProfile::chap(), 9);
        for (a, b) in w0.humans().iter().zip(w9.humans()) {
            assert_eq!(a.clothing, b.clothing);
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn frame_counter_advances() {
        let mut w = World::new(DatasetProfile::lab());
        assert_eq!(w.frame(), 0);
        w.step();
        w.step();
        assert_eq!(w.frame(), 2);
    }
}
