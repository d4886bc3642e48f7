//! Deterministic video feeds.
//!
//! A [`VideoFeed`] is the simulator's equivalent of one pre-recorded video
//! file from the paper's datasets: camera `y` of dataset `x`, addressable by
//! frame index. `(dataset, camera, frame)` uniquely determines the image
//! and its ground truth.

use crate::dataset::DatasetProfile;
use crate::ground_truth::{ground_truth, GtBox};
use crate::render::render_frame_into;
use crate::rig::camera_rig;
use crate::world::World;
use eecs_geometry::camera::Camera;
use eecs_vision::image::RgbImage;

/// One rendered frame plus its ground truth.
#[derive(Debug, Clone)]
pub struct FrameData {
    /// Frame index within the feed.
    pub frame: usize,
    /// The rendered image.
    pub image: RgbImage,
    /// Ground-truth person boxes for this view.
    pub gt: Vec<GtBox>,
}

/// A video feed: one camera of one dataset.
#[derive(Debug, Clone)]
pub struct VideoFeed {
    profile: DatasetProfile,
    camera: Camera,
    camera_index: usize,
}

impl VideoFeed {
    /// Opens camera `camera_index` (0–3) of the dataset.
    ///
    /// # Panics
    ///
    /// Panics if `camera_index >= 4`.
    pub fn open(profile: DatasetProfile, camera_index: usize) -> VideoFeed {
        let rig = camera_rig(&profile);
        assert!(
            camera_index < rig.len(),
            "camera index {camera_index} out of range"
        );
        VideoFeed {
            camera: rig[camera_index].clone(),
            profile,
            camera_index,
        }
    }

    /// The dataset profile.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// The camera index within the rig.
    pub fn camera_index(&self) -> usize {
        self.camera_index
    }

    /// The camera model.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Renders a single frame (replays the world from frame 0; prefer
    /// [`VideoFeed::frames`] for ranges).
    pub fn frame(&self, f: usize) -> FrameData {
        self.frames(f, f + 1, 1).remove(0)
    }

    /// Renders frames `start, start+step, …` below `end` with a single
    /// world replay.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn frames(&self, start: usize, end: usize, step: usize) -> Vec<FrameData> {
        assert!(step > 0, "step must be positive");
        self.rendered(self.slots((start..end).step_by(step)))
    }

    /// The frames of the feed that carry ground truth in `[start, end)` —
    /// the paper evaluates only on annotated frames (every
    /// `gt_interval`-th).
    pub fn annotated_frames(&self, start: usize, end: usize) -> Vec<FrameData> {
        self.rendered(self.annotated_slots(start, end))
    }

    /// Unfilled slots for [`VideoFeed::annotated_frames`]`(start, end)`:
    /// each carries its frame number, a black image of the feed's frame
    /// size and no ground truth. The images are allocated here, so a
    /// caller that hands the filling to pool workers can keep the pixel
    /// buffers on the thread that will free them.
    pub fn annotated_slots(&self, start: usize, end: usize) -> Vec<FrameData> {
        self.slots(self.annotated_indices(start, end))
    }

    /// The numbers of the annotated frames in `[start, end)`, ascending.
    pub fn annotated_indices(&self, start: usize, end: usize) -> impl Iterator<Item = usize> {
        let interval = self.profile.gt_interval;
        let first = start.div_ceil(interval) * interval;
        (first..end).step_by(interval)
    }

    /// Fills `slots` (in ascending frame order) with one world replay:
    /// every slot gets its frame's ground truth, and its image is rendered
    /// in place unless `render(frame)` is false — such a slot keeps the
    /// pixels it had.
    ///
    /// # Panics
    ///
    /// Panics if the frame numbers are not ascending, or an image does not
    /// have the feed's frame size.
    pub fn fill(&self, slots: &mut [FrameData], mut render: impl FnMut(usize) -> bool) {
        let Some(first) = slots.first() else {
            return;
        };
        let mut world = World::at_frame(self.profile.clone(), first.frame);
        for slot in slots {
            assert!(
                slot.frame >= world.frame(),
                "frame slots must be in ascending order"
            );
            while world.frame() < slot.frame {
                world.step();
            }
            slot.gt = ground_truth(&world, &self.camera);
            if render(slot.frame) {
                render_frame_into(&world, &self.camera, self.camera_index, &mut slot.image);
            }
        }
    }

    fn slots(&self, frames: impl Iterator<Item = usize>) -> Vec<FrameData> {
        let (w, h) = (self.profile.width, self.profile.height);
        frames
            .map(|frame| FrameData {
                frame,
                image: RgbImage::new(w, h),
                gt: Vec::new(),
            })
            .collect()
    }

    fn rendered(&self, mut slots: Vec<FrameData>) -> Vec<FrameData> {
        self.fill(&mut slots, |_| true);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetId, DatasetProfile};

    fn mini() -> DatasetProfile {
        DatasetProfile::miniature(DatasetId::Lab)
    }

    #[test]
    fn single_frame_matches_range_frame() {
        let feed = VideoFeed::open(mini(), 0);
        let single = feed.frame(10);
        let ranged = feed.frames(10, 11, 1);
        assert_eq!(ranged.len(), 1);
        assert_eq!(single.image, ranged[0].image);
        assert_eq!(single.gt, ranged[0].gt);
    }

    #[test]
    fn frames_step_correctly() {
        let feed = VideoFeed::open(mini(), 1);
        let fs = feed.frames(0, 20, 5);
        let indices: Vec<usize> = fs.iter().map(|f| f.frame).collect();
        assert_eq!(indices, vec![0, 5, 10, 15]);
    }

    #[test]
    fn annotated_frames_follow_gt_interval() {
        let feed = VideoFeed::open(mini(), 0); // gt_interval = 5 in miniature
        let fs = feed.annotated_frames(3, 21);
        let indices: Vec<usize> = fs.iter().map(|f| f.frame).collect();
        assert_eq!(indices, vec![5, 10, 15, 20]);
    }

    #[test]
    fn filled_slots_equal_annotated_frames_and_skips_keep_their_pixels() {
        let feed = VideoFeed::open(mini(), 1);
        let want = feed.annotated_frames(3, 41);
        let mut slots = feed.annotated_slots(3, 41);
        assert_eq!(
            slots.iter().map(|s| s.frame).collect::<Vec<_>>(),
            want.iter().map(|f| f.frame).collect::<Vec<_>>()
        );
        let black = RgbImage::new(mini().width, mini().height);
        assert!(slots.iter().all(|s| s.image == black && s.gt.is_empty()));
        feed.fill(&mut slots, |f| f != 15);
        for (got, want) in slots.iter().zip(&want) {
            assert_eq!(got.gt, want.gt);
            if got.frame == 15 {
                assert_eq!(got.image, black, "a skipped slot is left as it was");
            } else {
                assert_eq!(got.image, want.image);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn descending_slots_panic() {
        let feed = VideoFeed::open(mini(), 0);
        let mut slots = feed.annotated_slots(0, 20);
        slots.reverse();
        feed.fill(&mut slots, |_| true);
    }

    #[test]
    fn annotated_frames_empty_range() {
        let feed = VideoFeed::open(mini(), 0);
        assert!(feed.annotated_frames(6, 7).is_empty());
    }

    #[test]
    fn feed_is_deterministic_across_instances() {
        let a = VideoFeed::open(mini(), 2).frame(7);
        let b = VideoFeed::open(mini(), 2).frame(7);
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn cameras_of_same_world_share_ground_truth_ids() {
        let f0 = VideoFeed::open(mini(), 0).frame(5);
        let f1 = VideoFeed::open(mini(), 1).frame(5);
        // Any shared person must be at the same world position.
        for a in &f0.gt {
            if let Some(b) = f1.gt.iter().find(|g| g.human_id == a.human_id) {
                assert_eq!(a.ground, b.ground);
            }
        }
    }

    #[test]
    #[should_panic(expected = "camera index")]
    fn bad_camera_index_panics() {
        VideoFeed::open(mini(), 4);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_panics() {
        VideoFeed::open(mini(), 0).frames(0, 10, 0);
    }
}
