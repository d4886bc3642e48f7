//! The per-frame handle the detectors scan through.
//!
//! [`FrameFeatures`] holds a frame, its grayscale conversion (computed
//! once, on first use) and a pool of [`DetectScratch`] buffers. Each
//! detector builds, scans and releases one pyramid level at a time into
//! a scratch checked out of the pool, so nothing per-level outlives its
//! level's scan and the buffers, grown to the largest level once, serve
//! every later level, detector and — through [`FrameFeatures::recycle`] —
//! frame. Detectors sharing a handle share the gray image and the pool.
//!
//! The handle is a *host simulation* device only. The modeled camera
//! hardware runs each algorithm in isolation, so per-algorithm `ops`
//! counters (and therefore `processing_energy(ops)` charges) are the same
//! whichever handle a detector scans through; detectors increment `ops`
//! exactly as their `detect_reference` oracles do.

use eecs_vision::image::{GrayImage, RgbImage};
use std::sync::{Mutex, OnceLock};

use crate::kernels::DetectScratch;

/// A frame plus what the detectors share while scanning it.
///
/// Construct one per frame with [`FrameFeatures::new`] and pass it to each
/// detector's `detect_with_cache`. All methods take `&self` and the handle
/// is `Sync`, so one instance may serve several threads, though the
/// simulator uses one per worker task.
pub struct FrameFeatures<'a> {
    frame: &'a RgbImage,
    gray: OnceLock<GrayImage>,
    scratch: Mutex<Vec<DetectScratch>>,
}

impl<'a> FrameFeatures<'a> {
    /// Creates a handle over `frame` with an empty scratch pool. Nothing
    /// is computed until a detector asks for it.
    pub fn new(frame: &'a RgbImage) -> FrameFeatures<'a> {
        FrameFeatures {
            frame,
            gray: OnceLock::new(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// A handle over another frame that keeps this handle's scratch pool,
    /// so scans of the next frame reuse the buffers the previous ones
    /// grew.
    pub fn recycle<'b>(self, frame: &'b RgbImage) -> FrameFeatures<'b> {
        FrameFeatures {
            frame,
            gray: OnceLock::new(),
            scratch: self.scratch,
        }
    }

    /// Runs `f` with a [`DetectScratch`] checked out of this handle's
    /// pool.
    ///
    /// Buffers keep their capacity across checkouts, so every detector
    /// scanning through the same handle reuses the same allocations; under
    /// concurrent access each caller simply gets its own scratch. Contents
    /// are transient — callers must not read a buffer before writing it.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut DetectScratch) -> R) -> R {
        let mut scratch = {
            let mut pool = self.scratch.lock().unwrap();
            pool.pop().unwrap_or_default()
        };
        let out = f(&mut scratch);
        self.scratch.lock().unwrap().push(scratch);
        out
    }

    /// The frame this handle is over.
    pub fn frame(&self) -> &RgbImage {
        self.frame
    }

    /// The grayscale conversion of the frame.
    pub fn gray(&self) -> &GrayImage {
        self.gray.get_or_init(|| self.frame.to_gray())
    }
}

impl std::fmt::Debug for FrameFeatures<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameFeatures({}x{}, gray {}, {} pooled scratch)",
            self.frame.width(),
            self.frame.height(),
            if self.gray.get().is_some() {
                "converted"
            } else {
                "pending"
            },
            self.scratch.lock().unwrap().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame() -> RgbImage {
        let mut img = RgbImage::new(64, 48);
        for y in 0..48 {
            for x in 0..64 {
                img.set(
                    x,
                    y,
                    [
                        (x as f32) / 64.0,
                        (y as f32) / 48.0,
                        ((x * y) % 7) as f32 / 7.0,
                    ],
                );
            }
        }
        img
    }

    #[test]
    fn gray_matches_direct_conversion() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        assert_eq!(*cache.gray(), frame.to_gray());
        // Second call returns the same conversion.
        assert!(std::ptr::eq(cache.gray(), cache.gray()));
    }

    #[test]
    fn scratch_pool_reuses_buffers_across_frames() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let cap = cache.with_scratch(|s| {
            s.row_scores.clear();
            s.row_scores.resize(512, 0.5);
            s.row_scores.capacity()
        });
        // The same buffer (or at least its capacity) comes back, also
        // once the pool has moved to another frame.
        assert!(cache.with_scratch(|s| s.row_scores.capacity()) >= cap);
        let other = RgbImage::new(8, 8);
        let cache = cache.recycle(&other);
        assert_eq!(*cache.gray(), other.to_gray());
        assert!(cache.with_scratch(|s| s.row_scores.capacity()) >= cap);
    }
}
