//! Per-frame video-comparison features.
//!
//! Section V-A: each uploaded key frame is represented by HOG features plus
//! a bag-of-words histogram of SURF keypoints (4180-d in the paper). Our
//! compact equivalent concatenates a pooled HOG (4×4 grid × 9 bins), the
//! BoW histogram over Hessian keypoints, and a coarse color histogram —
//! non-negative, scene-characteristic, and small enough that the Grassmann
//! pipeline runs in milliseconds (the GFK implementation itself supports
//! the full 4180-d; see `eecs-manifold`).

use crate::{EecsError, Result};
use eecs_manifold::video::VideoItem;
use eecs_vision::bow::BowVocabulary;
use eecs_vision::color::color_histogram;
use eecs_vision::hog::pooled_hog;
use eecs_vision::image::RgbImage;
use eecs_vision::keypoint::KeypointConfig;

/// Pooled-HOG grid (x, y) and orientation bins.
const HOG_GRID: (usize, usize, usize) = (4, 4, 9);
/// Color histogram bins per channel.
const COLOR_BINS: usize = 4;

/// Global feature gain. The components are L1-normalized histograms whose
/// entries are ~1/dim; the gain lifts squared kernel distances into a
/// range where `Sim = e^{-M_d}` (Eq. 5) is discriminative (the paper's raw
/// HOG+BoW features had this magnitude naturally).
const FEATURE_GAIN: f64 = 4.0;

/// Extracts the compact per-frame feature vector for video comparison.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    bow: BowVocabulary,
}

impl FeatureExtractor {
    /// Builds the extractor, training the visual-word vocabulary on sample
    /// frames from the training feeds (the paper builds 400 words from 12
    /// feeds; `words` is configurable).
    ///
    /// # Errors
    ///
    /// Propagates vocabulary construction failures (no keypoints, too many
    /// words).
    pub fn build<'a>(
        training_frames: impl IntoIterator<Item = &'a RgbImage>,
        words: usize,
        seed: u64,
    ) -> Result<FeatureExtractor> {
        let grays: Vec<_> = training_frames.into_iter().map(|f| f.to_gray()).collect();
        let bow = BowVocabulary::build(&grays, words, KeypointConfig::default(), seed)
            .map_err(|e| EecsError::Subsystem(format!("bow vocabulary: {e}")))?;
        Ok(FeatureExtractor { bow })
    }

    /// Total feature dimension `α`.
    pub fn feature_dim(&self) -> usize {
        let (gx, gy, bins) = HOG_GRID;
        gx * gy * bins + self.bow.words() + COLOR_BINS.pow(3)
    }

    /// Extracts one frame's feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::Subsystem`] for frames too small to featurize.
    pub fn extract_frame(&self, frame: &RgbImage) -> Result<Vec<f64>> {
        let gray = frame.to_gray();
        let (gx, gy, bins) = HOG_GRID;
        let mut out = pooled_hog(&gray, gx, gy, bins)
            .map_err(|e| EecsError::Subsystem(format!("pooled hog: {e}")))?;
        out.extend(self.bow.represent(&gray));
        out.extend(
            color_histogram(frame, COLOR_BINS)
                .map_err(|e| EecsError::Subsystem(format!("color histogram: {e}")))?,
        );
        for v in &mut out {
            *v *= FEATURE_GAIN;
        }
        Ok(out)
    }

    /// Extracts a [`VideoItem`] from a set of key frames.
    ///
    /// # Errors
    ///
    /// Propagates frame-extraction failures; requires at least 2 frames.
    pub fn extract_video(&self, name: impl Into<String>, frames: &[RgbImage]) -> Result<VideoItem> {
        let features: Vec<Vec<f64>> = frames
            .iter()
            .map(|f| self.extract_frame(f))
            .collect::<Result<_>>()?;
        video_item(name, &features)
    }
}

/// Wraps per-frame feature vectors (from [`FeatureExtractor::extract_frame`])
/// into a [`VideoItem`]; requires at least 2 frames.
pub(crate) fn video_item(name: impl Into<String>, features: &[Vec<f64>]) -> Result<VideoItem> {
    VideoItem::from_frames(name, features)
        .map_err(|e| EecsError::Subsystem(format!("video item: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_scene::dataset::{DatasetId, DatasetProfile};
    use eecs_scene::sequence::VideoFeed;

    fn sample_frames(n: usize) -> Vec<RgbImage> {
        let feed = VideoFeed::open(DatasetProfile::miniature(DatasetId::Lab), 0);
        feed.frames(0, n * 5, 5)
            .into_iter()
            .map(|f| f.image)
            .collect()
    }

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::build(&sample_frames(4), 16, 1).unwrap()
    }

    #[test]
    fn feature_dim_is_consistent() {
        let ex = extractor();
        let frames = sample_frames(2);
        let f = ex.extract_frame(&frames[0]).unwrap();
        assert_eq!(f.len(), ex.feature_dim());
        assert_eq!(ex.feature_dim(), 144 + 16 + 64);
    }

    #[test]
    fn features_nonnegative() {
        let ex = extractor();
        let f = ex.extract_frame(&sample_frames(1)[0]).unwrap();
        assert!(f.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn video_item_has_frame_rows() {
        let ex = extractor();
        let frames = sample_frames(5);
        let item = ex.extract_video("V_test", &frames).unwrap();
        assert_eq!(item.num_frames(), 5);
        assert_eq!(item.feature_dim(), ex.feature_dim());
        assert_eq!(item.name(), "V_test");
    }

    #[test]
    fn same_feed_same_features() {
        let ex = extractor();
        let frames = sample_frames(2);
        assert_eq!(
            ex.extract_frame(&frames[0]).unwrap(),
            ex.extract_frame(&frames[0]).unwrap()
        );
    }

    #[test]
    fn single_frame_video_rejected() {
        let ex = extractor();
        let frames = sample_frames(1);
        assert!(ex.extract_video("v", &frames).is_err());
    }
}
