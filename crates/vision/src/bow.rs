//! Bag of visual words.
//!
//! Section V-A of the paper: keypoint descriptors from the training feeds
//! are clustered into a 400-word vocabulary; any image is then represented
//! by the histogram of its keypoints' nearest visual words, a fixed-length
//! vector regardless of image size or keypoint count.

use crate::image::GrayImage;
use crate::keypoint::{detect_keypoints, Keypoint, KeypointConfig};
use crate::{Result, VisionError};
use eecs_learn::kmeans::{KMeans, KMeansConfig};

/// A fitted visual-word vocabulary.
#[derive(Debug, Clone)]
pub struct BowVocabulary {
    kmeans: KMeans,
    keypoint_config: KeypointConfig,
}

impl BowVocabulary {
    /// Builds a `words`-word vocabulary from descriptors harvested from the
    /// `training_images` (the paper uses 12 training feeds → 400 words).
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::InvalidArgument`] when no descriptors can be
    /// harvested or `words` is zero / exceeds the descriptor count.
    pub fn build(
        training_images: &[GrayImage],
        words: usize,
        keypoint_config: KeypointConfig,
        seed: u64,
    ) -> Result<BowVocabulary> {
        let mut descriptors: Vec<Vec<f64>> = Vec::new();
        for img in training_images {
            if let Ok(kps) = detect_keypoints(img, &keypoint_config) {
                descriptors.extend(kps.into_iter().map(|k| k.descriptor));
            }
        }
        if descriptors.is_empty() {
            return Err(VisionError::InvalidArgument(
                "no keypoints found in training images".into(),
            ));
        }
        let kmeans = KMeans::fit(
            &descriptors,
            &KMeansConfig {
                k: words,
                seed,
                ..Default::default()
            },
        )
        .map_err(|e| VisionError::InvalidArgument(format!("k-means failed: {e}")))?;
        Ok(BowVocabulary {
            kmeans,
            keypoint_config,
        })
    }

    /// Number of visual words.
    pub fn words(&self) -> usize {
        self.kmeans.k()
    }

    /// Quantizes pre-extracted keypoints into an L1-normalized word
    /// histogram (all-zero when `keypoints` is empty).
    pub fn histogram_of(&self, keypoints: &[Keypoint]) -> Vec<f64> {
        let mut hist = vec![0.0f64; self.words()];
        for kp in keypoints {
            hist[self.kmeans.assign(&kp.descriptor)] += 1.0;
        }
        let total: f64 = hist.iter().sum();
        if total > 0.0 {
            for h in &mut hist {
                *h /= total;
            }
        }
        hist
    }

    /// Detects keypoints in `img` and returns its word histogram — the
    /// fixed-length BoW representation of Section V-A.
    ///
    /// Images where detection fails (e.g. too small) yield the all-zero
    /// histogram rather than an error, mirroring how an empty frame is
    /// handled in the pipeline.
    pub fn represent(&self, img: &GrayImage) -> Vec<f64> {
        match detect_keypoints(img, &self.keypoint_config) {
            Ok(kps) => self.histogram_of(&kps),
            Err(_) => vec![0.0; self.words()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;
    use crate::image::RgbImage;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn textured_image(seed: u64) -> GrayImage {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rgb = RgbImage::new(64, 64);
        for _ in 0..12 {
            let cx = rng.random_range(10.0..54.0);
            let cy = rng.random_range(10.0..54.0);
            let r = rng.random_range(1.5..4.0);
            let c = rng.random_range(0.5..1.0f32);
            draw::fill_ellipse(&mut rgb, cx, cy, r, r, [c, c, c]);
        }
        rgb.to_gray()
    }

    fn vocab() -> BowVocabulary {
        let imgs: Vec<GrayImage> = (0..4).map(textured_image).collect();
        BowVocabulary::build(&imgs, 8, KeypointConfig::default(), 1).unwrap()
    }

    #[test]
    fn histogram_is_l1_normalized() {
        let v = vocab();
        let hist = v.represent(&textured_image(99));
        let sum: f64 = hist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0);
        assert_eq!(hist.len(), 8);
    }

    #[test]
    fn empty_image_gives_zero_histogram() {
        let v = vocab();
        let hist = v.represent(&GrayImage::filled(64, 64, 0.5));
        assert!(hist.iter().all(|&h| h == 0.0));
    }

    #[test]
    fn tiny_image_gives_zero_histogram_not_error() {
        let v = vocab();
        let hist = v.represent(&GrayImage::new(4, 4));
        assert_eq!(hist.len(), 8);
        assert!(hist.iter().all(|&h| h == 0.0));
    }

    #[test]
    fn same_image_same_histogram() {
        let v = vocab();
        let img = textured_image(5);
        assert_eq!(v.represent(&img), v.represent(&img));
    }

    #[test]
    fn build_requires_keypoints() {
        let blank = vec![GrayImage::filled(64, 64, 0.5)];
        assert!(BowVocabulary::build(&blank, 8, KeypointConfig::default(), 0).is_err());
    }

    #[test]
    fn build_rejects_too_many_words() {
        let imgs = vec![textured_image(0)];
        // Asking for far more words than harvested descriptors fails.
        assert!(BowVocabulary::build(&imgs, 100_000, KeypointConfig::default(), 0).is_err());
    }
}
