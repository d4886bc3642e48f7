//! The four human-detection algorithms of the paper, from scratch.
//!
//! Section V-A: each camera node ships HOG \[3\], ACF \[4\], C4 \[6\] and
//! LSVM \[5\]. The four detectors here are real sliding-window detectors over
//! rendered frames, with genuinely different algorithmic structure so that
//! their accuracy orderings differ across environments the way the paper's
//! do (Tables II–IV):
//!
//! * [`hog_detector`] — Dalal–Triggs: HOG pyramid + linear SVM, trained on
//!   *clean* scenes (the INRIA analog). High precision on clean data;
//!   fooled by person-shaped furniture.
//! * [`acf_detector`] — Dollár: aggregated channel features + AdaBoost,
//!   trained *with* clutter negatives, no upsampling octaves — an order of
//!   magnitude cheaper, robust in clutter, blind to small people.
//! * [`c4_detector`] — Wu et al.: CENTRIST-style census-transform contour
//!   features at a fixed internal resolution (cost nearly independent of
//!   input resolution).
//! * [`lsvm_detector`] — Felzenszwalb DPM: root filter + deformable part
//!   filters with displacement search. Most accurate, most expensive.
//!
//! Shared infrastructure: [`detection`] (boxes, IoU), [`nms`] (non-maximum
//! suppression), [`pyramid`] (scale schedules), [`training`] (synthetic
//! training windows), [`eval`] (precision/recall/f-score against ground
//! truth, threshold selection — Section VI-A), [`probability`] (score →
//! detection probability calibration, footnote 5), and [`bank`] (the
//! trained set of all four detectors a camera node carries).

pub mod acf_detector;
pub mod bank;
pub mod c4_detector;
pub mod detection;
pub mod eval;
pub mod frame_features;
pub mod health;
pub mod hog_detector;
pub mod kernels;
pub mod lsvm_detector;
pub mod nms;
pub mod probability;
pub mod pyramid;
pub mod training;

pub use bank::DetectorBank;
pub use detection::{AlgorithmId, BBox, Detection, DetectionOutput};
pub use eval::{EvalConfig, EvalCounts, ThresholdSweep};
pub use frame_features::FrameFeatures;
pub use health::{DetectorHealth, HealthIssue, HealthPolicy};
pub use kernels::{CensusCodePlane, DetectScratch};
pub use nms::{nms_in_place, non_maximum_suppression};

use eecs_vision::image::RgbImage;
use std::error::Error;
use std::fmt;

/// Errors produced while building or running detectors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DetectError {
    /// Detector training failed.
    Training(String),
    /// An argument was out of the valid domain.
    InvalidArgument(String),
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Training(msg) => write!(f, "training failed: {msg}"),
            DetectError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for DetectError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, DetectError>;

/// A runnable human detector (one of the paper's four algorithms).
///
/// Implementations return **all** candidate detections above their internal
/// floor together with raw scores; the cut-off threshold `d_t` is applied by
/// the evaluation layer (Section VI-A: the threshold maximizing f-score is
/// chosen per algorithm and training item).
pub trait Detector: Send + Sync {
    /// Which algorithm this is.
    fn algorithm(&self) -> AlgorithmId;

    /// Runs detection on a frame: [`Detector::detect_with_cache`] over a
    /// fresh handle.
    fn detect(&self, frame: &RgbImage) -> DetectionOutput {
        self.detect_with_cache(frame, &FrameFeatures::new(frame))
    }

    /// Runs detection on `cache.frame()` through `cache`, sharing its
    /// grayscale conversion and scratch buffers with other detectors;
    /// each pyramid level is built into the scratch, scanned and
    /// overwritten by the next.
    ///
    /// `frame` is ignored: every detector reads its pixels and dimensions
    /// from `cache.frame()`, so a handle over another image detects that
    /// image. The parameter is kept so existing two-argument callers
    /// still compile.
    ///
    /// The output — detections *and* the `ops` counter — is the same
    /// whatever other detectors already did through `cache`, so equal to
    /// [`Detector::detect`]; sharing never removes modeled work (the
    /// simulated cameras run each algorithm in isolation, so `ops`-based
    /// energy charges must not shrink when a handle is shared).
    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(DetectError::Training("svm".into())
            .to_string()
            .contains("svm"));
    }
}
