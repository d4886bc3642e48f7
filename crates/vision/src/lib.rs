//! From-scratch computer-vision substrate for the EECS reproduction.
//!
//! The paper (Section V) builds its pipeline out of OpenCV primitives; this
//! crate re-implements everything those primitives provided:
//!
//! * [`image`] — planar RGB / grayscale float images,
//! * [`draw`] — the rasterization helpers used by the synthetic scene
//!   renderer (`eecs-scene`),
//! * [`resize`] — bilinear resampling (C4 resizes its input to a fixed
//!   internal resolution; feature pyramids downscale octaves),
//! * [`gradient`] — Sobel gradients, magnitude and orientation,
//! * [`hog`] — histograms of oriented gradients (Dalal–Triggs layout,
//!   Section V-A: the 3780-d window descriptor),
//! * [`channels`] — aggregated channel features for the ACF detector,
//! * [`keypoint`] — a Hessian-based keypoint detector with 64-d descriptors
//!   standing in for SURF,
//! * [`bow`] — the bag-of-visual-words quantizer (400-word vocabulary in the
//!   paper),
//! * [`color`] — mean-color features of detected regions (40-d in the
//!   paper), used for cross-camera re-identification.

pub mod bow;
pub mod channels;
pub mod color;
pub mod draw;
pub mod gradient;
pub mod hog;
pub mod image;
pub mod keypoint;
pub mod resize;

pub use bow::BowVocabulary;
pub use gradient::GradientField;
pub use hog::HogConfig;
pub use image::{GrayImage, RgbImage};
pub use keypoint::{Keypoint, KeypointConfig};

use std::error::Error;
use std::fmt;

/// Errors produced by the vision substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VisionError {
    /// An image or window was too small for the requested operation.
    TooSmall(String),
    /// An argument was out of the valid domain.
    InvalidArgument(String),
}

impl fmt::Display for VisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisionError::TooSmall(msg) => write!(f, "input too small: {msg}"),
            VisionError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for VisionError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, VisionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(VisionError::TooSmall("1x1".into())
            .to_string()
            .contains("1x1"));
    }
}
