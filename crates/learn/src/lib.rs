//! Machine-learning primitives for the EECS reproduction.
//!
//! The paper's detector stack relies on three classic learners, all
//! implemented here from scratch:
//!
//! * [`kmeans`] — k-means clustering, used to build the SURF bag-of-words
//!   vocabulary (Section V-A: 400 visual words from 12 training feeds),
//! * [`svm`] — a linear SVM trained with the Pegasos stochastic sub-gradient
//!   method, used by the HOG and LSVM detectors,
//! * [`boost`] — AdaBoost over decision stumps, used by the ACF detector
//!   (Dollár's aggregated channel features),
//! * [`calibrate`] — Platt scaling, converting raw detection scores into
//!   detection probabilities `P_ij` (footnote 5 of the paper),
//! * [`split`] — deterministic sampling of the consecutive-frame windows
//!   the paper evaluates on.

pub mod boost;
pub mod calibrate;
pub mod kmeans;
pub mod split;
pub mod svm;

pub use boost::{AdaBoost, Stump};
pub use calibrate::PlattScaler;
pub use kmeans::{KMeans, KMeansConfig};
pub use svm::{LinearSvm, SvmConfig};

use std::error::Error;
use std::fmt;

/// Errors produced by the learning algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LearnError {
    /// The training set was empty or degenerate (e.g. a single class).
    DegenerateTrainingSet(String),
    /// An argument was out of the valid domain.
    InvalidArgument(String),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::DegenerateTrainingSet(msg) => {
                write!(f, "degenerate training set: {msg}")
            }
            LearnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for LearnError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LearnError>;

/// A labelled training example: a feature vector and a ±1 label.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Feature vector.
    pub features: Vec<f64>,
    /// Class label: `+1.0` (object) or `-1.0` (background).
    pub label: f64,
}

impl Example {
    /// Creates a positive (label `+1`) example.
    pub fn positive(features: Vec<f64>) -> Self {
        Example {
            features,
            label: 1.0,
        }
    }

    /// Creates a negative (label `-1`) example.
    pub fn negative(features: Vec<f64>) -> Self {
        Example {
            features,
            label: -1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_constructors() {
        let p = Example::positive(vec![1.0]);
        let n = Example::negative(vec![1.0]);
        assert_eq!(p.label, 1.0);
        assert_eq!(n.label, -1.0);
    }

    #[test]
    fn error_display() {
        let e = LearnError::DegenerateTrainingSet("only one class".into());
        assert!(e.to_string().contains("only one class"));
    }
}
