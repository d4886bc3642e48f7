//! The detector bank: all four trained algorithms, as installed on each
//! camera node (Section V-A: "Each node is pre-installed with 4 different
//! human detection algorithms").

use crate::acf_detector::{AcfDetector, AcfDetectorConfig};
use crate::c4_detector::{C4Detector, C4DetectorConfig};
use crate::detection::{AlgorithmId, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::hog_detector::{HogDetectorConfig, HogSvmDetector};
use crate::lsvm_detector::{LsvmDetector, LsvmDetectorConfig};
use crate::{Detector, Result};
use eecs_vision::image::RgbImage;
use std::sync::Arc;

/// The four trained detectors a camera carries.
///
/// Training all four takes a few seconds; banks are meant to be built once
/// and shared (hence the `Arc` accessors).
#[derive(Clone)]
pub struct DetectorBank {
    hog: Arc<HogSvmDetector>,
    acf: Arc<AcfDetector>,
    c4: Arc<C4Detector>,
    lsvm: Arc<LsvmDetector>,
}

impl std::fmt::Debug for DetectorBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DetectorBank(HOG, ACF, C4, LSVM)")
    }
}

impl DetectorBank {
    /// Trains all four detectors with their default configurations.
    ///
    /// # Errors
    ///
    /// Propagates any detector's training failure.
    pub fn train_default() -> Result<DetectorBank> {
        DetectorBank::train(
            HogDetectorConfig::default(),
            AcfDetectorConfig::default(),
            C4DetectorConfig::default(),
            LsvmDetectorConfig::default(),
        )
    }

    /// Trains all four detectors with explicit configurations.
    ///
    /// # Errors
    ///
    /// Propagates any detector's training failure.
    pub fn train(
        hog: HogDetectorConfig,
        acf: AcfDetectorConfig,
        c4: C4DetectorConfig,
        lsvm: LsvmDetectorConfig,
    ) -> Result<DetectorBank> {
        Ok(DetectorBank {
            hog: Arc::new(HogSvmDetector::train(hog)?),
            acf: Arc::new(AcfDetector::train(acf)?),
            c4: Arc::new(C4Detector::train(c4)?),
            lsvm: Arc::new(LsvmDetector::train(lsvm)?),
        })
    }

    /// A fast-training bank for tests and examples: smaller training sets
    /// and fewer boosting rounds, same structure.
    ///
    /// # Errors
    ///
    /// Propagates any detector's training failure.
    pub fn train_quick(seed: u64) -> Result<DetectorBank> {
        use crate::training::{NegativeRegime, TrainingConfig};
        let tc = |regime, s| TrainingConfig {
            positives: 90,
            negatives: 140,
            regime,
            seed: s,
        };
        DetectorBank::train(
            HogDetectorConfig {
                training: tc(NegativeRegime::Clean, seed),
                ..Default::default()
            },
            AcfDetectorConfig {
                rounds: 48,
                training: tc(NegativeRegime::WithClutter, seed + 1),
                ..Default::default()
            },
            C4DetectorConfig {
                training: tc(NegativeRegime::Clean, seed + 2),
                hard_negative_rounds: 1,
                hard_negative_pool: 200,
                ..Default::default()
            },
            LsvmDetectorConfig {
                training: tc(NegativeRegime::WithClutter, seed + 3),
                ..Default::default()
            },
        )
    }

    /// The detector implementing `algorithm`.
    pub fn detector(&self, algorithm: AlgorithmId) -> &dyn Detector {
        match algorithm {
            AlgorithmId::Hog => self.hog.as_ref(),
            AlgorithmId::Acf => self.acf.as_ref(),
            AlgorithmId::C4 => self.c4.as_ref(),
            AlgorithmId::Lsvm => self.lsvm.as_ref(),
        }
    }

    /// All four detectors in table order.
    pub fn all(&self) -> [(AlgorithmId, &dyn Detector); 4] {
        [
            (AlgorithmId::Hog, self.hog.as_ref() as &dyn Detector),
            (AlgorithmId::Acf, self.acf.as_ref() as &dyn Detector),
            (AlgorithmId::C4, self.c4.as_ref() as &dyn Detector),
            (AlgorithmId::Lsvm, self.lsvm.as_ref() as &dyn Detector),
        ]
    }

    /// Runs several algorithms on the same frame, in order. With
    /// `share_features` the detectors scan through one [`FrameFeatures`]
    /// handle, sharing its grayscale conversion and scratch buffers —
    /// outputs (detections *and* per-algorithm `ops`) are identical either
    /// way. The simulator fills its detection slots one detector at a
    /// time instead; the repository benchmark's layer-by-layer replay
    /// (`benchmark/src/replay.rs`) is the remaining program caller.
    pub fn run_algorithms(
        &self,
        algorithms: &[AlgorithmId],
        frame: &RgbImage,
        share_features: bool,
    ) -> Vec<DetectionOutput> {
        if share_features {
            let cache = FrameFeatures::new(frame);
            algorithms
                .iter()
                .map(|&a| self.detector(a).detect_with_cache(frame, &cache))
                .collect()
        } else {
            algorithms
                .iter()
                .map(|&a| self.detector(a).detect(frame))
                .collect()
        }
    }

    /// The HOG detector.
    pub fn hog(&self) -> &HogSvmDetector {
        &self.hog
    }

    /// The ACF detector.
    pub fn acf(&self) -> &AcfDetector {
        &self.acf
    }

    /// The C4 detector.
    pub fn c4(&self) -> &C4Detector {
        &self.c4
    }

    /// The LSVM detector.
    pub fn lsvm(&self) -> &LsvmDetector {
        &self.lsvm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bank_trains_and_dispatches() {
        let bank = DetectorBank::train_quick(1).unwrap();
        for (id, det) in bank.all() {
            assert_eq!(det.algorithm(), id);
        }
        assert_eq!(bank.detector(AlgorithmId::C4).algorithm(), AlgorithmId::C4);
    }

    #[test]
    fn bank_is_cheaply_cloneable() {
        let bank = DetectorBank::train_quick(2).unwrap();
        let clone = bank.clone();
        // Arc sharing: same underlying detector.
        assert!(std::ptr::eq(bank.hog(), clone.hog()));
    }
}
