//! The HOG pedestrian detector (Dalal–Triggs, \[3\] in the paper).
//!
//! A linear SVM over block-normalized HOG descriptors, evaluated over a
//! dense scale pyramid. Trained on *clean* synthetic windows — the analog
//! of OpenCV's INRIA-trained model the paper used — which is precisely why
//! it keeps high precision in clean scenes (Table II) and loses precision
//! against the person-shaped furniture of dataset #2 (Table III).

use crate::detection::BBox;
use crate::detection::{AlgorithmId, Detection, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::nms::{nms_in_place, non_maximum_suppression};
use crate::pyramid::{ScaleSchedule, WINDOW_H, WINDOW_W};
use crate::training::{synthesize, NegativeRegime, TrainingConfig, TrainingWindows};
use crate::{DetectError, Detector, Result};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_learn::Example;
use eecs_vision::hog::{HogConfig, HogDescriptor};
use eecs_vision::image::RgbImage;

/// HOG detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HogDetectorConfig {
    /// HOG layout (cell size divides the 16×48 window).
    pub hog: HogConfig,
    /// Scale schedule; upsampling (scale > 1) lets HOG catch small people.
    pub scales: ScaleSchedule,
    /// Window stride in cells.
    pub stride_cells: usize,
    /// Candidates below this raw score are dropped before NMS.
    pub keep_floor: f64,
    /// NMS IoU threshold.
    pub nms_iou: f64,
    /// SVM training hyper-parameters.
    pub svm: SvmConfig,
    /// Training-set synthesis parameters (clean regime).
    pub training: TrainingConfig,
}

impl Default for HogDetectorConfig {
    fn default() -> Self {
        HogDetectorConfig {
            hog: HogConfig {
                cell_size: 4,
                block_cells: 2,
                bins: 9,
            },
            scales: ScaleSchedule {
                min_scale: 0.08,
                max_scale: 1.35,
                ratio: 1.33,
            },
            stride_cells: 1,
            keep_floor: -0.3,
            nms_iou: 0.35,
            svm: SvmConfig {
                lambda: 1e-4,
                epochs: 40,
                seed: 11,
            },
            training: TrainingConfig {
                positives: 250,
                negatives: 350,
                regime: NegativeRegime::Clean,
                seed: 21,
            },
        }
    }
}

/// A trained HOG + linear SVM detector.
#[derive(Debug, Clone)]
pub struct HogSvmDetector {
    config: HogDetectorConfig,
    svm: LinearSvm,
    /// The enumerated scale schedule, cached at training time so `detect`
    /// only filters it per frame instead of re-deriving it.
    scale_levels: Vec<f64>,
}

impl HogSvmDetector {
    /// Trains the detector on synthesized windows.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Training`] if descriptor extraction or SVM
    /// training fails.
    pub fn train(config: HogDetectorConfig) -> Result<HogSvmDetector> {
        let windows = synthesize(&config.training);
        let examples = descriptor_examples(&windows, config.hog)?;
        let svm = LinearSvm::train(&examples, &config.svm)
            .map_err(|e| DetectError::Training(format!("hog svm: {e}")))?;
        let scale_levels = config.scales.scales();
        Ok(HogSvmDetector {
            config,
            svm,
            scale_levels,
        })
    }

    /// Builds a detector around an already-trained SVM whose weight vector
    /// has the window-descriptor dimension implied by `config.hog`. Used by
    /// the equivalence battery to probe random weight vectors without
    /// paying for training.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidArgument`] if the HOG layout cannot
    /// tile the detection window or the weight dimension mismatches.
    pub fn from_svm(config: HogDetectorConfig, svm: LinearSvm) -> Result<HogSvmDetector> {
        let b = config.hog.block_cells;
        let cell = config.hog.cell_size;
        if cell == 0 || b == 0 {
            return Err(DetectError::InvalidArgument(
                "hog cell/block size must be positive".into(),
            ));
        }
        let (cells_w, cells_h) = (WINDOW_W / cell, WINDOW_H / cell);
        if cells_w < b || cells_h < b {
            return Err(DetectError::InvalidArgument(format!(
                "window of {cells_w}×{cells_h} cells cannot hold a {b}-cell block"
            )));
        }
        let dim = (cells_w - b + 1) * (cells_h - b + 1) * b * b * config.hog.bins;
        if svm.weights().len() != dim {
            return Err(DetectError::InvalidArgument(format!(
                "hog svm weight dim {} != {dim}",
                svm.weights().len()
            )));
        }
        let scale_levels = config.scales.scales();
        Ok(HogSvmDetector {
            config,
            svm,
            scale_levels,
        })
    }

    /// The trained SVM (for inspection/calibration).
    pub fn svm(&self) -> &LinearSvm {
        &self.svm
    }

    /// The pre-optimization detection loop, kept verbatim (fresh cache,
    /// per-window descriptor assembly, allocating NMS) as the equivalence
    /// oracle for `detect`: same detections, same scores, same `ops`.
    pub fn detect_reference(&self, frame: &RgbImage) -> DetectionOutput {
        let cache = FrameFeatures::new(frame);
        let cell = self.config.hog.cell_size;
        let cells_w = WINDOW_W / cell;
        let cells_h = WINDOW_H / cell;
        let mut ops = (frame.width() * frame.height()) as u64;
        let mut candidates = Vec::new();

        for scale in ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height()) {
            let (sw, sh) = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
            if cache.resized_gray(sw, sh).is_err() {
                continue;
            }
            ops += (sw * sh) as u64 * 3;
            let Ok(grid) = cache.hog_grid(sw, sh, self.config.hog) else {
                continue;
            };
            if grid.cells_x() < cells_w || grid.cells_y() < cells_h {
                continue;
            }
            let stride = self.config.stride_cells.max(1);
            let mut cy0 = 0;
            while cy0 + cells_h <= grid.cells_y() {
                let mut cx0 = 0;
                while cx0 + cells_w <= grid.cells_x() {
                    if let Ok(desc) = grid.window_descriptor(cx0, cy0, cells_w, cells_h) {
                        ops += desc.len() as u64;
                        let score = self.svm.score(&desc);
                        if score >= self.config.keep_floor {
                            let x0 = (cx0 * cell) as f64 / scale;
                            let y0 = (cy0 * cell) as f64 / scale;
                            candidates.push(Detection {
                                bbox: BBox::new(
                                    x0,
                                    y0,
                                    x0 + WINDOW_W as f64 / scale,
                                    y0 + WINDOW_H as f64 / scale,
                                ),
                                score,
                            });
                        }
                    }
                    cx0 += stride;
                }
                cy0 += stride;
            }
        }

        DetectionOutput {
            detections: non_maximum_suppression(candidates, self.config.nms_iou),
            ops,
        }
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &HogDetectorConfig {
        &self.config
    }
}

/// Extracts window descriptors and labels for training.
pub(crate) fn descriptor_examples(
    windows: &TrainingWindows,
    hog: HogConfig,
) -> Result<Vec<Example>> {
    let mut examples = Vec::with_capacity(windows.positives.len() + windows.negatives.len());
    for (imgs, label) in [(&windows.positives, 1.0), (&windows.negatives, -1.0)] {
        for img in imgs.iter() {
            let desc = HogDescriptor::compute(&img.to_gray(), hog)
                .map_err(|e| DetectError::Training(format!("hog descriptor: {e}")))?;
            examples.push(Example {
                features: desc,
                label,
            });
        }
    }
    Ok(examples)
}

impl Detector for HogSvmDetector {
    fn algorithm(&self) -> AlgorithmId {
        AlgorithmId::Hog
    }

    fn detect(&self, frame: &RgbImage) -> DetectionOutput {
        self.detect_with_cache(frame, &FrameFeatures::new(frame))
    }

    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput {
        let cell = self.config.hog.cell_size;
        let cells_w = WINDOW_W / cell;
        let cells_h = WINDOW_H / cell;
        let mut ops = (frame.width() * frame.height()) as u64; // grayscale
        let mut candidates = Vec::new();
        let stride = self.config.stride_cells.max(1);

        cache.with_scratch(|scratch| {
            for scale in
                ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height())
            {
                let (sw, sh) = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
                // The cache stages mirror the direct resize-then-grid
                // computation so the ops increment lands between the same
                // failure points as before.
                if cache.resized_gray(sw, sh).is_err() {
                    continue;
                }
                ops += (sw * sh) as u64 * 3; // resize + gradient + cell binning
                let Ok(grid) = cache.hog_grid(sw, sh, self.config.hog) else {
                    continue;
                };
                if grid.cells_x() < cells_w || grid.cells_y() < cells_h {
                    continue;
                }
                // Blocks are normalized once per level; each window row
                // then scores as running dots over its blocks — same
                // values, same order as assembling each descriptor, so
                // scores are bit-identical.
                let Ok(blocks) = cache.hog_blocks(sw, sh, self.config.hog) else {
                    continue;
                };
                let Some(win_len) = blocks.window_len(cells_w, cells_h) else {
                    // Window smaller than one block: the reference path
                    // would fail every `window_descriptor` call and emit
                    // nothing.
                    continue;
                };
                let mut cy0 = 0;
                while cy0 + cells_h <= grid.cells_y() {
                    let row = &mut scratch.row_scores;
                    blocks.score_row_into(cy0, cells_w, cells_h, stride, self.svm.weights(), row);
                    for (k, &dot) in row.iter().enumerate() {
                        ops += win_len as u64;
                        // `LinearSvm::score` is `dot + bias`; `dot` is
                        // bit-identical by construction, so adding the bias
                        // reproduces the reference score exactly.
                        let score = dot + self.svm.bias();
                        if score >= self.config.keep_floor {
                            let x0 = (k * stride * cell) as f64 / scale;
                            let y0 = (cy0 * cell) as f64 / scale;
                            candidates.push(Detection {
                                bbox: BBox::new(
                                    x0,
                                    y0,
                                    x0 + WINDOW_W as f64 / scale,
                                    y0 + WINDOW_H as f64 / scale,
                                ),
                                score,
                            });
                        }
                    }
                    cy0 += stride;
                }
            }
        });

        nms_in_place(&mut candidates, self.config.nms_iou);
        DetectionOutput {
            detections: candidates,
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_vision::draw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> HogDetectorConfig {
        HogDetectorConfig {
            training: TrainingConfig {
                positives: 80,
                negatives: 120,
                regime: NegativeRegime::Clean,
                seed: 1,
            },
            svm: SvmConfig {
                epochs: 20,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn scene_with_person(px: f64, py: f64, h: f64) -> RgbImage {
        let mut img = RgbImage::new(160, 120);
        draw::vertical_gradient(&mut img, [0.6, 0.6, 0.58], [0.35, 0.35, 0.33]);
        let w = h / 3.0;
        draw::draw_human(
            &mut img,
            px - w / 2.0,
            py - h,
            px + w / 2.0,
            py,
            [0.2, 0.3, 0.8],
            [0.85, 0.65, 0.5],
        );
        let mut rng = StdRng::seed_from_u64(3);
        draw::add_noise(&mut img, 0.02, &mut rng);
        img
    }

    #[test]
    fn detects_a_person() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        let img = scene_with_person(80.0, 100.0, 60.0);
        let out = det.detect(&img);
        assert!(!out.detections.is_empty(), "no detections at all");
        let best = &out.detections[0];
        let (cx, _) = best.bbox.center();
        assert!(
            (cx - 80.0).abs() < 15.0,
            "best detection at x={cx}, expected ~80: {best:?}"
        );
    }

    #[test]
    fn empty_scene_scores_below_person_scene() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        let mut empty = RgbImage::new(160, 120);
        draw::vertical_gradient(&mut empty, [0.6, 0.6, 0.58], [0.35, 0.35, 0.33]);
        let person = scene_with_person(80.0, 100.0, 60.0);
        let top = |o: &DetectionOutput| o.detections.first().map(|d| d.score).unwrap_or(-10.0);
        let e = det.detect(&empty);
        let p = det.detect(&person);
        assert!(top(&p) > top(&e), "person {} vs empty {}", top(&p), top(&e));
    }

    #[test]
    fn ops_scale_with_resolution() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        let small = RgbImage::new(80, 60);
        let large = RgbImage::new(320, 240);
        let o_small = det.detect(&small).ops;
        let o_large = det.detect(&large).ops;
        assert!(
            o_large > o_small * 8,
            "ops should grow ~quadratically: {o_small} vs {o_large}"
        );
    }

    #[test]
    fn detect_matches_reference_bitwise() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        for frame in [
            scene_with_person(80.0, 100.0, 60.0),
            scene_with_person(40.0, 70.0, 35.0),
        ] {
            let got = det.detect(&frame);
            let want = det.detect_reference(&frame);
            assert_eq!(got.ops, want.ops);
            assert_eq!(got.detections.len(), want.detections.len());
            for (a, b) in got.detections.iter().zip(&want.detections) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.bbox, b.bbox);
            }
        }
    }

    #[test]
    fn from_svm_rejects_bad_dimension() {
        let err =
            HogSvmDetector::from_svm(quick_config(), LinearSvm::from_parts(vec![0.0; 3], 0.0));
        assert!(matches!(err, Err(DetectError::InvalidArgument(_))));
    }

    #[test]
    fn detection_is_deterministic() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        let img = scene_with_person(60.0, 90.0, 50.0);
        assert_eq!(det.detect(&img), det.detect(&img));
    }

    #[test]
    fn algorithm_id() {
        let det = HogSvmDetector::train(quick_config()).unwrap();
        assert_eq!(det.algorithm(), AlgorithmId::Hog);
    }
}
