//! The HOG pedestrian detector (Dalal–Triggs, \[3\] in the paper).
//!
//! A linear SVM over block-normalized HOG descriptors, evaluated over a
//! dense scale pyramid. Trained on *clean* synthetic windows — the analog
//! of OpenCV's INRIA-trained model the paper used — which is precisely why
//! it keeps high precision in clean scenes (Table II) and loses precision
//! against the person-shaped furniture of dataset #2 (Table III).

use crate::detection::{AlgorithmId, Detection, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::kernels::DetectScratch;
use crate::nms::{nms_in_place, non_maximum_suppression};
use crate::pyramid::{ScaleSchedule, WINDOW_H, WINDOW_W};
use crate::training::{fit_svm, synthesize, NegativeRegime, TrainingConfig};
use crate::{DetectError, Detector, Result};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_vision::hog::{HogCellGrid, HogConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::{resize_gray, resize_gray_into};

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
    /// Trains the detector on synthesized windows: one SVM fit over each
    /// window's full HOG descriptor, without mining.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Training`] if descriptor extraction or SVM
    /// training fails.
    pub fn train(config: HogDetectorConfig) -> Result<HogSvmDetector> {
        let hog = config.hog;
        let featurize = |img: &RgbImage, buf: &mut Vec<f64>| {
            HogCellGrid::compute(&img.to_gray(), hog)
                .and_then(|g| g.window_descriptor_into(0, 0, g.cells_x(), g.cells_y(), buf))
                .map_err(|e| DetectError::Training(format!("hog descriptor: {e}")))
        };
        let examples = synthesize(&config.training).examples(featurize)?;
        let svm = fit_svm(
            "hog",
            examples,
            &config.svm,
            &config.training,
            (0, 0),
            featurize,
        )?;
        HogSvmDetector::from_svm(config, svm)
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
        check_hog_filter("hog svm", &svm, config.hog, (WINDOW_W, WINDOW_H))?;
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

    /// The pre-optimization detection loop, kept verbatim (levels
    /// computed directly, per-window descriptor assembly, allocating NMS)
    /// as the equivalence oracle for `detect`: same detections, same
    /// scores, same `ops`.
    pub fn detect_reference(&self, frame: &RgbImage) -> DetectionOutput {
        let gray = frame.to_gray();
        let cell = self.config.hog.cell_size;
        let cells_w = WINDOW_W / cell;
        let cells_h = WINDOW_H / cell;
        let mut ops = (frame.width() * frame.height()) as u64;
        let mut candidates = Vec::new();

        for scale in ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height()) {
            let (sw, sh) = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
            let Ok(level) = resize_gray(&gray, sw, sh) else {
                continue;
            };
            ops += (sw * sh) as u64 * 3;
            let Ok(grid) = HogCellGrid::compute(&level, self.config.hog) else {
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
                            let (x, y) = (cx0 * cell, cy0 * cell);
                            candidates.push(Detection::window(x, y, scale, score));
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

/// Grows `scratch`'s HOG buffers once to hold the largest level of the
/// `frame_w × frame_h` frame among `scales` (ascending, as the scans walk
/// them), so that every level of the scan reuses one allocation per
/// buffer instead of each outgrowing the last.
pub(crate) fn reserve_hog_levels(
    scratch: &mut DetectScratch,
    scales: &[f64],
    (frame_w, frame_h): (usize, usize),
    hog: HogConfig,
) {
    if let Some(top) = ScaleSchedule::usable_from(scales, frame_w, frame_h).last() {
        let (w, h) = ScaleSchedule::level_dims(top, frame_w, frame_h);
        scratch.level.reserve_level(w, h);
        scratch.cells.reserve_level(w, h, hog);
        scratch.blocks.reserve_level(w, h, hog);
    }
}

/// Builds the `sw × sh` level of `gray` into `scratch`: the resized
/// image into `level`, its cells into `cells` and its normalized blocks
/// into `blocks`, overwriting the previous level's. The level's modeled
/// cost (resize, gradient and binning) lands in `ops` once the resize
/// succeeds, between the same failure points as in the reference scans.
///
/// Returns the descriptor length of a `cells_w × cells_h` window, or
/// `None` where the reference scans skip the level: the resize fails, the
/// level holds no cell, or no window fits its grid or a block its window.
/// The HOG and LSVM scans share this walk.
pub(crate) fn hog_level(
    gray: &GrayImage,
    (sw, sh): (usize, usize),
    hog: HogConfig,
    (cells_w, cells_h): (usize, usize),
    scratch: &mut DetectScratch,
    ops: &mut u64,
) -> Option<usize> {
    resize_gray_into(gray, sw, sh, &mut scratch.level).ok()?;
    *ops += (sw * sh) as u64 * 3; // resize + gradient + cell binning
    let cells = &mut scratch.cells;
    cells.compute_into(&scratch.level, hog).ok()?;
    if cells.cells_x() < cells_w || cells.cells_y() < cells_h {
        return None;
    }
    // Blocks are normalized once per level; each window row then scores
    // as running dots over its blocks — same values, same order as
    // assembling each descriptor, so scores are bit-identical.
    scratch.blocks.compute_into(cells);
    scratch.blocks.window_len(cells_w, cells_h)
}

/// Checks that `svm` is a linear filter over the HOG descriptor of a
/// `w × h`-pixel window under `hog`.
///
/// # Errors
///
/// Returns [`DetectError::InvalidArgument`] if the layout cannot tile the
/// window with a block, or the weight dimension mismatches.
pub(crate) fn check_hog_filter(
    what: &str,
    svm: &LinearSvm,
    hog: HogConfig,
    (w, h): (usize, usize),
) -> Result<()> {
    let tiles = hog.cell_size > 0 && hog.block_cells > 0;
    let Some(dim) = tiles.then(|| hog.descriptor_len(w, h)).flatten() else {
        return Err(DetectError::InvalidArgument(format!(
            "{what}: a {w}×{h} window holds no block of {hog:?}"
        )));
    };
    if svm.weights().len() != dim {
        return Err(DetectError::InvalidArgument(format!(
            "{what} weight dim {} != {dim}",
            svm.weights().len()
        )));
    }
    Ok(())
}

impl Detector for HogSvmDetector {
    fn algorithm(&self) -> AlgorithmId {
        AlgorithmId::Hog
    }

    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput {
        let cell = self.config.hog.cell_size;
        let (cells_w, cells_h) = (WINDOW_W / cell, WINDOW_H / cell);
        let mut ops = (frame.width() * frame.height()) as u64; // grayscale
        let mut candidates = Vec::new();
        let stride = self.config.stride_cells.max(1);

        let (gray, hog) = (cache.gray(), self.config.hog);
        let frame_dims = (frame.width(), frame.height());
        cache.with_scratch(|scratch| {
            reserve_hog_levels(scratch, &self.scale_levels, frame_dims, hog);
            for scale in
                ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height())
            {
                let dims = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
                let Some(win_len) =
                    hog_level(gray, dims, hog, (cells_w, cells_h), scratch, &mut ops)
                else {
                    continue;
                };
                let (blocks, row) = (&scratch.blocks, &mut scratch.row_scores);
                for cy0 in (0..=scratch.cells.cells_y() - cells_h).step_by(stride) {
                    blocks.score_row_into(cy0, cells_w, cells_h, stride, self.svm.weights(), row);
                    for (k, &dot) in row.iter().enumerate() {
                        ops += win_len as u64;
                        // `LinearSvm::score` is `dot + bias`; `dot` is
                        // bit-identical by construction, so adding the bias
                        // reproduces the reference score exactly.
                        let score = dot + self.svm.bias();
                        if score >= self.config.keep_floor {
                            let (x, y) = (k * stride * cell, cy0 * cell);
                            candidates.push(Detection::window(x, y, scale, score));
                        }
                    }
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
