//! The LSVM deformable-part-model detector (Felzenszwalb et al., \[5\]).
//!
//! A root HOG filter plus four part filters (head, shoulders, hips, legs)
//! with quadratic deformation costs and displacement search — the
//! "discriminatively trained part based models" the paper installs on each
//! phone. The part search is why LSVM is both the most accurate algorithm
//! in Tables II–IV **and** the most expensive (6.2 s/frame on the phones):
//! every window that passes the root gate pays `parts × displacements`
//! extra filter evaluations.

use crate::detection::{AlgorithmId, Detection, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::hog_detector::{check_hog_filter, hog_level, reserve_hog_levels};
use crate::nms::{nms_in_place, non_maximum_suppression};
use crate::pyramid::{ScaleSchedule, WINDOW_H, WINDOW_W};
use crate::training::{fit_svm, synthesize, NegativeRegime, TrainingConfig};
use crate::{DetectError, Detector, Result};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_vision::hog::{HogBlockGrid, HogCellGrid, HogConfig};
use eecs_vision::image::RgbImage;
use eecs_vision::resize::resize_gray;

/// A part filter: an anchor (in cells, relative to the window origin) and a
/// linear filter over a 2×2-cell HOG sub-descriptor.
#[derive(Debug, Clone)]
struct Part {
    anchor_cx: usize,
    anchor_cy: usize,
    svm: LinearSvm,
}

/// Part size in cells (2×2 cells = one HOG block).
const PART_CELLS: usize = 2;
/// Displacement search radius in cells.
const DISP: isize = 1;

/// The part anchors on the window's cell grid, in training order: head,
/// left shoulder/arm, right shoulder/arm, legs (on the default 4×12-cell
/// window).
///
/// # Errors
///
/// Returns [`DetectError::InvalidArgument`] if a part does not fit inside
/// the window.
fn part_anchors(hog: HogConfig) -> Result<[(usize, usize); 4]> {
    if hog.cell_size == 0 || WINDOW_W / hog.cell_size < PART_CELLS {
        return Err(DetectError::InvalidArgument(format!(
            "a {WINDOW_W}-pixel window holds no {PART_CELLS}-cell part of {hog:?}"
        )));
    }
    let cells_w = WINDOW_W / hog.cell_size;
    let cells_h = WINDOW_H / hog.cell_size;
    Ok([
        (cells_w / 2 - 1, 0),
        (0, cells_h / 4),
        (cells_w - PART_CELLS, cells_h / 4),
        (cells_w / 2 - 1, cells_h * 2 / 3),
    ])
}

/// LSVM detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LsvmDetectorConfig {
    /// HOG layout shared by root and parts.
    pub hog: HogConfig,
    /// Scale schedule — finer than HOG's for higher recall.
    pub scales: ScaleSchedule,
    /// Window stride in cells.
    pub stride_cells: usize,
    /// Root score gate below which parts are not evaluated.
    pub part_gate: f64,
    /// Quadratic deformation cost weight.
    pub deformation: f64,
    /// Relative weight of the summed part scores.
    pub part_weight: f64,
    /// Candidates below this combined score are dropped before NMS.
    pub keep_floor: f64,
    /// NMS IoU threshold.
    pub nms_iou: f64,
    /// SVM hyper-parameters (root and parts).
    pub svm: SvmConfig,
    /// Training-set synthesis — the robust regime (clean *and* clutter),
    /// which is what makes LSVM accurate across environments.
    pub training: TrainingConfig,
}

impl Default for LsvmDetectorConfig {
    fn default() -> Self {
        LsvmDetectorConfig {
            hog: HogConfig {
                cell_size: 4,
                block_cells: 2,
                bins: 9,
            },
            scales: ScaleSchedule {
                min_scale: 0.08,
                max_scale: 1.45,
                ratio: 1.22,
            },
            stride_cells: 1,
            part_gate: -0.6,
            deformation: 0.25,
            part_weight: 0.35,
            keep_floor: -0.3,
            nms_iou: 0.35,
            svm: SvmConfig {
                lambda: 1e-4,
                epochs: 60,
                seed: 61,
            },
            training: TrainingConfig {
                positives: 400,
                negatives: 600,
                regime: NegativeRegime::WithClutter,
                seed: 71,
            },
        }
    }
}

/// A trained deformable-part-model detector.
#[derive(Debug, Clone)]
pub struct LsvmDetector {
    config: LsvmDetectorConfig,
    root: LinearSvm,
    parts: Vec<Part>,
    /// The enumerated scale schedule, cached at training time so `detect`
    /// only filters it per frame instead of re-deriving it.
    scale_levels: Vec<f64>,
}

impl LsvmDetector {
    /// Trains root and part filters on synthesized windows: one HOG cell
    /// grid per window holds the root and all four part descriptors, and
    /// each filter is one SVM fit without mining.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidArgument`] if the HOG layout cannot
    /// tile the window, or [`DetectError::Training`] if any filter fails to
    /// train.
    pub fn train(config: LsvmDetectorConfig) -> Result<LsvmDetector> {
        let hog = config.hog;
        let anchors = part_anchors(hog)?;
        let grid = |img: &RgbImage| {
            HogCellGrid::compute(&img.to_gray(), hog)
                .map_err(|e| DetectError::Training(format!("lsvm grid: {e}")))
        };
        let grids = synthesize(&config.training).try_map(grid)?;
        let fit = |what: &str, (cx0, cy0): (usize, usize), (w, h): (usize, usize)| {
            let descriptor = move |g: &HogCellGrid, buf: &mut Vec<f64>| {
                g.window_descriptor_into(cx0, cy0, w, h, buf)
                    .map_err(|e| DetectError::Training(format!("{what} descriptor: {e}")))
            };
            fit_svm(
                what,
                grids.examples(descriptor)?,
                &config.svm,
                &config.training,
                (0, 0),
                |img, buf| descriptor(&grid(img)?, buf),
            )
        };
        let cells = (WINDOW_W / hog.cell_size, WINDOW_H / hog.cell_size);
        let root = fit("lsvm root", (0, 0), cells)?;
        let parts = anchors
            .iter()
            .map(|&anchor| fit("lsvm part", anchor, (PART_CELLS, PART_CELLS)))
            .collect::<Result<_>>()?;
        LsvmDetector::from_filters(config, root, parts)
    }

    /// Builds a detector from already-trained filters: `part_filters`
    /// attach to the four anatomical anchors in training order (head, left
    /// shoulder, right shoulder, legs). The equivalence battery uses this
    /// to probe random filter banks without paying for training.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidArgument`] if the HOG layout cannot
    /// tile the window, the part count is not four, or any filter has the
    /// wrong dimension.
    pub fn from_filters(
        config: LsvmDetectorConfig,
        root: LinearSvm,
        part_filters: Vec<LinearSvm>,
    ) -> Result<LsvmDetector> {
        let anchors = part_anchors(config.hog)?;
        check_hog_filter("lsvm root", &root, config.hog, (WINDOW_W, WINDOW_H))?;
        if part_filters.len() != anchors.len() {
            return Err(DetectError::InvalidArgument(format!(
                "expected {} part filters, got {}",
                anchors.len(),
                part_filters.len()
            )));
        }
        let part_px = PART_CELLS * config.hog.cell_size;
        let mut parts = Vec::with_capacity(anchors.len());
        for (&(anchor_cx, anchor_cy), svm) in anchors.iter().zip(part_filters) {
            check_hog_filter("lsvm part", &svm, config.hog, (part_px, part_px))?;
            parts.push(Part {
                anchor_cx,
                anchor_cy,
                svm,
            });
        }
        let scale_levels = config.scales.scales();
        Ok(LsvmDetector {
            config,
            root,
            parts,
            scale_levels,
        })
    }

    /// Number of part filters.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &LsvmDetectorConfig {
        &self.config
    }

    /// Part contribution at a window position: for each part, the best
    /// displaced response minus deformation cost. Returns `(score, ops)`.
    ///
    /// Pre-optimization path, kept verbatim as the oracle for
    /// [`LsvmDetector::part_score_blocks`].
    fn part_score(&self, grid: &HogCellGrid, cx0: usize, cy0: usize) -> (f64, u64) {
        let mut total = 0.0;
        let mut ops = 0u64;
        for part in &self.parts {
            let mut best = f64::NEG_INFINITY;
            for dy in -DISP..=DISP {
                for dx in -DISP..=DISP {
                    let px = cx0 as isize + part.anchor_cx as isize + dx;
                    let py = cy0 as isize + part.anchor_cy as isize + dy;
                    if px < 0 || py < 0 {
                        continue;
                    }
                    let (px, py) = (px as usize, py as usize);
                    let Ok(desc) = grid.window_descriptor(px, py, PART_CELLS, PART_CELLS) else {
                        continue;
                    };
                    ops += desc.len() as u64;
                    let deform = self.config.deformation * (dx * dx + dy * dy) as f64;
                    let s = part.svm.score(&desc) - deform;
                    if s > best {
                        best = s;
                    }
                }
            }
            if best.is_finite() {
                total += best;
            }
        }
        (total / self.parts.len() as f64, ops)
    }

    /// [`LsvmDetector::part_score`] over the precomputed block grid: the
    /// same displacement search without materializing part descriptors.
    /// `part_len` is the part-descriptor length (`window_len` of a
    /// `PART_CELLS × PART_CELLS` window), hoisted out by the caller.
    fn part_score_blocks(
        &self,
        blocks: &HogBlockGrid,
        cx0: usize,
        cy0: usize,
        part_len: u64,
    ) -> (f64, u64) {
        let mut total = 0.0;
        let mut ops = 0u64;
        for part in &self.parts {
            let mut best = f64::NEG_INFINITY;
            for dy in -DISP..=DISP {
                for dx in -DISP..=DISP {
                    let px = cx0 as isize + part.anchor_cx as isize + dx;
                    let py = cy0 as isize + part.anchor_cy as isize + dy;
                    if px < 0 || py < 0 {
                        continue;
                    }
                    let (px, py) = (px as usize, py as usize);
                    let Some(dot) =
                        blocks.window_score(px, py, PART_CELLS, PART_CELLS, part.svm.weights())
                    else {
                        continue;
                    };
                    ops += part_len;
                    let deform = self.config.deformation * (dx * dx + dy * dy) as f64;
                    let s = (dot + part.svm.bias()) - deform;
                    if s > best {
                        best = s;
                    }
                }
            }
            if best.is_finite() {
                total += best;
            }
        }
        (total / self.parts.len() as f64, ops)
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
                        let root_score = self.root.score(&desc);
                        if root_score >= self.config.part_gate {
                            let (parts, part_ops) = self.part_score(&grid, cx0, cy0);
                            ops += part_ops;
                            let score = root_score + self.config.part_weight * parts;
                            if score >= self.config.keep_floor {
                                let (x, y) = (cx0 * cell, cy0 * cell);
                                candidates.push(Detection::window(x, y, scale, score));
                            }
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
}

impl Detector for LsvmDetector {
    fn algorithm(&self) -> AlgorithmId {
        AlgorithmId::Lsvm
    }

    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput {
        let cell = self.config.hog.cell_size;
        let (cells_w, cells_h) = (WINDOW_W / cell, WINDOW_H / cell);
        let mut ops = (frame.width() * frame.height()) as u64;
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
                // Root and parts both score against the level's normalized
                // block grid: same values, same accumulation order as the
                // assembled descriptors, so scores are bit-identical.
                let Some(root_len) =
                    hog_level(gray, dims, hog, (cells_w, cells_h), scratch, &mut ops)
                else {
                    continue;
                };
                let (blocks, row) = (&scratch.blocks, &mut scratch.row_scores);
                let part_len = blocks
                    .window_len(PART_CELLS, PART_CELLS)
                    .unwrap_or_default() as u64;
                for cy0 in (0..=scratch.cells.cells_y() - cells_h).step_by(stride) {
                    blocks.score_row_into(cy0, cells_w, cells_h, stride, self.root.weights(), row);
                    for (k, &dot) in row.iter().enumerate() {
                        let cx0 = k * stride;
                        ops += root_len as u64;
                        let root_score = dot + self.root.bias();
                        // Part cascade: only promising roots pay for parts.
                        if root_score >= self.config.part_gate {
                            let (parts, part_ops) =
                                self.part_score_blocks(blocks, cx0, cy0, part_len);
                            ops += part_ops;
                            let score = root_score + self.config.part_weight * parts;
                            if score >= self.config.keep_floor {
                                let (x, y) = (cx0 * cell, cy0 * cell);
                                candidates.push(Detection::window(x, y, scale, score));
                            }
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

    fn quick_config() -> LsvmDetectorConfig {
        LsvmDetectorConfig {
            training: TrainingConfig {
                positives: 80,
                negatives: 140,
                regime: NegativeRegime::WithClutter,
                seed: 5,
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
            [0.7, 0.6, 0.1],
            [0.85, 0.65, 0.5],
        );
        let mut rng = StdRng::seed_from_u64(11);
        draw::add_noise(&mut img, 0.02, &mut rng);
        img
    }

    #[test]
    fn detects_a_person() {
        let det = LsvmDetector::train(quick_config()).unwrap();
        let img = scene_with_person(80.0, 100.0, 60.0);
        let out = det.detect(&img);
        assert!(!out.detections.is_empty());
        let (cx, _) = out.detections[0].bbox.center();
        assert!((cx - 80.0).abs() < 15.0, "best at x={cx}");
    }

    #[test]
    fn has_four_parts() {
        let det = LsvmDetector::train(quick_config()).unwrap();
        assert_eq!(det.num_parts(), 4);
    }

    #[test]
    fn more_expensive_than_root_only_hog() {
        let lsvm = LsvmDetector::train(quick_config()).unwrap();
        let hog =
            crate::hog_detector::HogSvmDetector::train(crate::hog_detector::HogDetectorConfig {
                training: TrainingConfig {
                    positives: 60,
                    negatives: 90,
                    regime: NegativeRegime::Clean,
                    seed: 6,
                },
                ..Default::default()
            })
            .unwrap();
        let img = scene_with_person(80.0, 100.0, 60.0);
        assert!(
            lsvm.detect(&img).ops > hog.detect(&img).ops,
            "LSVM should out-cost HOG"
        );
    }

    #[test]
    fn part_gate_reduces_cost() {
        let open = LsvmDetector::train(LsvmDetectorConfig {
            part_gate: f64::NEG_INFINITY,
            ..quick_config()
        })
        .unwrap();
        let gated = LsvmDetector::train(quick_config()).unwrap();
        let img = scene_with_person(80.0, 100.0, 60.0);
        assert!(gated.detect(&img).ops < open.detect(&img).ops);
    }

    #[test]
    fn detect_matches_reference_bitwise() {
        let det = LsvmDetector::train(quick_config()).unwrap();
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
    fn from_filters_validates_dimensions() {
        let cfg = quick_config();
        let err = LsvmDetector::from_filters(
            cfg.clone(),
            LinearSvm::from_parts(vec![0.0; 3], 0.0),
            vec![],
        );
        assert!(matches!(err, Err(DetectError::InvalidArgument(_))));
        // Correct root dim (4×12 cells, 2-cell blocks, 9 bins) but missing
        // part filters must still be rejected.
        let root_dim = 3 * 11 * 2 * 2 * 9;
        let err = LsvmDetector::from_filters(
            cfg,
            LinearSvm::from_parts(vec![0.0; root_dim], 0.0),
            vec![LinearSvm::from_parts(vec![0.0; 36], 0.0)],
        );
        assert!(matches!(err, Err(DetectError::InvalidArgument(_))));
        // A 1-cell-wide window has no room for a 2×2-cell part: rejected,
        // where the anchor arithmetic used to underflow.
        let wide_cells = LsvmDetectorConfig {
            hog: HogConfig {
                cell_size: 16,
                block_cells: 1,
                bins: 9,
            },
            ..quick_config()
        };
        let err = LsvmDetector::from_filters(
            wide_cells,
            LinearSvm::from_parts(vec![0.0; 27], 0.0),
            vec![LinearSvm::from_parts(vec![0.0; 9], 0.0); 4],
        );
        assert!(matches!(err, Err(DetectError::InvalidArgument(_))));
    }

    #[test]
    fn algorithm_id_and_determinism() {
        let det = LsvmDetector::train(quick_config()).unwrap();
        assert_eq!(det.algorithm(), AlgorithmId::Lsvm);
        let img = scene_with_person(60.0, 90.0, 50.0);
        assert_eq!(det.detect(&img), det.detect(&img));
    }
}
