//! The C4 contour-cue detector (Wu, Geyer & Rehg, \[6\] in the paper).
//!
//! C4 classifies windows from CENTRIST-style census-transform histograms —
//! pure contour information, no gradient magnitudes — after resizing the
//! input to a **fixed internal resolution**. The fixed internal resolution
//! is what Tables II/III show: C4 costs 4.92 J at 360×288 and only 5.56 J at
//! 1024×768 (a 9.5× pixel increase), because only the initial resize sees
//! the full-resolution frame.

use crate::detection::{AlgorithmId, BBox, Detection, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::kernels::{CensusCodePlane, DetectScratch};
use crate::nms::{nms_in_place, non_maximum_suppression};
use crate::pyramid::{ScaleSchedule, WINDOW_H, WINDOW_W};
use crate::training::{fit_svm, synthesize, NegativeRegime, TrainingConfig};
use crate::{DetectError, Detector, Result};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::{resize_gray, resize_gray_into};

/// Census histogram bins (8-neighbor census → 256 codes).
pub const CENSUS_BINS: usize = 256;

/// Horizontal tiles over the window: 4 × 6 tiles (evenly dividing 16×48,
/// so each tile covers exactly 4×8 pixels).
pub const TILES_X: usize = 4;
/// Vertical tiles over the window.
pub const TILES_Y: usize = 6;
/// Length of the tiled census feature vector (the SVM weight dimension).
pub const C4_FEATURE_DIM: usize = TILES_X * TILES_Y * CENSUS_BINS;
/// Pixels per tile (used by the direct scoring fast path).
const TILE_PIXELS: f64 = ((WINDOW_W / TILES_X) * (WINDOW_H / TILES_Y)) as f64;

/// Rows accumulated before the early-reject bound is first consulted: the
/// head rows alone rarely decide a window, so checking earlier only adds
/// branch overhead.
const CASCADE_WARMUP_ROWS: usize = 4;

/// Window stride of the scan, in internal pixels, on both axes.
pub const C4_STRIDE: usize = 2;
/// Pixels per tile row (each tile is `TILE_W` codes wide).
const TILE_W: usize = WINDOW_W / TILES_X;
/// Adjacent windows of a row the scan scores together in one pass.
const GROUP: usize = 4;
/// Codes one window row of a group spans: the group's windows start
/// `C4_STRIDE` apart, so every lookup sits at a compile-time offset.
const GROUP_SPAN: usize = WINDOW_W + (GROUP - 1) * C4_STRIDE;

/// C4 detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct C4DetectorConfig {
    /// Fixed internal processing width.
    pub internal_w: usize,
    /// Fixed internal processing height.
    pub internal_h: usize,
    /// Scales applied to the internal image (windows step
    /// [`C4_STRIDE`] internal pixels on every level).
    pub scales: ScaleSchedule,
    /// Candidates below this raw score are dropped before NMS.
    pub keep_floor: f64,
    /// NMS IoU threshold.
    pub nms_iou: f64,
    /// SVM hyper-parameters.
    pub svm: SvmConfig,
    /// Training-set synthesis.
    pub training: TrainingConfig,
    /// Hard-negative mining rounds: after the initial fit, extra negative
    /// windows are synthesized, the ones the current model mis-scores are
    /// added to the training set, and the SVM is refit (the bootstrapping
    /// step of the original C4/INRIA training protocols). `0` disables.
    pub hard_negative_rounds: usize,
    /// Candidate negatives synthesized per mining round.
    pub hard_negative_pool: usize,
}

impl Default for C4DetectorConfig {
    fn default() -> Self {
        C4DetectorConfig {
            internal_w: 320,
            internal_h: 240,
            scales: ScaleSchedule {
                min_scale: 0.3,
                max_scale: 1.35,
                ratio: 1.25,
            },
            keep_floor: -0.3,
            nms_iou: 0.35,
            svm: SvmConfig {
                lambda: 1e-4,
                epochs: 40,
                seed: 41,
            },
            training: TrainingConfig {
                positives: 300,
                negatives: 500,
                regime: NegativeRegime::WithClutter,
                seed: 51,
            },
            hard_negative_rounds: 2,
            hard_negative_pool: 600,
        }
    }
}

/// A trained C4 detector.
#[derive(Debug, Clone)]
pub struct C4Detector {
    config: C4DetectorConfig,
    svm: LinearSvm,
    /// The enumerated scale schedule, cached at training time so `detect`
    /// only filters it per frame instead of re-deriving it.
    scale_levels: Vec<f64>,
    /// Precomputed scan tables derived from the trained SVM.
    scan: C4ScanTables,
}

/// Precomputed tables for the sliding-window scan.
///
/// Hoists the per-pixel tile-index divisions of the reference scorer into
/// per-row/per-column weight offsets, and pairs them with a conservative
/// early-reject bound so the scan can abandon hopeless windows mid-window
/// without ever changing which windows survive or their scores.
#[derive(Debug, Clone)]
struct C4ScanTables {
    /// Weight base offset of window row `y`: `ty(y) · TILES_X · CENSUS_BINS`.
    /// (The column offset needs no table: `TILES_X` divides `WINDOW_W`, so
    /// the scan walks each row in tile-width chunks.)
    row_off: [usize; WINDOW_H],
    /// `remaining[y]` bounds (from above, including float slack) the
    /// contribution rows `y..` can still add to the raw accumulator.
    remaining: [f64; WINDOW_H + 1],
    /// Accumulator-space keep floor: a window whose upper bound stays below
    /// this is provably below `keep_floor` after the `/TILE_PIXELS + bias`
    /// finish, so it can be rejected without finishing the sum.
    acc_floor: f64,
}

impl C4ScanTables {
    fn build(svm: &LinearSvm, config: &C4DetectorConfig) -> C4ScanTables {
        let mut row_off = [0usize; WINDOW_H];
        for (y, off) in row_off.iter_mut().enumerate() {
            *off = (y * TILES_Y / WINDOW_H).min(TILES_Y - 1) * TILES_X * CENSUS_BINS;
        }
        let w = svm.weights();
        let max_abs = w.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        // Per-row ceiling: the best weight any census code could select,
        // summed over the row's columns (each tile column covers
        // WINDOW_W / TILES_X pixels).
        let mut row_max = [0.0f64; WINDOW_H];
        for y in 0..WINDOW_H {
            row_max[y] = (0..TILES_X)
                .map(|tx| {
                    let base = row_off[y] + tx * CENSUS_BINS;
                    let best = w[base..base + CENSUS_BINS]
                        .iter()
                        .fold(f64::NEG_INFINITY, |m, &v| m.max(v));
                    best * (WINDOW_W / TILES_X) as f64
                })
                .sum();
        }
        // Slack absorbing the non-associativity of the running f64 sum: the
        // worst-case drift of an n-term fold is below n²·ε·max|w|; inflate
        // ×4 for headroom. Rejection must only ever be *more* conservative
        // than exact arithmetic.
        let n = (WINDOW_W * WINDOW_H) as f64;
        let slack = 4.0 * n * n * f64::EPSILON * max_abs.max(1.0);
        let mut remaining = [0.0f64; WINDOW_H + 1];
        for y in (0..WINDOW_H).rev() {
            remaining[y] = remaining[y + 1] + row_max[y];
        }
        for r in remaining.iter_mut() {
            *r += slack;
        }
        // Extra 1e-9 score-space margin dwarfs the rounding of this one
        // product (and of the final /TILE_PIXELS + bias the scan performs).
        let acc_floor = (config.keep_floor - svm.bias() - 1e-9) * TILE_PIXELS;
        C4ScanTables {
            row_off,
            remaining,
            acc_floor,
        }
    }
}

impl C4Detector {
    /// Trains the detector on synthesized windows: one SVM fit over each
    /// window's tiled census histogram, bootstrapped with
    /// `hard_negative_rounds` rounds of hard-negative mining.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Training`] if SVM training fails.
    pub fn train(config: C4DetectorConfig) -> Result<C4Detector> {
        let featurize = |img: &RgbImage, buf: &mut Vec<f64>| {
            let codes = CensusCodePlane::compute(&img.to_gray());
            window_census_histogram_into(&codes, 0, 0, WINDOW_W, WINDOW_H, buf);
            Ok(())
        };
        let examples = synthesize(&config.training).examples(featurize)?;
        let mining = (config.hard_negative_rounds, config.hard_negative_pool);
        let svm = fit_svm(
            "c4",
            examples,
            &config.svm,
            &config.training,
            mining,
            featurize,
        )?;
        Self::from_svm(config, svm)
    }

    /// Builds a detector around an already-trained SVM whose weights have
    /// the tiled-histogram dimension ([`C4_FEATURE_DIM`]). The equivalence
    /// battery uses this to probe arbitrary weight vectors without paying
    /// for training.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidArgument`] on a dimension mismatch.
    pub fn from_svm(config: C4DetectorConfig, svm: LinearSvm) -> Result<C4Detector> {
        if svm.weights().len() != C4_FEATURE_DIM {
            return Err(DetectError::InvalidArgument(format!(
                "c4 svm weight dim {} != {C4_FEATURE_DIM}",
                svm.weights().len()
            )));
        }
        let scale_levels = config.scales.scales();
        let scan = C4ScanTables::build(&svm, &config);
        Ok(C4Detector {
            config,
            svm,
            scale_levels,
            scan,
        })
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &C4DetectorConfig {
        &self.config
    }

    /// Direct window scoring: equivalent to building the tiled census
    /// histogram and applying the linear SVM, in one pass over the window
    /// pixels.
    ///
    /// This is the pre-optimization scorer, kept verbatim as the oracle for
    /// [`C4Detector::scan_window`]: the optimized scan must reproduce its
    /// result bit for bit on every accepted window.
    pub fn score_window_reference(&self, census: &GrayImage, x0: usize, y0: usize) -> f64 {
        let w = self.svm.weights();
        let mut acc = 0.0;
        for y in 0..WINDOW_H {
            let ty = (y * TILES_Y / WINDOW_H).min(TILES_Y - 1);
            for x in 0..WINDOW_W {
                let tx = (x * TILES_X / WINDOW_W).min(TILES_X - 1);
                let code = (census.get(x0 + x, y0 + y) as usize).min(CENSUS_BINS - 1);
                acc += w[(ty * TILES_X + tx) * CENSUS_BINS + code];
            }
        }
        acc / TILE_PIXELS + self.svm.bias()
    }

    /// Optimized window scoring over a precomputed code plane, with early
    /// rejection.
    ///
    /// Accumulates weights in exactly the reference order (row-major over
    /// the window), so a returned score is bit-identical to
    /// [`C4Detector::score_window_reference`]. Between rows it compares the
    /// partial sum plus the precomputed conservative remainder bound
    /// against the keep floor; `None` means the bound *proved* the final
    /// score falls below `keep_floor`, i.e. the reference path would have
    /// discarded this window anyway.
    #[inline]
    pub fn scan_window(&self, codes: &CensusCodePlane, x0: usize, y0: usize) -> Option<f64> {
        let w = self.svm.weights();
        let t = &self.scan;
        let mut acc = 0.0f64;
        for y in 0..WINDOW_H {
            let base = t.row_off[y];
            let wrow = &w[base..base + TILES_X * CENSUS_BINS];
            let row = codes.row(x0, y0 + y, WINDOW_W);
            // TILES_X divides WINDOW_W, so walking the row in
            // (WINDOW_W / TILES_X)-wide chunks visits the same weight per
            // pixel as `col_off` (tile tx = chunk index) while letting the
            // `code < CENSUS_BINS` range of `u8` elide the bounds check on
            // the 256-entry tile slice. Accumulation order is unchanged
            // (columns left to right).
            for (tx, chunk) in row.chunks_exact(TILE_W).enumerate() {
                let wtile = &wrow[tx * CENSUS_BINS..(tx + 1) * CENSUS_BINS];
                for &code in chunk {
                    acc += wtile[code as usize];
                }
            }
            let next = y + 1;
            if (CASCADE_WARMUP_ROWS..WINDOW_H).contains(&next)
                && acc + t.remaining[next] < t.acc_floor
            {
                return None;
            }
        }
        Some(acc / TILE_PIXELS + self.svm.bias())
    }

    /// [`C4Detector::scan_window`] for the `GROUP` windows starting at
    /// `x0, x0 + C4_STRIDE, …` of one row, scored together.
    ///
    /// Each window keeps its own accumulator and adds its weights in
    /// exactly `scan_window`'s order; the windows only share the pass over
    /// the rows, so their independent sums overlap in the pipeline instead
    /// of waiting on one another. A window is rejected by the same bound
    /// at the same row as `scan_window` would reject it, and the group
    /// stops once every window is rejected. Element `k` equals
    /// `scan_window(codes, x0 + k · C4_STRIDE, y0)`.
    #[inline]
    fn scan_group(&self, codes: &CensusCodePlane, x0: usize, y0: usize) -> [Option<f64>; GROUP] {
        let w = self.svm.weights();
        let t = &self.scan;
        let mut acc = [0.0f64; GROUP];
        let mut live = [true; GROUP];
        for y in 0..WINDOW_H {
            let base = t.row_off[y];
            let wrow = &w[base..base + TILES_X * CENSUS_BINS];
            let span: &[u8; GROUP_SPAN] = codes
                .row(x0, y0 + y, GROUP_SPAN)
                .try_into()
                .expect("span is GROUP_SPAN long");
            for (tx, wtile) in wrow.chunks_exact(CENSUS_BINS).enumerate() {
                let wtile: &[f64; CENSUS_BINS] =
                    wtile.try_into().expect("tile is CENSUS_BINS long");
                for x in tx * TILE_W..(tx + 1) * TILE_W {
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a += wtile[span[x + k * C4_STRIDE] as usize];
                    }
                }
            }
            let next = y + 1;
            if (CASCADE_WARMUP_ROWS..WINDOW_H).contains(&next) {
                for (l, &a) in live.iter_mut().zip(&acc) {
                    if a + t.remaining[next] < t.acc_floor {
                        *l = false;
                    }
                }
                if live == [false; GROUP] {
                    return [None; GROUP];
                }
            }
        }
        std::array::from_fn(|k| live[k].then(|| acc[k] / TILE_PIXELS + self.svm.bias()))
    }

    /// Walks every window of a code level at [`C4_STRIDE`], row-major and
    /// left to right, calling `visit(x0, y0, scan_window(codes, x0, y0))`.
    /// Each row is scored `GROUP` windows per pass; the fewer than `GROUP`
    /// windows left at its end go through `scan_window` one by one.
    fn scan_level(
        &self,
        codes: &CensusCodePlane,
        mut visit: impl FnMut(usize, usize, Option<f64>),
    ) {
        let (sw, sh) = (codes.width(), codes.height());
        if sw < WINDOW_W || sh < WINDOW_H {
            return;
        }
        let per_row = (sw - WINDOW_W) / C4_STRIDE + 1;
        let grouped = per_row - per_row % GROUP;
        for y0 in (0..=sh - WINDOW_H).step_by(C4_STRIDE) {
            for first in (0..grouped).step_by(GROUP) {
                let x0 = first * C4_STRIDE;
                for (k, score) in self.scan_group(codes, x0, y0).into_iter().enumerate() {
                    visit(x0 + k * C4_STRIDE, y0, score);
                }
            }
            for i in grouped..per_row {
                let x0 = i * C4_STRIDE;
                visit(x0, y0, self.scan_window(codes, x0, y0));
            }
        }
    }

    /// Resizes `gray` (the frame's, `frame_px` pixels) to the internal
    /// resolution, then builds and scans each level in turn into
    /// `scratch`, calling `visit(scale, x0, y0, scan_window(..))` for
    /// every window as [`C4Detector::scan_level`] walks it. Returns the
    /// modeled `ops`: the full-resolution resize, each level's resize and
    /// census transform, and the full window for every window visited —
    /// early rejection is a host-simulation speedup, not a change to the
    /// camera's energy model.
    fn scan_frame(
        &self,
        frame_px: usize,
        gray: &GrayImage,
        scratch: &mut DetectScratch,
        mut visit: impl FnMut(f64, usize, usize, Option<f64>),
    ) -> u64 {
        let (iw, ih) = (self.config.internal_w, self.config.internal_h);
        // Resize to the fixed internal resolution: the only step whose cost
        // depends on the input resolution.
        let mut ops = frame_px as u64 * 2;
        if resize_gray_into(gray, iw, ih, &mut scratch.internal).is_err() {
            return ops;
        }
        for scale in ScaleSchedule::usable_from(&self.scale_levels, iw, ih) {
            let (sw, sh) = ScaleSchedule::level_dims(scale, iw, ih);
            // A level is resized *through* the internal image, which is
            // not the same image as a direct resize; the failure point
            // (this second resize) precedes the ops increment exactly as
            // in the reference.
            if resize_gray_into(&scratch.internal, sw, sh, &mut scratch.level).is_err() {
                continue;
            }
            scratch.codes.compute_into(&scratch.level);
            ops += (sw * sh) as u64 * 9; // resize + 8-comparison census
            self.scan_level(&scratch.codes, |x0, y0, score| {
                ops += (WINDOW_W * WINDOW_H) as u64;
                visit(scale, x0, y0, score);
            });
        }
        ops
    }

    /// The pre-optimization detection loop, kept verbatim (levels computed
    /// directly, reference scorer, allocating NMS) as the equivalence
    /// oracle for `detect`: same detections, same scores, same `ops`.
    pub fn detect_reference(&self, frame: &RgbImage) -> DetectionOutput {
        let (iw, ih) = (self.config.internal_w, self.config.internal_h);
        let mut ops = (frame.width() * frame.height()) as u64 * 2;
        let Ok(internal) = resize_gray(&frame.to_gray(), iw, ih) else {
            return DetectionOutput {
                detections: Vec::new(),
                ops,
            };
        };
        let fx = frame.width() as f64 / iw as f64;
        let fy = frame.height() as f64 / ih as f64;

        let mut candidates = Vec::new();
        for scale in ScaleSchedule::usable_from(&self.scale_levels, iw, ih) {
            let (sw, sh) = ScaleSchedule::level_dims(scale, iw, ih);
            let Ok(level) = resize_gray(&internal, sw, sh) else {
                continue;
            };
            let census = census_transform(&level);
            ops += (sw * sh) as u64 * 9;
            let mut y0 = 0;
            while y0 + WINDOW_H <= sh {
                let mut x0 = 0;
                while x0 + WINDOW_W <= sw {
                    ops += (WINDOW_W * WINDOW_H) as u64;
                    let score = self.score_window_reference(&census, x0, y0);
                    if score >= self.config.keep_floor {
                        let ox0 = x0 as f64 / scale * fx;
                        let oy0 = y0 as f64 / scale * fy;
                        candidates.push(Detection {
                            bbox: BBox::new(
                                ox0,
                                oy0,
                                ox0 + WINDOW_W as f64 / scale * fx,
                                oy0 + WINDOW_H as f64 / scale * fy,
                            ),
                            score,
                        });
                    }
                    x0 += C4_STRIDE;
                }
                y0 += C4_STRIDE;
            }
        }
        DetectionOutput {
            detections: non_maximum_suppression(candidates, self.config.nms_iou),
            ops,
        }
    }

    /// Scans `frame` exactly like `detect` (the same level walk) and
    /// reports `(windows, rejected)`: windows visited and how many the
    /// cascade bound abandoned early. Diagnostic only (the bench layer
    /// records the reject ratio); detection output is unaffected by
    /// rejection.
    pub fn cascade_stats(&self, frame: &RgbImage) -> (u64, u64) {
        let cache = FrameFeatures::new(frame);
        let (mut windows, mut rejected) = (0u64, 0u64);
        let px = frame.width() * frame.height();
        cache.with_scratch(|scratch| {
            self.scan_frame(px, cache.gray(), scratch, |_, _, _, score| {
                windows += 1;
                rejected += u64::from(score.is_none());
            })
        });
        (windows, rejected)
    }
}

/// Comparison margin of the census transform: neighbors must be darker by
/// at least this much to set a bit, which keeps sensor noise on flat
/// regions from producing random codes.
pub const CENSUS_MARGIN: f32 = 0.02;

/// The 8-neighbor census transform: each pixel becomes an 8-bit code of
/// "is my neighbor darker than me (by the noise margin)" comparisons —
/// pure local contour shape.
pub fn census_transform(img: &GrayImage) -> GrayImage {
    let (w, h) = (img.width(), img.height());
    GrayImage::from_fn(w, h, |x, y| {
        let c = img.get(x, y);
        let mut code = 0u32;
        let mut bit = 0;
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let n = img.get_clamped(x as isize + dx as isize, y as isize + dy as isize);
                if n < c - CENSUS_MARGIN {
                    code |= 1 << bit;
                }
                bit += 1;
            }
        }
        code as f32
    })
}

/// The tiled census histogram of a window of a code plane: `TILES_X ×
/// TILES_Y` tiles, each a 256-bin code histogram, L1-normalized per tile.
pub fn window_census_histogram(
    codes: &CensusCodePlane,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
) -> Vec<f64> {
    let mut hist = Vec::new();
    window_census_histogram_into(codes, x0, y0, w, h, &mut hist);
    hist
}

/// [`window_census_histogram`] into a caller-owned buffer: `hist` is
/// cleared and refilled, keeping its capacity, so training/mining loops
/// that score thousands of windows reuse one allocation.
pub fn window_census_histogram_into(
    codes: &CensusCodePlane,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    hist: &mut Vec<f64>,
) {
    hist.clear();
    hist.resize(C4_FEATURE_DIM, 0.0);
    for y in 0..h {
        let ty = (y * TILES_Y / h).min(TILES_Y - 1);
        for x in 0..w {
            let tx = (x * TILES_X / w).min(TILES_X - 1);
            hist[(ty * TILES_X + tx) * CENSUS_BINS + codes.code(x0 + x, y0 + y)] += 1.0;
        }
    }
    // Per-tile L1 normalization.
    for tile in hist.chunks_mut(CENSUS_BINS) {
        let total: f64 = tile.iter().sum();
        if total > 0.0 {
            for v in tile {
                *v /= total;
            }
        }
    }
}

impl Detector for C4Detector {
    fn algorithm(&self) -> AlgorithmId {
        AlgorithmId::C4
    }

    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput {
        // Back-projection factors internal → original pixels.
        let fx = frame.width() as f64 / self.config.internal_w as f64;
        let fy = frame.height() as f64 / self.config.internal_h as f64;
        let mut candidates = Vec::new();
        let px = frame.width() * frame.height();
        let ops = cache.with_scratch(|scratch| {
            self.scan_frame(px, cache.gray(), scratch, |scale, x0, y0, score| {
                // Direct scoring: because the census histogram is a
                // (normalized) count vector, w·h(x) folds into one weight
                // lookup per window pixel.
                let Some(score) = score.filter(|&s| s >= self.config.keep_floor) else {
                    return;
                };
                let ox0 = x0 as f64 / scale * fx;
                let oy0 = y0 as f64 / scale * fy;
                candidates.push(Detection {
                    bbox: BBox::new(
                        ox0,
                        oy0,
                        ox0 + WINDOW_W as f64 / scale * fx,
                        oy0 + WINDOW_H as f64 / scale * fy,
                    ),
                    score,
                });
            })
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

    fn quick_config() -> C4DetectorConfig {
        C4DetectorConfig {
            internal_w: 160,
            internal_h: 120,
            training: TrainingConfig {
                positives: 80,
                negatives: 120,
                regime: NegativeRegime::Clean,
                seed: 4,
            },
            svm: SvmConfig {
                epochs: 25,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn scene_with_person(w: usize, h: usize, px: f64, py: f64, ph: f64) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        draw::vertical_gradient(&mut img, [0.6, 0.6, 0.58], [0.35, 0.35, 0.33]);
        let pw = ph / 3.0;
        draw::draw_human(
            &mut img,
            px - pw / 2.0,
            py - ph,
            px + pw / 2.0,
            py,
            [0.3, 0.7, 0.3],
            [0.85, 0.65, 0.5],
        );
        let mut rng = StdRng::seed_from_u64(9);
        draw::add_noise(&mut img, 0.02, &mut rng);
        img
    }

    #[test]
    fn census_code_range() {
        let img = GrayImage::from_fn(8, 8, |x, y| ((x * 5 + y * 3) % 7) as f32 / 7.0);
        let c = census_transform(&img);
        for &v in c.as_slice() {
            assert!((0.0..256.0).contains(&v));
        }
    }

    #[test]
    fn census_flat_image_is_zero() {
        let img = GrayImage::filled(8, 8, 0.5);
        let c = census_transform(&img);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn census_is_illumination_invariant() {
        // Census compares neighbors, so a global gain leaves codes intact.
        let a = GrayImage::from_fn(10, 10, |x, y| ((x * y) % 5) as f32 / 10.0);
        let b = GrayImage::from_fn(10, 10, |x, y| ((x * y) % 5) as f32 / 20.0);
        assert_eq!(census_transform(&a), census_transform(&b));
    }

    #[test]
    fn histogram_tiles_normalized() {
        let img = GrayImage::from_fn(32, 64, |x, y| ((x + y) % 9) as f32 / 9.0);
        let codes = CensusCodePlane::compute(&img);
        let h = window_census_histogram(&codes, 0, 0, 32, 64);
        assert_eq!(h.len(), TILES_X * TILES_Y * CENSUS_BINS);
        for tile in h.chunks(CENSUS_BINS) {
            let sum: f64 = tile.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn detects_a_person() {
        let det = C4Detector::train(quick_config()).unwrap();
        let img = scene_with_person(160, 120, 80.0, 105.0, 60.0);
        let out = det.detect(&img);
        assert!(!out.detections.is_empty());
        let (cx, _) = out.detections[0].bbox.center();
        assert!((cx - 80.0).abs() < 25.0, "best at x={cx}");
    }

    #[test]
    fn cost_nearly_resolution_independent() {
        let det = C4Detector::train(quick_config()).unwrap();
        let small = scene_with_person(160, 120, 80.0, 100.0, 60.0);
        let large = scene_with_person(640, 480, 320.0, 400.0, 240.0);
        let o_small = det.detect(&small).ops;
        let o_large = det.detect(&large).ops;
        // A 16× pixel increase should cost well under 2× (only the initial
        // resize scales).
        assert!(
            o_large < o_small * 2,
            "C4 cost should be ~flat: {o_small} vs {o_large}"
        );
    }

    #[test]
    fn algorithm_id() {
        let det = C4Detector::train(quick_config()).unwrap();
        assert_eq!(det.algorithm(), AlgorithmId::C4);
    }

    #[test]
    fn from_svm_rejects_bad_dimension() {
        let err = C4Detector::from_svm(quick_config(), LinearSvm::from_parts(vec![0.0; 7], 0.1));
        assert!(matches!(err, Err(DetectError::InvalidArgument(_))));
    }

    #[test]
    fn histogram_into_matches_owned() {
        let img = GrayImage::from_fn(24, 56, |x, y| ((x * 3 + y) % 11) as f32 / 11.0);
        let codes = CensusCodePlane::compute(&img);
        let want = window_census_histogram(&codes, 4, 2, WINDOW_W, WINDOW_H);
        let mut buf = vec![9.0; 3]; // stale contents must be ignored
        window_census_histogram_into(&codes, 4, 2, WINDOW_W, WINDOW_H, &mut buf);
        assert_eq!(want.len(), buf.len());
        for (a, b) in want.iter().zip(&buf) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Random-weight detector over a textured level: every accepted window
    /// must score bit-identically to the reference scorer, and every
    /// rejected window must truly fall below the keep floor.
    #[test]
    fn scan_window_bit_identical_and_sound() {
        use crate::kernels::CensusCodePlane;
        let mut rng = StdRng::seed_from_u64(77);
        use rand::RngExt;
        let weights: Vec<f64> = (0..C4_FEATURE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let det =
            C4Detector::from_svm(quick_config(), LinearSvm::from_parts(weights, 0.05)).unwrap();
        let img = GrayImage::from_fn(80, 90, |x, y| ((x * 7 + y * 13) % 23) as f32 / 23.0);
        let census = census_transform(&img);
        let codes = CensusCodePlane::from_census(&census);
        let (mut accepted, mut rejected) = (0, 0);
        for y0 in (0..=90 - WINDOW_H).step_by(3) {
            for x0 in (0..=80 - WINDOW_W).step_by(3) {
                let want = det.score_window_reference(&census, x0, y0);
                match det.scan_window(&codes, x0, y0) {
                    Some(got) => {
                        assert_eq!(got.to_bits(), want.to_bits(), "at ({x0},{y0})");
                        accepted += 1;
                    }
                    None => {
                        assert!(
                            want < det.config.keep_floor,
                            "unsound reject at ({x0},{y0}): {want}"
                        );
                        rejected += 1;
                    }
                }
            }
        }
        assert!(accepted + rejected > 0);
    }

    /// Each lane of a group equals its window scored alone, accepted or
    /// rejected, under floors that keep every window, some, or none.
    #[test]
    fn scan_group_lanes_equal_scan_window() {
        let mut rng = StdRng::seed_from_u64(78);
        use rand::RngExt;
        let weights: Vec<f64> = (0..C4_FEATURE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let img = GrayImage::from_fn(60, 70, |_, _| rng.random_range(0.0..1.0f32));
        let codes = CensusCodePlane::compute(&img);
        for keep_floor in [-50.0, 0.0, 0.3, 50.0] {
            let config = C4DetectorConfig {
                keep_floor,
                ..quick_config()
            };
            let svm = LinearSvm::from_parts(weights.clone(), 0.05);
            let det = C4Detector::from_svm(config, svm).unwrap();
            for y0 in (0..=70 - WINDOW_H).step_by(5) {
                for x0 in 0..=60 - GROUP_SPAN {
                    for (k, got) in det.scan_group(&codes, x0, y0).into_iter().enumerate() {
                        let want = det.scan_window(&codes, x0 + k * C4_STRIDE, y0);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "lane {k} of ({x0},{y0}) at floor {keep_floor}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detect_matches_reference_bitwise() {
        let det = C4Detector::train(quick_config()).unwrap();
        for frame in [
            scene_with_person(160, 120, 80.0, 105.0, 60.0),
            scene_with_person(200, 150, 50.0, 120.0, 80.0),
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
    fn cascade_rejects_some_windows_on_a_real_model() {
        let det = C4Detector::train(quick_config()).unwrap();
        let frame = scene_with_person(160, 120, 80.0, 105.0, 60.0);
        let (windows, rejected) = det.cascade_stats(&frame);
        assert!(windows > 0);
        // Not an output guarantee — just confirms the bound is tight enough
        // to fire at all on a trained model over a realistic scene.
        assert!(rejected > 0, "cascade never fired over {windows} windows");
    }

    #[test]
    fn hard_negative_mining_reduces_background_scores() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let plain = C4Detector::train(C4DetectorConfig {
            hard_negative_rounds: 0,
            ..quick_config()
        })
        .unwrap();
        let mined = C4Detector::train(C4DetectorConfig {
            hard_negative_rounds: 2,
            hard_negative_pool: 300,
            ..quick_config()
        })
        .unwrap();
        // Score a pool of fresh negatives with both models: mining should
        // lower the mean negative score (fewer near-positives).
        let mut rng = StdRng::seed_from_u64(999);
        let mean = |det: &C4Detector, rng: &mut StdRng| -> f64 {
            let mut total = 0.0;
            for _ in 0..40 {
                let img = crate::training::negative_window(rng, false);
                let codes = CensusCodePlane::compute(&img.to_gray());
                let feat = window_census_histogram(&codes, 0, 0, WINDOW_W, WINDOW_H);
                total += det.svm.score(&feat);
            }
            total / 40.0
        };
        let mut rng2 = StdRng::seed_from_u64(999);
        let plain_mean = mean(&plain, &mut rng);
        let mined_mean = mean(&mined, &mut rng2);
        assert!(
            mined_mean < plain_mean,
            "mining should push negatives down: {mined_mean} vs {plain_mean}"
        );
    }
}
