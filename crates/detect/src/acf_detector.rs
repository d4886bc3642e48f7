//! The ACF pedestrian detector (Dollár et al., \[4\] in the paper).
//!
//! Aggregated channel features with a soft-cascade boosted classifier.
//! Three structural choices give ACF its paper-visible profile:
//!
//! 1. **Aggregation** — all features are raw lookups into shrink-4 channel
//!    images: the per-window cost is ~100 pixel reads instead of a ~1200-d
//!    normalized descriptor. With the soft cascade rejecting most windows
//!    after a few stumps, ACF is an order of magnitude cheaper per frame
//!    (Tables II–IV: 0.07 J vs 1.08 J).
//! 2. **No upsampling octaves** — scales stop at 0.5 (shrink-4 channels
//!    carry no usable structure below ~96 px), so small people are invisible: the low ACF recall on 360×288
//!    dataset #1 (0.34 in Table II) against its high recall on 1024×768
//!    dataset #2 (0.83 in Table III) where everyone is large.
//! 3. **Clutter-aware training** — its negative set includes furniture
//!    panels, keeping precision high in dataset #2 where HOG collapses.

use crate::detection::{AlgorithmId, Detection, DetectionOutput};
use crate::frame_features::FrameFeatures;
use crate::nms::{nms_in_place, non_maximum_suppression};
use crate::pyramid::{ScaleSchedule, WINDOW_H, WINDOW_W};
use crate::training::{synthesize, NegativeRegime, TrainingConfig};
use crate::{DetectError, Detector, Result};
use eecs_learn::boost::AdaBoost;
use eecs_vision::channels::{AcfChannels, CHANNEL_COUNT};
use eecs_vision::image::RgbImage;
use eecs_vision::resize::{resize_rgb, resize_rgb_into};

/// ACF detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcfDetectorConfig {
    /// Channel aggregation factor.
    pub shrink: usize,
    /// Scale schedule (capped well below 1.0: ACF does not upsample and
    /// aggregated channels need large people).
    pub scales: ScaleSchedule,
    /// Boosting rounds.
    pub rounds: usize,
    /// Window stride in aggregated pixels.
    pub stride: usize,
    /// Soft-cascade rejection floor on the partial boosted score.
    pub cascade_floor: f64,
    /// Number of stumps evaluated before the cascade may reject.
    pub cascade_warmup: usize,
    /// Candidates below this full score are dropped before NMS.
    pub keep_floor: f64,
    /// NMS IoU threshold.
    pub nms_iou: f64,
    /// Training-set synthesis (clutter regime).
    pub training: TrainingConfig,
}

impl Default for AcfDetectorConfig {
    fn default() -> Self {
        AcfDetectorConfig {
            shrink: 4,
            scales: ScaleSchedule {
                min_scale: 0.09,
                max_scale: 0.5,
                ratio: 1.33,
            },
            rounds: 96,
            stride: 1,
            cascade_floor: -0.6,
            cascade_warmup: 12,
            keep_floor: -0.2,
            nms_iou: 0.35,
            training: TrainingConfig {
                positives: 250,
                negatives: 400,
                regime: NegativeRegime::WithClutter,
                seed: 31,
            },
        }
    }
}

/// A stump re-indexed to a `(channel, dy, dx)` lookup in aggregated space.
#[derive(Debug, Clone, PartialEq)]
struct ChannelStump {
    channel: usize,
    dy: usize,
    dx: usize,
    threshold: f64,
    polarity: f64,
    alpha: f64,
}

/// A trained ACF detector.
#[derive(Debug, Clone)]
pub struct AcfDetector {
    config: AcfDetectorConfig,
    stumps: Vec<ChannelStump>,
    /// Window size in aggregated pixels.
    agg_w: usize,
    agg_h: usize,
    /// The enumerated scale schedule, cached at training time so `detect`
    /// only filters it per frame instead of re-deriving it.
    scale_levels: Vec<f64>,
}

impl AcfDetector {
    /// Trains the detector on synthesized windows.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Training`] when channel extraction or
    /// boosting fails, or the window is not divisible by the shrink.
    pub fn train(config: AcfDetectorConfig) -> Result<AcfDetector> {
        if !WINDOW_W.is_multiple_of(config.shrink) || !WINDOW_H.is_multiple_of(config.shrink) {
            return Err(DetectError::Training(format!(
                "shrink {} does not divide the {}x{} window",
                config.shrink, WINDOW_W, WINDOW_H
            )));
        }
        let agg_w = WINDOW_W / config.shrink;
        let agg_h = WINDOW_H / config.shrink;

        let examples = synthesize(&config.training).examples(|img, buf| {
            *buf = AcfChannels::compute(img, config.shrink)
                .and_then(|ch| ch.window_features(0, 0, agg_w, agg_h))
                .map_err(|e| DetectError::Training(format!("acf features: {e}")))?;
            Ok(())
        })?;
        let boost = AdaBoost::train(&examples, config.rounds)
            .map_err(|e| DetectError::Training(format!("acf boost: {e}")))?;

        // Re-index the flat feature indices into channel-space lookups.
        // window_features layout: channel-major, then row, then column.
        let per_channel = agg_w * agg_h;
        let stumps = boost_to_channel_stumps(&boost, per_channel, agg_w);
        let scale_levels = config.scales.scales();
        Ok(AcfDetector {
            config,
            stumps,
            agg_w,
            agg_h,
            scale_levels,
        })
    }

    /// Number of weak learners in the cascade.
    pub fn num_stumps(&self) -> usize {
        self.stumps.len()
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &AcfDetectorConfig {
        &self.config
    }

    /// Evaluates the soft cascade at an aggregated-window position.
    /// Returns `(score, stumps_evaluated)`; `None` score means rejected.
    ///
    /// Pre-optimization path, kept verbatim as the oracle for
    /// [`AcfDetector::cascade_score_fast`].
    fn cascade_score(&self, ch: &AcfChannels, x0: usize, y0: usize) -> (Option<f64>, u64) {
        let mut sum = 0.0;
        for (k, s) in self.stumps.iter().enumerate() {
            let v = ch.channel(s.channel).get(x0 + s.dx, y0 + s.dy) as f64;
            let h = if v > s.threshold {
                s.polarity
            } else {
                -s.polarity
            };
            sum += s.alpha * h;
            if k + 1 >= self.config.cascade_warmup && sum < self.config.cascade_floor {
                return (None, (k + 1) as u64);
            }
        }
        (Some(sum), self.stumps.len() as u64)
    }

    /// [`AcfDetector::cascade_score`] over raw channel planes: each stump's
    /// `(dy, dx)` is pre-flattened into a row-major offset (`offsets`, one
    /// per stump, built once per pyramid level), so the per-stump lookup is
    /// one indexed load instead of an `(x, y)` address computation through
    /// the image accessor. `base` is `y0 · ch_width + x0`. Reads the same
    /// pixel values in the same order — scores and evaluation counts are
    /// identical to the reference.
    #[inline]
    fn cascade_score_fast(
        &self,
        planes: &[&[f32]],
        offsets: &[usize],
        base: usize,
    ) -> (Option<f64>, u64) {
        let mut sum = 0.0;
        for (k, (s, &off)) in self.stumps.iter().zip(offsets).enumerate() {
            let v = planes[s.channel][base + off] as f64;
            let h = if v > s.threshold {
                s.polarity
            } else {
                -s.polarity
            };
            sum += s.alpha * h;
            if k + 1 >= self.config.cascade_warmup && sum < self.config.cascade_floor {
                return (None, (k + 1) as u64);
            }
        }
        (Some(sum), self.stumps.len() as u64)
    }

    /// The pre-optimization detection loop, kept verbatim (levels
    /// computed directly, accessor-based lookups, allocating NMS) as the
    /// equivalence oracle for `detect`: same detections, same scores, same
    /// `ops`.
    pub fn detect_reference(&self, frame: &RgbImage) -> DetectionOutput {
        let mut ops = 0u64;
        let mut candidates = Vec::new();
        for scale in ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height()) {
            let (sw, sh) = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
            let Ok(level) = resize_rgb(frame, sw, sh) else {
                continue;
            };
            ops += (sw * sh) as u64 * 3;
            let Ok(ch) = AcfChannels::compute(&level, self.config.shrink) else {
                continue;
            };
            if ch.width() < self.agg_w || ch.height() < self.agg_h {
                continue;
            }
            let stride = self.config.stride.max(1);
            let mut y0 = 0;
            while y0 + self.agg_h <= ch.height() {
                let mut x0 = 0;
                while x0 + self.agg_w <= ch.width() {
                    let (score, evaluated) = self.cascade_score(&ch, x0, y0);
                    ops += evaluated;
                    if let Some(score) = score {
                        if score >= self.config.keep_floor {
                            let (x, y) = (x0 * self.config.shrink, y0 * self.config.shrink);
                            candidates.push(Detection::window(x, y, scale, score));
                        }
                    }
                    x0 += stride;
                }
                y0 += stride;
            }
        }
        DetectionOutput {
            detections: non_maximum_suppression(candidates, self.config.nms_iou),
            ops,
        }
    }
}

fn boost_to_channel_stumps(
    boost: &AdaBoost,
    per_channel: usize,
    agg_w: usize,
) -> Vec<ChannelStump> {
    // AdaBoost does not expose its internals as (alpha, stump) pairs
    // publicly beyond iteration; reconstruct through its debug API.
    boost
        .stumps()
        .iter()
        .map(|(alpha, s)| {
            let channel = s.feature / per_channel;
            let rem = s.feature % per_channel;
            ChannelStump {
                channel,
                dy: rem / agg_w,
                dx: rem % agg_w,
                threshold: s.threshold,
                polarity: s.polarity,
                alpha: *alpha,
            }
        })
        .collect()
}

impl Detector for AcfDetector {
    fn algorithm(&self) -> AlgorithmId {
        AlgorithmId::Acf
    }

    fn detect_with_cache(&self, frame: &RgbImage, cache: &FrameFeatures<'_>) -> DetectionOutput {
        let mut ops = 0u64;
        let mut candidates = Vec::new();
        cache.with_scratch(|scratch| {
            for scale in
                ScaleSchedule::usable_from(&self.scale_levels, frame.width(), frame.height())
            {
                let (sw, sh) = ScaleSchedule::level_dims(scale, frame.width(), frame.height());
                // The level is built into the scratch buffers, with the ops
                // increment between the same failure points as in the
                // reference.
                if resize_rgb_into(frame, sw, sh, &mut scratch.rgb_level).is_err() {
                    continue;
                }
                // Channel computation: ~1 op per pixel per gradient pass
                // plus the aggregation; CHANNEL_COUNT lookups amortized via
                // shrink².
                ops += (sw * sh) as u64 * 3;
                let (ch, shrink) = (&mut scratch.channels, self.config.shrink);
                if ch.compute_into(&scratch.rgb_level, shrink).is_err() {
                    continue;
                }
                if ch.width() < self.agg_w || ch.height() < self.agg_h {
                    continue;
                }
                // Per-level flattening: raw plane slices plus each stump's
                // `(dy, dx)` as a single row-major offset.
                let planes: [&[f32]; CHANNEL_COUNT] =
                    std::array::from_fn(|c| ch.channel(c).as_slice());
                let ch_w = ch.width();
                let offsets = &mut scratch.offsets;
                offsets.clear();
                offsets.extend(self.stumps.iter().map(|s| s.dy * ch_w + s.dx));
                let stride = self.config.stride.max(1);
                let mut y0 = 0;
                while y0 + self.agg_h <= ch.height() {
                    let mut x0 = 0;
                    while x0 + self.agg_w <= ch_w {
                        let (score, evaluated) =
                            self.cascade_score_fast(&planes, offsets, y0 * ch_w + x0);
                        ops += evaluated;
                        if let Some(score) = score {
                            if score >= self.config.keep_floor {
                                let (x, y) = (x0 * self.config.shrink, y0 * self.config.shrink);
                                candidates.push(Detection::window(x, y, scale, score));
                            }
                        }
                        x0 += stride;
                    }
                    y0 += stride;
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

    fn quick_config() -> AcfDetectorConfig {
        AcfDetectorConfig {
            rounds: 48,
            training: TrainingConfig {
                positives: 80,
                negatives: 150,
                regime: NegativeRegime::WithClutter,
                seed: 2,
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
            [0.8, 0.2, 0.2],
            [0.85, 0.65, 0.5],
        );
        let mut rng = StdRng::seed_from_u64(7);
        draw::add_noise(&mut img, 0.02, &mut rng);
        img
    }

    #[test]
    fn detects_a_large_person() {
        let det = AcfDetector::train(quick_config()).unwrap();
        let img = scene_with_person(80.0, 110.0, 70.0);
        let out = det.detect(&img);
        assert!(!out.detections.is_empty());
        let (cx, _) = out.detections[0].bbox.center();
        assert!((cx - 80.0).abs() < 20.0, "best at x={cx}");
    }

    #[test]
    fn no_upsampling_misses_small_people() {
        let det = AcfDetector::train(quick_config()).unwrap();
        // 30-px person: below the 48-px window at max scale 1.0.
        let img = scene_with_person(80.0, 80.0, 30.0);
        let out = det.detect(&img);
        let hits = out
            .detections
            .iter()
            .filter(|d| {
                d.score > 0.0 && (d.bbox.center().0 - 80.0).abs() < 15.0 && d.bbox.height() < 45.0
            })
            .count();
        assert_eq!(hits, 0, "ACF should not see a 30-px person");
    }

    #[test]
    fn cheaper_than_hog_on_same_frame() {
        let acf = AcfDetector::train(quick_config()).unwrap();
        let hog =
            crate::hog_detector::HogSvmDetector::train(crate::hog_detector::HogDetectorConfig {
                training: TrainingConfig {
                    positives: 60,
                    negatives: 90,
                    regime: NegativeRegime::Clean,
                    seed: 3,
                },
                ..Default::default()
            })
            .unwrap();
        let img = scene_with_person(80.0, 110.0, 70.0);
        let acf_ops = acf.detect(&img).ops;
        let hog_ops = hog.detect(&img).ops;
        assert!(
            acf_ops * 5 < hog_ops,
            "ACF {acf_ops} ops should be well below HOG {hog_ops}"
        );
    }

    #[test]
    fn cascade_reduces_work() {
        let mut cfg = quick_config();
        let with_cascade = AcfDetector::train(cfg.clone()).unwrap();
        cfg.cascade_floor = f64::NEG_INFINITY; // disable rejection
        let without = AcfDetector::train(cfg).unwrap();
        let img = scene_with_person(80.0, 110.0, 70.0);
        assert!(with_cascade.detect(&img).ops < without.detect(&img).ops);
    }

    #[test]
    fn detect_matches_reference_bitwise() {
        let det = AcfDetector::train(quick_config()).unwrap();
        for frame in [
            scene_with_person(80.0, 110.0, 70.0),
            scene_with_person(40.0, 100.0, 90.0),
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
    fn rejects_bad_shrink() {
        let cfg = AcfDetectorConfig {
            shrink: 5,
            ..quick_config()
        };
        assert!(AcfDetector::train(cfg).is_err());
    }

    #[test]
    fn algorithm_id_and_determinism() {
        let det = AcfDetector::train(quick_config()).unwrap();
        assert_eq!(det.algorithm(), AlgorithmId::Acf);
        let img = scene_with_person(70.0, 100.0, 60.0);
        assert_eq!(det.detect(&img), det.detect(&img));
        assert!(det.num_stumps() > 0);
    }
}
