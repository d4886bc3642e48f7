//! Synthetic training windows and the one training recipe.
//!
//! The paper's detectors come pre-trained (OpenCV's INRIA-trained HOG, the
//! authors' ACF/C4/LSVM models). Our detectors are trained here, at bank
//! construction time, on windows synthesized with the *same sprites* the
//! scene renderer uses — so train and test distributions relate the way
//! INRIA relates to the evaluation videos.
//!
//! The crucial asymmetry (DESIGN.md §3): the **clean** regime contains no
//! furniture, so HOG — trained clean, like its INRIA original — never sees
//! the person-shaped clutter of dataset #2; ACF's training includes
//! furniture negatives, buying its clutter robustness.
//!
//! One recipe trains every detector (DESIGN.md §3): [`synthesize`], then
//! [`TrainingWindows::examples`] over a featurizer, then — for the linear
//! models — [`fit_svm`], which also runs C4's hard-negative bootstrap.

use crate::pyramid::{WINDOW_H, WINDOW_W};
use crate::{DetectError, Result};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_learn::Example;
use eecs_vision::draw;
use eecs_vision::image::RgbImage;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which negative-mining regime to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegativeRegime {
    /// Backgrounds and partial bodies only (the INRIA analog).
    Clean,
    /// Additionally includes furniture-panel negatives (the ACF analog).
    WithClutter,
}

/// Configuration for synthesizing a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Number of positive windows.
    pub positives: usize,
    /// Number of negative windows.
    pub negatives: usize,
    /// Negative-mining regime.
    pub regime: NegativeRegime,
    /// RNG seed (deterministic training sets).
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            positives: 250,
            negatives: 350,
            regime: NegativeRegime::Clean,
            seed: 7,
        }
    }
}

/// A synthesized training set: window images, or values derived from them.
#[derive(Debug, Clone)]
pub struct TrainingWindows<T = RgbImage> {
    /// Positive (person) windows.
    pub positives: Vec<T>,
    /// Negative (background/clutter) windows.
    pub negatives: Vec<T>,
}

impl<T> TrainingWindows<T> {
    /// Applies `f` to every window, keeping the split and the order; the
    /// first error of `f` is returned.
    pub(crate) fn try_map<U>(
        &self,
        mut f: impl FnMut(&T) -> Result<U>,
    ) -> Result<TrainingWindows<U>> {
        Ok(TrainingWindows {
            positives: self.positives.iter().map(&mut f).collect::<Result<_>>()?,
            negatives: self.negatives.iter().map(&mut f).collect::<Result<_>>()?,
        })
    }

    /// The ±1 examples, positives first, each featurized into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns the first error of `featurize`.
    pub fn examples(
        &self,
        mut featurize: impl FnMut(&T, &mut Vec<f64>) -> Result<()>,
    ) -> Result<Vec<Example>> {
        let mut examples = Vec::with_capacity(self.positives.len() + self.negatives.len());
        for (windows, label) in [(&self.positives, 1.0), (&self.negatives, -1.0)] {
            for window in windows {
                let mut features = Vec::new();
                featurize(window, &mut features)?;
                examples.push(Example { features, label });
            }
        }
        Ok(examples)
    }
}

/// Fits a linear SVM to `examples`, then runs `rounds` rounds of Dalal &
/// Triggs hard-negative mining: each round featurizes `pool` fresh
/// negatives of `training`'s regime into one reused buffer, adds those
/// scoring above −0.5, and refits with the seed advanced by the round. A
/// round that adds none ends mining. `what` names the model in errors.
///
/// # Errors
///
/// Returns [`DetectError::Training`] if a fit fails, or the first error of
/// `featurize`.
pub fn fit_svm(
    what: &str,
    mut examples: Vec<Example>,
    svm: &SvmConfig,
    training: &TrainingConfig,
    (rounds, pool): (usize, usize),
    mut featurize: impl FnMut(&RgbImage, &mut Vec<f64>) -> Result<()>,
) -> Result<LinearSvm> {
    let fit = |examples: &[Example], config: &SvmConfig| {
        LinearSvm::train(examples, config)
            .map_err(|e| DetectError::Training(format!("{what} svm: {e}")))
    };
    let mut model = fit(&examples, svm)?;
    let mut rng = StdRng::seed_from_u64(training.seed.wrapping_add(0xC4));
    let mut feat_buf = Vec::new();
    for round in 0..rounds {
        let before = examples.len();
        for _ in 0..pool {
            let clutter = training.regime == NegativeRegime::WithClutter && rng.random_bool(0.33);
            featurize(&negative_window(&mut rng, clutter), &mut feat_buf)?;
            if model.score(&feat_buf) > -0.5 {
                examples.push(Example::negative(feat_buf.clone()));
            }
        }
        if examples.len() == before {
            break;
        }
        let refit = SvmConfig {
            seed: svm.seed.wrapping_add(round as u64 + 1),
            ..*svm
        };
        model = fit(&examples, &refit)?;
    }
    Ok(model)
}

/// Synthesizes a training set per the config.
pub fn synthesize(config: &TrainingConfig) -> TrainingWindows {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let positives = (0..config.positives)
        .map(|_| positive_window(&mut rng))
        .collect();
    let negatives = (0..config.negatives)
        .map(|i| {
            let clutter = config.regime == NegativeRegime::WithClutter && i % 3 == 0;
            negative_window(&mut rng, clutter)
        })
        .collect();
    TrainingWindows {
        positives,
        negatives,
    }
}

/// One positive window: a person sprite (same renderer as the scene crate)
/// over a varied background with jittered placement, illumination and noise.
pub fn positive_window(rng: &mut StdRng) -> RgbImage {
    let mut img = background_window(rng);
    let jx = rng.random_range(-1.5..1.5);
    let jy = rng.random_range(-2.0..2.0);
    let shrink = rng.random_range(0.0..0.12);
    let clothing = [
        rng.random_range(0.1..1.0f32),
        rng.random_range(0.1..1.0f32),
        rng.random_range(0.1..1.0f32),
    ];
    let skin = [
        rng.random_range(0.55..0.95f32),
        rng.random_range(0.45..0.75f32),
        rng.random_range(0.35..0.60f32),
    ];
    let w = WINDOW_W as f64;
    let h = WINDOW_H as f64;
    draw::draw_human(
        &mut img,
        w * (0.08 + shrink / 2.0) + jx,
        h * (0.04 + shrink / 2.0) + jy,
        w * (0.92 - shrink / 2.0) + jx,
        h * (0.97 - shrink / 2.0) + jy,
        clothing,
        skin,
    );
    finish(&mut img, rng);
    img
}

/// One negative window: background texture, a partial body at the border,
/// or (in the clutter regime) a furniture panel.
pub fn negative_window(rng: &mut StdRng, clutter: bool) -> RgbImage {
    let mut img = background_window(rng);
    if clutter {
        // Furniture panels fill the window like a person would.
        let c1 = [
            rng.random_range(0.3..0.9f32),
            rng.random_range(0.2..0.6f32),
            rng.random_range(0.1..0.4f32),
        ];
        let c2 = [
            rng.random_range(0.05..0.3f32),
            rng.random_range(0.05..0.3f32),
            rng.random_range(0.05..0.3f32),
        ];
        draw::draw_furniture(
            &mut img,
            rng.random_range(-2.0..2.0),
            rng.random_range(-3.0..1.0),
            WINDOW_W as f64 + rng.random_range(-2.0..2.0),
            WINDOW_H as f64 + rng.random_range(-1.0..3.0),
            (c1, c2),
        );
    } else {
        match rng.random_range(0..3u32) {
            0 => {} // bare background
            1 => {
                // A partial body poking in from a border — hard negative.
                let clothing = [
                    rng.random_range(0.1..1.0f32),
                    rng.random_range(0.1..1.0f32),
                    rng.random_range(0.1..1.0f32),
                ];
                let skin = [0.8, 0.6, 0.5];
                let dx = if rng.random_bool(0.5) {
                    -(WINDOW_W as f64) * 0.65
                } else {
                    WINDOW_W as f64 * 0.65
                };
                draw::draw_human(
                    &mut img,
                    1.0 + dx,
                    2.0,
                    WINDOW_W as f64 - 1.0 + dx,
                    WINDOW_H as f64 - 1.0,
                    clothing,
                    skin,
                );
            }
            _ => {
                // A random blob — generic distractor.
                draw::fill_ellipse(
                    &mut img,
                    rng.random_range(2.0..WINDOW_W as f64 - 2.0),
                    rng.random_range(4.0..WINDOW_H as f64 - 4.0),
                    rng.random_range(2.0..6.0),
                    rng.random_range(2.0..8.0),
                    [
                        rng.random_range(0.0..1.0f32),
                        rng.random_range(0.0..1.0f32),
                        rng.random_range(0.0..1.0f32),
                    ],
                );
            }
        }
    }
    finish(&mut img, rng);
    img
}

fn background_window(rng: &mut StdRng) -> RgbImage {
    let mut img = RgbImage::new(WINDOW_W, WINDOW_H);
    let top = rng.random_range(0.35..0.75f32);
    let bot = rng.random_range(0.25..0.6f32);
    draw::vertical_gradient(
        &mut img,
        [top, top * 0.98, top * 0.94],
        [bot, bot * 0.97, bot * 0.95],
    );
    img
}

fn finish(img: &mut RgbImage, rng: &mut StdRng) {
    img.scale_brightness(rng.random_range(0.75..1.2));
    draw::add_noise(img, rng.random_range(0.01..0.04), rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_counts_match_config() {
        let tw = synthesize(&TrainingConfig {
            positives: 10,
            negatives: 15,
            regime: NegativeRegime::WithClutter,
            seed: 1,
        });
        assert_eq!(tw.positives.len(), 10);
        assert_eq!(tw.negatives.len(), 15);
    }

    #[test]
    fn windows_have_canonical_size() {
        let tw = synthesize(&TrainingConfig {
            positives: 2,
            negatives: 2,
            regime: NegativeRegime::Clean,
            seed: 2,
        });
        for img in tw.positives.iter().chain(&tw.negatives) {
            assert_eq!((img.width(), img.height()), (WINDOW_W, WINDOW_H));
        }
    }

    #[test]
    fn examples_label_positives_then_negatives() {
        let tw = TrainingWindows {
            positives: vec![1.0, 2.0],
            negatives: vec![3.0],
        };
        let doubled = tw.try_map(|&v| Ok(2.0 * v)).unwrap();
        let examples = doubled
            .examples(|&v, buf| {
                buf.push(v);
                Ok(())
            })
            .unwrap();
        let got: Vec<(f64, f64)> = examples.iter().map(|e| (e.features[0], e.label)).collect();
        assert_eq!(got, [(2.0, 1.0), (4.0, 1.0), (6.0, -1.0)]);
        let failing = tw.examples(|_, _| Err(DetectError::Training("probe".into())));
        assert!(matches!(failing, Err(DetectError::Training(m)) if m == "probe"));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrainingConfig {
            positives: 3,
            negatives: 3,
            regime: NegativeRegime::Clean,
            seed: 3,
        };
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.positives[0], b.positives[0]);
        assert_eq!(a.negatives[2], b.negatives[2]);
    }

    #[test]
    fn positives_differ_from_negatives_on_average() {
        // Gradient energy of positives (body edges) should exceed that of
        // bare backgrounds on average.
        let tw = synthesize(&TrainingConfig {
            positives: 20,
            negatives: 20,
            regime: NegativeRegime::Clean,
            seed: 4,
        });
        let energy = |imgs: &[RgbImage]| -> f64 {
            imgs.iter()
                .map(|i| eecs_vision::gradient::edge_energy(&i.to_gray()))
                .sum::<f64>()
                / imgs.len() as f64
        };
        assert!(energy(&tw.positives) > energy(&tw.negatives) * 1.1);
    }

    #[test]
    fn clutter_negatives_have_high_edge_energy() {
        let mut rng = StdRng::seed_from_u64(5);
        let clutter = negative_window(&mut rng, true);
        let mut rng2 = StdRng::seed_from_u64(5);
        let plain = {
            let mut img = background_window(&mut rng2);
            finish(&mut img, &mut rng2);
            img
        };
        let e = |i: &RgbImage| eecs_vision::gradient::edge_energy(&i.to_gray());
        assert!(e(&clutter) > e(&plain));
    }
}
