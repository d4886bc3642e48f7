//! Equivalence battery for the kernel-optimization pass.
//!
//! Every optimized detector hot path (precomputed census code planes, the
//! C4 early-reject cascade, precomputed HOG block grids, flattened ACF
//! lookups, shared scratch buffers) must reproduce the pre-optimization
//! `detect()` semantics **bit for bit**: same candidate set, every score
//! and bbox coordinate identical under `f64::to_bits`, and the exact same
//! `ops` counter (the energy model's input). The pre-optimization loops
//! are kept verbatim as `detect_reference` on each detector; these
//! properties drive both paths over randomized models, frames, strides,
//! floors and scale schedules. The one-pass census code plane must equal
//! the cast of the `f32` census transform code for code.
//!
//! The C4 cascade additionally carries a soundness obligation: its
//! conservative remaining-contribution bound may only reject windows whose
//! true score is below `keep_floor` — a rejected window must never be one
//! the reference path would have kept.

use eecs::detect::c4_detector::{
    census_transform, C4Detector, C4DetectorConfig, C4_FEATURE_DIM, C4_STRIDE, CENSUS_MARGIN,
};
use eecs::detect::hog_detector::{HogDetectorConfig, HogSvmDetector};
use eecs::detect::lsvm_detector::{LsvmDetector, LsvmDetectorConfig};
use eecs::detect::pyramid::ScaleSchedule;
use eecs::detect::{CensusCodePlane, DetectionOutput, Detector, DetectorBank};
use eecs::learn::svm::LinearSvm;
use eecs::vision::draw;
use eecs::vision::image::{GrayImage, RgbImage};
use eecs::vision::resize::resize_gray;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

/// HOG root-filter dimension for the default 4-px cell / 2-cell block /
/// 9-bin layout over the 16×48 window: (4-2+1)·(12-2+1)·2·2·9.
const HOG_ROOT_DIM: usize = 3 * 11 * 2 * 2 * 9;
/// LSVM part-filter dimension: 2×2-cell parts under the same block layout
/// hold a single 2×2-cell block: (2-2+1)²·2·2·9.
const LSVM_PART_DIM: usize = 2 * 2 * 9;

fn random_weights(rng: &mut StdRng, dim: usize, amp: f64) -> Vec<f64> {
    (0..dim).map(|_| rng.random_range(-amp..amp)).collect()
}

/// A deterministic synthetic frame: gradient background, up to two humans,
/// sensor noise. Exercises both dense-texture and flat regions.
fn random_frame(seed: u64, w: usize, h: usize) -> RgbImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = RgbImage::new(w, h);
    draw::vertical_gradient(
        &mut img,
        [
            rng.random_range(0.1..0.6),
            rng.random_range(0.1..0.6),
            rng.random_range(0.1..0.6),
        ],
        [
            rng.random_range(0.3..0.9),
            rng.random_range(0.3..0.9),
            rng.random_range(0.3..0.9),
        ],
    );
    for _ in 0..rng.random_range(0..3usize) {
        let hw = rng.random_range(0.12..0.3) * w as f64;
        let hh = 3.0 * hw;
        let x0 = rng.random_range(0.0..(w as f64 - hw).max(1.0));
        let y0 = rng.random_range(0.0..(h as f64 - hh).max(1.0));
        draw::draw_human(
            &mut img,
            x0,
            y0,
            x0 + hw,
            y0 + hh,
            [
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ],
            [0.8, 0.65, 0.55],
        );
    }
    draw::add_noise(&mut img, 0.04, &mut rng);
    img
}

/// Bit-exact comparison of two detector outputs: `ops`, candidate count,
/// and every score / bbox coordinate under `to_bits`.
fn assert_bit_identical(opt: &DetectionOutput, reference: &DetectionOutput) {
    assert_eq!(opt.ops, reference.ops, "ops diverged");
    assert_eq!(
        opt.detections.len(),
        reference.detections.len(),
        "candidate set diverged"
    );
    for (a, b) in opt.detections.iter().zip(&reference.detections) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits diverged");
        for (pa, pb) in [
            (a.bbox.x0, b.bbox.x0),
            (a.bbox.y0, b.bbox.y0),
            (a.bbox.x1, b.bbox.x1),
            (a.bbox.y1, b.bbox.y1),
        ] {
            assert_eq!(pa.to_bits(), pb.to_bits(), "bbox bits diverged");
        }
    }
}

/// A narrow scale schedule keeps debug-mode runtime sane while still
/// spanning several pyramid levels.
fn random_schedule(rng: &mut StdRng) -> ScaleSchedule {
    ScaleSchedule {
        min_scale: rng.random_range(0.45..0.7),
        max_scale: rng.random_range(0.9..1.25),
        ratio: rng.random_range(1.25..1.6),
    }
}

/// Quick-trained bank shared by the trained-model properties.
fn bank() -> &'static DetectorBank {
    static BANK: OnceLock<DetectorBank> = OnceLock::new();
    BANK.get_or_init(|| DetectorBank::train_quick(7).expect("bank"))
}

/// One cascade-soundness case: a random C4 model and census plane, every
/// window scanned both ways. A `None` from the cascaded scan must mean the
/// reference score is below `keep_floor`; a `Some` must carry the
/// bit-identical score. Returns how many windows the cascade rejected.
fn check_cascade_bound(seed: u64, keep_floor: f64) -> Result<usize, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
    let config = C4DetectorConfig {
        keep_floor,
        ..C4DetectorConfig::default()
    };
    // Larger weights than the detect property: the bound only bites
    // when scores spread well past the floor.
    let svm = LinearSvm::from_parts(
        random_weights(&mut rng, C4_FEATURE_DIM, 0.6),
        rng.random_range(-0.4..0.4),
    );
    let det = C4Detector::from_svm(config, svm).expect("from_svm");
    let (w, h) = (rng.random_range(24..56), rng.random_range(56..90));
    let census = GrayImage::from_fn(w, h, |_, _| rng.random_range(0..256u32) as f32);
    let codes = CensusCodePlane::from_census(&census);
    let mut windows = 0usize;
    let mut rejected = 0usize;
    let mut y0 = 0;
    while y0 + 48 <= h {
        let mut x0 = 0;
        while x0 + 16 <= w {
            windows += 1;
            let want = det.score_window_reference(&census, x0, y0);
            match det.scan_window(&codes, x0, y0) {
                Some(got) => prop_assert_eq!(got.to_bits(), want.to_bits()),
                None => {
                    rejected += 1;
                    prop_assert!(
                        want < keep_floor,
                        "cascade rejected a window scoring {} >= floor {}",
                        want,
                        keep_floor
                    );
                }
            }
            x0 += 3;
        }
        y0 += 5;
    }
    prop_assert!(windows > 0);
    Ok(rejected)
}

/// The soundness property holds vacuously if the cascade never rejects a
/// window. Some floors legitimately reject nothing, so the count is taken
/// in aggregate over a fixed spread of seeds and floors across the
/// property's range: it must be positive, and every case stays sound.
#[test]
fn c4_cascade_bound_rejects_windows() {
    let mut rejected = 0;
    for k in 0..8u64 {
        let keep_floor = -1.0 + 0.1875 * k as f64;
        rejected += check_cascade_bound(k, keep_floor)
            .unwrap_or_else(|e| panic!("seed {k}, floor {keep_floor}: {e}"));
    }
    assert!(rejected > 0, "the C4 cascade rejected no window in 8 cases");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// C4: random SVM, floor, schedule, internal resolution and frame —
    /// the grouped cascade scan over the code plane equals the reference
    /// loop bit for bit. Internal widths from 60 to 200 put every count
    /// of leftover windows after a row's groups on some level.
    #[test]
    fn c4_detect_matches_reference(
        seed in 0..10_000u64,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4);
        let config = C4DetectorConfig {
            internal_w: rng.random_range(60..200),
            internal_h: rng.random_range(90..140),
            scales: random_schedule(&mut rng),
            keep_floor,
            ..C4DetectorConfig::default()
        };
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, C4_FEATURE_DIM, 0.02),
            rng.random_range(-0.4..0.4),
        );
        let det = C4Detector::from_svm(config, svm).expect("from_svm");
        let frame = random_frame(seed, rng.random_range(60..240), rng.random_range(90..150));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// C4 cascade soundness: over every window of a random census plane,
    /// a `None` from the cascaded scan implies the reference score is
    /// below `keep_floor`, and a `Some` carries bit-identical score.
    /// `c4_cascade_bound_rejects_windows` keeps it from passing vacuously.
    #[test]
    fn c4_cascade_bound_is_sound(
        seed in 0..10_000u64,
        keep_floor in -1.0..0.5f64,
    ) {
        check_cascade_bound(seed, keep_floor)?;
    }

    /// HOG: random root filter over the precomputed block grid equals the
    /// per-window descriptor-assembly loop bit for bit.
    #[test]
    fn hog_detect_matches_reference(
        seed in 0..10_000u64,
        stride_cells in 1..3usize,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x806);
        let config = HogDetectorConfig {
            scales: random_schedule(&mut rng),
            stride_cells,
            keep_floor,
            ..HogDetectorConfig::default()
        };
        let svm = LinearSvm::from_parts(
            random_weights(&mut rng, HOG_ROOT_DIM, 0.05),
            rng.random_range(-0.4..0.4),
        );
        let det = HogSvmDetector::from_svm(config, svm).expect("from_svm");
        let frame = random_frame(seed, rng.random_range(80..150), rng.random_range(80..140));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// LSVM: random root + part filters — block-grid part scoring with
    /// displacement search equals the reference loop bit for bit.
    #[test]
    fn lsvm_detect_matches_reference(
        seed in 0..10_000u64,
        keep_floor in -1.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x157);
        let config = LsvmDetectorConfig {
            scales: random_schedule(&mut rng),
            part_gate: rng.random_range(-1.0..0.0),
            deformation: rng.random_range(0.05..0.5),
            part_weight: rng.random_range(0.1..0.6),
            keep_floor,
            ..LsvmDetectorConfig::default()
        };
        let root = LinearSvm::from_parts(
            random_weights(&mut rng, HOG_ROOT_DIM, 0.05),
            rng.random_range(-0.4..0.4),
        );
        let parts = (0..4)
            .map(|_| {
                LinearSvm::from_parts(
                    random_weights(&mut rng, LSVM_PART_DIM, 0.1),
                    rng.random_range(-0.2..0.2),
                )
            })
            .collect();
        let det = LsvmDetector::from_filters(config, root, parts).expect("from_filters");
        let frame = random_frame(seed, rng.random_range(80..150), rng.random_range(80..140));
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }

    /// ACF: the flattened channel-lookup path on a trained boosted forest
    /// equals the reference cascade bit for bit.
    #[test]
    fn acf_detect_matches_reference(seed in 0..10_000u64) {
        let det = bank().acf();
        let frame = random_frame(seed, 120, 100);
        assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));
    }
}

/// A grey level whose pixels sit on plateaus and on steps of exactly
/// `CENSUS_MARGIN`: each palette entry is the previous one minus the
/// margin in `f32`, so `n == c - CENSUS_MARGIN` holds bit for bit between
/// neighbouring entries, and a quarter of the pixels are free noise.
fn census_level(seed: u64, w: usize, h: usize) -> GrayImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut palette = [rng.random_range(0.1..0.9f32); 4];
    for k in 1..palette.len() {
        palette[k] = palette[k - 1] - CENSUS_MARGIN;
    }
    GrayImage::from_fn(w, h, |_, _| match rng.random_range(0..8usize) {
        0 | 1 => rng.random_range(0.0..1.0f32),
        k => palette[k % palette.len()],
    })
}

/// The one-pass plane equals the cast of the `f32` transform, code for
/// code, on plane shapes whose borders leave no interior (1×1, 1×N, N×1,
/// 2×2) and on larger ones.
fn assert_census_codes_exact(seed: u64, w: usize, h: usize) {
    let level = census_level(seed, w, h);
    let want = CensusCodePlane::from_census(&census_transform(&level));
    assert_eq!(
        CensusCodePlane::compute(&level),
        want,
        "{w}x{h} level of seed {seed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sizes, plateaus and exact-margin steps: the one-pass census
    /// codes equal `from_census(census_transform(level))`.
    #[test]
    fn census_codes_match_transform(
        seed in 0..100_000u64,
        w in 1..40usize,
        h in 1..12usize,
    ) {
        assert_census_codes_exact(seed, w, h);
    }
}

/// The shapes a random draw may miss, each over several levels.
#[test]
fn census_codes_match_transform_on_degenerate_shapes() {
    for (w, h) in [(1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (7, 2), (3, 3)] {
        for seed in 0..16 {
            assert_census_codes_exact(seed, w, h);
        }
    }
}

/// The grouped C4 scan at every row length from one window to 17, on one
/// level the size of the internal image: every count of leftover windows
/// after a row's groups occurs. Each floor keeps every window, some, or
/// none (the last rejects every lane of every group at the first bound
/// check). Detection equals the reference bit for bit, and
/// `cascade_stats` counts the windows `scan_window` rejects one by one.
#[test]
fn c4_scan_matches_reference_at_every_row_length() {
    let mut rng = StdRng::seed_from_u64(0x6c4);
    let svm = LinearSvm::from_parts(
        random_weights(&mut rng, C4_FEATURE_DIM, 0.6),
        rng.random_range(-0.4..0.4),
    );
    let (mut partly_rejected, mut all_rejected) = (0, 0);
    for internal_w in 16..=48 {
        let frame = random_frame(internal_w as u64, 90, 80);
        for keep_floor in [-1e9, 0.0, 1e9] {
            let config = C4DetectorConfig {
                internal_w,
                internal_h: 60,
                scales: ScaleSchedule {
                    min_scale: 1.0,
                    max_scale: 1.0,
                    ratio: 2.0,
                },
                keep_floor,
                ..C4DetectorConfig::default()
            };
            let det = C4Detector::from_svm(config, svm.clone()).expect("from_svm");
            assert_bit_identical(&det.detect(&frame), &det.detect_reference(&frame));

            let internal = resize_gray(&frame.to_gray(), internal_w, 60).expect("internal");
            let level = resize_gray(&internal, internal_w, 60).expect("level");
            let codes = CensusCodePlane::compute(&level);
            let (mut windows, mut rejected) = (0u64, 0u64);
            for y0 in (0..=60 - 48).step_by(C4_STRIDE) {
                let row: Vec<bool> = (0..=internal_w - 16)
                    .step_by(C4_STRIDE)
                    .map(|x0| det.scan_window(&codes, x0, y0).is_none())
                    .collect();
                windows += row.len() as u64;
                rejected += row.iter().filter(|&&r| r).count() as u64;
                if row.iter().all(|&r| r) {
                    all_rejected += 1;
                } else if row.iter().any(|&r| r) {
                    partly_rejected += 1;
                }
            }
            assert_eq!(det.cascade_stats(&frame), (windows, rejected));
        }
    }
    assert!(
        partly_rejected > 0,
        "no row mixed kept and rejected windows"
    );
    assert!(all_rejected > 0, "no row rejected every window");
}

/// The trained bank end to end on one deterministic frame: all four
/// detectors through both paths (a seatbelt on top of the random-model
/// properties, using realistic trained weights).
#[test]
fn trained_bank_detectors_match_reference() {
    let frame = random_frame(99, 160, 130);
    let b = bank();
    assert_bit_identical(&b.c4().detect(&frame), &b.c4().detect_reference(&frame));
    assert_bit_identical(&b.hog().detect(&frame), &b.hog().detect_reference(&frame));
    assert_bit_identical(&b.lsvm().detect(&frame), &b.lsvm().detect_reference(&frame));
    assert_bit_identical(&b.acf().detect(&frame), &b.acf().detect_reference(&frame));
}
