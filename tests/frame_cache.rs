//! The shared frame handle must be invisible: every pyramid level a
//! detector builds into its reused scratch buffers equals the direct
//! computation bit-for-bit, whatever level, frame or detector used the
//! buffers before, and running the four detectors through one shared
//! handle changes neither their detections nor their `ops` counters (the
//! energy model charges each algorithm as if it ran in isolation).

use eecs::detect::bank::DetectorBank;
use eecs::detect::c4_detector::census_transform;
use eecs::detect::detection::AlgorithmId;
use eecs::detect::{CensusCodePlane, DetectScratch, DetectionOutput, FrameFeatures};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sequence::VideoFeed;
use eecs::vision::channels::{AcfChannels, CHANNEL_COUNT};
use eecs::vision::hog::{HogBlockGrid, HogCellGrid, HogConfig};
use eecs::vision::image::{GrayImage, RgbImage};
use eecs::vision::resize::{resize_gray, resize_gray_into, resize_rgb, resize_rgb_into};
use std::sync::OnceLock;

fn bank() -> &'static DetectorBank {
    static BANK: OnceLock<DetectorBank> = OnceLock::new();
    BANK.get_or_init(|| DetectorBank::train_quick(7).expect("bank"))
}

fn first_frame(profile: DatasetProfile) -> RgbImage {
    let interval = profile.gt_interval;
    VideoFeed::open(profile, 0)
        .annotated_frames(0, 2 * interval)
        .into_iter()
        .next()
        .expect("annotated frame")
        .image
}

/// Every dataset resolution the simulator ships: lab/terrace 360×288,
/// chap 1024×768, miniature 180×144.
fn dataset_frames() -> &'static [RgbImage] {
    static FRAMES: OnceLock<Vec<RgbImage>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        vec![
            first_frame(DatasetProfile::lab()),
            first_frame(DatasetProfile::for_id(DatasetId::Chap)),
            first_frame(DatasetProfile::miniature(DatasetId::Lab)),
        ]
    })
}

fn bits(img: &GrayImage) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One scratch serves every level of every frame in turn — shrinking
/// within a frame, growing from lab to chap — and each level built into
/// it equals the level computed afresh.
#[test]
fn cached_levels_equal_direct_computation_at_dataset_resolutions() {
    let hog = HogConfig {
        cell_size: 8,
        block_cells: 2,
        bins: 9,
    };
    let mut s = DetectScratch::default();
    for frame in dataset_frames() {
        let cache = FrameFeatures::new(frame);
        let gray = frame.to_gray();
        assert_eq!(bits(cache.gray()), bits(&gray));

        let (fw, fh) = (frame.width(), frame.height());
        for scale in [1.0, 0.8, 0.5] {
            let (w, h) = ((fw as f64 * scale) as usize, (fh as f64 * scale) as usize);

            let direct_gray = resize_gray(&gray, w, h).expect("resize");
            resize_gray_into(&gray, w, h, &mut s.level).expect("resize into");
            assert_eq!(bits(&s.level), bits(&direct_gray));

            let direct_rgb = resize_rgb(frame, w, h).expect("resize");
            resize_rgb_into(frame, w, h, &mut s.rgb_level).expect("resize into");
            for (got, want) in [
                (&s.rgb_level.r, &direct_rgb.r),
                (&s.rgb_level.g, &direct_rgb.g),
                (&s.rgb_level.b, &direct_rgb.b),
            ] {
                assert_eq!(bits(got), bits(want));
            }

            let direct_grid = HogCellGrid::compute(&direct_gray, hog).expect("grid");
            s.cells.compute_into(&s.level, hog).expect("grid into");
            assert_eq!(s.cells, direct_grid);

            s.blocks.compute_into(&s.cells);
            assert_eq!(s.blocks, HogBlockGrid::compute(&direct_grid));

            let direct_ch = AcfChannels::compute(&direct_rgb, 4).expect("channels");
            s.channels
                .compute_into(&s.rgb_level, 4)
                .expect("channels into");
            assert_eq!(s.channels.width(), direct_ch.width());
            assert_eq!(s.channels.height(), direct_ch.height());
            for c in 0..CHANNEL_COUNT {
                assert_eq!(bits(s.channels.channel(c)), bits(direct_ch.channel(c)));
            }
        }

        // C4's second-order resize: through the internal resolution, then
        // to the level, then census-coded.
        let (iw, ih) = (160, 128);
        let internal = resize_gray(&gray, iw, ih).expect("internal");
        resize_gray_into(cache.gray(), iw, ih, &mut s.internal).expect("internal into");
        assert_eq!(bits(&s.internal), bits(&internal));
        for scale in [1.0, 0.6] {
            let (w, h) = ((iw as f64 * scale) as usize, (ih as f64 * scale) as usize);
            let direct = census_transform(&resize_gray(&internal, w, h).expect("level"));
            resize_gray_into(&s.internal, w, h, &mut s.level).expect("level into");
            s.codes.compute_into(&s.level);
            assert_eq!(s.codes, CensusCodePlane::from_census(&direct));
        }
    }
}

#[test]
fn detect_with_shared_cache_matches_direct_detect_for_all_algorithms() {
    let bank = bank();
    for frame in dataset_frames() {
        // ONE handle shared across all four detectors, exactly as the
        // assessment phase uses it.
        let cache = FrameFeatures::new(frame);
        for (alg, det) in bank.all() {
            let direct = det.detect(frame);
            let cached = det.detect_with_cache(frame, &cache);
            assert_eq!(
                cached, direct,
                "{alg}: shared cache changed detections or ops"
            );
        }
    }
}

/// `detect_with_cache` detects the handle's frame: a `frame` argument
/// other than `cache.frame()` — here another resolution, so pixels and
/// back-projection would both show — is ignored by every detector.
#[test]
fn detect_with_cache_reads_the_handle_frame_not_the_argument() {
    let bank = bank();
    let frames = dataset_frames();
    for (held, passed) in [(&frames[0], &frames[2]), (&frames[2], &frames[1])] {
        let cache = FrameFeatures::new(held);
        for (alg, det) in bank.all() {
            assert_eq!(
                det.detect_with_cache(passed, &cache),
                det.detect(held),
                "{alg}: read the frame argument instead of the handle's frame"
            );
        }
    }
}

fn assert_bit_identical(got: &DetectionOutput, want: &DetectionOutput, what: &str) {
    assert_eq!(got.ops, want.ops, "{what}: ops");
    assert_eq!(got.detections.len(), want.detections.len(), "{what}: count");
    for (a, b) in got.detections.iter().zip(&want.detections) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}: score");
        for (x, y) in [
            (a.bbox.x0, b.bbox.x0),
            (a.bbox.y0, b.bbox.y0),
            (a.bbox.x1, b.bbox.x1),
            (a.bbox.y1, b.bbox.y1),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bbox");
        }
    }
}

/// The 24 orders of the four detectors, lexicographic.
fn orders() -> Vec<[AlgorithmId; 4]> {
    let all = AlgorithmId::ALL;
    let mut out = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                let d = 6 - a - b - c;
                out.push([all[a], all[b], all[c], all[d]]);
            }
        }
    }
    out
}

/// Every order of the four detectors runs through one handle, and the
/// one scratch pool is carried from frame to frame: orders take the chap,
/// lab and miniature frames in turn, so each detector meets buffers that
/// a larger or a smaller level, another detector or another frame left
/// behind. Every output equals `detect_reference` bit for bit.
#[test]
fn one_scratch_pool_serves_every_detector_order_and_resolution() {
    let bank = bank();
    let frames = dataset_frames();
    let sequence = [&frames[1], &frames[0], &frames[2]];
    let reference: Vec<Vec<DetectionOutput>> = sequence
        .iter()
        .map(|frame| {
            AlgorithmId::ALL
                .iter()
                .map(|&a| match a {
                    AlgorithmId::Hog => bank.hog().detect_reference(frame),
                    AlgorithmId::Acf => bank.acf().detect_reference(frame),
                    AlgorithmId::C4 => bank.c4().detect_reference(frame),
                    AlgorithmId::Lsvm => bank.lsvm().detect_reference(frame),
                })
                .collect()
        })
        .collect();
    let orders = orders();
    assert_eq!(orders.len(), 24);
    let mut handle = FrameFeatures::new(sequence[0]);
    for (i, order) in orders.iter().enumerate() {
        let f = i % sequence.len();
        handle = handle.recycle(sequence[f]);
        for &alg in order {
            let got = bank.detector(alg).detect_with_cache(sequence[f], &handle);
            let k = AlgorithmId::ALL
                .iter()
                .position(|&a| a == alg)
                .expect("known");
            let want = &reference[f][k];
            assert_bit_identical(&got, want, &format!("{alg} in order {order:?}, frame {f}"));
        }
    }
}

#[test]
fn bank_run_algorithms_is_identical_with_and_without_sharing() {
    let bank = bank();
    let frame = first_frame(DatasetProfile::miniature(DatasetId::Lab));
    let algorithms = AlgorithmId::ALL;
    let shared = bank.run_algorithms(&algorithms, &frame, true);
    let isolated = bank.run_algorithms(&algorithms, &frame, false);
    assert_eq!(shared, isolated);
    assert_eq!(shared.len(), algorithms.len());
}
