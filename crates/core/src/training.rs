//! Offline training (Section IV-A).
//!
//! "The controller applies each available detection algorithm to process
//! each training item, and measures the computational cost and the
//! detection accuracy achieved (a total of H × N combinations)." The
//! result, per training item, is a [`TrainingRecord`]: the f-score-optimal
//! threshold `d_t`, precision/recall/f-score at that threshold, per-frame
//! energy (processing plus the algorithm-independent cost of shipping
//! detected-object images), the processing-time model, and the Platt score
//! calibration.

use crate::config::EecsConfig;
use crate::features::{video_item, FeatureExtractor};
use crate::par::par_map_indexed;
use crate::profile::{AlgorithmProfile, TrainingRecord};
use crate::Result;
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::DetectionOutput;
use eecs_detect::detection::{AlgorithmId, Detection};
use eecs_detect::eval::ThresholdSweep;
use eecs_detect::probability::ScoreCalibration;
use eecs_detect::Detector;
use eecs_energy::comm::jpeg_frame_bytes;
use eecs_scene::sequence::FrameData;

/// Runs the detector over every frame on a small pool of scoped threads,
/// preserving frame order. Deterministic: each output depends only on its
/// own frame.
pub fn detect_all(detector: &dyn Detector, frames: &[FrameData]) -> Vec<DetectionOutput> {
    par_map_indexed(frames.len(), 0, |i| detector.detect(&frames[i].image))
}

/// Trains one record from a training segment's annotated frames: the
/// one-item case of [`train_records`].
///
/// # Errors
///
/// As [`train_records`].
pub fn train_record(
    name: &str,
    frames: &[FrameData],
    extractor: &FeatureExtractor,
    bank: &DetectorBank,
    config: &EecsConfig,
) -> Result<TrainingRecord> {
    let mut records = train_records(&[(name, frames)], extractor, bank, config)?;
    Ok(records.pop().expect("one record per item"))
}

/// Trains one record per `(name, frames)` item — the H × N grid.
///
/// `frames` should be the ground-truth-annotated frames of the item's
/// training segment (the paper trains thresholds on frames 0–1000 of each
/// feed); they also feed the item's manifold video item. Every (item,
/// frame) pair is one task on a scoped pool over the host's full
/// parallelism: it runs the bank's detectors and extracts the frame's
/// video features. Each record is then aggregated in item order exactly
/// as a serial loop would, so the records do not depend on the host.
///
/// # Errors
///
/// Propagates feature-extraction failures (the first in item, then frame
/// order) and items with fewer than 2 frames; individual algorithm
/// profiles degrade gracefully (calibration falls back to a sigmoid
/// anchored at the threshold when Platt fitting is degenerate).
pub fn train_records(
    items: &[(&str, &[FrameData])],
    extractor: &FeatureExtractor,
    bank: &DetectorBank,
    config: &EecsConfig,
) -> Result<Vec<TrainingRecord>> {
    let tasks: Vec<&FrameData> = items.iter().flat_map(|(_, frames)| *frames).collect();
    let detectors = bank.all();
    let mut results = par_map_indexed(tasks.len(), 0, |t| {
        let image = &tasks[t].image;
        let outputs: Vec<DetectionOutput> =
            detectors.iter().map(|(_, d)| d.detect(image)).collect();
        (outputs, extractor.extract_frame(image))
    })
    .into_iter();
    let mut records = Vec::with_capacity(items.len());
    for &(name, frames) in items {
        let mut per_algorithm: Vec<Vec<DetectionOutput>> = detectors
            .iter()
            .map(|_| Vec::with_capacity(frames.len()))
            .collect();
        let mut features = Vec::with_capacity(frames.len());
        for (outputs, frame_features) in results.by_ref().take(frames.len()) {
            for (column, output) in per_algorithm.iter_mut().zip(outputs) {
                column.push(output);
            }
            features.push(frame_features?);
        }
        let video = video_item(name, &features)?;
        let profiles = detectors
            .iter()
            .zip(per_algorithm)
            .map(|(&(algorithm, _), outputs)| profile_outputs(algorithm, frames, outputs, config))
            .collect();
        records.push(TrainingRecord::new(name, video, profiles)?);
    }
    Ok(records)
}

/// Measures one algorithm on a set of annotated frames, detecting on
/// scoped worker threads (each camera in the real testbed computes
/// independently; here the independence buys wall-clock speed).
pub fn profile_algorithm(
    algorithm: AlgorithmId,
    detector: &dyn Detector,
    frames: &[FrameData],
    config: &EecsConfig,
) -> AlgorithmProfile {
    profile_outputs(algorithm, frames, detect_all(detector, frames), config)
}

/// Mean energy (J) and modeled processing time (s) per frame of an
/// algorithm that spent `total_ops` on `frames` frames of `frame_px`
/// pixels. Energy is processing plus the algorithm-independent
/// communication cost, estimated (as in Section VI) by assuming the whole
/// JPEG frame is transferred — an upper bound on the cropped-object
/// transfer.
pub fn per_frame_cost(
    config: &EecsConfig,
    total_ops: u64,
    frames: usize,
    frame_px: (usize, usize),
) -> (f64, f64) {
    let n = frames.max(1) as f64;
    let processing = config.device.processing_energy(total_ops) / n;
    let comm = config
        .link
        .transmit_energy(jpeg_frame_bytes(frame_px.0, frame_px.1), &config.device);
    (
        processing + comm,
        config.device.processing_time(total_ops) / n,
    )
}

/// Profiles one algorithm from its per-frame `outputs` on `frames`:
/// threshold sweep, energy and score calibration.
fn profile_outputs(
    algorithm: AlgorithmId,
    frames: &[FrameData],
    outputs: Vec<DetectionOutput>,
    config: &EecsConfig,
) -> AlgorithmProfile {
    let mut per_frame: Vec<(Vec<Detection>, Vec<eecs_scene::ground_truth::GtBox>)> = Vec::new();
    let mut total_ops = 0u64;
    let mut frame_px = (0usize, 0usize);
    for (frame, out) in frames.iter().zip(outputs) {
        total_ops += out.ops;
        frame_px = (frame.image.width(), frame.image.height());
        per_frame.push((out.detections, frame.gt.clone()));
    }

    // Threshold selection: d_t maximizing f-score (Section VI-A).
    let sweep = ThresholdSweep::run(&per_frame, &config.eval, 64);
    let (threshold, counts) = sweep.best();

    let (energy_per_frame_j, processing_time_s) =
        per_frame_cost(config, total_ops, frames.len(), frame_px);

    // Score calibration on the same frames; degenerate label sets — or a
    // fit whose slope came out non-positive (higher score must never mean
    // lower confidence) — fall back to a unit-slope sigmoid centered at the
    // threshold.
    let calibration = ScoreCalibration::fit(&per_frame, &config.eval)
        .ok()
        .filter(|c| c.parts().0 > 0.0)
        .unwrap_or_else(|| ScoreCalibration::from_parts(1.0, -threshold));

    AlgorithmProfile {
        algorithm,
        threshold,
        recall: counts.recall(),
        precision: counts.precision(),
        f_score: counts.f_score(),
        energy_per_frame_j,
        processing_time_s,
        calibration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_scene::dataset::{DatasetId, DatasetProfile};
    use eecs_scene::sequence::VideoFeed;

    fn setup() -> (Vec<FrameData>, FeatureExtractor, DetectorBank) {
        let feed = VideoFeed::open(DatasetProfile::miniature(DatasetId::Lab), 0);
        let frames = feed.annotated_frames(0, 40);
        let images: Vec<_> = frames.iter().map(|f| f.image.clone()).collect();
        let extractor = FeatureExtractor::build(&images, 12, 5).unwrap();
        let bank = DetectorBank::train_quick(9).unwrap();
        (frames, extractor, bank)
    }

    #[test]
    fn record_contains_all_four_algorithms() {
        let (frames, extractor, bank) = setup();
        let record =
            train_record("T_1.1", &frames, &extractor, &bank, &EecsConfig::default()).unwrap();
        assert_eq!(record.profiles.len(), 4);
        assert_eq!(record.name, "T_1.1");
        assert_eq!(record.video.num_frames(), frames.len());
        for alg in AlgorithmId::ALL {
            let p = record.profile(alg).unwrap();
            assert!((0.0..=1.0).contains(&p.f_score), "{alg}: f={}", p.f_score);
            assert!(p.energy_per_frame_j > 0.0);
            assert!(p.processing_time_s > 0.0);
        }
    }

    #[test]
    fn acf_is_cheapest_lsvm_not_cheapest() {
        let (frames, extractor, bank) = setup();
        let record = train_record("T", &frames, &extractor, &bank, &EecsConfig::default()).unwrap();
        let energy = |a| record.profile(a).unwrap().energy_per_frame_j;
        assert!(energy(AlgorithmId::Acf) < energy(AlgorithmId::Hog));
        assert!(energy(AlgorithmId::Acf) < energy(AlgorithmId::Lsvm));
        assert!(energy(AlgorithmId::Acf) < energy(AlgorithmId::C4));
    }

    #[test]
    fn parallel_detection_matches_sequential() {
        let (frames, _, bank) = setup();
        let det = bank.detector(AlgorithmId::Acf);
        let parallel = detect_all(det, &frames[..4]);
        let sequential: Vec<_> = frames[..4].iter().map(|f| det.detect(&f.image)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn probabilities_monotone_in_score() {
        let (frames, extractor, bank) = setup();
        let record = train_record("T", &frames, &extractor, &bank, &EecsConfig::default()).unwrap();
        for alg in AlgorithmId::ALL {
            let cal = &record.profile(alg).unwrap().calibration;
            assert!(cal.probability(5.0) >= cal.probability(-5.0), "{alg}");
        }
    }
}
