//! `Simulation::prepare` trains the H × N grid on one pool and renders
//! only the training frames it keeps. Neither may change what it
//! prepares: every training record must equal, to the bit, the record a
//! plain serial set-up builds — the full annotated training range
//! rendered and truncated, `profile_algorithm` per algorithm,
//! `extract_video` per camera — and every camera must match the same
//! library item.

use eecs::core::config::EecsConfig;
use eecs::core::controller::Controller;
use eecs::core::features::FeatureExtractor;
use eecs::core::profile::TrainingRecord;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::testkit::assert_records_bit_identical;
use eecs::core::training::profile_algorithm;
use eecs::core::EecsError;
use eecs::detect::bank::DetectorBank;
use eecs::net::fault::{ControllerFaultPlan, FaultPlan};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::rig::{camera_rig, rig_calibrations};
use eecs::scene::sensor_fault::SensorFaultPlan;
use eecs::scene::sequence::VideoFeed;
use std::sync::OnceLock;

/// One trained bank for the whole binary.
fn bank() -> DetectorBank {
    static BANK: OnceLock<DetectorBank> = OnceLock::new();
    BANK.get_or_init(|| DetectorBank::train_quick(31).expect("bank"))
        .clone()
}

fn config(
    id: DatasetId,
    cameras: usize,
    start_frame: usize,
    max_training_frames: usize,
) -> SimulationConfig {
    SimulationConfig {
        profile: DatasetProfile::miniature(id),
        cameras,
        start_frame,
        end_frame: 100,
        budget_j_per_frame: 5.0,
        mode: OperatingMode::FullEecs,
        eecs: EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        },
        feature_words: 12,
        max_training_frames,
        boost_every: 0,
        fault_plan: FaultPlan::ideal(),
        sensor_plan: SensorFaultPlan::ideal(),
        controller_plan: ControllerFaultPlan::none(),
        parallel: Parallelism::serial(),
    }
}

/// The serial set-up: the training records and matched library indices
/// `prepare` must reproduce.
fn serial_oracle(
    bank: &DetectorBank,
    config: &SimulationConfig,
) -> (Vec<TrainingRecord>, Vec<usize>) {
    let profile = &config.profile;
    let feeds: Vec<VideoFeed> = (0..config.cameras)
        .map(|j| VideoFeed::open(profile.clone(), j))
        .collect();
    let train_end = profile
        .train_frames
        .min(config.start_frame)
        .max(profile.gt_interval + 1);
    let train_frames: Vec<_> = feeds
        .iter()
        .map(|feed| {
            let mut frames = feed.annotated_frames(0, train_end);
            frames.truncate(config.max_training_frames.max(2));
            frames
        })
        .collect();
    let vocab: Vec<_> = train_frames
        .iter()
        .flat_map(|frames| frames.iter().take(3).map(|f| f.image.clone()))
        .collect();
    let extractor = FeatureExtractor::build(&vocab, config.feature_words, 17).expect("vocabulary");
    let records: Vec<_> = train_frames
        .iter()
        .enumerate()
        .map(|(j, frames)| {
            let name = format!("T_{}.{}", profile.id.number(), j + 1);
            let images: Vec<_> = frames.iter().map(|f| f.image.clone()).collect();
            let video = extractor
                .extract_video(name.as_str(), &images)
                .expect("video");
            let profiles = bank
                .all()
                .into_iter()
                .map(|(algorithm, detector)| {
                    profile_algorithm(algorithm, detector, frames, &config.eecs)
                })
                .collect();
            TrainingRecord::new(name, video, profiles).expect("record")
        })
        .collect();
    let calibrations = rig_calibrations(profile, &camera_rig(profile));
    let controller =
        Controller::new(records, calibrations, config.eecs.clone()).expect("controller");
    let sample_end = (config.start_frame + 5 * profile.gt_interval + 1).min(config.end_frame);
    let mut matched = Vec::new();
    for (j, feed) in feeds.iter().enumerate() {
        let images: Vec<_> = feed
            .annotated_frames(config.start_frame, sample_end)
            .into_iter()
            .map(|f| f.image)
            .collect();
        if images.len() < 2 {
            matched.push(j);
            continue;
        }
        let item = extractor
            .extract_video(format!("V_cam{j}"), &images)
            .expect("sample video");
        matched.push(controller.match_feed(&item).expect("match").0.best_index);
    }
    (controller.records().to_vec(), matched)
}

/// Prepares `config` and checks it against the oracle; returns the
/// number of key frames each record trained on.
fn assert_prepare_matches_oracle(config: SimulationConfig) -> usize {
    let bank = bank();
    let (want_records, want_matched) = serial_oracle(&bank, &config);
    let sim = Simulation::prepare(bank, config).expect("prepare");
    let got = sim.controller().records();
    assert_eq!(got.len(), want_records.len());
    for (g, w) in got.iter().zip(&want_records) {
        assert_records_bit_identical(g, w);
    }
    assert_eq!(sim.matched_records(), want_matched.as_slice());
    let frames = got[0].video.num_frames();
    assert!(got.iter().all(|r| r.video.num_frames() == frames));
    frames
}

#[test]
fn miniature_lab_prepares_as_the_serial_oracle() {
    // Keeps 2 of the 8 annotated frames in 0..40, as the benchmark does.
    assert_eq!(
        assert_prepare_matches_oracle(config(DatasetId::Lab, 4, 40, 2)),
        2
    );
}

#[test]
fn miniature_chap_keeping_more_frames_than_annotated_trains_on_all() {
    // 0..40 at cadence 5 annotates 8 frames; 100 kept is clamped to 8.
    assert_eq!(
        assert_prepare_matches_oracle(config(DatasetId::Chap, 3, 40, 100)),
        8
    );
}

#[test]
fn start_frame_clamps_the_training_segment() {
    // The test segment starts at 17, before `train_frames` (40): training
    // ends there, at frames 0, 5, 10 and 15, though 8 could be kept.
    assert_eq!(
        assert_prepare_matches_oracle(config(DatasetId::Lab, 2, 17, 8)),
        4
    );
}

#[test]
fn training_segment_without_a_cadence_is_refused() {
    let mut config = config(DatasetId::Lab, 2, 40, 2);
    config.profile.gt_interval = 0;
    match Simulation::prepare(bank(), config) {
        Err(EecsError::InvalidArgument(msg)) => {
            assert!(msg.contains("training segment too short"), "{msg}");
        }
        other => panic!("expected the short-segment error, got {:?}", other.err()),
    }
}
