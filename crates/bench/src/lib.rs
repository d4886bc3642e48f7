//! Experiment harness for reproducing every table and figure of the paper.
//!
//! Each binary in `src/bin/` regenerates one artifact:
//!
//! | binary       | artifact |
//! |--------------|----------|
//! | `table2_3_4` | Tables II, III, IV — per-algorithm accuracy/energy/time |
//! | `table5`     | Table V — 12×12 manifold similarity matrix |
//! | `fig3`       | Fig. 3 — adaptive vs fixed algorithm accuracy |
//! | `fig4`       | Fig. 4 — accuracy/energy trade-off of camera+algorithm mixes |
//! | `fig5`       | Fig. 5a/5b — EECS vs baselines on dataset #1 |
//! | `fig6`       | Fig. 6 — EECS vs baselines on dataset #2 |
//! | `run_all`    | everything, written to `EXPERIMENTS-report.txt` |
//!
//! Each one is a [`scenarios`] shard over the memoized
//! [`artifacts::Artifacts`]; `run_all` runs all six in one process. Pass
//! `--quick` to any binary for a reduced frame range (same pipeline,
//! smaller samples) when iterating.
//!
//! This crate also hosts the Criterion benches (`benches/`) that back the
//! energy/time columns and the DESIGN.md §5 ablations.

pub mod artifacts;
pub mod report;
pub mod scenarios;
pub mod serving;
pub mod sweep;

use eecs_core::config::EecsConfig;
use eecs_core::simulation::{OperatingMode, Parallelism, SimulationConfig};
use eecs_detect::bank::DetectorBank;
use eecs_detect::Detector;
use eecs_energy::model::DeviceEnergyModel;
use eecs_net::fault::{ControllerFaultPlan, FaultPlan};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sensor_fault::SensorFaultPlan;
use eecs_scene::sequence::{FrameData, VideoFeed};

/// How much data an experiment run consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's protocol: train on frames 0–1000, test on 1000–3000,
    /// evaluating every ground-truth-annotated frame.
    Paper,
    /// A reduced range for quick iteration (same cadence, ~¼ the frames).
    Quick,
}

impl Scale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// `(train_end, test_end)` frame bounds for a dataset.
    pub fn bounds(&self, profile: &DatasetProfile) -> (usize, usize) {
        match self {
            Scale::Paper => (profile.train_frames, profile.total_frames),
            Scale::Quick => {
                let train_end = profile.train_frames.min(10 * profile.gt_interval);
                (train_end, train_end + 14 * profile.gt_interval)
            }
        }
    }
}

/// The experiment energy configuration: radio constants for "WiFi in good
/// conditions" and a processing constant *calibrated* (as the paper did
/// with PowerTutor) so that HOG on a 360×288 frame costs ≈ 1.08 J in total
/// (Table II), of which ~0.03 J is the algorithm-independent communication
/// cost.
pub fn calibrated_device(bank: &DetectorBank) -> DeviceEnergyModel {
    let feed = VideoFeed::open(DatasetProfile::lab(), 0);
    let frames = feed.frames(0, 3 * 25, 25);
    let total_ops: u64 = frames.iter().map(|f| bank.hog().detect(&f.image).ops).sum();
    let mean_ops = (total_ops / frames.len() as u64).max(1);
    DeviceEnergyModel {
        joules_per_byte_tx: 1.5e-6,
        radio_overhead_j: 0.005,
        ..Default::default()
    }
    .calibrated_to(mean_ops, 1.049)
    .expect("positive calibration anchors")
}

/// The miniature mission the smokes, the service base and the pipeline
/// benches share: the miniature Lab profile with four people, frames
/// 40..`end_frame`, full EECS with 10-frame assessments, 30-frame
/// recalibration and 8 key frames, a 12-word vocabulary, 8 training
/// frames, no boosting and no faults.
pub fn miniature_config(
    cameras: usize,
    end_frame: usize,
    budget_j_per_frame: f64,
    parallel: Parallelism,
) -> SimulationConfig {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    SimulationConfig {
        profile,
        cameras,
        start_frame: 40,
        end_frame,
        budget_j_per_frame,
        mode: OperatingMode::FullEecs,
        eecs: EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        },
        feature_words: 12,
        max_training_frames: 8,
        boost_every: 0,
        fault_plan: FaultPlan::ideal(),
        sensor_plan: SensorFaultPlan::ideal(),
        controller_plan: ControllerFaultPlan::none(),
        parallel,
    }
}

/// Loads the annotated training-segment frames of one feed.
pub fn training_frames(profile: &DatasetProfile, camera: usize, scale: Scale) -> Vec<FrameData> {
    let (train_end, _) = scale.bounds(profile);
    VideoFeed::open(profile.clone(), camera).annotated_frames(0, train_end)
}

/// Loads the annotated test-segment frames of one feed.
pub fn test_frames(profile: &DatasetProfile, camera: usize, scale: Scale) -> Vec<FrameData> {
    let (train_end, test_end) = scale.bounds(profile);
    VideoFeed::open(profile.clone(), camera).annotated_frames(train_end, test_end)
}

/// Formats a float to 3 decimals, or "-" for non-finite values.
pub fn fmt3(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_bounds_paper_protocol() {
        let p = DatasetProfile::lab();
        let (train, test) = Scale::Paper.bounds(&p);
        assert_eq!(train, 1000);
        assert_eq!(test, 3000);
        let (qt, qe) = Scale::Quick.bounds(&p);
        assert!(qt <= train && qe < test);
    }

    #[test]
    fn quick_scale_still_has_frames() {
        for id in DatasetId::ALL {
            let p = DatasetProfile::for_id(id);
            let (train_end, test_end) = Scale::Quick.bounds(&p);
            assert!(train_end / p.gt_interval >= 2, "{id}: train too short");
            assert!(
                (test_end - train_end) / p.gt_interval >= 4,
                "{id}: test too short"
            );
        }
    }

    #[test]
    fn fmt3_handles_nan() {
        assert_eq!(fmt3(f64::NAN), "-");
        assert_eq!(fmt3(1.23456), "1.235");
    }
}
