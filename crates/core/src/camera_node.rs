//! A camera sensor node.
//!
//! Owns the four-detector bank, a battery, a per-frame energy budget and
//! the controller-assigned algorithm. Produces [`CameraReport`]s: for each
//! detection above the environment's threshold `d_t`, the bounding box, the
//! calibrated probability `P_ij` and the 40-d mean-color feature
//! (Section V-A).

use crate::metadata::{CameraReport, ObjectMetadata};
use crate::profile::AlgorithmProfile;
use crate::{EecsError, Result};
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::{AlgorithmId, BBox, DetectionOutput};
use eecs_energy::budget::{BatteryState, EnergyBudget};
use eecs_energy::meter::{EnergyCategory, PowerMeter};
use eecs_energy::model::DeviceEnergyModel;
use eecs_vision::color::mean_color_feature;
use eecs_vision::image::RgbImage;

/// One battery-operated camera sensor.
#[derive(Debug, Clone)]
pub struct CameraNode {
    index: usize,
    bank: DetectorBank,
    battery: BatteryState,
    budget: EnergyBudget,
    assigned: Option<AlgorithmId>,
    meter: PowerMeter,
}

impl CameraNode {
    /// Creates a node.
    pub fn new(
        index: usize,
        bank: DetectorBank,
        battery: BatteryState,
        budget: EnergyBudget,
    ) -> CameraNode {
        CameraNode {
            index,
            bank,
            battery,
            budget,
            assigned: None,
            meter: PowerMeter::new(),
        }
    }

    /// This camera's index `j`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current battery state.
    pub fn battery(&self) -> &BatteryState {
        &self.battery
    }

    /// The per-frame budget `B_j`.
    pub fn budget(&self) -> &EnergyBudget {
        &self.budget
    }

    /// Accumulated energy meter.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Mutable access to the battery and meter together, for transports
    /// that charge the radio per attempt
    /// ([`eecs_net::Network::send_reliable`]).
    pub fn radio_mut(&mut self) -> (&mut BatteryState, &mut PowerMeter) {
        (&mut self.battery, &mut self.meter)
    }

    /// The controller-assigned algorithm, if the camera is active.
    pub fn assigned(&self) -> Option<AlgorithmId> {
        self.assigned
    }

    /// Applies a controller command: `Some(algorithm)` activates with that
    /// algorithm, `None` deactivates.
    pub fn set_assignment(&mut self, assignment: Option<AlgorithmId>) {
        self.assigned = assignment;
    }

    /// Runs `algorithm` on a frame under the environment `profile`
    /// (threshold + calibration), charging the battery for the processing
    /// energy and returning the metadata report.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::Subsystem`] when the battery cannot cover the
    /// processing cost (the frame is skipped and nothing is charged).
    pub fn run_algorithm(
        &mut self,
        algorithm: AlgorithmId,
        frame: &RgbImage,
        profile: &AlgorithmProfile,
        device: &DeviceEnergyModel,
    ) -> Result<CameraReport> {
        let output = self.bank.detector(algorithm).detect(frame);
        self.ingest_detection(frame, output, profile, device)
    }

    /// The stateful half of [`CameraNode::run_algorithm`]: charges the
    /// battery for a detection `output` (computed by this node's bank on
    /// `frame`, possibly on another thread) and turns it into a metadata
    /// report. Splitting detection from ingestion lets the simulator
    /// precompute the pure detection work in parallel and apply the
    /// battery/meter effects serially, in deterministic order.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::Subsystem`] when the battery cannot cover the
    /// processing cost (the frame is skipped and nothing is charged).
    pub fn ingest_detection(
        &mut self,
        frame: &RgbImage,
        output: DetectionOutput,
        profile: &AlgorithmProfile,
        device: &DeviceEnergyModel,
    ) -> Result<CameraReport> {
        let energy = device.processing_energy(output.ops);
        self.battery
            .drain(energy)
            .map_err(|e| EecsError::Subsystem(format!("camera {}: {e}", self.index)))?;
        self.meter.record(EnergyCategory::Processing, energy);

        let mut objects = Vec::new();
        for det in output
            .detections
            .iter()
            .filter(|d| d.score >= profile.threshold)
        {
            let color = region_color(frame, det.bbox);
            objects.push(ObjectMetadata {
                camera: self.index,
                bbox: det.bbox,
                probability: profile.calibration.probability(det.score),
                color,
            });
        }
        Ok(CameraReport { objects })
    }

    /// Charges a radio transmission of `bytes` against the battery.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::Subsystem`] on battery exhaustion.
    pub fn charge_transmission(
        &mut self,
        bytes: u64,
        device: &DeviceEnergyModel,
        link: &eecs_energy::comm::LinkModel,
    ) -> Result<()> {
        let energy = link.transmit_energy(bytes, device);
        self.battery
            .drain(energy)
            .map_err(|e| EecsError::Subsystem(format!("camera {}: {e}", self.index)))?;
        self.meter.record(EnergyCategory::Communication, energy);
        Ok(())
    }
}

/// The mean-color feature of a bounding box clipped to the frame; a zeroed
/// feature when the clipped region is degenerate.
pub fn region_color(frame: &RgbImage, bbox: BBox) -> Vec<f64> {
    let cx0 = bbox.x0.max(0.0) as usize;
    let cy0 = bbox.y0.max(0.0) as usize;
    let cx1 = (bbox.x1.min(frame.width() as f64) as usize).min(frame.width());
    let cy1 = (bbox.y1.min(frame.height() as f64) as usize).min(frame.height());
    if cx1 <= cx0 + 1 || cy1 <= cy0 + 1 {
        return vec![0.0; eecs_vision::color::MEAN_COLOR_DIM];
    }
    mean_color_feature(frame, cx0, cy0, cx1 - cx0, cy1 - cy0)
        .unwrap_or_else(|_| vec![0.0; eecs_vision::color::MEAN_COLOR_DIM])
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_detect::probability::ScoreCalibration;
    use eecs_vision::draw;

    fn node() -> CameraNode {
        CameraNode::new(
            2,
            DetectorBank::train_quick(3).unwrap(),
            BatteryState::new(1000.0).unwrap(),
            EnergyBudget::per_frame(2.0).unwrap(),
        )
    }

    fn profile(threshold: f64) -> AlgorithmProfile {
        AlgorithmProfile {
            algorithm: AlgorithmId::Acf,
            threshold,
            recall: 0.8,
            precision: 0.9,
            f_score: 0.85,
            energy_per_frame_j: 0.1,
            processing_time_s: 0.1,
            calibration: ScoreCalibration::from_parts(2.0, 0.0),
        }
    }

    fn frame_with_person() -> RgbImage {
        let mut img = RgbImage::new(160, 120);
        draw::vertical_gradient(&mut img, [0.6, 0.6, 0.58], [0.35, 0.35, 0.33]);
        draw::draw_human(
            &mut img,
            70.0,
            40.0,
            90.0,
            110.0,
            [0.8, 0.1, 0.1],
            [0.85, 0.65, 0.5],
        );
        img
    }

    #[test]
    fn run_charges_battery_and_reports() {
        let mut n = node();
        let before = n.battery().residual();
        let report = n
            .run_algorithm(
                AlgorithmId::Acf,
                &frame_with_person(),
                &profile(-10.0),
                &DeviceEnergyModel::default(),
            )
            .unwrap();
        assert!(n.battery().residual() < before);
        assert!(n.meter().by_category(EnergyCategory::Processing) > 0.0);
        // Threshold −10 keeps every candidate: report mirrors detections.
        for obj in &report.objects {
            assert_eq!(obj.camera, 2);
            assert!((0.0..=1.0).contains(&obj.probability));
            assert_eq!(obj.color.len(), eecs_vision::color::MEAN_COLOR_DIM);
        }
    }

    #[test]
    fn threshold_filters_detections() {
        let mut n = node();
        let low = n
            .run_algorithm(
                AlgorithmId::Acf,
                &frame_with_person(),
                &profile(-10.0),
                &DeviceEnergyModel::default(),
            )
            .unwrap();
        let high = n
            .run_algorithm(
                AlgorithmId::Acf,
                &frame_with_person(),
                &profile(1e9),
                &DeviceEnergyModel::default(),
            )
            .unwrap();
        assert!(high.len() <= low.len());
        assert!(high.is_empty());
    }

    #[test]
    fn dead_battery_skips_frame_atomically() {
        let mut n = CameraNode::new(
            0,
            DetectorBank::train_quick(4).unwrap(),
            BatteryState::new(1e-9).unwrap(),
            EnergyBudget::per_frame(1.0).unwrap(),
        );
        let err = n.run_algorithm(
            AlgorithmId::Acf,
            &frame_with_person(),
            &profile(0.0),
            &DeviceEnergyModel::default(),
        );
        assert!(err.is_err());
        assert_eq!(n.meter().total(), 0.0);
    }

    #[test]
    fn assignment_lifecycle() {
        let mut n = node();
        assert_eq!(n.assigned(), None);
        n.set_assignment(Some(AlgorithmId::Hog));
        assert_eq!(n.assigned(), Some(AlgorithmId::Hog));
        n.set_assignment(None);
        assert_eq!(n.assigned(), None);
    }

    #[test]
    fn transmission_charged_to_communication() {
        let mut n = node();
        n.charge_transmission(
            1000,
            &DeviceEnergyModel::default(),
            &eecs_energy::comm::LinkModel::default(),
        )
        .unwrap();
        assert!(n.meter().by_category(EnergyCategory::Communication) > 0.0);
    }
}
