//! The closed-loop testbed simulation (Section VI-E).
//!
//! Drives a dataset's four feeds through rounds of
//! assessment → selection → operation, with every Joule of processing and
//! communication charged to the camera batteries. The three operating
//! modes are the three bars of Figs. 5–6:
//!
//! * [`OperatingMode::AllBest`] — every camera always runs its best
//!   budget-feasible algorithm (the paper's baseline),
//! * [`OperatingMode::CameraSubset`] — EECS chooses a sufficient camera
//!   subset but keeps best algorithms,
//! * [`OperatingMode::FullEecs`] — subset choice plus algorithm
//!   downgrades (the complete framework).
//!
//! As in the paper, only ground-truth-annotated frames are processed
//! ("we only process frames that have ground truth information",
//! Section VI-E), so a 100-frame assessment period spans 4 annotated
//! frames on datasets #1/#3 and 10 on dataset #2.

#![warn(clippy::too_many_lines)]

use crate::camera_node::CameraNode;
use crate::checkpoint::{CheckpointFaultPlan, CheckpointStore, SimulationCheckpoint};
use crate::config::{ConfigError, EecsConfig};
use crate::controller::{
    AssessmentCache, CameraAssessment, Controller, QuarantineLedger, QuarantinePolicy,
};
use crate::features::FeatureExtractor;
use crate::metadata::CameraReport;
use crate::profile::TrainingRecord;
use crate::reconcile::{reconcile, SeatSnapshot};
use crate::reid::ReidConfig;
use crate::selection::{AssessmentData, SelectionOutcome};
use crate::telemetry::{Telemetry, TraceEvent};
use crate::training::train_records;
use crate::{EecsError, Result};
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::{AlgorithmId, DetectionOutput};
use eecs_detect::health::DetectorHealth;
use eecs_detect::FrameFeatures;
use eecs_energy::budget::{BatteryState, EnergyBudget};
use eecs_energy::comm::JPEG_BYTES_PER_PIXEL;
use eecs_energy::profile::DeviceProfile;
use eecs_net::fault::{ChurnPlan, ControllerFaultPlan, Endpoint, FaultPlan, PartitionPlan};
use eecs_net::message::Message;
use eecs_net::reliable::Delivery;
use eecs_net::transport::{Network, TransportStats};
use eecs_scene::dataset::DatasetProfile;
use eecs_scene::rig::{rig_calibrations, CAMERAS_PER_DATASET};
use eecs_scene::sensor_fault::{FrameImpairment, SensorFaultPlan};
use eecs_scene::sequence::{FrameData, VideoFeed};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Ground-distance tolerance when scoring fused objects against ground
/// truth (meters).
const GT_MATCH_GATE_M: f64 = 1.2;

/// Graceful degradation: how many rounds old a silent camera's cached
/// assessment data may be and still feed selection. Past this age the
/// camera is excluded from the round instead, and a rejoining camera's
/// older cache entries are evicted.
const STALENESS_LIMIT_ROUNDS: usize = 2;

/// Rounds an island tolerates without hearing any seat before it elects
/// its own acting controller. Must be positive: a zero timeout would
/// elect an acting controller the instant a probe round is missed,
/// turning every transient hiccup into a split brain.
const ELECTION_TIMEOUT_ROUNDS: usize = 1;

/// How far ahead of a receiver's fenced epoch an announced epoch may run
/// and still be accepted; announcements beyond it are treated as corrupt
/// and ignored. Must be positive: a legitimate successor is always at
/// least one epoch ahead of its audience, so a zero skew would fence out
/// every handover.
const MAX_EPOCH_SKEW: u64 = 8;

/// Telemetry histogram buckets for per-detection object counts.
const DETECT_OBJECTS_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Telemetry histogram buckets for per-round energy (J).
const ROUND_ENERGY_BOUNDS: &[f64] = &[5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

/// Host-side execution settings: how the simulator schedules the pure
/// detection work of a round. These knobs change wall-clock time only —
/// detections, op counters, and every Joule of modeled energy are
/// bit-identical across all settings (the stateful battery/network
/// effects always replay serially in the original order).
///
/// They govern [`Simulation::run`] only: its capture of the test segment
/// and its per-round detection. Offline training in
/// [`Simulation::prepare`] — one pool task per (camera, training frame)
/// in `training::train_records`, then one per camera for feed matching —
/// always fans out over the host's full available parallelism, even
/// under [`Parallelism::serial`]; its records are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for the run's pools: capture (one task per camera
    /// renders and impairs its test frames into buffers the run's own
    /// thread allocated) and the per-round detection fan-out. `0` means
    /// auto (the host's available parallelism); `1` runs inline.
    pub workers: usize,
    /// Run the algorithms assessed on the same frame through one shared
    /// `FrameFeatures` handle (its grayscale conversion and scratch
    /// buffers). Host-side only: the modeled cameras run each algorithm
    /// in isolation, so per-algorithm `ops` counters and
    /// `processing_energy` charges are not reduced.
    pub feature_cache: bool,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            workers: 0,
            feature_cache: true,
        }
    }
}

impl Parallelism {
    /// Fully serial reference settings: one worker, no feature sharing.
    pub fn serial() -> Parallelism {
        Parallelism {
            workers: 1,
            feature_cache: false,
        }
    }
}

/// Which coordination strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingMode {
    /// All cameras, best algorithms (baseline of Figs. 5–6).
    AllBest,
    /// EECS camera subset, best algorithms.
    CameraSubset,
    /// Full EECS: subset + algorithm downgrades.
    FullEecs,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The dataset to run.
    pub profile: DatasetProfile,
    /// Number of cameras to use (≤ 4; the paper uses all 4).
    pub cameras: usize,
    /// First test frame (inclusive; the paper starts at frame 1000).
    pub start_frame: usize,
    /// Last test frame (exclusive).
    pub end_frame: usize,
    /// Per-frame energy budget `B_j` (Joules) — the knob of Fig. 5a vs 5b.
    pub budget_j_per_frame: f64,
    /// Coordination strategy.
    pub mode: OperatingMode,
    /// Framework configuration.
    pub eecs: EecsConfig,
    /// Visual-word vocabulary size for the feature extractor.
    pub feature_words: usize,
    /// Cap on annotated training frames per camera used for offline
    /// training (controls preparation cost; the paper used the full
    /// 1000-frame segment).
    pub max_training_frames: usize,
    /// Section VII extension: every `boost_every`-th recalibration round
    /// runs with the all-cameras/best-algorithms configuration to catch
    /// objects missed during energy-saving rounds ("EECS would then
    /// periodically enforce higher accuracy requirements in other
    /// rounds"). `0` disables boosting.
    pub boost_every: usize,
    /// Deterministic network-fault schedule. [`FaultPlan::ideal`] (no
    /// faults) reproduces the idealized pre-chaos energy numbers exactly.
    pub fault_plan: FaultPlan,
    /// Deterministic sensor-fault schedule: per-camera frame corruption
    /// (noise, blur, occlusion, exposure drift, stuck rows, dropped
    /// frames). [`SensorFaultPlan::ideal`] leaves every pixel untouched
    /// and reproduces the clean-sensor reports exactly.
    pub sensor_plan: SensorFaultPlan,
    /// Deterministic controller-crash schedule. While a crash window is
    /// open the hub is dark; the surviving cameras elect a replacement
    /// from their own ranks and restore its state from the last
    /// checkpoint. [`ControllerFaultPlan::none`] keeps the mains-powered
    /// controller immortal and the run bit-identical to pre-chaos.
    pub controller_plan: ControllerFaultPlan,
    /// Host-side execution settings (worker pool, feature cache) for the
    /// rounds of [`Simulation::run`]. Affects wall-clock only; reports are
    /// bit-identical across settings. Offline training in
    /// [`Simulation::prepare`] ignores it and uses every host core.
    pub parallel: Parallelism,
}

impl SimulationConfig {
    /// Structural validation, before any feed is opened or detector run.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`]: no cameras, more cameras than a
    /// rig's [`CAMERAS_PER_DATASET`], an empty frame range, or a
    /// NaN/infinite/negative per-frame budget.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.cameras == 0 {
            return Err(ConfigError::NoCameras);
        }
        if self.cameras > CAMERAS_PER_DATASET {
            return Err(ConfigError::TooManyCameras {
                requested: self.cameras,
                max: CAMERAS_PER_DATASET,
            });
        }
        if self.start_frame >= self.end_frame {
            return Err(ConfigError::EmptyFrameRange {
                start: self.start_frame,
                end: self.end_frame,
            });
        }
        if !self.budget_j_per_frame.is_finite() {
            return Err(ConfigError::NonFiniteBudget(self.budget_j_per_frame));
        }
        if self.budget_j_per_frame < 0.0 {
            return Err(ConfigError::NegativeBudget(self.budget_j_per_frame));
        }
        Ok(())
    }
}

/// One controller failover, as it happened during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Round whose start the controller crashed at.
    pub round: usize,
    /// Camera elected as the replacement controller: the survivor with
    /// the least energy spent (`PowerMeter::total`), ties to the lowest
    /// index — the same rule as island elections.
    pub elected: usize,
    /// Round of the checkpoint the new controller restored from.
    pub checkpoint_round: usize,
    /// Peers that acknowledged the handover announcement.
    pub announced: usize,
}

/// One recalibration round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// First annotated frame index of the round.
    pub first_frame: usize,
    /// Last annotated frame index of the round.
    pub last_frame: usize,
    /// Active cameras.
    pub active: Vec<usize>,
    /// Algorithm per active camera.
    pub assignment: BTreeMap<usize, AlgorithmId>,
    /// Energy spent in the round (J, all cameras).
    pub energy_j: f64,
    /// Correctly detected humans (fused objects matched to ground truth).
    pub correct: usize,
    /// Ground-truth humans present (visible to some camera).
    pub gt: usize,
}

/// Full-run results — the numbers behind one bar of Figs. 5–6.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Strategy that produced this report.
    pub mode: OperatingMode,
    /// Per-round details.
    pub rounds: Vec<RoundRecord>,
    /// Total energy over the run (J).
    pub total_energy_j: f64,
    /// Total correctly detected humans.
    pub correctly_detected: usize,
    /// Total ground-truth humans.
    pub gt_objects: usize,
    /// Energy per camera (J).
    pub per_camera_energy: Vec<f64>,
    /// Per-camera uplink transport statistics (attempts, drops, retries,
    /// timeouts, duplicates, …).
    pub transport: Vec<TransportStats>,
    /// Controller-side downlink statistics.
    pub downlink: TransportStats,
    /// Controller failovers, in order of occurrence. Empty unless a
    /// [`ControllerFaultPlan`] crash window opened during the run.
    pub failovers: Vec<FailoverEvent>,
    /// Frames the sensor-fault plan visibly corrupted (noise, blur,
    /// occlusion, exposure shift or stuck rows — drops counted
    /// separately).
    pub degraded_frames: usize,
    /// Frames the sensor-fault plan dropped entirely.
    pub dropped_frames: usize,
    /// Detector-health strikes the controller recorded (each one
    /// quarantined or extended the quarantine of a (camera, algorithm)
    /// pair).
    pub quarantine_strikes: usize,
    /// Network partitions that opened during the run (a contiguous span
    /// of partitioned rounds counts once). Zero without a
    /// [`PartitionPlan`].
    pub partitions: usize,
    /// Acting controllers elected by orphaned islands (epoch-fenced;
    /// does not count [`Self::failovers`] from controller crashes).
    pub elections: usize,
    /// Deterministic seat merges performed when islands healed.
    pub reconciliations: usize,
    /// Rounds that planned with more than one controller seat alive.
    pub split_brain_rounds: usize,
    /// Reliable-send attempts whose frame arrived bit-corrupted and was
    /// rejected by the receiver's checksum (uplink + downlink + peer).
    /// Zero without a [`eecs_net::CorruptionPlan`].
    pub corrupted_frames: u64,
    /// Checkpoint generations skipped by failover/election restores
    /// because they failed verification. Zero without a
    /// [`CheckpointFaultPlan`].
    pub checkpoint_rollbacks: u64,
    /// Cameras admitted (or re-admitted) to the fleet mid-run. Zero
    /// without a [`ChurnPlan`].
    pub camera_joins: usize,
    /// Cameras that left the fleet mid-run (absence windows, permanent
    /// departures, or random churn). Zero without a [`ChurnPlan`].
    pub camera_leaves: usize,
}

impl SimulationReport {
    /// Aggregate uplink statistics across all cameras.
    pub fn total_transport(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for s in &self.transport {
            total.merge(s);
        }
        total
    }
}

/// A prepared simulation: trained records, matched feeds, calibrated rig.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    bank: DetectorBank,
    feeds: Vec<VideoFeed>,
    controller: Controller,
    /// Matched training-record index per camera.
    matched: Vec<usize>,
    budgets: Vec<EnergyBudget>,
    /// Storage faults injected into the checkpoint store at commit time.
    checkpoint_faults: CheckpointFaultPlan,
    /// Per-camera device profiles. A uniform fleet (the default) is
    /// bit-identical to the legacy homogeneous simulation.
    fleet: Vec<DeviceProfile>,
    /// Deterministic join/leave/rejoin schedule. [`ChurnPlan::ideal`]
    /// keeps every camera present every round.
    churn: ChurnPlan,
    /// The test segment's clean frames and their detections, shared by
    /// every clone.
    clean_frames: FrameStore,
}

/// The clean test segment of a prepared simulation. Empty until the
/// first clean-sensor run captures it (`capture_segment`, on that run's
/// workers); every clone of the simulation (the `with_*` builders
/// included) shares the one copy. Sensor-fault runs capture their own
/// copy and never touch this one.
#[derive(Clone, Default)]
struct FrameStore(Arc<OnceLock<CleanSegment>>);

/// Terse, so a `Simulation`'s derived `Debug` does not dump pixels.
impl fmt::Debug for FrameStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(segment) => {
                let filled = segment.detections.iter().flatten().flatten();
                let filled = filled.filter(|slot| slot.get().is_some()).count();
                write!(
                    f,
                    "FrameStore({} cameras, filled, {filled} detections)",
                    segment.frames.len()
                )
            }
            None => f.write_str("FrameStore(empty)"),
        }
    }
}

/// The clean annotated frames of the test segment, one `Vec` per camera,
/// never written to after the capture, and one detection slot per
/// (camera, segment frame, algorithm). A detector's output is a pure
/// function of (detector, frame) and every clone carries the same bank,
/// so the first run to need a slot fills it and every later run, on any
/// clone, reads it (DESIGN.md §9).
struct CleanSegment {
    frames: Vec<Vec<FrameData>>,
    /// `detections[j][f][k]`: algorithm `AlgorithmId::ALL[k]` on camera
    /// `j`'s frame `f`.
    detections: Vec<Vec<[OnceLock<DetectionOutput>; AlgorithmId::ALL.len()]>>,
}

impl CleanSegment {
    /// Wraps a capture, every detection slot empty.
    fn new(frames: Vec<Vec<FrameData>>) -> CleanSegment {
        let detections = frames
            .iter()
            .map(|cam_frames| cam_frames.iter().map(|_| Default::default()).collect())
            .collect();
        CleanSegment { frames, detections }
    }

    /// The slot of `alg` on camera `j`'s frame `f`.
    fn slot(&self, j: usize, f: usize, alg: AlgorithmId) -> &OnceLock<DetectionOutput> {
        // Variants are declared in `AlgorithmId::ALL` order.
        &self.detections[j][f][alg as usize]
    }
}

impl Simulation {
    /// Prepares a simulation: opens the feeds, calibrates the rig, runs
    /// offline training on each camera's training segment, and matches
    /// each camera's segment to the training library (Section IV-B.2).
    ///
    /// # Errors
    ///
    /// Propagates training/feature failures and invalid configurations.
    pub fn prepare(bank: DetectorBank, config: SimulationConfig) -> Result<Simulation> {
        config.eecs.validate()?;
        config.validate()?;
        let feeds: Vec<VideoFeed> = (0..config.cameras)
            .map(|j| VideoFeed::open(config.profile.clone(), j))
            .collect();
        let rig = eecs_scene::rig::camera_rig(&config.profile);
        let calibrations = rig_calibrations(&config.profile, &rig);

        // Training segments: the annotated frames among the first
        // `train_frames` of each feed, of which only the first `keep` are
        // trained on — so only those are rendered. Any positive cadence
        // annotates frames 0 and `gt_interval`, so a segment only comes
        // out too short without one.
        let interval = config.profile.gt_interval;
        if interval == 0 {
            return Err(EecsError::InvalidArgument(
                "training segment too short for this ground-truth cadence".into(),
            ));
        }
        let keep = config.max_training_frames.max(2);
        let train_end = config
            .profile
            .train_frames
            .min(config.start_frame)
            .max(interval + 1)
            .min((keep - 1).saturating_mul(interval).saturating_add(1));
        let train_frames: Vec<Vec<FrameData>> = feeds
            .iter()
            .map(|f| f.annotated_frames(0, train_end))
            .collect();

        // The feature extractor's vocabulary comes from training frames of
        // all cameras (the paper: 400 words from the 12 training feeds),
        // borrowed rather than copied.
        let vocab_frames = train_frames
            .iter()
            .flat_map(|f| f.iter().take(3).map(|fd| &fd.image));
        let extractor = FeatureExtractor::build(vocab_frames, config.feature_words, 17)?;

        let names: Vec<String> = (1..=feeds.len())
            .map(|j| format!("T_{}.{j}", config.profile.id.number()))
            .collect();
        let items: Vec<(&str, &[FrameData])> = names
            .iter()
            .zip(&train_frames)
            .map(|(name, frames)| (name.as_str(), frames.as_slice()))
            .collect();
        let records = train_records(&items, &extractor, &bank, &config.eecs)?;
        // The training frames are not needed while the samples render.
        drop(train_frames);
        let controller = Controller::new(records, calibrations, config.eecs.clone())?;

        // Match each camera's (test-segment) feed to the library, one
        // camera per pool task.
        let sample_end = (config.start_frame + 5 * interval + 1).min(config.end_frame);
        let matched = crate::par::par_map_indexed(feeds.len(), 0, |j| {
            let sample = feeds[j].annotated_frames(config.start_frame, sample_end);
            let images: Vec<_> = sample.into_iter().map(|f| f.image).collect();
            if images.len() < 2 {
                return Ok(j);
            }
            let item = extractor.extract_video(format!("V_cam{j}"), &images)?;
            Ok(controller.match_feed(&item)?.0.best_index)
        })
        .into_iter()
        .collect::<Result<Vec<usize>>>()?;

        let budgets = vec![
            EnergyBudget::per_frame(config.budget_j_per_frame)
                .map_err(EecsError::from)?;
            config.cameras
        ];
        let fleet = vec![DeviceProfile::uniform(config.eecs.device); config.cameras];
        Ok(Simulation {
            config,
            bank,
            feeds,
            controller,
            matched,
            budgets,
            checkpoint_faults: CheckpointFaultPlan::none(),
            fleet,
            churn: ChurnPlan::ideal(),
            clean_frames: FrameStore::default(),
        })
    }

    /// The controller (for inspection).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// A copy of this prepared simulation running a different strategy —
    /// offline training and matching are mode-independent, so comparing the
    /// three bars of Figs. 5–6 needs only one `prepare`.
    pub fn with_mode(&self, mode: OperatingMode) -> Simulation {
        let mut sim = self.clone();
        sim.config.mode = mode;
        sim
    }

    /// A copy of this prepared simulation under a different per-frame
    /// budget (Fig. 5a vs 5b explore exactly this knob).
    ///
    /// # Errors
    ///
    /// Returns an error for a negative budget.
    pub fn with_budget(&self, budget_j_per_frame: f64) -> Result<Simulation> {
        let mut sim = self.clone();
        sim.config.budget_j_per_frame = budget_j_per_frame;
        sim.budgets = scaled_budgets(budget_j_per_frame, &sim.fleet, &sim.config.eecs.device)?;
        Ok(sim)
    }

    /// A copy of this prepared simulation under different host-side
    /// execution settings (worker pool size, feature cache). Reports are
    /// unaffected; only wall-clock time changes.
    pub fn with_parallelism(&self, parallel: Parallelism) -> Simulation {
        let mut sim = self.clone();
        sim.config.parallel = parallel;
        sim
    }

    /// A copy of this prepared simulation under different fault schedules
    /// (network, sensor, controller). Training and matching see only
    /// clean data, so one `prepare` serves a whole fault matrix.
    pub fn with_faults(
        &self,
        fault_plan: FaultPlan,
        sensor_plan: SensorFaultPlan,
        controller_plan: ControllerFaultPlan,
    ) -> Simulation {
        let mut sim = self.clone();
        sim.config.fault_plan = fault_plan;
        sim.config.sensor_plan = sensor_plan;
        sim.config.controller_plan = controller_plan;
        sim
    }

    /// A copy of this prepared simulation whose checkpoint store injects
    /// the given storage faults (torn writes, bit rot) at commit time.
    /// Restores then roll back to the newest generation that verifies
    /// instead of deserializing damaged state.
    pub fn with_checkpoint_faults(&self, plan: CheckpointFaultPlan) -> Simulation {
        let mut sim = self.clone();
        sim.checkpoint_faults = plan;
        sim
    }

    /// A copy of this prepared simulation over a heterogeneous fleet:
    /// one [`DeviceProfile`] per camera, each with its own energy
    /// constants, battery capacity, and resolution cap. Per-frame
    /// budgets are rescaled by each profile's
    /// [`DeviceProfile::cost_scale`] against the run's reference device
    /// so selection compares algorithms under each camera's *own* cost
    /// model. A fleet of [`DeviceProfile::uniform`] profiles leaves the
    /// budgets — and the whole run — bit-identical to the homogeneous
    /// default.
    ///
    /// # Errors
    ///
    /// Returns an error when the profile count does not match the camera
    /// count, a profile fails validation, or a profile's sensor cannot
    /// capture the dataset's resolution.
    pub fn with_fleet(&self, fleet: Vec<DeviceProfile>) -> Result<Simulation> {
        if fleet.len() != self.config.cameras {
            return Err(EecsError::InvalidArgument(format!(
                "fleet has {} profiles for {} cameras",
                fleet.len(),
                self.config.cameras
            )));
        }
        for (j, p) in fleet.iter().enumerate() {
            p.validate()
                .map_err(|e| EecsError::InvalidArgument(format!("fleet profile {j}: {e}")))?;
            let (w, h) = (self.config.profile.width, self.config.profile.height);
            if !p.supports_resolution(w, h) {
                return Err(EecsError::InvalidArgument(format!(
                    "fleet profile {j} ({}) caps at {}x{}, dataset needs {w}x{h}",
                    p.name, p.max_width, p.max_height
                )));
            }
        }
        let mut sim = self.clone();
        sim.budgets = scaled_budgets(
            self.config.budget_j_per_frame,
            &fleet,
            &self.config.eecs.device,
        )?;
        sim.fleet = fleet;
        Ok(sim)
    }

    /// A copy of this prepared simulation under a deterministic camera
    /// churn schedule: joins, absence windows, permanent departures and
    /// seeded random absences, all evaluated at round boundaries.
    /// [`ChurnPlan::ideal`] keeps the full fleet present every round and
    /// the run bit-identical to pre-churn builds.
    pub fn with_churn(&self, churn: ChurnPlan) -> Simulation {
        let mut sim = self.clone();
        sim.churn = churn;
        sim
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The per-camera device profiles this simulation runs with.
    pub fn fleet(&self) -> &[DeviceProfile] {
        &self.fleet
    }

    /// The churn plan this simulation runs under.
    pub fn churn_plan(&self) -> &ChurnPlan {
        &self.churn
    }

    /// A copy of this prepared simulation publishing into `telemetry`.
    /// The simulation loop and the controller's config copy share the
    /// handle, so one stream sees the whole run. Attach a *fresh* handle
    /// per run when comparing executions — clones share recorded state.
    pub fn with_telemetry(&self, telemetry: Telemetry) -> Simulation {
        let mut sim = self.clone();
        sim.config.eecs.telemetry = telemetry.clone();
        sim.controller.set_telemetry(telemetry);
        sim
    }

    /// The trained per-camera records, in matched order (record `matched[j]`
    /// serves camera `j`).
    pub fn record_for_camera(&self, camera: usize) -> &TrainingRecord {
        self.record_for(camera)
    }

    /// The matched training-record index per camera.
    pub fn matched_records(&self) -> &[usize] {
        &self.matched
    }

    /// Runs the configured strategy over the test range. Each round is
    /// one pass through the phases of Section VI-E: the round boundary
    /// (churn, partitions, crash failover, liveness), assessment,
    /// selection, operation, and the commit of the round's record.
    ///
    /// # Errors
    ///
    /// Propagates selection failures (e.g. infeasible budgets).
    pub fn run(&self) -> Result<SimulationReport> {
        let mut mission = MissionState::new(self)?;
        while let Some(mut round) = mission.next_round() {
            mission.boundary(&round)?;
            let plan = match self.config.mode {
                OperatingMode::AllBest => mission.select_all_best()?,
                OperatingMode::CameraSubset | OperatingMode::FullEecs => {
                    let assessment = mission.assess(&round)?;
                    mission.select(&mut round, assessment)?
                }
            };
            mission.operate(&mut round)?;
            mission.commit(round, plan);
        }
        Ok(mission.finish())
    }

    fn record_for(&self, camera: usize) -> &TrainingRecord {
        &self.controller.records()[self.matched[camera]]
    }

    /// The baseline assignment: every camera's best budget-feasible
    /// algorithm (cameras with none are left out).
    fn all_best(&self) -> BTreeMap<usize, AlgorithmId> {
        (0..self.config.cameras)
            .filter_map(|j| {
                self.record_for(j)
                    .best_within_budget(&self.budgets[j])
                    .map(|p| (j, p.algorithm))
            })
            .collect()
    }

    /// Fits the re-id colour metric to `data` and selects over the `live`
    /// cameras. The re-id configuration comes back even when selection
    /// fails.
    fn plan_live(
        &self,
        data: &AssessmentData,
        live: &[bool],
    ) -> (ReidConfig, Result<SelectionOutcome>) {
        let reid = self
            .controller
            .reid_config(self.controller.fit_color_metric(data));
        let outcome = self.controller.select_live(
            data,
            &self.matched,
            &self.budgets,
            &reid,
            self.config.mode == OperatingMode::FullEecs,
            live,
        );
        (reid, outcome)
    }

    /// Fuses one frame's reports and scores against ground truth. Returns
    /// `(correct, gt_count)`.
    fn score_frame(
        &self,
        reports: &[CameraReport],
        frames: &[Vec<FrameData>],
        f: usize,
        reid: &ReidConfig,
    ) -> (usize, usize) {
        let fused = self.controller.fuse(reports, reid);
        // Ground truth: every person visible (≥ visibility floor) in at
        // least one camera, counted once.
        let mut gt_positions: BTreeMap<usize, eecs_geometry::point::Point2> = BTreeMap::new();
        for cam_frames in frames {
            for g in &cam_frames[f].gt {
                if g.visibility >= self.config.eecs.eval.min_visibility {
                    gt_positions.entry(g.human_id).or_insert(g.ground);
                }
            }
        }
        let positions: Vec<_> = gt_positions.values().copied().collect();
        let correct = crate::accuracy::count_correct(&fused, &positions, GT_MATCH_GATE_M);
        (correct, positions.len())
    }
}

/// Publishes one detector execution: the structured trace event, the
/// per-algorithm run/op counters, per-issue health counters, and the
/// object-count histogram. One branch and out on the null sink — nothing
/// below allocates unless telemetry is recording.
fn publish_detection(
    tel: &Telemetry,
    round: usize,
    camera: usize,
    frame: usize,
    health: &DetectorHealth,
    ops: u64,
    objects: usize,
) {
    if !tel.enabled() {
        return;
    }
    let alg = health.algorithm;
    let healthy = health.is_healthy();
    tel.event(|| TraceEvent::Detection {
        round,
        camera,
        frame,
        algorithm: alg,
        objects,
        healthy,
    });
    tel.counter_add(&format!("detect.runs.{}", alg.name()), 1);
    tel.counter_add(&format!("detect.ops.{}", alg.name()), ops);
    tel.histogram_record("detect.objects", DETECT_OBJECTS_BOUNDS, objects as f64);
    if !healthy {
        tel.counter_add(&format!("health.unhealthy.{}", alg.name()), 1);
        for issue in &health.issues {
            tel.counter_add(&format!("health.issue.{}", issue.kind()), 1);
        }
    }
}

/// Captures each feed's annotated frames in `[start, end)` through the
/// sensors of `plan`: one pool task per camera on `workers` threads (`1`
/// runs inline) replays the world once, renders the camera's frames in
/// frame order and impairs each one. `corrupt` is a pure function of
/// (camera, frame), so the pixels do not depend on the worker count.
///
/// Every pixel buffer is allocated here, on the calling thread, which is
/// also the thread that frees it; the workers only write into them.
/// Buffers allocated on pool threads stay resident in those threads'
/// glibc arenas after the run frees them (DESIGN.md §9).
fn capture_segment(
    feeds: &[VideoFeed],
    (start, end): (usize, usize),
    plan: &SensorFaultPlan,
    workers: usize,
) -> (Vec<Vec<FrameData>>, Vec<Vec<FrameImpairment>>) {
    let mut frames: Vec<Vec<FrameData>> = feeds
        .iter()
        .map(|feed| feed.annotated_slots(start, end))
        .collect();
    let impairments = crate::par::par_map_mut(&mut frames, workers, |j, cam_frames| {
        // `corrupt` blanks a dropped frame whatever was rendered, so its
        // black buffer is left unrendered.
        feeds[j].fill(cam_frames, |frame| !plan.drops(j, frame));
        cam_frames
            .iter_mut()
            .map(|fd| plan.corrupt(j, fd.frame, &mut fd.image))
            .collect()
    });
    (frames, impairments)
}

/// A round's assignment (camera → algorithm) and active-camera set.
type Plan = (BTreeMap<usize, AlgorithmId>, Vec<usize>);

/// A run's annotated frames per camera.
enum Frames<'a> {
    /// The simulation's shared clean segment, detections memoized.
    Clean(&'a CleanSegment),
    /// A private copy the sensor plan corrupted, detected afresh.
    Impaired(Vec<Vec<FrameData>>),
}

impl std::ops::Deref for Frames<'_> {
    type Target = [Vec<FrameData>];

    fn deref(&self) -> &[Vec<FrameData>] {
        match self {
            Frames::Clean(segment) => &segment.frames,
            Frames::Impaired(frames) => frames,
        }
    }
}

impl Frames<'_> {
    /// The outputs of `algorithms`, in order, on camera `j`'s frame `f`,
    /// through one shared `FrameFeatures` handle when `share` is set. On
    /// the clean segment each output is cloned from its slot, and a miss
    /// runs that one detector into it (the handle is built on the first
    /// miss); a concurrent run on a clone waits for a slot being filled
    /// rather than detect it twice. Corrupted pixels are never memoized.
    fn detect(
        &self,
        bank: &DetectorBank,
        (j, f): (usize, usize),
        algorithms: &[AlgorithmId],
        share: bool,
    ) -> Vec<DetectionOutput> {
        let image = &self[j][f].image;
        let segment = match self {
            Frames::Clean(segment) => segment,
            Frames::Impaired(_) => return bank.run_algorithms(algorithms, image, share),
        };
        let features = OnceCell::new();
        let run = |alg| {
            let detector = bank.detector(alg);
            if share {
                detector
                    .detect_with_cache(image, features.get_or_init(|| FrameFeatures::new(image)))
            } else {
                detector.detect(image)
            }
        };
        algorithms
            .iter()
            .map(|&alg| segment.slot(j, f, alg).get_or_init(|| run(alg)).clone())
            .collect()
    }
}

/// One round's frame window and running score: assessment covers the
/// annotated frames `start..assess_end`, operation `assess_end..end`.
struct Round {
    index: usize,
    start: usize,
    assess_end: usize,
    end: usize,
    energy_before: f64,
    correct: usize,
    gt: usize,
}

/// What the assessment window delivered, and the planning view built
/// from it (fresh or cached reports, and the cameras selection may use).
struct Assessment {
    fresh: Vec<CameraAssessment>,
    delivered: Vec<bool>,
    data: AssessmentData,
    live: Vec<bool>,
}

/// Everything one [`Simulation::run`] carries from round to round. The
/// report doubles as the accumulator of the run's counters.
struct MissionState<'a> {
    sim: &'a Simulation,
    /// Every publish goes through this handle; with the default null sink
    /// each call is one branch and nothing else, keeping the run
    /// bit-identical to a build without the telemetry layer. All emission
    /// sites sit on the serial effect-replay path, so the stream is also
    /// bit-identical across `Parallelism` settings.
    tel: &'a Telemetry,
    /// Annotated frames per camera, after sensor impairment: the
    /// simulation's clean segment when the sensor plan is disabled, an
    /// owned corrupted copy otherwise.
    frames: Frames<'a>,
    impairments: Vec<Vec<FrameImpairment>>,
    nodes: Vec<CameraNode>,
    net: Network,
    /// Controller seats, each with its own quarantine ledger and
    /// assessment cache. `seats[0]` is the official seat — the mains hub,
    /// or its crash-failover replacement; partitions can temporarily add
    /// acting island controllers. `route[j]` names the seat camera `j`
    /// reports to, and `fenced[j]` the highest handover epoch it has
    /// accepted. All of it stays inert under ideal plans.
    seats: Vec<SeatState>,
    route: Vec<usize>,
    fenced: Vec<u64>,
    orphan_age: Vec<usize>,
    was_partitioned: bool,
    prev_islands: usize,
    checkpoints: CheckpointStore,
    /// Fleet membership, mirroring the churn plan one round at a time so
    /// each transition fires its join/leave work exactly once.
    members: Vec<bool>,
    uploaded: Vec<bool>,
    /// Re-id configuration of the latest official plan, used to score.
    reid: ReidConfig,
    report: SimulationReport,
}

impl<'a> MissionState<'a> {
    /// Captures the frames and sets up the fleet, transport and
    /// checkpoint store; cameras present at round 0 upload their features.
    fn new(sim: &'a Simulation) -> Result<MissionState<'a>> {
        let cams = sim.config.cameras;
        let (frames, impairments) = Self::capture(sim)?;
        let degraded_frames = impairments
            .iter()
            .flatten()
            .filter(|i| i.degraded() && !i.dropped)
            .count();
        let dropped_frames = impairments.iter().flatten().filter(|i| i.dropped).count();
        let tel = &sim.config.eecs.telemetry;
        tel.counter_add("sensor.degraded_frames", degraded_frames as u64);
        tel.counter_add("sensor.dropped_frames", dropped_frames as u64);

        let nodes = (0..cams)
            .map(|j| {
                CameraNode::new(
                    j,
                    sim.bank.clone(),
                    BatteryState::new(sim.fleet[j].battery_capacity_j).expect("positive capacity"),
                    sim.budgets[j],
                )
            })
            .collect();
        // The transport every flow goes through. With the ideal plan every
        // reliable send costs exactly one idealized attempt, so the energy
        // accounting matches the raw byte math. Each endpoint radios at
        // its own profile's rates (all identical under a uniform fleet).
        let net = Network::with_nodes(
            (0..cams)
                .map(|j| (sim.config.eecs.link, sim.fleet[j].device))
                .collect(),
        )
        .with_fault_plan(sim.config.fault_plan.clone())
        .with_retry_policy(sim.config.eecs.retry);
        // Generation 1 is the empty initial state, so a crash before the
        // first round-end snapshot still has something to restore.
        let mut checkpoints = CheckpointStore::new(sim.checkpoint_faults);
        checkpoints.commit(&SimulationCheckpoint::initial(cams).to_json());

        let mut mission = MissionState {
            sim,
            tel,
            frames,
            impairments,
            nodes,
            net,
            seats: vec![SeatState::hub(cams)],
            route: vec![0; cams],
            fenced: vec![0; cams],
            orphan_age: vec![0; cams],
            was_partitioned: false,
            prev_islands: 1,
            checkpoints,
            members: vec![true; cams],
            uploaded: vec![false; cams],
            reid: sim.controller.reid_config(None),
            report: SimulationReport {
                mode: sim.config.mode,
                rounds: Vec::new(),
                total_energy_j: 0.0,
                correctly_detected: 0,
                gt_objects: 0,
                per_camera_energy: Vec::new(),
                transport: Vec::new(),
                downlink: TransportStats::default(),
                failovers: Vec::new(),
                degraded_frames,
                dropped_frames,
                quarantine_strikes: 0,
                partitions: 0,
                elections: 0,
                reconciliations: 0,
                split_brain_rounds: 0,
                corrupted_frames: 0,
                checkpoint_rollbacks: 0,
                camera_joins: 0,
                camera_leaves: 0,
            },
        };
        // One-time feature upload (Section IV-B.1). Cameras absent at
        // round 0 upload later, when they first join.
        for j in 0..cams {
            if sim.churn.is_member(j, 0) {
                mission.upload_features(0, j)?;
            }
        }
        Ok(mission)
    }

    /// The test segment's frames and what the sensors did to each.
    /// Sensor faults corrupt the captured frames before anything reads
    /// them — every consumer downstream (assessment, operation, feature
    /// caches, parallel workers) sees the same degraded pixels, so worker
    /// count cannot change what was "seen". A disabled plan touches no
    /// pixel, so it borrows the shared clean segment, captured by the
    /// first such run.
    fn capture(sim: &'a Simulation) -> Result<(Frames<'a>, Vec<Vec<FrameImpairment>>)> {
        let plan = &sim.config.sensor_plan;
        let segment = (sim.config.start_frame, sim.config.end_frame);
        let capture = || capture_segment(&sim.feeds, segment, plan, sim.config.parallel.workers);
        let (frames, impairments) = if plan.enabled() {
            let (frames, impairments) = capture();
            (Frames::Impaired(frames), impairments)
        } else {
            let segment = sim
                .clean_frames
                .0
                .get_or_init(|| CleanSegment::new(capture().0));
            let clean = segment
                .frames
                .iter()
                .map(|cam_frames| vec![FrameImpairment::clean(); cam_frames.len()])
                .collect();
            (Frames::Clean(segment), clean)
        };
        if frames[0].is_empty() {
            return Err(EecsError::InvalidArgument(
                "no annotated frames in the requested range".into(),
            ));
        }
        Ok((frames, impairments))
    }

    /// Opens the next round, or `None` once every frame has run.
    fn next_round(&self) -> Option<Round> {
        let config = &self.sim.config;
        let gt_interval = config.profile.gt_interval;
        let per_round = (config.eecs.recalibration_interval / gt_interval).max(1);
        let assess_len = (config.eecs.assessment_period / gt_interval).clamp(1, per_round);
        let index = self.report.rounds.len();
        let start = index * per_round;
        let n = self.frames[0].len();
        if start >= n {
            return None;
        }
        let end = (start + per_round).min(n);
        let assess_end = match config.mode {
            OperatingMode::AllBest => start,
            OperatingMode::CameraSubset | OperatingMode::FullEecs => (start + assess_len).min(end),
        };
        let energy_before = self.energy_spent();
        let first_frame = self.frames[0][start].frame;
        self.tel.event(|| TraceEvent::RoundStart {
            round: index,
            first_frame,
        });
        Some(Round {
            index,
            start,
            assess_end,
            end,
            energy_before,
            correct: 0,
            gt: 0,
        })
    }

    /// Fleet energy drawn so far (J).
    fn energy_spent(&self) -> f64 {
        self.nodes.iter().map(|c| c.meter().total()).sum()
    }

    /// The round boundary: fleet churn, then (except for the all-best
    /// baseline, which has no controller loop) the partition control
    /// plane, crash failover, liveness probe and re-probe deferral.
    fn boundary(&mut self, round: &Round) -> Result<()> {
        let sim = self.sim;
        let config = &sim.config;
        if sim.churn.enabled() {
            self.apply_churn(round.index)?;
        }
        if config.mode == OperatingMode::AllBest {
            return Ok(());
        }
        if config.fault_plan.partition().enabled() {
            self.partition_control(round.index)?;
        }
        self.crash_failover(round.index)?;
        self.probe_liveness(round.index)?;
        if config.fault_plan.enabled() {
            self.defer_reprobes(round.index);
        }
        Ok(())
    }

    /// Diffs the churn plan's membership against last round's. Departures
    /// drain every index-keyed route to the camera (quarantine entries,
    /// sticky assignments, the radio endpoint); joins admit the newcomer
    /// through an incremental probe instead of a full fleet reassessment.
    fn apply_churn(&mut self, round: usize) -> Result<()> {
        let (sim, tel) = (self.sim, self.tel);
        let mut joined_now: Vec<usize> = Vec::new();
        for j in 0..sim.config.cameras {
            let mut present = sim.churn.is_member(j, round);
            // Deferred leave: an acting controller cannot vanish without a
            // handover, so a seat-holding camera stays until the seat
            // moves off it (or the plan readmits it).
            if !present && self.members[j] && self.seats.iter().any(|st| st.location == Some(j)) {
                present = true;
            }
            if present == self.members[j] {
                continue;
            }
            self.members[j] = present;
            if present {
                self.report.camera_joins += 1;
                tel.counter_add("churn.joins", 1);
                tel.event(|| TraceEvent::CameraJoin { round, camera: j });
                self.net.set_attached(j, true).map_err(EecsError::from)?;
                // A rejoin restores identity, not stale state: cached
                // assessments past the staleness bound are evicted so
                // planning never trusts a scene the camera stopped
                // watching.
                for st in self.seats.iter_mut() {
                    if st.cache.evict_stale(j, round, STALENESS_LIMIT_ROUNDS) {
                        tel.counter_add("churn.cache_evictions", 1);
                    }
                }
                joined_now.push(j);
            } else {
                self.report.camera_leaves += 1;
                tel.counter_add("churn.leaves", 1);
                tel.event(|| TraceEvent::CameraLeave { round, camera: j });
                self.net.set_attached(j, false).map_err(EecsError::from)?;
                for st in self.seats.iter_mut() {
                    let purged = st.quarantine.purge_camera(j);
                    if purged > 0 {
                        tel.counter_add("churn.quarantine_purged", purged as u64);
                    }
                    st.last_plan.0.remove(&j);
                    st.last_plan.1.retain(|&x| x != j);
                }
                self.nodes[j].set_assignment(None);
            }
        }
        let fleet_size = self.members.iter().filter(|&&m| m).count();
        tel.gauge_set("fleet.size", fleet_size as f64);
        // A newcomer introduces itself: the one-time feature upload (first
        // join only), then one incremental assessment probe — the
        // controller learns about the newcomer without re-probing the
        // standing fleet.
        for j in joined_now {
            if !self.uploaded[j] {
                self.upload_features(round, j)?;
            }
            self.probe(round, j)?;
        }
        Ok(())
    }

    /// The partition control plane, a pure function of the round number:
    /// island layout, heal-time reconciliation, camera → seat routing and
    /// orphan elections.
    fn partition_control(&mut self, round: usize) -> Result<()> {
        let tel = self.tel;
        let cams = self.sim.config.cameras;
        let partition = self.sim.config.fault_plan.partition();
        let island = partition_islands(partition, cams, round);
        let n_islands = island.iter().collect::<BTreeSet<_>>().len();
        let now_partitioned = partition.is_partitioned(round);
        if now_partitioned && !self.was_partitioned {
            self.report.partitions += 1;
            tel.counter_add("partition.starts", 1);
            tel.event(|| TraceEvent::PartitionStart {
                round,
                islands: n_islands,
            });
        } else if !now_partitioned && self.was_partitioned {
            tel.counter_add("partition.heals", 1);
            tel.event(|| TraceEvent::PartitionHeal {
                round,
                islands: self.prev_islands,
            });
        }
        self.was_partitioned = now_partitioned;
        self.prev_islands = n_islands;
        tel.gauge_set("partition.islands", n_islands as f64);

        self.heal_seats(round, &island);
        // Route every camera to the seat sharing its island; cameras on
        // seatless islands fall back to the official seat (their sends die
        // at the radio, which is exactly the probe-burn that starts an
        // election clock).
        let seated: Vec<usize> = self
            .seats
            .iter()
            .map(|st| island_of(&island, st.location))
            .collect();
        for (route, isl) in self.route.iter_mut().zip(&island) {
            *route = seated.iter().position(|i| i == isl).unwrap_or(0);
        }
        self.elect_orphans(round, &island, &seated)
    }

    /// Heal: seats that can see each other again merge into one via the
    /// commutative/associative reconcile join — the merged state is the
    /// same whichever side heals first.
    fn heal_seats(&mut self, round: usize, island: &[usize]) {
        if self.seats.len() < 2 {
            return;
        }
        let cams = self.sim.config.cameras;
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (k, st) in self.seats.iter().enumerate() {
            groups
                .entry(island_of(island, st.location))
                .or_default()
                .push(k);
        }
        if groups.values().all(|g| g.len() == 1) {
            return;
        }
        let mut old: Vec<Option<SeatState>> = self.seats.drain(..).map(Some).collect();
        let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        for g in groups {
            let mut states = g.iter().map(|&k| old[k].take().expect("seat taken once"));
            let first = states.next().expect("groups are non-empty");
            if g.len() == 1 {
                self.seats.push(first);
                continue;
            }
            let snap = states.fold(first.snapshot(cams, &self.members), |snap, st| {
                reconcile(&snap, &st.snapshot(cams, &self.members))
            });
            self.report.reconciliations += 1;
            self.tel.counter_add("reconcile.count", 1);
            let (epoch, demoted) = (snap.epoch, g.len() - 1);
            self.tel.event(|| TraceEvent::Reconcile {
                round,
                epoch,
                demoted,
            });
            self.seats.push(SeatState::from_snapshot(snap, cams));
        }
    }

    /// Orphan elections: an island that has lost sight of every seat for
    /// [`ELECTION_TIMEOUT_ROUNDS`] elects its least-drained member as an
    /// acting controller at a fenced, strictly higher epoch.
    fn elect_orphans(&mut self, round: usize, island: &[usize], seated: &[usize]) -> Result<()> {
        let mut orphans: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (j, (age, &isl)) in self.orphan_age.iter_mut().zip(island).enumerate() {
            if seated.contains(&isl) {
                *age = 0;
            } else {
                *age += 1;
                orphans.entry(isl).or_default().push(j);
            }
        }
        for group in orphans.into_values() {
            let ripe = group.iter().map(|&j| self.orphan_age[j]).max().unwrap_or(0)
                >= ELECTION_TIMEOUT_ROUNDS;
            if !ripe {
                continue;
            }
            let Some(new_seat) = self.least_drained(group.iter().copied()) else {
                continue;
            };
            let fence_floor = group.iter().map(|&j| self.fenced[j]).max().unwrap_or(0);
            let seat = self.restore_seat(round, new_seat, fence_floor)?;
            let epoch = seat.epoch;
            let announced =
                self.announce_handover(round, new_seat, epoch, group.iter().copied())?;
            self.report.elections += 1;
            self.tel.counter_add("election.count", 1);
            self.tel.event(|| TraceEvent::Election {
                round,
                elected: new_seat,
                epoch,
                announced,
            });
            let k = self.seats.len();
            self.seats.push(seat);
            for &j in &group {
                self.route[j] = k;
                self.orphan_age[j] = 0;
            }
        }
        Ok(())
    }

    /// Controller crash: the hub (or the camera currently holding the
    /// seat) goes dark at the start of this round. Every survivor burns
    /// one failed probe discovering the silence, then the least-drained
    /// survivor takes the seat and restores the last checkpoint — within
    /// this same round it is planning again.
    fn crash_failover(&mut self, round: usize) -> Result<()> {
        if !self.sim.config.controller_plan.crash_starts(round) {
            return Ok(());
        }
        let cams = self.sim.config.cameras;
        self.net.set_controller_down(true);
        let failed_seat = self.seats[0].location.take();
        for j in 0..cams {
            if self.net.is_camera_down(j) || failed_seat == Some(j) {
                continue;
            }
            let (battery, meter) = self.nodes[j].radio_mut();
            let d = self
                .net
                .send_reliable(j, Message::EnergyReport, battery, meter)
                .map_err(EecsError::from)?;
            self.tel.observe_delivery(round, j, &d);
        }
        // With no survivor the hub stays dark: every send from here on
        // times out and the run degrades gracefully instead of aborting.
        let Some(new_seat) = self.least_drained((0..cams).filter(|&j| failed_seat != Some(j)))
        else {
            return Ok(());
        };
        self.net.set_controller_down(false);
        let seat = self.restore_seat(round, new_seat, 0)?;
        let (epoch, checkpoint_round) = (seat.epoch, seat.plan_round);
        self.seats[0] = seat;
        let announced = self.announce_handover(round, new_seat, epoch, 0..cams)?;
        self.report.failovers.push(FailoverEvent {
            round,
            elected: new_seat,
            checkpoint_round,
            announced,
        });
        self.tel.counter_add("failover.count", 1);
        self.tel.event(|| TraceEvent::Failover {
            round,
            elected: new_seat,
            checkpoint_round,
            announced,
        });
        Ok(())
    }

    /// The seat-election rule shared by island elections and crash
    /// failover: the live candidate with the least energy spent
    /// (`PowerMeter::total`), ties to the first candidate.
    fn least_drained(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut elected: Option<(usize, f64)> = None;
        for j in candidates {
            if self.net.is_camera_down(j) {
                continue;
            }
            let used = self.nodes[j].meter().total();
            if elected.is_none_or(|(_, best)| used < best) {
                elected = Some((j, used));
            }
        }
        elected.map(|(j, _)| j)
    }

    /// Restores the newest checkpoint generation that verifies into a seat
    /// held by camera `new_seat`, fenced at epoch `max(fence_floor,
    /// checkpoint epoch) + 1`; its plan round is the checkpoint's round.
    fn restore_seat(
        &mut self,
        round: usize,
        new_seat: usize,
        fence_floor: u64,
    ) -> Result<SeatState> {
        let restored = self
            .checkpoints
            .restore()
            .map_err(|e| EecsError::Subsystem(format!("checkpoint restore: {e}")))?;
        if restored.rolled_back > 0 {
            self.report.checkpoint_rollbacks += restored.rolled_back;
            self.tel
                .counter_add("checkpoint.rollbacks", restored.rolled_back);
            self.tel.event(|| TraceEvent::CheckpointRollback {
                round,
                generation: restored.generation,
                rolled_back: restored.rolled_back,
            });
        }
        let ckpt = SimulationCheckpoint::from_json(&restored.payload)
            .map_err(|m| EecsError::Subsystem(format!("checkpoint restore: {m}")))?;
        Ok(SeatState::from_snapshot(
            SeatSnapshot {
                epoch: fence_floor.max(ckpt.epoch) + 1,
                seat: Some(new_seat),
                plan_round: ckpt.round,
                assignment: ckpt.assignment,
                active: ckpt.active,
                cache: ckpt.cache,
                quarantine: ckpt.quarantine,
                members: ckpt.members,
            },
            self.sim.config.cameras,
        ))
    }

    /// The new seat announces itself to every live peer with a
    /// `ControllerHandover` charged to its own battery. Epoch fencing: a
    /// peer accepts only a strictly newer seat, and never one implausibly
    /// far ahead of what it has witnessed. Returns how many accepted.
    fn announce_handover(
        &mut self,
        round: usize,
        new_seat: usize,
        epoch: u64,
        peers: impl IntoIterator<Item = usize>,
    ) -> Result<usize> {
        let mut announced = 0usize;
        for peer in peers {
            if peer == new_seat || self.net.is_camera_down(peer) {
                continue;
            }
            let msg = Message::ControllerHandover {
                controller: new_seat,
                epoch,
            };
            let (battery, meter) = self.nodes[new_seat].radio_mut();
            let d = self
                .net
                .send_peer(new_seat, peer, msg, battery, meter)
                .map_err(EecsError::from)?;
            self.tel.observe_delivery(round, new_seat, &d);
            let fence = &mut self.fenced[peer];
            if d.delivered && epoch > *fence && epoch <= *fence + MAX_EPOCH_SKEW {
                *fence = epoch;
                announced += 1;
            }
        }
        self.fenced[new_seat] = self.fenced[new_seat].max(epoch);
        Ok(announced)
    }

    /// Liveness probe: lets the controller tell a silent-but-alive camera
    /// from a dead one. On an ideal network silence is impossible, so the
    /// probe (and its energy) is elided and the idealized accounting is
    /// unchanged. A departed camera is not silent — it is gone: no probe,
    /// no phantom Probe event.
    fn probe_liveness(&mut self, round: usize) -> Result<()> {
        let needed = self.sim.config.fault_plan.enabled()
            || self.net.controller_down()
            || self.seats.len() > 1
            || self.seats[0].location.is_some();
        if !needed {
            return Ok(());
        }
        for j in 0..self.sim.config.cameras {
            if self.members[j] {
                self.probe(round, j)?;
            }
        }
        Ok(())
    }

    /// A quarantine re-probe that comes due in a round its camera is
    /// unreachable would burn silently: the backoff window closes, no
    /// detector gets to prove itself, and the next health failure
    /// escalates as if a real probe had failed. Defer those re-probes to
    /// the next round instead of letting them lapse.
    fn defer_reprobes(&mut self, round: usize) {
        let plan = &self.sim.config.fault_plan;
        for j in 0..self.sim.config.cameras {
            if !self.members[j] {
                continue;
            }
            let seat = &mut self.seats[self.route[j]];
            let target = match seat.location {
                Some(s) if s == j => continue,
                Some(s) => Endpoint::Camera(s),
                None => Endpoint::Hub,
            };
            let unreachable = self.net.is_camera_down(j)
                || plan.is_outage(j, round)
                || !plan
                    .partition()
                    .can_reach(Endpoint::Camera(j), target, round);
            if unreachable {
                let deferred = seat.quarantine.defer_probes(j, round);
                if deferred > 0 {
                    self.tel.counter_add("quarantine.deferred", deferred as u64);
                }
            }
        }
    }

    /// Fresh assessment: every feasible algorithm on every reachable
    /// camera, each report uploaded through the transport. Only what
    /// actually arrives this round reaches the controller; a lost upload
    /// leaves an empty placeholder (the header timestamps tell the
    /// controller a frame happened, not what it held).
    ///
    /// The detection work is pure (camera state is only touched by
    /// ingestion and the sends), and both the crash schedule and the
    /// feasible sets are constant within a round, so the per-(camera,
    /// frame) tasks are enumerated up front, fanned over the worker pool,
    /// and consumed serially in exactly the order the serial loop ran
    /// them — keeping battery drains, op counters and transport
    /// interactions bit-identical.
    fn assess(&mut self, round: &Round) -> Result<Assessment> {
        let sim = self.sim;
        let cams = sim.config.cameras;
        let window = round.start..round.assess_end;
        let feasible: Vec<Vec<AlgorithmId>> = (0..cams)
            .map(|j| {
                if self.net.is_camera_down(j) {
                    return Vec::new();
                }
                let quarantine = &self.seats[self.route[j]].quarantine;
                sim.record_for(j)
                    .feasible_ranked(&sim.budgets[j])
                    .iter()
                    .map(|p| p.algorithm)
                    // Quarantined detectors sit out their backoff;
                    // `allows` turns true again at the re-probe round.
                    .filter(|&alg| quarantine.allows(j, alg, round.index))
                    .collect()
            })
            .collect();
        // Each task runs all of one camera's feasible algorithms on one
        // frame its sensor actually produced (dropped frames run no
        // detector at all), through one shared frame handle when
        // enabled.
        let kept = |j: usize| {
            let impairments = &self.impairments[j];
            window.clone().filter(move |&f| !impairments[f].dropped)
        };
        let tasks: Vec<(usize, usize)> = (0..cams)
            .filter(|&j| !feasible[j].is_empty())
            .flat_map(|j| kept(j).map(move |f| (j, f)))
            .collect();
        let kept_count: Vec<usize> = (0..cams).map(|j| kept(j).count()).collect();
        let (bank, par, frames) = (&sim.bank, sim.config.parallel, &self.frames);
        let outputs = crate::par::par_map_indexed(tasks.len(), par.workers, |t| {
            let (j, f) = tasks[t];
            frames.detect(bank, (j, f), &feasible[j], par.feature_cache)
        });
        let mut outputs = outputs.into_iter().map(Vec::into_iter);

        let mut fresh: Vec<CameraAssessment> = vec![BTreeMap::new(); cams];
        let mut attempted = vec![false; cams];
        let mut delivered = vec![false; cams];
        for j in 0..cams {
            if feasible[j].is_empty() {
                continue;
            }
            let cam_outputs = outputs.by_ref().take(kept_count[j]).collect();
            (fresh[j], attempted[j], delivered[j]) =
                self.assess_camera(round, j, &feasible[j], cam_outputs)?;
        }

        // Graceful degradation: fresh data where it arrived, cached data
        // (within the staleness cap) for cameras that are alive but
        // unheard, exclusion for the rest. A departed camera contributes
        // nothing to planning — not even the "no feasible algorithm"
        // liveness fallback.
        let mut data = AssessmentData {
            reports: vec![BTreeMap::new(); cams],
        };
        let mut live = vec![false; cams];
        for j in (0..cams).filter(|&j| self.members[j]) {
            if delivered[j] {
                // `fresh[j]` is recorded into the assessment cache by move
                // after scoring — one clone here instead of two.
                data.reports[j] = fresh[j].clone();
                live[j] = true;
            } else if self.net.is_camera_down(j) || attempted[j] {
                // Silent this round: crashed, or every upload was lost.
                // Reuse the last-known assessment if the camera is still
                // heard and the data is not too stale; otherwise exclude
                // it.
                let cache = &self.seats[self.route[j]].cache;
                if cache.heard_in(j, round.index) {
                    if let Some(cached) = cache.usable(j, round.index, STALENESS_LIMIT_ROUNDS) {
                        data.reports[j] = cached.clone();
                        live[j] = true;
                    }
                }
            } else {
                // Nothing feasible to send — a budget condition, not a
                // network one: keep the camera's real budget in play so
                // selection treats it exactly as the idealized model did.
                live[j] = true;
            }
        }
        Ok(Assessment {
            fresh,
            delivered,
            data,
            live,
        })
    }

    /// Replays one camera's assessment serially (`outputs`: one iterator
    /// per kept frame, in algorithm order). Returns the camera's reports
    /// and whether it attempted, and delivered, any upload.
    fn assess_camera(
        &mut self,
        round: &Round,
        j: usize,
        feasible: &[AlgorithmId],
        mut outputs: Vec<std::vec::IntoIter<DetectionOutput>>,
    ) -> Result<(CameraAssessment, bool, bool)> {
        let window = round.start..round.assess_end;
        let (mut attempted, mut delivered) = (false, false);
        for f in window.clone() {
            if self.impairments[j][f].dropped {
                attempted = true;
                if self.send_gap(round.index, j)? {
                    self.seats[self.route[j]].cache.mark_heard(j, round.index);
                }
            }
        }
        let mut fresh = CameraAssessment::new();
        for &alg in feasible {
            let mut kept = outputs.iter_mut();
            let mut series = Vec::new();
            for f in window.clone() {
                if self.impairments[j][f].dropped {
                    series.push(CameraReport::default());
                    continue;
                }
                let output = kept
                    .next()
                    .and_then(Iterator::next)
                    .expect("one output per kept frame and feasible algorithm");
                let (report, healthy) = self.ingest(round.index, j, f, alg, output)?;
                attempted = true;
                let msg = Message::DetectionMetadata {
                    objects: report.len(),
                };
                let d = self.send_up(j, msg)?;
                self.tel.observe_delivery(round.index, j, &d);
                if !on_time(&d) {
                    series.push(CameraReport::default());
                    continue;
                }
                delivered = true;
                let st = &mut self.seats[self.route[j]];
                st.cache.mark_heard(j, round.index);
                if healthy {
                    st.quarantine.report_healthy(j, alg);
                } else {
                    self.strike(round.index, j, alg);
                }
                series.push(report);
            }
            fresh.insert(alg, series);
        }
        Ok((fresh, attempted, delivered))
    }

    /// Selection: a split-brain union of island plans, a fresh plan (or
    /// the boost override), or the sticky fallback when every camera is
    /// silent — filtered to the fleet's members and sent down.
    fn select(&mut self, round: &mut Round, assessment: Assessment) -> Result<Plan> {
        let sim = self.sim;
        // Section VII: every `boost_every`-th round overrides the
        // energy-saving choice with the full-accuracy configuration.
        // Split-brain rounds never boost — no seat can see the whole
        // network anyway.
        let boost = self.seats.len() == 1
            && sim.config.boost_every > 0
            && (round.index + 1).is_multiple_of(sim.config.boost_every);
        let planned = if self.seats.len() > 1 {
            Some(self.plan_split_brain(round.index, &assessment)?)
        } else if assessment.live.iter().any(|&l| l) {
            let (reid, outcome) = sim.plan_live(&assessment.data, &assessment.live);
            self.reid = reid;
            let outcome = outcome?;
            self.seats[0].plan_round = round.index;
            Some((outcome.assignment, outcome.active))
        } else {
            // Every camera silent: nothing to plan with. Keep the previous
            // round's assignment (the cameras keep whatever they last
            // heard anyway).
            None
        };

        // Score the assessment frames with the baseline (all-best)
        // reports that actually arrived.
        let best = sim.all_best();
        for (fi, f) in (round.start..round.assess_end).enumerate() {
            let reports: Vec<CameraReport> = best
                .iter()
                .filter_map(|(&j, alg)| {
                    assessment.fresh[j]
                        .get(alg)
                        .and_then(|v| v.get(fi))
                        .cloned()
                })
                .collect();
            let (c, g) = sim.score_frame(&reports, &self.frames, f, &self.reid);
            round.correct += c;
            round.gt += g;
        }
        // Record the delivered assessments by move. Safe after planning:
        // `record` (delivered cameras) and `usable` (silent cameras) touch
        // disjoint camera sets within a round, and `mark_heard` already
        // fired during the uploads.
        for (j, fresh) in assessment.fresh.into_iter().enumerate() {
            if assessment.delivered[j] {
                let st = &mut self.seats[self.route[j]];
                st.cache.record(j, round.index, fresh);
                st.slot_epoch[j] = st.epoch;
            }
        }

        let (mut assignment, mut active) = match planned {
            Some(_) if boost => {
                let active = best.keys().copied().collect();
                (best, active)
            }
            Some(plan) => plan,
            None => self.seats[0].last_plan.clone(),
        };
        // Whatever produced the plan, it must never name a departed
        // camera: sticky plans and index-keyed caches outlive membership.
        assignment.retain(|j, _| self.members[*j]);
        active.retain(|j| self.members[*j]);
        self.send_plan(round.index, &assignment)?;
        Ok((assignment, active))
    }

    /// Split brain: every island seat plans locally against the cameras
    /// it can see, under those cameras' real budgets. The per-island plans
    /// are disjoint (routing partitions the cameras), so their union is
    /// the round's assignment. An island too small to meet the accuracy
    /// target keeps its standing plan instead of killing the run.
    fn plan_split_brain(&mut self, round: usize, assessment: &Assessment) -> Result<Plan> {
        let sim = self.sim;
        let cams = sim.config.cameras;
        self.report.split_brain_rounds += 1;
        self.tel.counter_add("partition.split_brain_rounds", 1);
        let mut merged = BTreeMap::new();
        let mut merged_active: Vec<usize> = Vec::new();
        for k in 0..self.seats.len() {
            let seen: Vec<bool> = self.route.iter().map(|&r| r == k).collect();
            let live: Vec<bool> = (0..cams).map(|j| seen[j] && assessment.live[j]).collect();
            let mut data = AssessmentData {
                reports: vec![BTreeMap::new(); cams],
            };
            for j in (0..cams).filter(|&j| seen[j]) {
                data.reports[j] = assessment.data.reports[j].clone();
            }
            let fresh_plan = if live.iter().any(|&l| l) {
                let (reid, outcome) = sim.plan_live(&data, &live);
                if k == 0 {
                    self.reid = reid;
                }
                match outcome {
                    Ok(outcome) => Some((outcome.assignment, outcome.active)),
                    Err(EecsError::Infeasible(_)) => None,
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
            let seat = &mut self.seats[k];
            let (assignment, active) = match fresh_plan {
                Some(plan) => {
                    seat.plan_round = round;
                    plan
                }
                None => {
                    let (mut assignment, mut active) = seat.last_plan.clone();
                    assignment.retain(|&j, _| seen[j]);
                    active.retain(|&j| seen[j]);
                    (assignment, active)
                }
            };
            seat.last_plan = (assignment.clone(), active.clone());
            merged.extend(assignment);
            merged_active.extend(active);
        }
        merged_active.sort_unstable();
        merged_active.dedup();
        Ok((merged, merged_active))
    }

    /// The baseline has no controller loop: every member camera runs its
    /// best budget-feasible algorithm, applied by fiat rather than over
    /// the network.
    fn select_all_best(&mut self) -> Result<Plan> {
        let mut assignment = self.sim.all_best();
        if assignment.is_empty() {
            return Err(EecsError::Infeasible(
                "no budget-feasible algorithm on any camera".into(),
            ));
        }
        assignment.retain(|j, _| self.members[*j]);
        for (j, node) in self.nodes.iter_mut().enumerate() {
            node.set_assignment(assignment.get(&j).copied());
        }
        let active = assignment.keys().copied().collect();
        Ok((assignment, active))
    }

    /// Downlink: the new plan must actually reach each camera. A camera
    /// that misses its assignment keeps the previous one (sticky); one
    /// that misses a deactivation keeps burning energy — unreliability has
    /// a price on both ends.
    fn send_plan(&mut self, round: usize, assignment: &BTreeMap<usize, AlgorithmId>) -> Result<()> {
        for j in 0..self.sim.config.cameras {
            if !self.members[j] {
                continue;
            }
            let intended = assignment.get(&j).copied();
            let msg = if intended.is_some() {
                Message::AlgorithmAssignment
            } else {
                Message::ActivationCommand
            };
            // A camera-held seat pays for its own downlinks: peer radio
            // sends charged to the seat's battery, a free loopback to
            // itself. The mains hub sends for free.
            let d = match self.seats[self.route[j]].location {
                Some(s) if s == j => Delivery::loopback(),
                Some(s) => {
                    let (battery, meter) = self.nodes[s].radio_mut();
                    self.net
                        .send_peer(s, j, msg, battery, meter)
                        .map_err(EecsError::from)?
                }
                None => self.net.send_downlink(j, msg).map_err(EecsError::from)?,
            };
            self.tel.event(|| TraceEvent::Assignment {
                round,
                camera: j,
                algorithm: intended,
                delivered: d.delivered,
            });
            if d.delivered {
                self.nodes[j].set_assignment(intended);
            }
        }
        Ok(())
    }

    /// Operation: each camera runs what it last heard from the
    /// controller — which under chaos may lag the plan the controller
    /// just computed — and delivers metadata plus cropped object images
    /// (Section VI). Assignments and the crash schedule are fixed for the
    /// whole span (the controller only re-plans at round boundaries), so
    /// the detections are precomputed on the pool and the stateful effects
    /// replayed serially. One algorithm runs per camera here, so there is
    /// nothing for a frame handle to share.
    fn operate(&mut self, round: &mut Round) -> Result<()> {
        let sim = self.sim;
        let cams = sim.config.cameras;
        let (net, nodes, impairments) = (&self.net, &self.nodes, &self.impairments);
        let tasks: Vec<(usize, usize, AlgorithmId)> = (round.assess_end..round.end)
            .flat_map(|f| {
                (0..cams).filter_map(move |j| {
                    if net.is_camera_down(j) || impairments[j][f].dropped {
                        return None;
                    }
                    nodes[j].assigned().map(|alg| (f, j, alg))
                })
            })
            .collect();
        let (bank, frames) = (&sim.bank, &self.frames);
        let outputs = crate::par::par_map_indexed(tasks.len(), sim.config.parallel.workers, |t| {
            let (f, j, alg) = tasks[t];
            let mut output = frames.detect(bank, (j, f), &[alg], false);
            output.pop().expect("one algorithm, one output")
        });
        let mut outputs = tasks.iter().zip(outputs);
        for f in round.assess_end..round.end {
            let mut reports = Vec::new();
            for j in 0..cams {
                if self.net.is_camera_down(j) {
                    continue;
                }
                let Some(alg) = self.nodes[j].assigned() else {
                    continue;
                };
                if self.impairments[j][f].dropped {
                    self.send_gap(round.index, j)?;
                    continue;
                }
                let (&task, output) = outputs.next().expect("one task per detection");
                debug_assert_eq!(task, (f, j, alg));
                let (report, healthy) = self.ingest(round.index, j, f, alg, output)?;
                let crop_bytes: u64 = report
                    .objects
                    .iter()
                    .map(|o| (o.bbox.area().max(0.0) * JPEG_BYTES_PER_PIXEL) as u64 + 100)
                    .sum();
                let msg = Message::ObjectDelivery {
                    objects: report.len(),
                    crop_bytes,
                };
                let d = self.send_up(j, msg)?;
                self.tel.observe_delivery(round.index, j, &d);
                if on_time(&d) {
                    if !healthy {
                        self.strike(round.index, j, alg);
                    }
                    reports.push(report);
                }
            }
            let (c, g) = sim.score_frame(&reports, &self.frames, f, &self.reid);
            round.correct += c;
            round.gt += g;
        }
        Ok(())
    }

    /// Charges one detector output on camera `j`'s frame `f`: health
    /// check, ingestion (battery, meter, threshold filter), and the
    /// detection telemetry. A detector spewing NaNs or absurd counts must
    /// not poison fusion: its energy is spent, but its output is discarded
    /// for an empty report. Returns the report and the health verdict.
    fn ingest(
        &mut self,
        round: usize,
        j: usize,
        f: usize,
        alg: AlgorithmId,
        output: DetectionOutput,
    ) -> Result<(CameraReport, bool)> {
        let sim = self.sim;
        let profile = sim.record_for(j).profile(alg).expect("planned ⇒ profiled");
        let ops = output.ops;
        let health = DetectorHealth::check(alg, &output, &sim.config.eecs.health);
        let healthy = health.is_healthy();
        let fd = &self.frames[j][f];
        let mut report =
            self.nodes[j].ingest_detection(&fd.image, output, profile, &sim.fleet[j].device)?;
        if !healthy {
            report = CameraReport::default();
        }
        publish_detection(self.tel, round, j, fd.frame, &health, ops, report.len());
        Ok((report, healthy))
    }

    /// Gives `(j, alg)` a detector-health strike in the ledger of camera
    /// `j`'s seat.
    fn strike(&mut self, round: usize, j: usize, alg: AlgorithmId) {
        let st = &mut self.seats[self.route[j]];
        st.quarantine
            .report_unhealthy(j, alg, round, &QuarantinePolicy::default());
        self.report.quarantine_strikes += 1;
        self.tel.counter_add("quarantine.strikes", 1);
        let strikes = st.quarantine.strikes(j, alg);
        self.tel.event(|| TraceEvent::QuarantineStrike {
            round,
            camera: j,
            algorithm: alg,
            strikes,
        });
    }

    /// Routes a camera → controller send through the transport — unless
    /// the sender currently *holds* the seat it reports to (post-failover
    /// or acting island controller), in which case its own traffic never
    /// touches the radio and costs nothing.
    fn send_up(&mut self, j: usize, message: Message) -> Result<Delivery> {
        let (battery, meter) = self.nodes[j].radio_mut();
        match self.seats[self.route[j]].location {
            Some(s) if s == j => Ok(Delivery::loopback()),
            Some(s) => self
                .net
                .send_reliable_to(j, Endpoint::Camera(s), message, battery, meter),
            None => self.net.send_reliable(j, message, battery, meter),
        }
        .map_err(EecsError::from)
    }

    /// The one-time feature upload (Section IV-B.1).
    fn upload_features(&mut self, round: usize, j: usize) -> Result<()> {
        self.uploaded[j] = true;
        let msg = Message::FeatureUpload {
            frames: self.sim.config.eecs.key_frames,
            feature_dim: self.sim.controller.records()[0].video.feature_dim(),
        };
        let d = self.send_up(j, msg)?;
        self.tel.observe_delivery(round, j, &d);
        Ok(())
    }

    /// One assessment probe (`EnergyReport`); the seat marks the camera
    /// heard if it arrives this round.
    fn probe(&mut self, round: usize, j: usize) -> Result<()> {
        let d = self.send_up(j, Message::EnergyReport)?;
        let heard = on_time(&d);
        self.tel.observe_delivery(round, j, &d);
        self.tel.event(|| TraceEvent::Probe {
            round,
            camera: j,
            delivered: heard,
        });
        if heard {
            self.seats[self.route[j]].cache.mark_heard(j, round);
        }
        Ok(())
    }

    /// A sensor gap: no detection ran on a dropped frame, so the camera
    /// reports it with a tiny `DegradedFrame` message. Returns whether the
    /// report arrived this round.
    fn send_gap(&mut self, round: usize, j: usize) -> Result<bool> {
        let d = self.send_up(j, Message::DegradedFrame)?;
        self.tel.observe_delivery(round, j, &d);
        self.tel.counter_add("sensor.gap_reports", 1);
        Ok(on_time(&d))
    }

    /// Closes the round: the sticky plan, the round record and its
    /// telemetry, a checkpoint when one is due, and the network clock.
    fn commit(&mut self, round: Round, (assignment, active): Plan) {
        let tel = self.tel;
        let round_energy = self.energy_spent() - round.energy_before;
        // Sticky fallback for silent rounds. Split-brain rounds set each
        // seat's own plan while planning instead — the union is no single
        // seat's view.
        if self.seats.len() == 1 {
            self.seats[0].last_plan = (assignment.clone(), active.clone());
        }
        self.report.rounds.push(RoundRecord {
            first_frame: self.frames[0][round.start].frame,
            last_frame: self.frames[0][round.end - 1].frame,
            active,
            assignment,
            energy_j: round_energy,
            correct: round.correct,
            gt: round.gt,
        });
        self.report.correctly_detected += round.correct;
        self.report.gt_objects += round.gt;
        tel.counter_add("rounds.completed", 1);
        tel.histogram_record("round.energy_j", ROUND_ENERGY_BOUNDS, round_energy);
        tel.event(|| TraceEvent::RoundEnd {
            round: round.index,
            energy_j: round_energy,
            correct: round.correct,
            gt: round.gt,
        });

        let config = &self.sim.config;
        let seat_chaos =
            config.controller_plan.enabled() || config.fault_plan.partition().enabled();
        if seat_chaos
            && !self.net.controller_down()
            && round.index.is_multiple_of(config.eecs.checkpoint_every)
        {
            self.checkpoint(round.index);
        }
        self.net.advance_round();
        let _ = self.net.drain_inbox();
    }

    /// Checkpoints the official seat's volatile state so the next failover
    /// loses at most `checkpoint_every` rounds of it. Serialize/parse
    /// through real JSON every time: the restored state is exactly what a
    /// crash would recover.
    fn checkpoint(&mut self, round: usize) {
        let snap = self.seats[0].snapshot(self.sim.config.cameras, &self.members);
        let checkpoint = SimulationCheckpoint {
            round,
            epoch: snap.epoch,
            assignment: snap.assignment,
            active: snap.active,
            battery_used_j: self.nodes.iter().map(|c| c.meter().total()).collect(),
            cache: snap.cache,
            quarantine: snap.quarantine,
            members: snap.members,
            profiles: self.sim.fleet.iter().map(|p| p.name.clone()).collect(),
        };
        self.checkpoints.commit(&checkpoint.to_json());
        self.tel.counter_add("checkpoint.taken", 1);
        self.tel.event(|| TraceEvent::Checkpoint { round });
    }

    /// Fills in the fleet-wide totals and returns the report, after the
    /// final telemetry scrape: per-camera energy meters and transport
    /// statistics, as gauges/counters. The scrape is guarded so the null
    /// sink never pays for the metric-name formatting.
    fn finish(self) -> SimulationReport {
        let (tel, net) = (self.tel, &self.net);
        let cams = self.sim.config.cameras;
        let total_energy_j = self.energy_spent();
        if tel.enabled() {
            for (j, node) in self.nodes.iter().enumerate() {
                tel.observe_meter(&format!("camera.{j}"), node.meter());
            }
            for j in 0..cams {
                if let Ok(stats) = net.stats(j) {
                    tel.observe_transport(&format!("transport.cam{j}"), &stats);
                }
            }
            tel.observe_transport("transport.downlink", &net.downlink_stats());
            tel.gauge_set("run.total_energy_j", total_energy_j);
            tel.counter_add("run.correct", self.report.correctly_detected as u64);
            tel.counter_add("run.gt_objects", self.report.gt_objects as u64);
        }
        let mut report = self.report;
        report.transport = (0..cams)
            .map(|j| net.stats(j).expect("node exists"))
            .collect();
        report.downlink = net.downlink_stats();
        report.corrupted_frames =
            report.transport.iter().map(|s| s.corrupted).sum::<u64>() + report.downlink.corrupted;
        report.total_energy_j = total_energy_j;
        report.per_camera_energy = self.nodes.iter().map(|c| c.meter().total()).collect();
        report
    }
}

/// Whether a delivery reached its receiver within the round it was sent.
fn on_time(d: &Delivery) -> bool {
    d.delivered && d.delayed_rounds == 0
}

/// The island of a seat at `location` (`None` = the hub, the last node
/// of `island`).
fn island_of(island: &[usize], location: Option<usize>) -> usize {
    island[location.unwrap_or(island.len() - 1)]
}

/// One live controller seat: the mains hub, a crash-failover replacement,
/// or an island's acting controller during a partition. Without partition
/// or controller chaos exactly one of these exists for the whole run and
/// it behaves exactly like the pre-partition flat state.
struct SeatState {
    /// Where the seat runs: `None` = the mains hub, `Some(j)` = camera
    /// `j` acting as controller.
    location: Option<usize>,
    /// Fencing epoch. The hub starts at 0; every election announces a
    /// strictly higher epoch, so stale seats are recognizable.
    epoch: u64,
    cache: AssessmentCache,
    /// Epoch under which each camera's cache slot was last written —
    /// reconciliation prefers the (epoch, round)-freshest slot, so an
    /// acting seat's restored-from-checkpoint copies never beat the
    /// entries a fresher seat recorded itself.
    slot_epoch: Vec<u64>,
    quarantine: QuarantineLedger,
    /// Sticky fallback for rounds where every visible camera is silent.
    last_plan: (BTreeMap<usize, AlgorithmId>, Vec<usize>),
    /// Round the seat last computed a fresh plan in.
    plan_round: usize,
}

impl SeatState {
    /// The mains-powered hub seat every run starts with.
    fn hub(cams: usize) -> SeatState {
        SeatState {
            location: None,
            epoch: 0,
            cache: AssessmentCache::new(cams),
            slot_epoch: vec![0; cams],
            quarantine: QuarantineLedger::new(),
            last_plan: Default::default(),
            plan_round: 0,
        }
    }

    /// Everything reconciliation needs to merge this seat with another.
    /// `members` is the fleet membership the seat currently sees — the
    /// snapshot carries the member *indices* so heals union them.
    fn snapshot(&self, cams: usize, members: &[bool]) -> SeatSnapshot {
        let mut cache = SimulationCheckpoint::capture_cache(&self.cache, cams);
        for (slot, &e) in cache.iter_mut().zip(&self.slot_epoch) {
            slot.epoch = e;
        }
        SeatSnapshot {
            epoch: self.epoch,
            seat: self.location,
            plan_round: self.plan_round,
            assignment: self.last_plan.0.clone(),
            active: self.last_plan.1.clone(),
            cache,
            quarantine: self.quarantine.export(),
            members: (0..cams)
                .filter(|&j| members.get(j) == Some(&true))
                .collect(),
        }
    }

    /// Rebuilds a live seat from a snapshot (a reconciliation result, or
    /// a checkpoint recast as one).
    fn from_snapshot(s: SeatSnapshot, cams: usize) -> SeatState {
        let slot_epoch = (0..cams)
            .map(|j| s.cache.get(j).map_or(0, |c| c.epoch))
            .collect();
        let mut cache = AssessmentCache::new(cams);
        for (j, slot) in s.cache.into_iter().enumerate().take(cams) {
            cache.restore_entry(j, slot.heard, slot.entry);
        }
        SeatState {
            location: s.seat,
            epoch: s.epoch,
            cache,
            slot_epoch,
            quarantine: QuarantineLedger::from_entries(s.quarantine),
            last_plan: (s.assignment, s.active),
            plan_round: s.plan_round,
        }
    }
}

/// Connected components of the node graph under `plan` at `round`:
/// returns an island id per node, where nodes `0..cams` are the cameras
/// and node `cams` is the hub. Two nodes share an island when they can
/// reach each other in *both* directions (a one-way cut separates its
/// endpoints); components are closed transitively as usual.
fn partition_islands(plan: &PartitionPlan, cams: usize, round: usize) -> Vec<usize> {
    let n = cams + 1;
    let ep = |i: usize| {
        if i == cams {
            Endpoint::Hub
        } else {
            Endpoint::Camera(i)
        }
    };
    let mut id: Vec<usize> = (0..n).collect();
    for a in 0..n {
        for b in a + 1..n {
            if plan.can_reach(ep(a), ep(b), round) && plan.can_reach(ep(b), ep(a), round) {
                let (keep, drop) = (id[a].min(id[b]), id[a].max(id[b]));
                if keep != drop {
                    for x in id.iter_mut() {
                        if *x == drop {
                            *x = keep;
                        }
                    }
                }
            }
        }
    }
    id
}

/// Per-camera budgets under a fleet: each camera's per-frame allowance is
/// the configured budget divided by its profile's cost scale against the
/// reference device, so a slower class is asked to do proportionally less
/// work. A scale of exactly 1.0 (every uniform or flagship profile) takes
/// the untouched configured value — bit-identical to the homogeneous
/// budget math.
fn scaled_budgets(
    budget_j_per_frame: f64,
    fleet: &[DeviceProfile],
    reference: &eecs_energy::model::DeviceEnergyModel,
) -> Result<Vec<EnergyBudget>> {
    fleet
        .iter()
        .map(|p| {
            let scale = p.cost_scale(reference);
            let b = if scale == 1.0 {
                budget_j_per_frame
            } else {
                budget_j_per_frame / scale
            };
            EnergyBudget::per_frame(b).map_err(EecsError::from)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_scene::dataset::DatasetId;

    fn sim_config(mode: OperatingMode) -> SimulationConfig {
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        // Miniature cadence: gt every 5 frames; assess 2 frames, rounds of
        // 6 annotated frames.
        let eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        };
        SimulationConfig {
            profile,
            cameras: 2,
            start_frame: 40,
            end_frame: 100,
            budget_j_per_frame: 10.0,
            mode,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: FaultPlan::ideal(),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel: Parallelism::default(),
        }
    }

    fn shared_bank() -> DetectorBank {
        DetectorBank::train_quick(42).unwrap()
    }

    #[test]
    fn pooled_capture_equals_serial_render_and_corrupt() {
        use eecs_scene::sensor_fault::SensorImpairments;
        let profile = DatasetProfile::miniature(DatasetId::Lab);
        let feeds: Vec<VideoFeed> = (0..4)
            .map(|j| VideoFeed::open(profile.clone(), j))
            .collect();
        let harsh = SensorFaultPlan::seeded(11)
            .with_default_impairments(SensorImpairments::harsh())
            .with_occlusion(2, 20, 60, 0.3);
        let bits = |fd: &FrameData| {
            [&fd.image.r, &fd.image.g, &fd.image.b]
                .into_iter()
                .flat_map(|c| c.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        for plan in [harsh, SensorFaultPlan::ideal()] {
            // The serial oracle: render every frame, then corrupt it.
            let mut want_frames = Vec::new();
            let mut want_impairments = Vec::new();
            for (j, feed) in feeds.iter().enumerate() {
                let mut frames = feed.annotated_frames(10, 90);
                want_impairments.push(
                    frames
                        .iter_mut()
                        .map(|fd| plan.corrupt(j, fd.frame, &mut fd.image))
                        .collect::<Vec<_>>(),
                );
                want_frames.push(frames);
            }
            let all = want_impairments.iter().flatten();
            if plan.enabled() {
                assert!(all.clone().any(|i| i.dropped), "no frame dropped");
                assert!(all.clone().any(|i| i.occluded), "no frame occluded");
            } else {
                assert!(all.clone().all(FrameImpairment::is_clean));
            }
            for workers in [0, 1, 2, 3] {
                let (frames, impairments) = capture_segment(&feeds, (10, 90), &plan, workers);
                assert_eq!(impairments, want_impairments, "workers {workers}");
                assert_eq!(frames.len(), want_frames.len());
                for (got, want) in frames.iter().flatten().zip(want_frames.iter().flatten()) {
                    assert_eq!(got.frame, want.frame);
                    assert_eq!(got.gt, want.gt, "frame {}", got.frame);
                    assert!(
                        bits(got) == bits(want),
                        "workers {workers} frame {}",
                        got.frame
                    );
                }
                assert_eq!(frames.iter().flatten().count(), 64);
            }
        }
    }

    #[test]
    fn all_best_runs_and_accounts_energy() {
        let sim = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        let report = sim.run().unwrap();
        assert!(report.total_energy_j > 0.0);
        assert_eq!(report.per_camera_energy.len(), 2);
        assert!(!report.rounds.is_empty());
        assert!(report.gt_objects > 0);
        let round_sum: f64 = report.rounds.iter().map(|r| r.energy_j).sum();
        // Rounds cover all but the one-time feature upload.
        assert!(round_sum <= report.total_energy_j + 1e-9);
    }

    #[test]
    fn full_eecs_not_more_expensive_than_all_best_operation() {
        let bank = shared_bank();
        // Derive a Fig-5b-style budget from the trained profiles: feasible
        // for the cheapest algorithm only, so assessment is not inflated by
        // algorithms the paper's budget would exclude.
        let probe = Simulation::prepare(bank.clone(), sim_config(OperatingMode::AllBest)).unwrap();
        let cheapest = probe.controller.records()[0]
            .ranked()
            .iter()
            .map(|p| p.energy_per_frame_j)
            .fold(f64::INFINITY, f64::min);
        let budget = cheapest * 1.3;

        let mut all_cfg = sim_config(OperatingMode::AllBest);
        all_cfg.budget_j_per_frame = budget;
        let mut eecs_cfg = sim_config(OperatingMode::FullEecs);
        eecs_cfg.budget_j_per_frame = budget;
        let all = Simulation::prepare(bank.clone(), all_cfg)
            .unwrap()
            .run()
            .unwrap();
        let eecs = Simulation::prepare(bank, eecs_cfg).unwrap().run().unwrap();
        // The paper's headline (Fig 5b): EECS spends no more energy than
        // the all-cameras baseline while keeping most of its detections.
        assert!(eecs.gt_objects > 0);
        assert!(
            eecs.total_energy_j <= all.total_energy_j * 1.05,
            "EECS {} J vs all-best {} J",
            eecs.total_energy_j,
            all.total_energy_j
        );
    }

    #[test]
    fn boost_rounds_restore_full_configuration() {
        // Section VII: with boost_every = 1 every round is a boost round,
        // so full EECS operates exactly like the all-best baseline.
        let mut cfg = sim_config(OperatingMode::FullEecs);
        cfg.boost_every = 1;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        let report = sim.run().unwrap();
        // Every feasible camera is active in every round.
        for round in &report.rounds {
            assert_eq!(round.active.len(), 2, "boost round dropped a camera");
        }
        // And boosting costs at least as much as un-boosted full EECS.
        let mut cfg2 = sim_config(OperatingMode::FullEecs);
        cfg2.boost_every = 0;
        let plain_report = Simulation::prepare(shared_bank(), cfg2)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.total_energy_j >= plain_report.total_energy_j - 1e-9);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut cfg = sim_config(OperatingMode::AllBest);
        cfg.cameras = 0;
        assert!(Simulation::prepare(shared_bank(), cfg).is_err());
        let mut cfg2 = sim_config(OperatingMode::AllBest);
        cfg2.start_frame = 100;
        cfg2.end_frame = 100;
        assert!(Simulation::prepare(shared_bank(), cfg2).is_err());
    }

    #[test]
    fn infeasible_budget_surfaces() {
        let mut cfg = sim_config(OperatingMode::AllBest);
        cfg.budget_j_per_frame = 1e-9;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        assert!(matches!(sim.run(), Err(EecsError::Infeasible(_))));
    }

    #[test]
    fn uniform_fleet_and_inert_churn_are_bit_identical() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::FullEecs)).unwrap();
        let plain = base.run().unwrap();
        let dressed = base
            .with_fleet(base.fleet().to_vec())
            .unwrap()
            .with_churn(ChurnPlan::ideal())
            .run()
            .unwrap();
        assert_eq!(plain, dressed, "inert fleet/churn must not perturb a run");
    }

    #[test]
    fn heterogeneous_fleet_scales_per_camera_costs() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        let uniform = base.run().unwrap();
        let het = base
            .with_fleet(vec![DeviceProfile::flagship(), DeviceProfile::midrange()])
            .unwrap()
            .run()
            .unwrap();
        // The flagship is the calibrated reference device: its camera is
        // untouched, bit for bit. The midrange camera pays 1.6x per
        // operation, so its meter cannot read the same.
        assert_eq!(het.per_camera_energy[0], uniform.per_camera_energy[0]);
        assert_ne!(het.per_camera_energy[1], uniform.per_camera_energy[1]);
        assert_eq!(het.camera_joins, 0);
        assert_eq!(het.camera_leaves, 0);
    }

    #[test]
    fn with_fleet_rejects_broken_fleets() {
        let base = Simulation::prepare(shared_bank(), sim_config(OperatingMode::AllBest)).unwrap();
        // Wrong arity.
        assert!(base.with_fleet(vec![DeviceProfile::flagship()]).is_err());
        // A sensor too small for the dataset.
        let mut tiny = DeviceProfile::flagship();
        tiny.max_width = 8;
        assert!(base
            .with_fleet(vec![DeviceProfile::flagship(), tiny])
            .is_err());
        // An invalid battery.
        let dead = DeviceProfile::flagship().with_capacity(0.0);
        assert!(base
            .with_fleet(vec![DeviceProfile::flagship(), dead])
            .is_err());
    }

    #[test]
    fn churn_departure_never_dangles_in_plans() {
        // Three rounds; camera 1 leaves for round 1 and rejoins at round 2.
        let mut cfg = sim_config(OperatingMode::FullEecs);
        cfg.end_frame = 130;
        let sim = Simulation::prepare(shared_bank(), cfg).unwrap();
        let plan = ChurnPlan::seeded(5).with_leave(1, 1, 2);
        let report = sim.with_churn(plan.clone()).run().unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.camera_leaves, 1);
        assert_eq!(report.camera_joins, 1);
        // Regression: sticky fallbacks and index-keyed caches must not
        // keep a departed camera in the round's plan.
        let absent = &report.rounds[1];
        assert!(
            !absent.assignment.contains_key(&1),
            "departed camera still assigned: {:?}",
            absent.assignment
        );
        assert!(
            !absent.active.contains(&1),
            "departed camera still active: {:?}",
            absent.active
        );
        // The same plan replays bit-identically.
        let again = sim.with_churn(plan).run().unwrap();
        assert_eq!(report, again);
    }
}
