//! The central controller.
//!
//! Holds the training library (video items + per-algorithm profiles),
//! performs domain-adaptation matching of incoming feeds, fits the
//! re-identification color metric, and runs the selection algorithm.
//! "Video analytics and algorithm selection happen at the controller to
//! avoid … executing processing-expensive domain adaptation at each
//! battery-operated camera sensor" (Section IV).

use crate::config::EecsConfig;
use crate::metadata::CameraReport;
use crate::profile::TrainingRecord;
use crate::reid::{fuse_reports, FusedObject, ReidConfig};
use crate::selection::{select_cameras_and_algorithms, AssessmentData, SelectionOutcome};
use crate::{EecsError, Result};
use eecs_detect::detection::AlgorithmId;
use eecs_energy::budget::EnergyBudget;
use eecs_geometry::calibration::GroundCalibration;
use eecs_linalg::stats::MahalanobisMetric;
use eecs_linalg::Mat;
use eecs_manifold::matcher::{MatchResult, TrainingLibrary};
use eecs_manifold::video::VideoItem;
use std::collections::BTreeMap;

/// Per-camera assessment reports as gathered in one round:
/// `reports[algorithm][frame]`.
pub type CameraAssessment = BTreeMap<AlgorithmId, Vec<CameraReport>>;

/// The controller's memory of each camera's last usable assessment, for
/// graceful degradation on a lossy network.
///
/// When a camera's fresh assessment uploads are lost, the controller can
/// keep planning with the camera's last-known data — up to a staleness
/// cap — provided it still *hears* from the camera (any delivered
/// message counts as a liveness signal). A camera that is both silent
/// and stale is excluded from selection instead of failing the round.
#[derive(Debug, Clone, Default)]
pub struct AssessmentCache {
    /// `(round gathered, reports)` per camera.
    data: Vec<Option<(usize, CameraAssessment)>>,
    /// Round each camera was last heard from (any delivered message).
    heard: Vec<Option<usize>>,
}

impl AssessmentCache {
    /// An empty cache for `cameras` cameras.
    pub fn new(cameras: usize) -> AssessmentCache {
        AssessmentCache {
            data: vec![None; cameras],
            heard: vec![None; cameras],
        }
    }

    /// Notes that any message from `camera` was delivered in `round`.
    pub fn mark_heard(&mut self, camera: usize, round: usize) {
        if let Some(h) = self.heard.get_mut(camera) {
            *h = Some(round);
        }
    }

    /// Stores `camera`'s fresh assessment gathered in `round` (and marks
    /// it heard).
    pub fn record(&mut self, camera: usize, round: usize, reports: CameraAssessment) {
        if let Some(d) = self.data.get_mut(camera) {
            *d = Some((round, reports));
        }
        self.mark_heard(camera, round);
    }

    /// Whether `camera` was heard from in `round` itself.
    pub fn heard_in(&self, camera: usize, round: usize) -> bool {
        self.heard.get(camera).copied().flatten() == Some(round)
    }

    /// The cached reports for `camera` if they are at most
    /// `staleness_limit` rounds older than `round`.
    pub fn usable(
        &self,
        camera: usize,
        round: usize,
        staleness_limit: usize,
    ) -> Option<&CameraAssessment> {
        match self.data.get(camera).and_then(|d| d.as_ref()) {
            Some((gathered, reports)) if round.saturating_sub(*gathered) <= staleness_limit => {
                Some(reports)
            }
            _ => None,
        }
    }

    /// Age in rounds of `camera`'s cached data at `round`, if any data
    /// exists.
    pub fn age(&self, camera: usize, round: usize) -> Option<usize> {
        self.data
            .get(camera)
            .and_then(|d| d.as_ref())
            .map(|(gathered, _)| round.saturating_sub(*gathered))
    }

    /// The round `camera` was last heard from, if ever — checkpoint
    /// export.
    pub fn heard_round(&self, camera: usize) -> Option<usize> {
        self.heard.get(camera).copied().flatten()
    }

    /// The cached `(round gathered, reports)` entry for `camera`,
    /// regardless of staleness — checkpoint export.
    pub fn entry(&self, camera: usize) -> Option<(usize, &CameraAssessment)> {
        self.data
            .get(camera)
            .and_then(|d| d.as_ref())
            .map(|(round, reports)| (*round, reports))
    }

    /// Evicts `camera`'s cached assessment if it is more than
    /// `staleness_limit` rounds older than `round`. Called when a camera
    /// rejoins the fleet: its identity is restored, but a cache entry
    /// gathered before it left must not outlive the same staleness bound
    /// that governs lossy-network degradation. Fresh-enough entries —
    /// and the liveness record — survive. Returns whether an entry was
    /// evicted.
    pub fn evict_stale(&mut self, camera: usize, round: usize, staleness_limit: usize) -> bool {
        match self.data.get_mut(camera) {
            Some(slot @ Some(_)) => {
                let (gathered, _) = slot.as_ref().expect("checked Some");
                if round.saturating_sub(*gathered) > staleness_limit {
                    *slot = None;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Overwrites `camera`'s cache slot wholesale — checkpoint restore.
    /// Out-of-range cameras are ignored, matching `mark_heard`.
    pub fn restore_entry(
        &mut self,
        camera: usize,
        heard: Option<usize>,
        entry: Option<(usize, CameraAssessment)>,
    ) {
        if let Some(h) = self.heard.get_mut(camera) {
            *h = heard;
        }
        if let Some(d) = self.data.get_mut(camera) {
            *d = entry;
        }
    }
}

/// Backoff parameters of the detector quarantine (Section IV's controller
/// extended with self-healing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Rounds a pair sits out after its first strike.
    pub base_backoff_rounds: usize,
    /// Multiplier applied to the backoff for each further strike.
    pub backoff_factor: usize,
    /// Upper bound on a single backoff — this also bounds how long the
    /// controller can go without re-probing a quarantined pair.
    pub max_backoff_rounds: usize,
}

impl Default for QuarantinePolicy {
    /// One round out after the first strike, doubling to a cap of 8 —
    /// a re-probe is always at most 8 rounds away.
    fn default() -> Self {
        QuarantinePolicy {
            base_backoff_rounds: 1,
            backoff_factor: 2,
            max_backoff_rounds: 8,
        }
    }
}

/// The controller's record of (camera, algorithm) pairs that produced
/// unhealthy detector output (see `eecs_detect::health`).
///
/// A struck pair is excluded from assessment for an exponentially growing
/// number of rounds, then automatically *re-probed*: once its backoff
/// expires, the next assessment round includes it again. A healthy
/// re-probe clears the entry entirely; another unhealthy one doubles the
/// backoff (up to the policy cap, which bounds the re-probe interval).
/// An empty ledger — the fault-free case — changes nothing anywhere.
#[derive(Debug, Clone, Default)]
pub struct QuarantineLedger {
    /// `(strikes, first round the pair may be probed again)` per pair.
    entries: BTreeMap<(usize, AlgorithmId), (u32, usize)>,
}

impl QuarantineLedger {
    /// An empty ledger.
    pub fn new() -> QuarantineLedger {
        QuarantineLedger::default()
    }

    /// The backoff `policy` assigns to a pair with `strikes` strikes:
    /// `base · factor^(strikes-1)`, saturating at the cap. Monotone in
    /// `strikes` and never above `max_backoff_rounds`.
    pub fn backoff_rounds(policy: &QuarantinePolicy, strikes: u32) -> usize {
        if strikes == 0 {
            return 0;
        }
        let mut backoff = policy.base_backoff_rounds;
        for _ in 1..strikes {
            backoff = backoff.saturating_mul(policy.backoff_factor);
            if backoff >= policy.max_backoff_rounds {
                return policy.max_backoff_rounds;
            }
        }
        backoff.min(policy.max_backoff_rounds)
    }

    /// Records an unhealthy output from `(camera, algorithm)` observed in
    /// `round`: one more strike, and the pair sits out the next
    /// `backoff_rounds(policy, strikes)` rounds — it becomes eligible
    /// again (is re-probed) at round `round + 1 + backoff`.
    pub fn report_unhealthy(
        &mut self,
        camera: usize,
        algorithm: AlgorithmId,
        round: usize,
        policy: &QuarantinePolicy,
    ) {
        let entry = self.entries.entry((camera, algorithm)).or_insert((0, 0));
        entry.0 = entry.0.saturating_add(1);
        let backoff = QuarantineLedger::backoff_rounds(policy, entry.0);
        entry.1 = round + 1 + backoff;
    }

    /// Records a healthy output from `(camera, algorithm)`: the pair is
    /// fully rehabilitated and forgotten.
    pub fn report_healthy(&mut self, camera: usize, algorithm: AlgorithmId) {
        self.entries.remove(&(camera, algorithm));
    }

    /// Defers every re-probe of `camera` that is due at `round` to
    /// `round + 1`, without touching strike counts. Called when the
    /// camera is unreachable (crashed, in outage, or partitioned away
    /// from its seat): the scheduled re-probe cannot physically happen,
    /// and letting the due round slip by would silently burn it — the
    /// pair must get its health check the moment the camera returns, at
    /// its current strike level, not an escalated one. Returns how many
    /// probes were deferred.
    pub fn defer_probes(&mut self, camera: usize, round: usize) -> usize {
        let mut deferred = 0;
        for (&(cam, _), entry) in self.entries.iter_mut() {
            if cam == camera && entry.1 <= round {
                entry.1 = round + 1;
                deferred += 1;
            }
        }
        deferred
    }

    /// Removes every entry for `camera` — strikes, backoffs and pending
    /// re-probes alike. Called when the camera departs the fleet: the
    /// ledger is keyed by camera index, and an entry left behind would
    /// dangle (a re-probe of a camera that no longer exists) or alias a
    /// future member reusing the index. A later rejoin starts with a
    /// clean slate, like any newcomer. Returns how many entries were
    /// purged.
    pub fn purge_camera(&mut self, camera: usize) -> usize {
        let before = self.entries.len();
        self.entries.retain(|&(cam, _), _| cam != camera);
        before - self.entries.len()
    }

    /// Whether `(camera, algorithm)` may be assessed in `round`. A pair
    /// struck in round `s` with backoff `b` is excluded from rounds
    /// `s+1 ..= s+b` and re-probed from round `s+1+b` on.
    pub fn allows(&self, camera: usize, algorithm: AlgorithmId, round: usize) -> bool {
        match self.entries.get(&(camera, algorithm)) {
            Some((_, until)) => round >= *until,
            None => true,
        }
    }

    /// Current strike count of `(camera, algorithm)`.
    pub fn strikes(&self, camera: usize, algorithm: AlgorithmId) -> u32 {
        self.entries
            .get(&(camera, algorithm))
            .map(|(s, _)| *s)
            .unwrap_or(0)
    }

    /// Number of pairs currently holding strikes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair holds a strike.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry as `(camera, algorithm, strikes, eligible_round)` —
    /// checkpoint export.
    pub fn export(&self) -> Vec<(usize, AlgorithmId, u32, usize)> {
        self.entries
            .iter()
            .map(|(&(cam, alg), &(strikes, until))| (cam, alg, strikes, until))
            .collect()
    }

    /// Rebuilds a ledger from exported entries — checkpoint restore.
    pub fn from_entries(entries: Vec<(usize, AlgorithmId, u32, usize)>) -> QuarantineLedger {
        QuarantineLedger {
            entries: entries
                .into_iter()
                .map(|(cam, alg, strikes, until)| ((cam, alg), (strikes, until)))
                .collect(),
        }
    }
}

/// The EECS central controller.
#[derive(Debug, Clone)]
pub struct Controller {
    config: EecsConfig,
    records: Vec<TrainingRecord>,
    library: TrainingLibrary,
    calibrations: Vec<GroundCalibration>,
}

impl Controller {
    /// Builds a controller from offline-training records and the rig's
    /// ground calibrations.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::InvalidArgument`] with no records, or
    /// propagates manifold errors for degenerate video items.
    pub fn new(
        records: Vec<TrainingRecord>,
        calibrations: Vec<GroundCalibration>,
        config: EecsConfig,
    ) -> Result<Controller> {
        config.validate()?;
        if records.is_empty() {
            return Err(EecsError::InvalidArgument(
                "controller needs at least one training record".into(),
            ));
        }
        let mut library = TrainingLibrary::new(config.similarity);
        for r in &records {
            library.add(r.video.clone())?;
        }
        Ok(Controller {
            config,
            records,
            library,
            calibrations,
        })
    }

    /// The framework configuration.
    pub fn config(&self) -> &EecsConfig {
        &self.config
    }

    /// All training records.
    pub fn records(&self) -> &[TrainingRecord] {
        &self.records
    }

    /// The rig's ground calibrations.
    pub fn calibrations(&self) -> &[GroundCalibration] {
        &self.calibrations
    }

    /// Matches an uploaded feed to the closest training item
    /// (Section IV-B.2) and returns the match plus the record.
    ///
    /// # Errors
    ///
    /// Propagates manifold errors.
    pub fn match_feed(&self, query: &VideoItem) -> Result<(MatchResult, &TrainingRecord)> {
        let m = self.library.best_match(query)?;
        let record = &self.records[m.best_index];
        Ok((m, record))
    }

    /// Fits the Mahalanobis color metric from the color features present in
    /// assessment data (the paper fits it offline on training features; the
    /// assessment set is our training sample). Returns `None` when too few
    /// features exist.
    pub fn fit_color_metric(&self, data: &AssessmentData) -> Option<MahalanobisMetric> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for cam in &data.reports {
            for reports in cam.values() {
                for r in reports {
                    for o in &r.objects {
                        if !o.color.is_empty() {
                            rows.push(o.color.clone());
                        }
                    }
                }
            }
        }
        if rows.len() < 8 {
            return None;
        }
        let dim = rows[0].len();
        if rows.iter().any(|r| r.len() != dim) {
            return None;
        }
        let data_mat = Mat::from_row_vecs(&rows);
        MahalanobisMetric::fit(&data_mat, 1e-3).ok()
    }

    /// The re-identification configuration with an optional fitted metric.
    pub fn reid_config(&self, color_metric: Option<MahalanobisMetric>) -> ReidConfig {
        ReidConfig {
            ground_gate_m: self.config.reid_ground_gate_m,
            color_gate: self.config.reid_color_gate,
            color_metric,
        }
    }

    /// Fuses one frame's camera reports into distinct objects.
    pub fn fuse(
        &self,
        reports: &[crate::metadata::CameraReport],
        reid: &ReidConfig,
    ) -> Vec<FusedObject> {
        fuse_reports(reports, &self.calibrations, reid)
    }

    /// Runs the full selection (Sections IV-B.3/4) given assessment data,
    /// the matched record index per camera, and per-camera budgets.
    ///
    /// # Errors
    ///
    /// Propagates selection errors ([`EecsError::Infeasible`] and input
    /// mismatches).
    pub fn select(
        &self,
        data: &AssessmentData,
        matched_record: &[usize],
        budgets: &[EnergyBudget],
        reid: &ReidConfig,
        downgrade: bool,
    ) -> Result<SelectionOutcome> {
        let records: Vec<&TrainingRecord> = matched_record
            .iter()
            .map(|&i| {
                self.records.get(i).ok_or_else(|| {
                    EecsError::InvalidArgument(format!("record index {i} out of range"))
                })
            })
            .collect::<Result<_>>()?;
        select_cameras_and_algorithms(
            data,
            &records,
            budgets,
            &self.calibrations,
            &self.config,
            reid,
            downgrade,
        )
    }

    /// Like [`Controller::select`], but considering only `live` cameras:
    /// a dead camera is masked out by zeroing its budget, which removes
    /// it from the feasible set without disturbing the greedy algorithm.
    ///
    /// # Errors
    ///
    /// [`EecsError::Infeasible`] when no live camera has a feasible
    /// algorithm (in particular when `live` is all-false — callers
    /// should skip selection entirely for an all-silent round), plus
    /// everything [`Controller::select`] returns.
    pub fn select_live(
        &self,
        data: &AssessmentData,
        matched_record: &[usize],
        budgets: &[EnergyBudget],
        reid: &ReidConfig,
        downgrade: bool,
        live: &[bool],
    ) -> Result<SelectionOutcome> {
        if live.len() != budgets.len() {
            return Err(EecsError::InvalidArgument(format!(
                "live mask covers {} cameras, budgets {}",
                live.len(),
                budgets.len()
            )));
        }
        let zero = EnergyBudget::per_frame(0.0).map_err(EecsError::from)?;
        let masked: Vec<EnergyBudget> = budgets
            .iter()
            .zip(live)
            .map(|(&b, &alive)| if alive { b } else { zero })
            .collect();
        let outcome = self.select(data, matched_record, &masked, reid, downgrade)?;
        let tel = &self.config.telemetry;
        tel.counter_add("controller.selections", 1);
        tel.counter_add(
            "controller.masked_cameras",
            live.iter().filter(|&&alive| !alive).count() as u64,
        );
        tel.gauge_set("controller.last_active", outcome.active.len() as f64);
        Ok(outcome)
    }

    /// Replaces the telemetry handle in this controller's config copy.
    /// `Simulation::with_telemetry` calls this so the controller and the
    /// simulation publish into one shared stream.
    pub fn set_telemetry(&mut self, telemetry: crate::telemetry::Telemetry) {
        self.config.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{CameraReport, ObjectMetadata};
    use crate::profile::test_profile;
    use eecs_detect::detection::{AlgorithmId, BBox};
    use std::collections::BTreeMap;

    fn video(dir: usize, seed: u64) -> VideoItem {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let frames: Vec<Vec<f64>> = (0..8)
            .map(|_| {
                let a = rng.random_range(-0.1..0.1);
                let mut f = vec![0.05; 6];
                f[dir] = 1.0 + a;
                f[(dir + 1) % 6] = 0.6 + a;
                f
            })
            .collect();
        VideoItem::from_frames(format!("T{dir}"), &frames).unwrap()
    }

    fn record(dir: usize, seed: u64) -> TrainingRecord {
        TrainingRecord::new(
            format!("T{dir}"),
            video(dir, seed),
            vec![
                test_profile(AlgorithmId::Hog, 0.7, 1.0),
                test_profile(AlgorithmId::Acf, 0.6, 0.07),
            ],
        )
        .unwrap()
    }

    fn controller() -> Controller {
        let mut cfg = EecsConfig::default();
        cfg.similarity.beta = 2;
        Controller::new(
            vec![record(0, 1), record(2, 2), record(4, 3)],
            Vec::new(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn matches_feed_to_right_record() {
        let c = controller();
        let (m, rec) = c.match_feed(&video(2, 99)).unwrap();
        assert_eq!(m.best_index, 1);
        assert_eq!(rec.name, "T2");
    }

    #[test]
    fn rejects_empty_records() {
        assert!(Controller::new(Vec::new(), Vec::new(), EecsConfig::default()).is_err());
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = EecsConfig {
            gamma_n: 2.0,
            ..EecsConfig::default()
        };
        assert!(Controller::new(vec![record(0, 1)], Vec::new(), cfg).is_err());
    }

    #[test]
    fn color_metric_needs_enough_samples() {
        let c = controller();
        let empty = AssessmentData::default();
        assert!(c.fit_color_metric(&empty).is_none());

        // Rich data: 10 objects with varied colors.
        let mut by_alg = BTreeMap::new();
        let reports: Vec<CameraReport> = (0..10)
            .map(|i| CameraReport {
                objects: vec![ObjectMetadata {
                    camera: 0,
                    bbox: BBox::new(0.0, 0.0, 10.0, 20.0),
                    probability: 0.5,
                    color: vec![
                        i as f64 * 0.1,
                        1.0 - i as f64 * 0.05,
                        0.3 + (i % 3) as f64 * 0.2,
                    ],
                }],
            })
            .collect();
        by_alg.insert(AlgorithmId::Hog, reports);
        let data = AssessmentData {
            reports: vec![by_alg],
        };
        let metric = c.fit_color_metric(&data);
        assert!(metric.is_some());
        assert_eq!(metric.unwrap().dim(), 3);
    }

    #[test]
    fn select_validates_record_indices() {
        let c = controller();
        let data = AssessmentData {
            reports: vec![BTreeMap::new()],
        };
        let reid = c.reid_config(None);
        let budgets = vec![EnergyBudget::per_frame(1.0).unwrap()];
        assert!(c.select(&data, &[99], &budgets, &reid, false).is_err());
    }

    /// A controller with real ground calibrations, as `select` needs one
    /// per camera.
    fn calibrated_controller(cameras: usize) -> Controller {
        use eecs_geometry::calibration::landmark_grid;
        use eecs_geometry::camera::Camera;
        use eecs_geometry::point::Point3;
        let lm = landmark_grid(10.0, 5);
        let calibrations = (0..cameras)
            .map(|j| {
                let cam = Camera::new(
                    Point3::new(5.0 + j as f64, -6.0, 2.8),
                    std::f64::consts::FRAC_PI_2,
                    0.35,
                    320.0,
                    360,
                    288,
                );
                GroundCalibration::from_camera(&cam, &lm).unwrap()
            })
            .collect();
        let mut cfg = EecsConfig::default();
        cfg.similarity.beta = 2;
        Controller::new(vec![record(0, 1), record(2, 2)], calibrations, cfg).unwrap()
    }

    #[test]
    fn select_live_excludes_dead_cameras() {
        let c = calibrated_controller(2);
        let report = CameraReport {
            objects: vec![ObjectMetadata {
                camera: 0,
                bbox: BBox::new(0.0, 0.0, 10.0, 20.0),
                probability: 0.9,
                color: vec![0.5; 3],
            }],
        };
        let by_alg: CameraAssessment = [(AlgorithmId::Hog, vec![report])].into();
        let data = AssessmentData {
            reports: vec![by_alg.clone(), by_alg],
        };
        let reid = c.reid_config(None);
        let budgets = vec![EnergyBudget::per_frame(2.0).unwrap(); 2];

        let out = c
            .select_live(&data, &[0, 1], &budgets, &reid, false, &[true, false])
            .unwrap();
        assert!(!out.active.contains(&1), "dead camera 1 selected");

        // An all-dead round is infeasible — the caller must skip selection.
        assert!(matches!(
            c.select_live(&data, &[0, 1], &budgets, &reid, false, &[false, false]),
            Err(EecsError::Infeasible(_))
        ));
        // Mask length is validated.
        assert!(c
            .select_live(&data, &[0, 1], &budgets, &reid, false, &[true])
            .is_err());
    }

    #[test]
    fn quarantine_backoff_doubles_and_caps() {
        let policy = QuarantinePolicy::default();
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 0), 0);
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 1), 1);
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 2), 2);
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 3), 4);
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 4), 8);
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 5), 8, "capped");
        assert_eq!(QuarantineLedger::backoff_rounds(&policy, 100), 8);
    }

    #[test]
    fn quarantine_excludes_then_reprobes_then_clears() {
        let policy = QuarantinePolicy::default();
        let mut ledger = QuarantineLedger::new();
        let pair = (1, AlgorithmId::Acf);
        assert!(ledger.allows(pair.0, pair.1, 0) && ledger.is_empty());

        // Strike in round 3: one round out (rounds 4), re-probe at 5.
        ledger.report_unhealthy(pair.0, pair.1, 3, &policy);
        assert_eq!(ledger.strikes(pair.0, pair.1), 1);
        assert!(!ledger.allows(pair.0, pair.1, 4));
        assert!(ledger.allows(pair.0, pair.1, 5), "re-probe after backoff");
        assert!(ledger.allows(2, AlgorithmId::Acf, 4), "other camera free");
        assert!(
            ledger.allows(1, AlgorithmId::Hog, 4),
            "other algorithm free"
        );

        // Second strike at the re-probe: two rounds out.
        ledger.report_unhealthy(pair.0, pair.1, 5, &policy);
        assert!(!ledger.allows(pair.0, pair.1, 6) && !ledger.allows(pair.0, pair.1, 7));
        assert!(ledger.allows(pair.0, pair.1, 8));

        // A healthy re-probe clears everything.
        ledger.report_healthy(pair.0, pair.1);
        assert_eq!(ledger.strikes(pair.0, pair.1), 0);
        assert!(ledger.allows(pair.0, pair.1, 6));
        assert!(ledger.is_empty());
    }

    #[test]
    fn quarantine_defer_probe_postpones_without_escalating() {
        let policy = QuarantinePolicy::default();
        let mut ledger = QuarantineLedger::new();
        let pair = (1, AlgorithmId::Acf);
        // Strike in round 3 ⇒ re-probe due at round 5.
        ledger.report_unhealthy(pair.0, pair.1, 3, &policy);
        assert!(ledger.allows(pair.0, pair.1, 5));

        // Camera unreachable in round 5: the re-probe slides to 6, the
        // strike count does not move.
        assert_eq!(ledger.defer_probes(1, 5), 1);
        assert!(!ledger.allows(pair.0, pair.1, 5));
        assert!(ledger.allows(pair.0, pair.1, 6));
        assert_eq!(ledger.strikes(pair.0, pair.1), 1, "no escalation");

        // Deferring again in the same round is idempotent (the probe
        // already slid past it), and other cameras are never affected.
        ledger.report_unhealthy(2, AlgorithmId::Hog, 5, &policy);
        let until_before = !ledger.allows(2, AlgorithmId::Hog, 6);
        assert_eq!(ledger.defer_probes(1, 5), 0, "already deferred");
        assert_eq!(!ledger.allows(2, AlgorithmId::Hog, 6), until_before);

        // Still unreachable next round: the probe slides once more.
        assert_eq!(ledger.defer_probes(1, 6), 1);
        assert!(ledger.allows(pair.0, pair.1, 7));

        // No entries for a camera ⇒ a no-op.
        assert_eq!(ledger.defer_probes(3, 9), 0);

        // The deferred re-probe still clears on a healthy result.
        ledger.report_healthy(pair.0, pair.1);
        assert!(ledger.allows(pair.0, pair.1, 6) && ledger.strikes(pair.0, pair.1) == 0);
    }

    #[test]
    fn quarantine_purge_drops_only_the_departed_camera() {
        let policy = QuarantinePolicy::default();
        let mut ledger = QuarantineLedger::new();
        ledger.report_unhealthy(1, AlgorithmId::Acf, 3, &policy);
        ledger.report_unhealthy(1, AlgorithmId::Hog, 3, &policy);
        ledger.report_unhealthy(2, AlgorithmId::Acf, 3, &policy);
        assert_eq!(ledger.len(), 3);

        assert_eq!(ledger.purge_camera(1), 2);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.strikes(1, AlgorithmId::Acf), 0, "clean slate");
        assert!(ledger.allows(1, AlgorithmId::Acf, 4), "no dangling backoff");
        assert_eq!(ledger.strikes(2, AlgorithmId::Acf), 1, "others untouched");
        assert_eq!(ledger.purge_camera(1), 0, "idempotent");
        assert_eq!(ledger.purge_camera(7), 0, "unknown camera is a no-op");
    }

    #[test]
    fn assessment_cache_evicts_only_stale_entries_on_rejoin() {
        let reports: CameraAssessment = [(AlgorithmId::Hog, Vec::new())].into();
        let mut cache = AssessmentCache::new(2);
        cache.record(0, 3, reports.clone());
        cache.record(1, 3, reports.clone());

        // Rejoin at round 5, limit 2: age 2 is within bound — kept.
        assert!(!cache.evict_stale(0, 5, 2));
        assert_eq!(cache.entry(0), Some((3, &reports)));

        // Rejoin at round 6: age 3 exceeds the bound — evicted, but the
        // liveness record survives.
        assert!(cache.evict_stale(1, 6, 2));
        assert!(cache.entry(1).is_none());
        assert_eq!(cache.heard_round(1), Some(3));

        // Empty slots and out-of-range cameras are no-ops.
        assert!(!cache.evict_stale(1, 7, 2));
        assert!(!cache.evict_stale(9, 7, 2));
    }

    #[test]
    fn quarantine_export_round_trips() {
        let policy = QuarantinePolicy::default();
        let mut ledger = QuarantineLedger::new();
        ledger.report_unhealthy(0, AlgorithmId::Hog, 2, &policy);
        ledger.report_unhealthy(3, AlgorithmId::Lsvm, 7, &policy);
        ledger.report_unhealthy(3, AlgorithmId::Lsvm, 9, &policy);
        let restored = QuarantineLedger::from_entries(ledger.export());
        assert_eq!(restored.export(), ledger.export());
        assert_eq!(restored.strikes(3, AlgorithmId::Lsvm), 2);
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn assessment_cache_export_round_trips() {
        let mut cache = AssessmentCache::new(2);
        let reports: CameraAssessment = [(AlgorithmId::Hog, Vec::new())].into();
        cache.record(0, 3, reports.clone());
        cache.mark_heard(1, 5);

        let mut restored = AssessmentCache::new(2);
        for j in 0..2 {
            restored.restore_entry(
                j,
                cache.heard_round(j),
                cache.entry(j).map(|(r, a)| (r, a.clone())),
            );
        }
        assert!(restored.heard_in(0, 3) && restored.heard_in(1, 5));
        assert_eq!(restored.entry(0), Some((3, &reports)));
        assert!(restored.entry(1).is_none());
    }

    #[test]
    fn assessment_cache_staleness_policy() {
        let mut cache = AssessmentCache::new(2);
        assert!(cache.usable(0, 0, 2).is_none());
        assert!(!cache.heard_in(0, 0));

        let reports: CameraAssessment = [(AlgorithmId::Hog, Vec::new())].into();
        cache.record(0, 3, reports);
        assert!(cache.heard_in(0, 3));
        assert_eq!(cache.age(0, 5), Some(2));
        assert!(cache.usable(0, 5, 2).is_some(), "age 2 ≤ limit 2");
        assert!(cache.usable(0, 6, 2).is_none(), "age 3 > limit 2");
        assert!(cache.usable(1, 3, 2).is_none(), "other camera untouched");

        cache.mark_heard(1, 4);
        assert!(cache.heard_in(1, 4) && !cache.heard_in(1, 5));
        // Out-of-range indices are ignored, not panicking.
        cache.mark_heard(9, 1);
        assert!(cache.usable(9, 1, 2).is_none());
    }
}
