//! The traced replay: set-up and one job re-issued call by call through
//! each layer's public entry point, with a span around every call.
//!
//! The replay uses the job's own frames, budgets, feasible sets and — from
//! the report of a real run — its per-round assignments. It follows the
//! shape of `Simulation::prepare` and `Simulation::run` rather than every
//! branch: failover elections, seat routing and quarantine are not
//! re-enacted, so under chaos it issues roughly, not exactly, the calls
//! the run made. `trace.coverage` (replay time over the serial run's)
//! says how close it came.

use crate::trace::Tracer;
use crate::workloads::{bank_and_config, Executed, Job, Prepared, Workload};
use eecs_core::checkpoint::{CheckpointStore, SimulationCheckpoint};
use eecs_core::controller::{AssessmentCache, CameraAssessment, Controller};
use eecs_core::reid::fuse_reports;
use eecs_core::selection::AssessmentData;
use eecs_core::simulation::{Simulation, SimulationReport};
use eecs_core::training::profile_algorithm;
use eecs_core::{AlgorithmProfile, CameraNode, CameraReport, FeatureExtractor, TrainingRecord};
use eecs_detect::detection::{AlgorithmId, DetectionOutput};
use eecs_detect::frame_features::FrameFeatures;
use eecs_detect::health::{DetectorHealth, HealthPolicy};
use eecs_energy::budget::{BatteryState, EnergyBudget};
use eecs_energy::comm::JPEG_BYTES_PER_PIXEL;
use eecs_energy::model::DeviceEnergyModel;
use eecs_net::message::Message;
use eecs_net::reliable::Delivery;
use eecs_net::transport::Network;
use eecs_scene::rig::{camera_rig, rig_calibrations};
use eecs_scene::sequence::{FrameData, VideoFeed};
use eecs_serve::{plan_schedule, MissionSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Work the replay issued, per layer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub frames: usize,
    pub degraded: usize,
    /// Scans per algorithm, in `AlgorithmId::ALL` order.
    pub calls: [usize; 4],
    /// `DetectionOutput.ops` of the mission scans, in the same order.
    pub ops: [u64; 4],
    pub unhealthy: usize,
    pub objects: usize,
    pub selects: usize,
    pub fusions: usize,
    pub commits: usize,
}

/// Detector measurements taken beside the replay, outside its spans.
#[derive(Debug, Clone, Copy)]
pub struct Extras {
    /// Time of the first round's assessment scans without a shared
    /// `FrameFeatures` over the time with one.
    pub cache_gain: f64,
    /// Share of C4 windows the early-reject cascade abandons on camera 0's
    /// first assessment frame.
    pub c4_reject_ratio: f64,
}

fn algorithm_index(algorithm: AlgorithmId) -> usize {
    AlgorithmId::ALL
        .iter()
        .position(|&a| a == algorithm)
        .expect("ALL lists every algorithm")
}

fn detect_span(algorithm: AlgorithmId) -> &'static str {
    match algorithm {
        AlgorithmId::Hog => "detect.hog",
        AlgorithmId::Acf => "detect.acf",
        AlgorithmId::C4 => "detect.c4",
        AlgorithmId::Lsvm => "detect.lsvm",
    }
}

/// Re-issues `bank_and_config` and `Simulation::prepare` under a `setup`
/// span, and checks the result against what the timed set-up prepared.
pub fn replay_setup(
    tr: &mut Tracer,
    workload: Workload,
    smoke: bool,
    prepared: &Prepared,
    counts: &mut Counts,
) -> Result<(), String> {
    tr.set_mission(None);
    tr.open("setup");
    let (bank, config) = tr.time("setup.bank", || bank_and_config(workload, smoke));
    let profile = &config.profile;
    let feeds: Vec<VideoFeed> = (0..config.cameras)
        .map(|j| VideoFeed::open(profile.clone(), j))
        .collect();
    let train_end = profile
        .train_frames
        .min(config.start_frame)
        .max(profile.gt_interval + 1);
    let mut train_frames = Vec::new();
    for feed in &feeds {
        let mut frames = tr.time("scene.render", || feed.annotated_frames(0, train_end));
        counts.frames += frames.len();
        frames.truncate(config.max_training_frames.max(2));
        train_frames.push(frames);
    }
    let vocab_frames: Vec<_> = train_frames
        .iter()
        .flat_map(|frames| frames.iter().take(3).map(|f| f.image.clone()))
        .collect();
    let extractor = tr
        .time("setup.vocab", || {
            FeatureExtractor::build(&vocab_frames, config.feature_words, 17)
        })
        .map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for (j, frames) in train_frames.iter().enumerate() {
        tr.open("setup.train_record");
        let name = format!("T_{}.{}", profile.id.number(), j + 1);
        let images: Vec<_> = frames.iter().map(|f| f.image.clone()).collect();
        let video = extractor
            .extract_video(name.as_str(), &images)
            .map_err(|e| e.to_string())?;
        let mut profiles = Vec::new();
        for (algorithm, detector) in bank.all() {
            profiles.push(tr.time(detect_span(algorithm), || {
                profile_algorithm(algorithm, detector, frames, &config.eecs)
            }));
            counts.calls[algorithm_index(algorithm)] += frames.len();
        }
        records.push(TrainingRecord::new(name, video, profiles).map_err(|e| e.to_string())?);
        tr.close();
    }
    tr.open("setup.match");
    let calibrations = rig_calibrations(profile, &camera_rig(profile));
    let controller =
        Controller::new(records, calibrations, config.eecs.clone()).map_err(|e| e.to_string())?;
    let mut matched = Vec::new();
    for (j, feed) in feeds.iter().enumerate() {
        let end = (config.start_frame + 5 * profile.gt_interval + 1).min(config.end_frame);
        let sample = tr.time("scene.render", || {
            feed.annotated_frames(config.start_frame, end)
        });
        counts.frames += sample.len();
        let images: Vec<_> = sample.iter().map(|f| f.image.clone()).collect();
        if images.len() < 2 {
            matched.push(j);
            continue;
        }
        let item = extractor
            .extract_video(format!("V_cam{j}"), &images)
            .map_err(|e| e.to_string())?;
        let (m, _) = controller.match_feed(&item).map_err(|e| e.to_string())?;
        matched.push(m.best_index);
    }
    tr.close();
    tr.close();
    check_same_setup(&controller, &matched, &prepared.base)
}

fn check_same_setup(
    controller: &Controller,
    matched: &[usize],
    sim: &Simulation,
) -> Result<(), String> {
    if matched != sim.matched_records() {
        return Err(format!(
            "replayed set-up matched {matched:?}, the timed one {:?}",
            sim.matched_records()
        ));
    }
    for (ours, theirs) in controller.records().iter().zip(sim.controller().records()) {
        let same = ours.name == theirs.name
            && AlgorithmId::ALL
                .iter()
                .all(|&a| match (ours.profile(a), theirs.profile(a)) {
                    (Some(x), Some(y)) => {
                        x.threshold.to_bits() == y.threshold.to_bits()
                            && x.f_score.to_bits() == y.f_score.to_bits()
                            && x.energy_per_frame_j.to_bits() == y.energy_per_frame_j.to_bits()
                    }
                    (None, None) => true,
                    _ => false,
                });
        if !same {
            return Err(format!(
                "replayed record {} differs from the timed set-up",
                ours.name
            ));
        }
    }
    Ok(())
}

/// Replays `job` as `executed` ran it, under one `replay` span: the
/// service's plan, then each mission's `MissionSpec::apply` and layers.
/// With `extras`, also measures the detector [`Extras`] on its first
/// mission.
pub fn replay_job(
    tr: &mut Tracer,
    prepared: &Prepared,
    job: &Job,
    executed: &Executed,
    counts: &mut Counts,
    extras: bool,
) -> Result<Option<Extras>, String> {
    let mut first_round = None;
    tr.set_mission(None);
    tr.open("replay");
    if let Job::Batch { config, requests } = job {
        tr.time("serve.plan", || black_box(plan_schedule(config, requests)));
    }
    for (i, (spec, report)) in executed.missions.iter().enumerate() {
        tr.set_mission(Some(i));
        let sim = tr.time("serve.apply", || spec.apply(&prepared.base))?;
        let round = replay_mission(tr, prepared, spec, &sim, report, counts)?;
        first_round.get_or_insert(round);
    }
    tr.set_mission(None);
    tr.close();
    Ok(first_round
        .filter(|_| extras)
        .map(|round| measure_extras(prepared, &round)))
}

/// The first round's assessment, as [`measure_extras`] repeats it.
struct FirstRound {
    /// Feasible algorithms per camera.
    feasible: Vec<Vec<AlgorithmId>>,
    /// Annotated frames in the assessment.
    frames: usize,
}

fn replay_mission(
    tr: &mut Tracer,
    prepared: &Prepared,
    spec: &MissionSpec,
    sim: &Simulation,
    report: &SimulationReport,
    counts: &mut Counts,
) -> Result<FirstRound, String> {
    let config = &prepared.config;
    let bank = &prepared.bank;
    let controller = sim.controller();
    let eecs = controller.config();
    let profile = &config.profile;
    let cams = config.cameras;
    let fault_plan = spec
        .fault_plan
        .clone()
        .unwrap_or_else(|| config.fault_plan.clone());
    let sensor_plan = spec
        .sensor_plan
        .clone()
        .unwrap_or_else(|| config.sensor_plan.clone());
    let controller_plan = spec
        .controller_plan
        .clone()
        .unwrap_or_else(|| config.controller_plan.clone());
    let churn = sim.churn_plan();
    let fleet = sim.fleet();
    let budget = spec.budget_j_per_frame.unwrap_or(prepared.budget);
    let budgets = fleet
        .iter()
        .map(|p| {
            let scale = p.cost_scale(&eecs.device);
            EnergyBudget::per_frame(if scale == 1.0 { budget } else { budget / scale })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let feeds: Vec<VideoFeed> = (0..cams)
        .map(|j| VideoFeed::open(profile.clone(), j))
        .collect();

    tr.open("mission");
    let mut frames = Vec::new();
    for feed in &feeds {
        let rendered = tr.time("scene.render", || {
            feed.annotated_frames(config.start_frame, config.end_frame)
        });
        counts.frames += rendered.len();
        frames.push(rendered);
    }
    let n = frames[0].len();
    let mut dropped = vec![vec![false; n]; cams];
    for (j, cam_frames) in frames.iter_mut().enumerate() {
        for (f, fd) in cam_frames.iter_mut().enumerate() {
            let impairment = tr.time("scene.impair", || {
                sensor_plan.corrupt(j, fd.frame, &mut fd.image)
            });
            counts.degraded += usize::from(impairment.degraded());
            dropped[j][f] = impairment.dropped;
        }
    }

    let mut net = Network::with_nodes(fleet.iter().map(|p| (eecs.link, p.device)).collect())
        .with_fault_plan(fault_plan.clone())
        .with_retry_policy(eecs.retry);
    let mut nodes = Vec::new();
    for (j, p) in fleet.iter().enumerate() {
        let battery = BatteryState::new(p.battery_capacity_j).map_err(|e| e.to_string())?;
        nodes.push(CameraNode::new(j, bank.clone(), battery, budgets[j]));
    }
    let mut store = CheckpointStore::new(prepared.checkpoint_faults);
    tr.time("core.checkpoint", || {
        store.commit(&SimulationCheckpoint::initial(cams).to_json())
    });
    counts.commits += 1;
    let feature_dim = controller.records()[0].video.feature_dim();
    for (j, node) in nodes.iter_mut().enumerate() {
        if churn.is_member(j, 0) {
            let upload = Message::FeatureUpload {
                frames: eecs.key_frames,
                feature_dim,
            };
            uplink(tr, &mut net, node, j, upload)?;
        }
    }

    let per_round = (eecs.recalibration_interval / profile.gt_interval).max(1);
    let assess_len = (eecs.assessment_period / profile.gt_interval).clamp(1, per_round);
    let chaos = fault_plan.enabled();
    let checkpointing = controller_plan.enabled() || fault_plan.partition().enabled();
    let mut reid = controller.reid_config(None);
    let mut cache = AssessmentCache::new(cams);
    let mut first = None;
    for (r, round) in report.rounds.iter().enumerate() {
        let start = r * per_round;
        let end = (start + per_round).min(n);
        if start >= end {
            return Err(format!("the report has more rounds than {n} frames hold"));
        }
        let assess_end = (start + assess_len).min(end);
        let members: Vec<bool> = (0..cams).map(|j| churn.is_member(j, r)).collect();
        if controller_plan.crash_starts(r) {
            // A failed restore is the run's to report, not the replay's.
            let _ = tr.time("core.checkpoint", || {
                store
                    .restore()
                    .map(|c| SimulationCheckpoint::from_json(&c.payload))
            });
        }
        if chaos {
            for (j, node) in nodes.iter_mut().enumerate() {
                if members[j] {
                    uplink(tr, &mut net, node, j, Message::EnergyReport)?;
                }
            }
        }

        // Assessment: every feasible algorithm on every assessment frame,
        // sharing each frame's features as `run_algorithms` does.
        let feasible: Vec<Vec<AlgorithmId>> = (0..cams)
            .map(|j| {
                if !members[j] || net.is_camera_down(j) {
                    return Vec::new();
                }
                sim.record_for_camera(j)
                    .feasible_ranked(&budgets[j])
                    .iter()
                    .map(|p| p.algorithm)
                    .collect()
            })
            .collect();
        let mut fresh: Vec<CameraAssessment> = vec![BTreeMap::new(); cams];
        let mut delivered_any = vec![false; cams];
        for j in 0..cams {
            if feasible[j].is_empty() {
                continue;
            }
            let mut outputs: Vec<Vec<Option<DetectionOutput>>> = Vec::new();
            for f in start..assess_end {
                if dropped[j][f] {
                    outputs.push(Vec::new());
                    uplink(tr, &mut net, &mut nodes[j], j, Message::DegradedFrame)?;
                    continue;
                }
                let image = &frames[j][f].image;
                let features = FrameFeatures::new(image);
                let scans = feasible[j]
                    .iter()
                    .map(|&alg| {
                        Some(scan(tr, counts, alg, || {
                            bank.detector(alg).detect_with_cache(image, &features)
                        }))
                    })
                    .collect();
                outputs.push(scans);
            }
            let record = sim.record_for_camera(j);
            for (ai, &alg) in feasible[j].iter().enumerate() {
                let profile_a = record
                    .profile(alg)
                    .ok_or("a feasible algorithm has no profile")?;
                let mut series = Vec::new();
                for (fi, f) in (start..assess_end).enumerate() {
                    if dropped[j][f] {
                        series.push(CameraReport::default());
                        continue;
                    }
                    let output = outputs[fi][ai].take().expect("each scan is ingested once");
                    let camera = (&mut nodes[j], &fleet[j].device, &eecs.health);
                    let report = ingest(tr, counts, camera, &frames[j][f], output, profile_a)?;
                    let message = Message::DetectionMetadata {
                        objects: report.len(),
                    };
                    let d = uplink(tr, &mut net, &mut nodes[j], j, message)?;
                    if d.delivered && d.delayed_rounds == 0 {
                        delivered_any[j] = true;
                        series.push(report);
                    } else {
                        series.push(CameraReport::default());
                    }
                }
                fresh[j].insert(alg, series);
            }
        }

        // Selection, then fusion of the baseline reports it is scored by.
        first.get_or_insert_with(|| FirstRound {
            feasible: feasible.clone(),
            frames: assess_end - start,
        });
        let live: Vec<bool> = (0..cams)
            .map(|j| members[j] && (delivered_any[j] || feasible[j].is_empty()))
            .collect();
        let data = AssessmentData {
            reports: (0..cams)
                .map(|j| {
                    if delivered_any[j] {
                        fresh[j].clone()
                    } else {
                        BTreeMap::new()
                    }
                })
                .collect(),
        };
        if live.iter().any(|&l| l) {
            tr.open("core.select");
            reid = controller.reid_config(controller.fit_color_metric(&data));
            // The real run's selection is in the report; a replayed
            // selection over approximated chaos data may legitimately fail.
            let _ =
                controller.select_live(&data, sim.matched_records(), &budgets, &reid, true, &live);
            tr.close();
            counts.selects += 1;
        }
        let best: Vec<(usize, AlgorithmId)> = (0..cams)
            .filter_map(|j| {
                sim.record_for_camera(j)
                    .best_within_budget(&budgets[j])
                    .map(|p| (j, p.algorithm))
            })
            .collect();
        for fi in 0..assess_end - start {
            let reports: Vec<CameraReport> = best
                .iter()
                .filter_map(|(j, alg)| fresh[*j].get(alg).and_then(|v| v.get(fi)).cloned())
                .collect();
            tr.time("core.reid", || {
                fuse_reports(&reports, controller.calibrations(), &reid)
            });
            counts.fusions += 1;
        }
        for (j, assessment) in fresh.into_iter().enumerate() {
            if delivered_any[j] {
                cache.record(j, r, assessment);
            }
        }
        for j in (0..cams).filter(|&j| members[j]) {
            let message = if round.assignment.contains_key(&j) {
                Message::AlgorithmAssignment
            } else {
                Message::ActivationCommand
            };
            tr.time("net.send", || net.send_downlink(j, message))
                .map_err(|e| e.to_string())?;
        }

        // Operation: each assigned camera runs its one algorithm.
        for f in assess_end..end {
            let mut reports = Vec::new();
            for (&j, &alg) in &round.assignment {
                if !members[j] || net.is_camera_down(j) {
                    continue;
                }
                if dropped[j][f] {
                    uplink(tr, &mut net, &mut nodes[j], j, Message::DegradedFrame)?;
                    continue;
                }
                let frame = &frames[j][f];
                let output = scan(tr, counts, alg, || bank.detector(alg).detect(&frame.image));
                let profile_a = sim
                    .record_for_camera(j)
                    .profile(alg)
                    .ok_or("an assigned algorithm has no profile")?;
                let camera = (&mut nodes[j], &fleet[j].device, &eecs.health);
                let report = ingest(tr, counts, camera, frame, output, profile_a)?;
                let crop_bytes = report
                    .objects
                    .iter()
                    .map(|o| (o.bbox.area().max(0.0) * JPEG_BYTES_PER_PIXEL) as u64 + 100)
                    .sum();
                let message = Message::ObjectDelivery {
                    objects: report.len(),
                    crop_bytes,
                };
                let d = uplink(tr, &mut net, &mut nodes[j], j, message)?;
                if d.delivered && d.delayed_rounds == 0 {
                    reports.push(report);
                }
            }
            tr.time("core.reid", || {
                fuse_reports(&reports, controller.calibrations(), &reid)
            });
            counts.fusions += 1;
        }

        if checkpointing && r % eecs.checkpoint_every == 0 {
            tr.time("core.checkpoint", || {
                let snapshot = SimulationCheckpoint {
                    round: r,
                    epoch: 0,
                    assignment: round.assignment.clone(),
                    active: round.active.clone(),
                    battery_used_j: nodes.iter().map(|c| c.meter().total()).collect(),
                    cache: SimulationCheckpoint::capture_cache(&cache, cams),
                    quarantine: Vec::new(),
                    members: (0..cams).filter(|&j| members[j]).collect(),
                    profiles: fleet.iter().map(|p| p.name.clone()).collect(),
                };
                store.commit(&snapshot.to_json())
            });
            counts.commits += 1;
        }
        net.advance_round();
        net.drain_inbox();
    }
    tr.close();
    first.ok_or_else(|| "the report has no rounds".to_string())
}

fn uplink(
    tr: &mut Tracer,
    net: &mut Network,
    node: &mut CameraNode,
    camera: usize,
    message: Message,
) -> Result<Delivery, String> {
    let (battery, meter) = node.radio_mut();
    tr.time("net.send", || {
        net.send_reliable(camera, message, battery, meter)
    })
    .map_err(|e| e.to_string())
}

fn scan(
    tr: &mut Tracer,
    counts: &mut Counts,
    algorithm: AlgorithmId,
    detect: impl FnOnce() -> DetectionOutput,
) -> DetectionOutput {
    let output = tr.time(detect_span(algorithm), detect);
    let i = algorithm_index(algorithm);
    counts.calls[i] += 1;
    counts.ops[i] += output.ops;
    output
}

/// The health check and the camera's ingestion of one scan; an unhealthy
/// scan's report is discarded, as the run discards it.
fn ingest(
    tr: &mut Tracer,
    counts: &mut Counts,
    (node, device, policy): (&mut CameraNode, &DeviceEnergyModel, &HealthPolicy),
    frame: &FrameData,
    output: DetectionOutput,
    profile: &AlgorithmProfile,
) -> Result<CameraReport, String> {
    let health = tr.time("detect.health", || {
        DetectorHealth::check(profile.algorithm, &output, policy)
    });
    let report = tr
        .time("core.ingest", || {
            node.ingest_detection(&frame.image, output, profile, device)
        })
        .map_err(|e| e.to_string())?;
    counts.objects += report.len();
    if health.is_healthy() {
        Ok(report)
    } else {
        counts.unhealthy += 1;
        Ok(CameraReport::default())
    }
}

/// Re-renders the first round's (unimpaired) assessment frames and times
/// their scans with and without a shared `FrameFeatures`.
fn measure_extras(prepared: &Prepared, first: &FirstRound) -> Extras {
    let (bank, config) = (&prepared.bank, &prepared.config);
    let (mut unshared, mut shared) = (0.0, 0.0);
    let mut c4_reject_ratio = None;
    for (j, algorithms) in first.feasible.iter().enumerate() {
        if algorithms.is_empty() {
            continue;
        }
        let feed = VideoFeed::open(config.profile.clone(), j);
        let frames = feed.annotated_frames(config.start_frame, config.end_frame);
        for frame in frames.iter().take(first.frames) {
            let started = Instant::now();
            black_box(bank.run_algorithms(algorithms, &frame.image, false));
            unshared += started.elapsed().as_secs_f64();
            let started = Instant::now();
            black_box(bank.run_algorithms(algorithms, &frame.image, true));
            shared += started.elapsed().as_secs_f64();
            c4_reject_ratio.get_or_insert_with(|| {
                let (windows, rejected) = bank.c4().cascade_stats(&frame.image);
                rejected as f64 / windows.max(1) as f64
            });
        }
    }
    Extras {
        cache_gain: unshared / shared,
        c4_reject_ratio: c4_reject_ratio.unwrap_or(0.0),
    }
}
