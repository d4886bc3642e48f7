//! The four workloads: how each is set up, which jobs a seed expands to,
//! and how one job executes.
//!
//! Every job is closed loop: the next one starts only after the previous
//! returns. Scenes are the fixed synthetic datasets of the paper's
//! figures; a seed varies only what is random in the system itself — the
//! fault, sensor, churn and arrival plans — because a different scene
//! changes how much work a mission does, by up to 40% between seeds, which
//! no regression bound could absorb.

use eecs_bench::calibrated_device;
use eecs_core::checkpoint::CheckpointFaultPlan;
use eecs_core::checksum::crc32;
use eecs_core::config::EecsConfig;
use eecs_core::simulation::{
    OperatingMode, Parallelism, Simulation, SimulationConfig, SimulationReport,
};
use eecs_core::telemetry::summary::report_to_json;
use eecs_core::telemetry::Telemetry;
use eecs_core::{InvariantChecker, InvariantContext};
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::AlgorithmId;
use eecs_energy::comm::LinkModel;
use eecs_energy::profile::DeviceProfile;
use eecs_net::fault::{ChurnPlan, ControllerFaultPlan, CorruptionPlan, FaultPlan, LinkFaults};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_serve::{
    BatchOptions, MissionRequest, MissionService, MissionSpec, Priority, ServiceConfig,
    ServiceContext, ServiceInvariants, ServiceRun,
};
use std::time::Instant;

/// Seed of the quick-trained detector bank every workload uses.
const BANK_SEED: u64 = 23;

/// Chaos missions per seed: energy per detection differs by up to 2x
/// between fault seeds, so a run averages over this many.
const CHAOS_VARIANTS: usize = 48;

/// Service batches per seed.
const SERVE_VARIANTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LabFig5a,
    ChapFig6,
    LabChaos,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LabFig5a,
        Workload::ChapFig6,
        Workload::LabChaos,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LabFig5a => "lab_fig5a",
            Workload::ChapFig6 => "chap_fig6",
            Workload::LabChaos => "lab_chaos",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Everything set-up produces.
pub struct Prepared {
    pub bank: DetectorBank,
    /// What `Simulation::prepare` was given (the replay re-issues it).
    pub config: SimulationConfig,
    /// The prepared simulation with the workload's budget and fixtures;
    /// every job derives its missions from it.
    pub base: Simulation,
    /// The base's per-frame budget, before fleet scaling.
    pub budget: f64,
    pub checkpoint_faults: CheckpointFaultPlan,
}

/// One closed-loop unit of work.
pub enum Job {
    Mission(Box<MissionSpec>),
    Batch {
        config: ServiceConfig,
        requests: Vec<MissionRequest>,
    },
}

/// What one job execution returned.
pub struct Executed {
    /// Wall time of `Simulation::run` or `MissionService::run_batch`.
    pub seconds: f64,
    /// CRC32 of the report JSON, or of the service trace for a batch.
    pub digest: u32,
    /// Each completed mission's spec and report, in batch order.
    pub missions: Vec<(MissionSpec, SimulationReport)>,
    pub rejected: usize,
    pub service: Option<ServiceRun>,
}

/// Trains the bank and calibrates the energy model, then builds the
/// `Simulation::prepare` input of `workload`.
pub fn bank_and_config(workload: Workload, smoke: bool) -> (DetectorBank, SimulationConfig) {
    let bank = DetectorBank::train_quick(BANK_SEED).expect("quick bank training is deterministic");
    let calibrated = || EecsConfig {
        device: calibrated_device(&bank),
        link: LinkModel::default(),
        ..EecsConfig::default()
    };
    // The miniature mission of the service and of every smoke run.
    let miniature = |id: DatasetId, eecs: EecsConfig| {
        let mut profile = DatasetProfile::miniature(id);
        profile.num_people = 4;
        let eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..eecs
        };
        (profile, 2, 40, 70, eecs, 12, 8)
    };
    let (profile, cameras, start_frame, end_frame, eecs, feature_words, max_training_frames) =
        match (workload, smoke) {
            (Workload::ServeMixed, _) => miniature(DatasetId::Lab, EecsConfig::default()),
            (Workload::LabChaos, true) => {
                let (profile, _, start, _, eecs, words, training) =
                    miniature(DatasetId::Lab, calibrated());
                // Four cameras for the mixed fleet, two rounds for the crash.
                (profile, 4, start, 100, eecs, words, training)
            }
            (Workload::LabFig5a, true) => miniature(DatasetId::Lab, calibrated()),
            (Workload::ChapFig6, true) => miniature(DatasetId::Chap, calibrated()),
            (Workload::LabFig5a, false) => {
                (DatasetProfile::lab(), 4, 250, 600, calibrated(), 24, 8)
            }
            // Four annotated frames, two of them assessment: short enough
            // that a run's median is taken over several missions.
            (Workload::ChapFig6, false) => {
                let eecs = EecsConfig {
                    assessment_period: 20,
                    ..calibrated()
                };
                (DatasetProfile::chap(), 4, 100, 140, eecs, 24, 2)
            }
            // Four training frames: detection is a small share of this
            // mission, and the time saved goes to more fault seeds.
            (Workload::LabChaos, false) => {
                let eecs = EecsConfig {
                    assessment_period: 50,
                    recalibration_interval: 100,
                    ..calibrated()
                };
                (DatasetProfile::lab(), 4, 250, 600, eecs, 24, 4)
            }
        };
    let config = SimulationConfig {
        profile,
        cameras,
        start_frame,
        end_frame,
        budget_j_per_frame: 10.0,
        mode: OperatingMode::FullEecs,
        eecs,
        feature_words,
        max_training_frames,
        boost_every: 0,
        fault_plan: FaultPlan::ideal(),
        sensor_plan: SensorFaultPlan::ideal(),
        controller_plan: ControllerFaultPlan::none(),
        parallel: Parallelism::serial(),
    };
    (bank, config)
}

/// The per-frame budget of `workload`, derived from the measured
/// profiles of camera 0 as the paper derives it from measurements.
fn budget(workload: Workload, sim: &Simulation) -> f64 {
    let record = sim.record_for_camera(0);
    let cost = |a| {
        record
            .profile(a)
            .expect("every algorithm is profiled")
            .energy_per_frame_j
    };
    let (hog, acf) = (cost(AlgorithmId::Hog), cost(AlgorithmId::Acf));
    match workload {
        // Fig. 5a: HOG and everything cheaper is feasible.
        Workload::LabFig5a => 1.1 * hog,
        // Fig. 6: only ACF is feasible.
        Workload::ChapFig6 => {
            let next = [AlgorithmId::Hog, AlgorithmId::C4, AlgorithmId::Lsvm]
                .map(cost)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            acf + (next - acf) * 0.3
        }
        // Fig. 5b: between ACF and HOG.
        Workload::LabChaos => acf + (hog - acf) * 0.3,
        // Requests carry their own budgets.
        Workload::ServeMixed => 10.0,
    }
}

/// The timed set-up: bank, calibration, `Simulation::prepare` and the
/// workload's fixtures.
pub fn setup(workload: Workload, smoke: bool) -> Result<Prepared, String> {
    let (bank, config) = bank_and_config(workload, smoke);
    let sim = Simulation::prepare(bank.clone(), config.clone()).map_err(|e| e.to_string())?;
    let budget = budget(workload, &sim);
    let mut base = sim.with_budget(budget).map_err(|e| e.to_string())?;
    let mut checkpoint_faults = CheckpointFaultPlan::none();
    if workload == Workload::LabChaos {
        base = base
            .with_fleet(vec![
                DeviceProfile::flagship(),
                DeviceProfile::midrange(),
                DeviceProfile::midrange(),
                DeviceProfile::lowend(),
            ])
            .map_err(|e| e.to_string())?;
        // Generation 2 is the round-0 snapshot: the round-1 crash restore
        // must roll back past it.
        checkpoint_faults = CheckpointFaultPlan::seeded(0).with_torn_write(2);
        base = base.with_checkpoint_faults(checkpoint_faults);
    }
    Ok(Prepared {
        bank,
        config,
        base,
        budget,
        checkpoint_faults,
    })
}

/// The seed of job `k` of a run seeded `seed`.
fn job_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

/// The jobs a run cycles through. The ideal workloads have one job: their
/// missions have no random input.
pub fn jobs(workload: Workload, seed: u64, smoke: bool) -> Vec<Job> {
    let count = |n: usize| if smoke { 2 } else { n };
    match workload {
        Workload::LabFig5a | Workload::ChapFig6 => vec![Job::Mission(Box::default())],
        Workload::LabChaos => (0..count(CHAOS_VARIANTS))
            .map(|k| Job::Mission(Box::new(chaos_spec(job_seed(seed, k), smoke))))
            .collect(),
        Workload::ServeMixed => (0..count(SERVE_VARIANTS))
            .map(|k| {
                let s = job_seed(seed, k);
                Job::Batch {
                    config: ServiceConfig::new(s).with_slots(2).with_queue_capacity(4),
                    requests: serve_requests(s, if smoke { 2 } else { 8 }),
                }
            })
            .collect(),
    }
}

/// Lossy, corrupting links, harsh sensors, a controller crash at round 1
/// and camera 3 away for two rounds (one in the two-round smoke mission).
fn chaos_spec(seed: u64, smoke: bool) -> MissionSpec {
    let away = if smoke { 1..2 } else { 2..4 };
    MissionSpec {
        fault_plan: Some(
            FaultPlan::seeded(seed)
                .with_default_faults(LinkFaults::lossy(0.2))
                .with_corruption(CorruptionPlan::with_rate(0.1)),
        ),
        sensor_plan: Some(
            SensorFaultPlan::seeded(seed).with_default_impairments(SensorImpairments::harsh()),
        ),
        controller_plan: Some(ControllerFaultPlan::none().with_crash(1, 2)),
        churn: Some(ChurnPlan::seeded(seed).with_leave(3, away.start, away.end)),
        ..MissionSpec::default()
    }
}

/// `n` requests over three tenants, cycling priorities, budgets,
/// deadlines and chaos kinds exactly as `eecs_bench::serving::mixed_batch`
/// does, with every plan seeded from `seed`.
fn serve_requests(seed: u64, n: usize) -> Vec<MissionRequest> {
    const TENANTS: [&str; 3] = ["a", "b", "c"];
    (0..n)
        .map(|i| {
            let plan_seed = seed.wrapping_mul(64).wrapping_add(i as u64);
            let mut spec = MissionSpec {
                budget_j_per_frame: Some(8.0 + (i % 3) as f64),
                ..MissionSpec::default()
            };
            match i % 4 {
                1 => {
                    spec.fault_plan = Some(
                        FaultPlan::seeded(plan_seed)
                            .with_default_faults(LinkFaults::lossy(0.2))
                            .with_corruption(CorruptionPlan::with_rate(0.2)),
                    )
                }
                2 => spec.churn = Some(ChurnPlan::seeded(plan_seed).with_random_absence(0.2, 1)),
                3 => spec.sensor_plan = Some(SensorFaultPlan::seeded(plan_seed)),
                _ => {}
            }
            let priority = [Priority::Low, Priority::Normal, Priority::High][i % 3];
            MissionRequest::new(TENANTS[i % 3])
                .with_priority(priority)
                .with_work(1 + (i as u64 % 3))
                .with_deadline(6 + (i as u64 % 5) * 3)
                .with_spec(spec)
        })
        .collect()
}

/// Runs `job` once on `workers` threads, timing only the simulator call.
pub fn execute(prepared: &Prepared, job: &Job, workers: usize) -> Result<Executed, String> {
    match job {
        Job::Mission(spec) => {
            let sim = spec.apply(&prepared.base)?.with_parallelism(Parallelism {
                workers,
                feature_cache: true,
            });
            let started = Instant::now();
            let report = sim.run().map_err(|e| e.to_string())?;
            let seconds = started.elapsed().as_secs_f64();
            let digest = crc32(report_to_json(&report).write()?.as_bytes());
            Ok(Executed {
                seconds,
                digest,
                missions: vec![(spec.as_ref().clone(), report)],
                rejected: 0,
                service: None,
            })
        }
        Job::Batch { config, requests } => {
            let service =
                MissionService::new(prepared.base.clone(), config.clone().with_workers(workers));
            let started = Instant::now();
            let outcome = service.run_batch(requests, &BatchOptions::default())?;
            let seconds = started.elapsed().as_secs_f64();
            let run = outcome.run.ok_or("the batch stopped before assembly")?;
            let missions = run
                .completed
                .iter()
                .map(|c| {
                    let report = c
                        .report
                        .clone()
                        .ok_or("a completed mission has no report")?;
                    Ok((requests[c.mission].spec.clone(), report))
                })
                .collect::<Result<_, String>>()?;
            Ok(Executed {
                seconds,
                digest: crc32(run.trace_bytes().as_bytes()),
                missions,
                rejected: run.schedule.rejections().len(),
                service: Some(run),
            })
        }
    }
}

/// Violations of the core invariants by any mission of `executed`, and of
/// the service invariants by its batch.
pub fn invariant_violations(prepared: &Prepared, job: &Job, executed: &Executed) -> Vec<String> {
    let capacities: Vec<f64> = prepared
        .base
        .fleet()
        .iter()
        .map(|p| p.battery_capacity_j)
        .collect();
    let checker = InvariantChecker::with_defaults();
    let mut violations: Vec<String> = executed
        .missions
        .iter()
        .flat_map(|(_, report)| {
            checker.check(&InvariantContext {
                report,
                events: &[],
                capacities: &capacities,
            })
        })
        .collect();
    if let (Job::Batch { config, requests }, Some(run)) = (job, &executed.service) {
        violations.extend(ServiceInvariants::with_defaults().check(&ServiceContext {
            config,
            requests,
            run,
            telemetry: &Telemetry::null(),
        }));
    }
    violations
}
