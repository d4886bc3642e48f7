//! Kill/resume semantics of the sweep engine: a sweep aborted after N
//! cells and resumed from its manifest produces a merge byte-identical to
//! an uninterrupted run, and — proven by the per-cell `sweep.runs.<cell>`
//! telemetry counters accumulated across both runs — no completed cell
//! ever re-executes.

use eecs::core::config::EecsConfig;
use eecs::core::jsonio::Json;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::telemetry::Telemetry;
use eecs::detect::bank::DetectorBank;
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs_bench::sweep::{run_sweep, JobOrder, Shard, SweepOptions, SweepSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

fn base_simulation() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| {
        let bank = DetectorBank::train_quick(9).expect("bank training");
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        Simulation::prepare(
            bank,
            SimulationConfig {
                profile,
                cameras: 2,
                start_frame: 40,
                end_frame: 70,
                budget_j_per_frame: 10.0,
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
                fault_plan: eecs::net::fault::FaultPlan::ideal(),
                sensor_plan: eecs::scene::sensor_fault::SensorFaultPlan::ideal(),
                controller_plan: eecs::net::fault::ControllerFaultPlan::none(),
                parallel: Parallelism::serial(),
            },
        )
        .expect("simulation preparation")
    })
}

fn spec() -> SweepSpec {
    SweepSpec::new("resume_grid")
        .axis("budget", ["9.0", "12.0"])
        .axis("fault_seed", ["3", "4", "5"])
}

fn grid_shard() -> Shard<'static> {
    Shard::new(spec(), |job| {
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let report = base_simulation()
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                eecs::net::fault::FaultPlan::seeded(seed),
                eecs::scene::sensor_fault::SensorFaultPlan::ideal(),
                eecs::net::fault::ControllerFaultPlan::none(),
            )
            .run()
            .map_err(|e| e.to_string())?;
        Ok(Json::Obj(vec![
            (
                "detected".into(),
                Json::Num(report.correctly_detected as f64),
            ),
            ("energy_j".into(), Json::Num(report.total_energy_j)),
        ]))
    })
}

fn counters(telemetry: &Telemetry) -> BTreeMap<String, u64> {
    telemetry
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

#[test]
fn aborted_sweep_resumes_to_identical_bytes_without_reexecution() {
    let shard = grid_shard();
    let total = spec().cell_count();
    let reference = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("uninterrupted sweep")
    .merged
    .expect("uninterrupted merge");

    let manifest = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep_resume_manifest.jsonl");
    let _ = std::fs::remove_file(&manifest);
    // One telemetry handle across kill + resume, so the per-cell run
    // counters accumulate over the whole history.
    let telemetry = Telemetry::recording(64);

    let killed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            order: JobOrder::Shuffled(23),
            stop_after: Some(2),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .expect("aborted sweep still succeeds");
    assert!(killed.merged.is_none(), "aborted sweep must not merge");
    assert_eq!(killed.executed, 2);

    let mid = counters(&telemetry);
    assert_eq!(mid.get("sweep.executed"), Some(&2));

    let resumed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .expect("resumed sweep");
    let _ = std::fs::remove_file(&manifest);

    assert_eq!(resumed.skipped, 2, "manifest-complete cells are skipped");
    assert_eq!(resumed.executed, total - 2);
    let merged = resumed.merged.expect("resumed merge");
    assert_eq!(
        merged.as_bytes(),
        reference.as_bytes(),
        "kill/resume history must not reach the merged bytes"
    );

    // No completed cell re-executed: every per-cell counter is exactly 1.
    let finals = counters(&telemetry);
    for job in spec().jobs() {
        let key = format!("sweep.runs.{}", job.cell_id());
        assert_eq!(finals.get(&key), Some(&1), "{key}");
    }
    assert_eq!(finals.get("sweep.executed"), Some(&(total as u64)));
    assert_eq!(finals.get("sweep.skipped"), Some(&2));
}

#[test]
fn foreign_manifest_is_rejected_not_resumed() {
    let shard = grid_shard();
    let manifest = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep_foreign_manifest.jsonl");
    std::fs::write(
        &manifest,
        "{\"schema\":\"eecs-sweep-manifest/1\",\"sweep\":\"other\",\"shards\":[]}\n",
    )
    .expect("write foreign manifest");
    let err = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            manifest_path: Some(manifest.clone()),
            ..Default::default()
        },
    )
    .expect_err("foreign manifest must not be resumed from");
    let _ = std::fs::remove_file(&manifest);
    assert!(err.contains("different sweep"), "{err}");
}

/// A `stop_after` budget that covers every pending cell is not a kill:
/// the sweep completes and merges, both from scratch and on a resume
/// whose budget equals the cells the manifest still lacks.
#[test]
fn stop_after_equal_to_pending_cells_still_merges() {
    let shard = grid_shard();
    let total = spec().cell_count();
    let full = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            stop_after: Some(total),
            ..Default::default()
        },
    )
    .expect("sweep with an exact budget");
    assert_eq!(full.executed, total);
    let reference = full.merged.expect("an exact budget completes the sweep");

    let manifest =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep_exact_budget_manifest.jsonl");
    let _ = std::fs::remove_file(&manifest);
    let opts = |stop_after| SweepOptions {
        workers: 2,
        manifest_path: Some(manifest.clone()),
        stop_after: Some(stop_after),
        ..Default::default()
    };
    let killed = run_sweep(&shard, &opts(2)).expect("aborted sweep");
    assert!(killed.merged.is_none(), "2 of {total} cells must not merge");
    let resumed = run_sweep(&shard, &opts(total - 2)).expect("resumed sweep");
    let _ = std::fs::remove_file(&manifest);
    assert_eq!((resumed.executed, resumed.skipped), (total - 2, 2));
    let merged = resumed
        .merged
        .expect("a resume budget equal to the pending cells completes the sweep");
    assert_eq!(merged.as_bytes(), reference.as_bytes());
}
