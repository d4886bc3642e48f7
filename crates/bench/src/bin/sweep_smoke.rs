//! CI smoke test for the sweep engine: a tiny (budget × fault-seed) grid
//! on a miniature simulation, exercised three ways —
//!
//! 1. an uninterrupted single-worker reference run,
//! 2. a two-worker run killed (via `stop_after`) after 2 cells,
//! 3. a two-worker resume from the manifest.
//!
//! It then asserts the resumed merge is **byte-identical** to the
//! reference and — via the per-cell `sweep.runs.<cell>` telemetry
//! counters accumulated across kill + resume — that no completed cell
//! ever re-executed. Exits non-zero on any violation.

use eecs_bench::miniature_config;
use eecs_bench::sweep::{run_sweep, JobOrder, Shard, SweepOptions, SweepSpec};
use eecs_core::jsonio::Json;
use eecs_core::simulation::{Parallelism, Simulation};
use eecs_core::telemetry::Telemetry;
use eecs_detect::bank::DetectorBank;
use std::collections::BTreeMap;

fn ensure(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("FAILED: {what}"))
    }
}

fn smoke() -> Result<(), String> {
    eprintln!("[sweep_smoke] preparing miniature simulation…");
    let bank = DetectorBank::train_quick(5).map_err(|e| e.to_string())?;
    let base = Simulation::prepare(bank, miniature_config(2, 70, 10.0, Parallelism::serial()))
        .map_err(|e| e.to_string())?;

    let spec = || {
        SweepSpec::new("smoke")
            .axis("budget", ["8.0", "12.0"])
            .axis("fault_seed", ["1", "2"])
    };
    let shard = Shard::new(spec(), |job| {
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let report = base
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                eecs_net::fault::FaultPlan::seeded(seed),
                eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
                eecs_net::fault::ControllerFaultPlan::none(),
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
    });

    eprintln!("[sweep_smoke] reference run (1 worker, no manifest)…");
    let reference = run_sweep(
        &shard,
        &SweepOptions {
            workers: 1,
            ..Default::default()
        },
    )?
    .merged
    .ok_or("reference sweep incomplete")?;

    let manifest =
        std::env::temp_dir().join(format!("eecs_sweep_smoke_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let telemetry = Telemetry::recording(256);

    eprintln!("[sweep_smoke] killed run (2 workers, stop after 2 cells)…");
    let killed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            order: JobOrder::Shuffled(17),
            stop_after: Some(2),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )?;
    ensure(killed.merged.is_none(), "killed run must not merge")?;
    ensure(killed.executed == 2, "killed run executes exactly 2 cells")?;

    eprintln!("[sweep_smoke] resumed run (2 workers, same manifest)…");
    let resumed = run_sweep(
        &shard,
        &SweepOptions {
            workers: 2,
            manifest_path: Some(manifest.clone()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )?;
    let _ = std::fs::remove_file(&manifest);
    ensure(
        resumed.skipped == 2,
        "resume skips the 2 manifest-complete cells",
    )?;
    let merged = resumed.merged.ok_or("resumed sweep incomplete")?;
    ensure(
        merged.as_bytes() == reference.as_bytes(),
        "kill/resume merge is byte-identical to the uninterrupted run",
    )?;

    // Across kill + resume (one shared telemetry handle), every cell ran
    // exactly once.
    let counters: BTreeMap<String, u64> = telemetry
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    for job in spec().jobs() {
        let key = format!("sweep.runs.{}", job.cell_id());
        ensure(
            counters.get(&key) == Some(&1),
            &format!("{key} == 1 (no completed cell re-executes)"),
        )?;
    }
    ensure(
        counters.get("sweep.executed") == Some(&4),
        "4 cells executed in total across kill + resume",
    )?;
    ensure(
        counters.get("sweep.skipped") == Some(&2),
        "2 cells skipped in total across kill + resume",
    )?;
    Ok(())
}

fn main() {
    match smoke() {
        Ok(()) => println!("sweep_smoke: OK"),
        Err(e) => {
            eprintln!("sweep_smoke: {e}");
            std::process::exit(1);
        }
    }
}
