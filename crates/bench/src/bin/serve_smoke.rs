//! CI smoke for the mission service's kill/resume contract.
//!
//! For each seed on the command line (default `1 2 3`):
//!
//! 1. an uninterrupted reference batch runs on 1 worker with no journal;
//! 2. a journaled batch on 2 workers is killed after 2 executed
//!    missions (`stop_after`) — it must return no assembled run — and
//!    half of the journal's final line is torn off, as a kill inside the
//!    last append leaves it;
//! 3. a resumed batch against the same journal must skip exactly the
//!    intact journaled mission, re-run the torn one, and assemble a
//!    service trace *byte-identical* to the reference.
//!
//! One telemetry handle is shared across the killed and resumed runs, so
//! `serve.runs.<mission>` proves that only the torn mission re-executed.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::serving::{mixed_batch, service_base};
use eecs_bench::Scale;
use eecs_core::jsonio::{parse, Json};
use eecs_core::telemetry::Telemetry;
use eecs_serve::{BatchOptions, MissionService, ServiceConfig};
use std::collections::BTreeMap;

fn ensure(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("FAILED: {what}"))
    }
}

fn smoke_seed(base: &eecs_core::simulation::Simulation, seed: u64) -> Result<(), String> {
    let batch = mixed_batch(6, &["acme", "zenith"], true);
    let config = ServiceConfig::new(seed)
        .with_slots(2)
        .with_queue_capacity(4)
        .with_tenant_cap(4);

    eprintln!("[serve_smoke] seed {seed}: reference batch (1 worker, no journal)…");
    let reference = MissionService::new(base.clone(), config.clone().with_workers(1))
        .run_batch(&batch, &BatchOptions::default())?
        .run
        .ok_or("reference batch did not assemble")?;
    let reference_bytes = reference.trace_bytes();
    let admitted = reference.schedule.admitted();
    ensure(
        admitted.len() > 2,
        "batch admits enough missions to kill mid-queue",
    )?;

    let journal = std::env::temp_dir().join(format!(
        "eecs_serve_smoke_{}_{}.jsonl",
        std::process::id(),
        seed
    ));
    let _ = std::fs::remove_file(&journal);
    let telemetry = Telemetry::recording(256);
    let service = MissionService::new(base.clone(), config.clone().with_workers(2))
        .with_telemetry(telemetry.clone());

    eprintln!("[serve_smoke] seed {seed}: killed batch (2 workers, stop after 2)…");
    let killed = service.run_batch(
        &batch,
        &BatchOptions::journaled(journal.clone()).with_stop_after(2),
    )?;
    ensure(killed.run.is_none(), "killed batch must not assemble")?;
    ensure(
        killed.executed == 2,
        "killed batch executes exactly 2 missions",
    )?;

    // Kill mid-write: tear off half of the final record and its newline.
    let text = std::fs::read_to_string(&journal).map_err(|e| format!("read journal: {e}"))?;
    let (committed, last) = text
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .ok_or("journal holds no record")?;
    let torn = parse(last)?
        .get("mission")
        .and_then(Json::as_num)
        .ok_or("journal record lacks a mission")? as usize;
    std::fs::write(
        &journal,
        format!("{committed}\n{}", &last[..last.len() / 2]),
    )
    .map_err(|e| format!("tear journal: {e}"))?;

    eprintln!("[serve_smoke] seed {seed}: resumed batch (2 workers, torn journal)…");
    let resumed = service.run_batch(&batch, &BatchOptions::journaled(journal.clone()))?;
    let _ = std::fs::remove_file(&journal);
    ensure(
        resumed.skipped == 1,
        "resume skips the intact journaled mission",
    )?;
    let run = resumed.run.ok_or("resumed batch did not assemble")?;
    ensure(
        run.trace_bytes() == reference_bytes,
        "kill/resume service trace is byte-identical to the uninterrupted run",
    )?;

    // Across kill + resume, only the torn mission executed twice.
    let counters: BTreeMap<String, u64> = telemetry
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    for &m in &admitted {
        let key = format!("serve.runs.{m}");
        let runs = if m == torn { 2 } else { 1 };
        ensure(
            counters.get(&key) == Some(&runs),
            &format!("{key} == {runs} (only the torn mission re-executes)"),
        )?;
    }
    ensure(
        counters.get("serve.executed") == Some(&(admitted.len() as u64 + 1)),
        "every admitted mission executed once, the torn one twice",
    )?;
    ensure(
        counters.get("serve.skipped") == Some(&1),
        "1 mission skipped in total across kill + resume",
    )?;
    Ok(())
}

fn smoke() -> Result<(), String> {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args()
            .skip(1)
            .map(|a| a.parse().map_err(|e| format!("bad seed {a}: {e}")))
            .collect::<Result<_, _>>()?;
        if args.is_empty() {
            vec![1, 2, 3]
        } else {
            args
        }
    };
    eprintln!("[serve_smoke] preparing shared base…");
    let artifacts = Artifacts::quick_trained(Scale::Quick, 5);
    let base = service_base(&artifacts);
    for seed in seeds {
        smoke_seed(&base, seed)?;
    }
    Ok(())
}

fn main() {
    match smoke() {
        Ok(()) => println!("serve_smoke: OK"),
        Err(e) => {
            eprintln!("serve_smoke: {e}");
            std::process::exit(1);
        }
    }
}
