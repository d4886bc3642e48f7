//! Crash safety of the mission service's batch journal: the damage a
//! kill or a bad disk leaves in the file must either resume to the
//! uninterrupted run's exact trace or be refused with a typed error
//! naming the line — never be half-read into a different trace.

use eecs::core::journal::{Journal, JournalError};
use eecs::core::jsonio::{parse, Json};
use eecs::core::simulation::Simulation;
use eecs::core::telemetry::Telemetry;
use eecs_bench::artifacts::Artifacts;
use eecs_bench::serving::{mixed_batch, service_base};
use eecs_bench::Scale;
use eecs_serve::{BatchOptions, MissionRequest, MissionService, ServiceConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

fn base() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| service_base(&Artifacts::quick_trained(Scale::Quick, 5)))
}

fn batch() -> Vec<MissionRequest> {
    mixed_batch(6, &["acme", "zenith"], true)
}

fn service(telemetry: Telemetry) -> MissionService {
    let config = ServiceConfig::new(7)
        .with_slots(2)
        .with_queue_capacity(4)
        .with_tenant_cap(4)
        .with_workers(1);
    MissionService::new(base().clone(), config).with_telemetry(telemetry)
}

/// The uninterrupted, unjournaled run's trace bytes and admitted set.
fn reference() -> &'static (String, Vec<usize>) {
    static REF: OnceLock<(String, Vec<usize>)> = OnceLock::new();
    REF.get_or_init(|| {
        let run = service(Telemetry::null())
            .run_batch(&batch(), &BatchOptions::default())
            .expect("reference batch")
            .run
            .expect("reference assembles");
        (run.trace_bytes(), run.schedule.admitted())
    })
}

fn journal_path(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs the journaled batch until 2 missions are recorded, then stops —
/// the kill half of every scenario. Returns the journal's lines.
fn killed_after_two(path: &PathBuf) -> Vec<String> {
    let killed = service(Telemetry::null())
        .run_batch(
            &batch(),
            &BatchOptions::journaled(path.clone()).with_stop_after(2),
        )
        .expect("killed batch");
    assert!(killed.run.is_none(), "a killed batch does not assemble");
    assert_eq!(killed.executed, 2);
    let text = std::fs::read_to_string(path).expect("journal written");
    assert!(text.ends_with('\n'));
    text.lines().map(str::to_owned).collect()
}

fn mission_of(line: &str) -> usize {
    let record = parse(line).expect("record parses");
    record
        .get("mission")
        .and_then(Json::as_num)
        .expect("mission") as usize
}

#[test]
fn torn_final_line_resumes_to_the_uninterrupted_trace() {
    let (reference_bytes, admitted) = reference();
    let path = journal_path("serve_journal_torn.jsonl");
    let lines = killed_after_two(&path);
    assert_eq!(lines.len(), 3, "header + 2 records");
    let intact = mission_of(&lines[1]);
    let torn = mission_of(&lines[2]);

    // Kill mid-write: the final record loses its newline and half its
    // bytes.
    let mut text = format!("{}\n{}\n", lines[0], lines[1]);
    text.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&path, &text).unwrap();

    let telemetry = Telemetry::recording(64);
    let resumed = service(telemetry.clone())
        .run_batch(&batch(), &BatchOptions::journaled(path.clone()))
        .expect("a torn final line resumes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.skipped, 1, "only the intact record is restored");
    assert_eq!(resumed.executed, admitted.len() - 1);
    let run = resumed.run.expect("resumed batch assembles");
    assert_eq!(&run.trace_bytes(), reference_bytes);
    let metrics = telemetry.metrics();
    let runs = |m: usize| metrics.counter(&format!("serve.runs.{m}"));
    assert_eq!(runs(torn), 1, "the torn mission re-runs exactly once");
    assert_eq!(runs(intact), 0, "the intact mission never re-runs");
}

#[test]
fn flipped_energy_digit_is_a_typed_checksum_error_on_line_2() {
    let path = journal_path("serve_journal_rot.jsonl");
    let mut lines = killed_after_two(&path);
    // Flip one hex digit of the first record's energy bits: the line
    // still parses, and the report it carries is untouched.
    let at = lines[1].find("\"energy_bits\":\"").expect("energy bits") + 15;
    let digit = &lines[1][at..=at];
    let flipped = if digit == "0" { "1" } else { "0" };
    lines[1].replace_range(at..=at, flipped);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let identity = parse(&lines[0]).expect("header parses");
    let typed = Journal::open(&path, &identity, |v| Ok(v.clone())).unwrap_err();
    assert!(
        matches!(typed, JournalError::ChecksumMismatch { line: 2, .. }),
        "{typed:?}"
    );
    let err = service(Telemetry::null())
        .run_batch(&batch(), &BatchOptions::journaled(path.clone()))
        .expect_err("a rotten interior record is refused, not resumed from");
    let _ = std::fs::remove_file(&path);
    assert_eq!(err, typed.to_string());
}

#[test]
fn empty_journal_file_runs_fresh() {
    let (reference_bytes, admitted) = reference();
    let path = journal_path("serve_journal_empty.jsonl");
    std::fs::write(&path, "").unwrap();
    let outcome = service(Telemetry::null())
        .run_batch(&batch(), &BatchOptions::journaled(path.clone()))
        .expect("an empty journal is a fresh journal");
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    let _ = std::fs::remove_file(&path);
    assert_eq!((outcome.executed, outcome.skipped), (admitted.len(), 0));
    assert_eq!(lines, 1 + admitted.len(), "header + one record per mission");
    assert_eq!(
        &outcome.run.expect("assembles").trace_bytes(),
        reference_bytes
    );
}
