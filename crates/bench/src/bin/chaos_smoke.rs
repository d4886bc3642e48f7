//! Fault-matrix smoke: a miniature EECS mission under every row of one
//! fault table, once per seed given on the command line (default: 1 2 3).
//!
//! ```bash
//! cargo run --release -p eecs-bench --bin chaos_smoke -- 1 2 3
//! cargo run --release -p eecs-bench --bin chaos_smoke -- --telemetry 7
//! ```
//!
//! Rows: `crash`, `integrity` (wire corruption and a torn checkpoint),
//! `partition/split`, `partition/flapping` and `churn`. Every (row, seed)
//! cell runs one check: a bit-for-bit replay of report, trace and
//! metrics ([`verify_replay`]), an eviction-free trace, the
//! [`InvariantChecker`] default audit against the fleet's battery
//! capacities, the shared liveness laws and the row's own expectations.
//! A failing cell prints every violation and the flight-recorder tail,
//! and the run exits non-zero. `--telemetry` also prints each passing
//! cell's summary table and metrics registry.

use eecs_bench::miniature_config;
use eecs_core::checkpoint::CheckpointFaultPlan;
use eecs_core::simulation::{Parallelism, Simulation, SimulationReport};
use eecs_core::telemetry::summary::render_summary;
use eecs_core::telemetry::Telemetry;
use eecs_core::testkit::{verify_replay, InvariantChecker, InvariantContext};
use eecs_detect::bank::DetectorBank;
use eecs_energy::profile::DeviceProfile;
use eecs_net::fault::{
    ChurnPlan, ControllerFaultPlan, CorruptionPlan, Endpoint, FaultPlan, LinkFaults, PartitionPlan,
};
use eecs_scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use std::collections::BTreeMap;

/// Round the controller dies at in the crash, integrity and churn rows.
const CRASH_ROUND: usize = 1;

/// The camera the churn row removes over rounds `[1, 3)`.
const CHURN_CAMERA: usize = 3;

/// Rounds of trace dumped on a failed check. `tail_rounds` is inclusive
/// of the newest round, so two rounds always cover both the failover
/// round and the final round of the two-round missions.
const POSTMORTEM_ROUNDS: usize = 2;

/// Flight-recorder capacity: the rows record a few hundred events per
/// run, and the check fails on any eviction rather than audit a
/// truncated trace.
const TRACE_CAPACITY: usize = 8192;

/// One fault row: its name, its mission length (`end_frame`), how to
/// build it from the prepared base of that length, and the violations of
/// its expectations. The crash and integrity rows keep two rounds; a
/// partition needs four (split, two dark rounds, heal) and so does churn
/// (present, two rounds absent, rejoin).
type Row = (
    &'static str,
    usize,
    fn(&Simulation, u64) -> Simulation,
    fn(&SimulationReport) -> Vec<String>,
);

const ROWS: [Row; 5] = [
    ("crash", 100, crash, expect_crash),
    ("integrity", 100, integrity, expect_integrity),
    ("partition/split", 160, split, expect_partition),
    ("partition/flapping", 160, flapping, expect_partition),
    ("churn", 160, churn, expect_churn),
];

fn crash_plan() -> ControllerFaultPlan {
    ControllerFaultPlan::none().with_crash(CRASH_ROUND, CRASH_ROUND + 1)
}

fn crash(base: &Simulation, seed: u64) -> Simulation {
    base.with_faults(
        FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(0.2)),
        SensorFaultPlan::seeded(seed)
            .with_default_impairments(SensorImpairments::harsh())
            .with_occlusion(1, 40, 100, 0.25),
        crash_plan(),
    )
}

/// Generation 1 is the initial checkpoint; the round-0 snapshot lands as
/// generation 2 and gets torn, so the crash restore must fall back
/// exactly one generation.
fn integrity(base: &Simulation, seed: u64) -> Simulation {
    base.with_faults(
        FaultPlan::seeded(seed)
            .with_default_faults(LinkFaults::lossy(0.1))
            .with_corruption(CorruptionPlan::with_rate(0.25)),
        SensorFaultPlan::ideal(),
        crash_plan(),
    )
    .with_checkpoint_faults(CheckpointFaultPlan::seeded(seed).with_torn_write(2))
}

/// The hub keeps cameras 0 and 1; cameras 2 and 3 go dark together.
fn two_islands() -> Vec<Vec<Endpoint>> {
    vec![
        vec![Endpoint::Hub, Endpoint::Camera(0), Endpoint::Camera(1)],
        vec![Endpoint::Camera(2), Endpoint::Camera(3)],
    ]
}

fn partitioned(base: &Simulation, seed: u64, plan: PartitionPlan) -> Simulation {
    let links = FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(0.2));
    base.with_faults(
        links.with_partition(plan),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

fn split(base: &Simulation, seed: u64) -> Simulation {
    let plan = PartitionPlan::none().with_split(two_islands(), 1, 3);
    partitioned(base, seed, plan)
}

fn flapping(base: &Simulation, seed: u64) -> Simulation {
    let plan = PartitionPlan::none().with_flapping(two_islands(), 1, 4, 1);
    partitioned(base, seed, plan)
}

fn churn(base: &Simulation, seed: u64) -> Simulation {
    base.with_fleet(vec![
        DeviceProfile::flagship(),
        DeviceProfile::midrange(),
        DeviceProfile::midrange(),
        DeviceProfile::lowend(),
    ])
    .expect("the four-profile fleet fits the four-camera mission")
    .with_faults(
        FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(0.2)),
        SensorFaultPlan::ideal(),
        crash_plan(),
    )
    .with_churn(ChurnPlan::seeded(seed).with_leave(CHURN_CAMERA, 1, 3))
}

/// Collects a check's violation messages.
trait Need {
    /// Records `msg` as a violation unless `ok`.
    fn need(&mut self, ok: bool, msg: impl ToString);
}

impl Need for Vec<String> {
    fn need(&mut self, ok: bool, msg: impl ToString) {
        if !ok {
            self.push(msg.to_string());
        }
    }
}

/// Liveness every row shares: the mission never stops and its energy
/// stays physical.
fn liveness(r: &SimulationReport) -> Vec<String> {
    let mut v = Vec::new();
    v.need(!r.rounds.is_empty(), "no rounds");
    let staffed = r.rounds.iter().all(|round| !round.active.is_empty());
    v.need(staffed, "a round lost every camera");
    let e = r.total_energy_j;
    let physical = e.is_finite() && e > 0.0;
    v.need(physical, format!("unphysical total energy {e}"));
    v
}

/// The scheduled controller crash fails over exactly once, on schedule.
fn failover_on_schedule(r: &SimulationReport) -> Vec<String> {
    let mut v = Vec::new();
    let f = &r.failovers;
    v.need(
        f.len() == 1,
        format!("expected exactly one failover, got {f:?}"),
    );
    let on_time = f.iter().all(|f| f.round == CRASH_ROUND);
    v.need(on_time, "failover in wrong round");
    v
}

fn expect_crash(r: &SimulationReport) -> Vec<String> {
    let mut v = failover_on_schedule(r);
    v.need(r.degraded_frames > 0, "sensor plan never fired");
    v
}

fn expect_integrity(r: &SimulationReport) -> Vec<String> {
    let mut v = failover_on_schedule(r);
    v.need(r.corrupted_frames > 0, "corruption plan never fired");
    let rolled = r.checkpoint_rollbacks;
    let msg = format!("torn newest generation should roll back exactly once, got {rolled}");
    v.need(rolled == 1, msg);
    v
}

fn expect_partition(r: &SimulationReport) -> Vec<String> {
    let mut v = Vec::new();
    v.need(r.partitions >= 1, "partition plan never fired");
    v.need(r.elections >= 1, "no island ever elected an acting seat");
    v.need(r.reconciliations >= 1, "no heal ever reconciled");
    v.need(r.split_brain_rounds >= 1, "no split-brain round recorded");
    let f = &r.failovers;
    let msg = format!("island election leaked a crash failover {f:?}");
    v.need(f.is_empty(), msg);
    v
}

fn expect_churn(r: &SimulationReport) -> Vec<String> {
    let mut v = failover_on_schedule(r);
    v.need(r.camera_leaves >= 1, "churn plan never removed a camera");
    v.need(r.camera_joins >= 1, "the absent camera never rejoined");
    // Re-planning around the departure: at least one round ran without
    // the churned camera in either the active set or the assignment.
    let left = r.rounds.iter().any(|round| {
        !round.active.contains(&CHURN_CAMERA) && !round.assignment.contains_key(&CHURN_CAMERA)
    });
    let msg = format!(
        "camera {CHURN_CAMERA} never left the plan — sticky assignments leaked across the departure"
    );
    v.need(left, msg);
    v
}

/// Runs one (row, seed) cell, recording its first pass into `tel`, and
/// returns the report or every violation found.
fn check(
    row: Row,
    base: &Simulation,
    seed: u64,
    tel: &Telemetry,
) -> Result<SimulationReport, Vec<String>> {
    let (_, _, build, expect) = row;
    let sim = build(base, seed);
    let report = verify_replay(&sim, tel).map_err(|e| vec![e])?;
    let mut v = Vec::new();
    let evicted = tel.trace_evicted();
    v.need(evicted == 0, format!("trace evicted {evicted} events"));
    let events = tel.events();
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    v.extend(InvariantChecker::with_defaults().check(&InvariantContext {
        report: &report,
        events: &events,
        capacities: &capacities,
    }));
    v.extend(liveness(&report));
    v.extend(expect(&report));
    if v.is_empty() {
        Ok(report)
    } else {
        Err(v)
    }
}

/// One line: detections, energy, audited events, the fault counters that
/// fired and any failover.
fn summary(r: &SimulationReport, events: usize) -> String {
    let (found, gt, joules) = (r.correctly_detected, r.gt_objects, r.total_energy_j);
    let mut line = format!("found {found}/{gt}, {joules:.2} J, {events} events audited");
    let counters = [
        ("degraded", r.degraded_frames as u64),
        ("dropped", r.dropped_frames as u64),
        ("corrupted frames rejected", r.corrupted_frames),
        ("rollbacks", r.checkpoint_rollbacks),
        ("partitions", r.partitions as u64),
        ("elections", r.elections as u64),
        ("reconciliations", r.reconciliations as u64),
        ("split-brain rounds", r.split_brain_rounds as u64),
        ("leaves", r.camera_leaves as u64),
        ("joins", r.camera_joins as u64),
    ];
    for (name, n) in counters.into_iter().filter(|&(_, n)| n > 0) {
        line += &format!(", {name} {n}");
    }
    for f in &r.failovers {
        let (cam, ckpt, acks) = (f.elected, f.checkpoint_round, f.announced);
        line += &format!(", failover → camera {cam} (checkpoint round {ckpt}, {acks} acks)");
    }
    line
}

fn prepare(end_frame: usize) -> Simulation {
    let bank = DetectorBank::train_quick(23).expect("bank");
    let config = miniature_config(4, end_frame, 5.0, Parallelism::default());
    Simulation::prepare(bank, config).expect("prepare")
}

fn main() {
    let mut show_telemetry = false;
    let mut seeds: Vec<u64> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--telemetry" {
            show_telemetry = true;
        } else {
            seeds.push(arg.parse().unwrap_or_else(|_| panic!("bad seed {arg:?}")));
        }
    }
    if seeds.is_empty() {
        seeds = vec![1, 2, 3];
    }
    eprintln!("{} fault rows over seeds {seeds:?}", ROWS.len());

    // One prepared base per mission length, shared by its rows.
    let mut bases = BTreeMap::new();
    let mut failures = 0;
    for row in ROWS {
        let (name, end_frame, ..) = row;
        let base = bases.entry(end_frame).or_insert_with(|| prepare(end_frame));
        for &seed in &seeds {
            // Always record: on a failed check the flight recorder is the
            // post-mortem, and the miniature mission is cheap to trace.
            let tel = Telemetry::recording(TRACE_CAPACITY);
            match check(row, base, seed, &tel) {
                Ok(report) => {
                    let line = summary(&report, tel.events().len());
                    println!("{name} seed {seed}: OK — {line}");
                    if show_telemetry {
                        println!("{}", render_summary(&report, &tel));
                        let metrics = tel.metrics_json().unwrap_or_else(|e| format!("({e})"));
                        println!("metrics: {metrics}");
                    }
                }
                Err(violations) => {
                    failures += 1;
                    let violations = violations.join("\n  ");
                    eprintln!("FAIL {name} seed {seed}:\n  {violations}");
                    let tail = tel.tail_json(POSTMORTEM_ROUNDS);
                    let tail = tail.unwrap_or_else(|e| format!("(tail dump failed: {e})"));
                    eprintln!("flight recorder, last {POSTMORTEM_ROUNDS} rounds:\n{tail}");
                }
            }
        }
    }
    let cells = ROWS.len() * seeds.len();
    if failures > 0 {
        eprintln!("chaos smoke FAILED: {failures} of {cells} cells");
        std::process::exit(1);
    }
    println!("chaos smoke OK ({cells} cells, each replayed and audited)");
}
