//! Integrity end-to-end: a four-camera EECS mission under a seeded
//! bit-flip corruption storm must detect every corrupt frame at the
//! checksum trailer (never consume one), pay for the wasted attempts in
//! energy, and stay bit-for-bit deterministic; a torn checkpoint write
//! must roll the crash restore back exactly one generation; and inert
//! integrity plans must leave every report byte-identical to runs that
//! never heard of them.

use eecs::core::checkpoint::CheckpointFaultPlan;
use eecs::core::config::EecsConfig;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::telemetry::summary::golden_document;
use eecs::core::telemetry::Telemetry;
use eecs::detect::bank::DetectorBank;
use eecs::net::fault::{ControllerFaultPlan, CorruptionPlan, FaultPlan, LinkFaults};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};

/// Round the controller dies at in the torn-checkpoint scenario.
const CRASH_ROUND: usize = 1;

fn base_simulation() -> Simulation {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    let eecs = EecsConfig {
        assessment_period: 10,
        recalibration_interval: 30,
        key_frames: 8,
        ..EecsConfig::default()
    };
    Simulation::prepare(
        DetectorBank::train_quick(23).expect("bank"),
        SimulationConfig {
            profile,
            cameras: 4,
            start_frame: 40,
            end_frame: 100,
            budget_j_per_frame: 5.0,
            mode: OperatingMode::FullEecs,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: FaultPlan::ideal(),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel: Parallelism::default(),
        },
    )
    .expect("prepare")
}

/// Lossy links plus a heavy corruption storm on every wire path.
fn storm_simulation() -> Simulation {
    base_simulation().with_faults(
        FaultPlan::seeded(17)
            .with_default_faults(LinkFaults::lossy(0.1))
            .with_corruption(CorruptionPlan::with_rate(0.3)),
        SensorFaultPlan::ideal(),
        ControllerFaultPlan::none(),
    )
}

#[test]
fn corruption_storm_completes_with_graceful_degradation() {
    let storm = storm_simulation().run().expect("storm run completes");
    let clean = base_simulation().run().expect("clean run completes");

    // The storm actually fired, and every corrupt frame was caught at the
    // checksum — counted, retransmitted, never consumed.
    assert!(storm.corrupted_frames > 0, "corruption plan never fired");
    let total = storm.total_transport();
    assert_eq!(
        total.corrupted, total.rejected,
        "every corrupt uplink frame is rejected, none admitted"
    );
    assert!(total.retries > 0, "rejected frames must force retries");

    // Degradation is graceful: the mission still completes every round
    // with live cameras and real detections.
    assert!(!storm.rounds.is_empty());
    assert!(storm.rounds.iter().all(|r| !r.active.is_empty()));
    assert!(storm.correctly_detected > 0, "storm run still detects");

    // The wasted attempts are charged: a corrupted mission costs strictly
    // more energy than the same mission on clean links.
    assert!(
        storm.total_energy_j > clean.total_energy_j,
        "corruption tax {} J must exceed clean {} J",
        storm.total_energy_j,
        clean.total_energy_j
    );
}

#[test]
fn corruption_storm_replays_bit_for_bit_serial_and_parallel() {
    let sim = storm_simulation();
    let a = sim.run().expect("first run");
    let b = sim.run().expect("replay");
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());

    // Worker count must not leak into anything — report, metrics, trace.
    // The serial run is on a freshly prepared simulation, so it detects
    // every frame itself instead of reading what `sim`'s runs memoized.
    let tel_serial = Telemetry::recording(65536);
    let serial = storm_simulation()
        .with_parallelism(Parallelism::serial())
        .with_telemetry(tel_serial.clone())
        .run()
        .expect("serial run");
    let tel_parallel = Telemetry::recording(65536);
    let parallel = sim
        .with_parallelism(Parallelism::default())
        .with_telemetry(tel_parallel.clone())
        .run()
        .expect("parallel run");
    assert_eq!(serial, parallel, "serial and parallel reports diverged");
    let doc_serial = golden_document("storm", &serial, &tel_serial).expect("serial doc");
    let doc_parallel = golden_document("storm", &parallel, &tel_parallel).expect("parallel doc");
    assert_eq!(doc_serial, doc_parallel, "golden documents diverged");
    assert_eq!(
        tel_serial.trace_json().expect("serial trace"),
        tel_parallel.trace_json().expect("parallel trace"),
        "trace streams diverged"
    );
}

#[test]
fn torn_checkpoint_rolls_back_one_generation_and_replays() {
    // Generation 1 is the initial checkpoint; the round-0 snapshot lands
    // as generation 2 and is torn mid-write, so the crash restore must
    // fall back exactly one generation — and the whole recovery must
    // itself be deterministic.
    let sim = base_simulation()
        .with_faults(
            FaultPlan::seeded(5)
                .with_default_faults(LinkFaults::lossy(0.1))
                .with_corruption(CorruptionPlan::with_rate(0.2)),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none().with_crash(CRASH_ROUND, CRASH_ROUND + 1),
        )
        .with_checkpoint_faults(CheckpointFaultPlan::seeded(5).with_torn_write(2));

    let report = sim.run().expect("torn-checkpoint run completes");
    assert_eq!(
        report.checkpoint_rollbacks, 1,
        "torn newest generation must roll back exactly once"
    );
    assert_eq!(report.failovers.len(), 1, "crash must fail over once");
    assert_eq!(report.failovers[0].round, CRASH_ROUND);
    // The fallback generation is the initial checkpoint of round 0.
    assert_eq!(report.failovers[0].checkpoint_round, 0);
    assert!(!report.rounds.is_empty());
    assert!(report.rounds.iter().all(|r| !r.active.is_empty()));

    // Post-failover determinism: the run that recovered through the torn
    // store replays bit-for-bit, telemetry included.
    let tel_a = Telemetry::recording(65536);
    let a = sim.with_telemetry(tel_a.clone()).run().expect("run a");
    let tel_b = Telemetry::recording(65536);
    let b = sim.with_telemetry(tel_b.clone()).run().expect("run b");
    assert_eq!(a, b, "recovery is not deterministic");
    assert_eq!(report, a, "a warm replay differs from the first run");
    assert_eq!(
        tel_a.trace_json().expect("trace a"),
        tel_b.trace_json().expect("trace b"),
        "recovery telemetry is not deterministic"
    );
    assert_eq!(
        tel_a.metrics_json().expect("metrics a"),
        tel_b.metrics_json().expect("metrics b"),
    );
}

#[test]
fn rotten_checkpoint_rolls_back_one_generation_and_replays_serial_and_parallel() {
    // As above, but generation 2 is written whole and then decays: one
    // bit flips at rest, so its checksum fails at the crash restore and
    // the store falls back to the initial checkpoint.
    let sim = base_simulation()
        .with_faults(
            FaultPlan::seeded(5).with_default_faults(LinkFaults::lossy(0.1)),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none().with_crash(CRASH_ROUND, CRASH_ROUND + 1),
        )
        .with_checkpoint_faults(CheckpointFaultPlan::seeded(9).with_bit_rot(2));

    let run = |parallel: Parallelism| {
        let tel = Telemetry::recording(65536);
        let report = sim
            .with_parallelism(parallel)
            .with_telemetry(tel.clone())
            .run()
            .expect("rotten-checkpoint run completes");
        let doc = golden_document("bit_rot", &report, &tel).expect("golden document");
        (report, doc, tel.trace_json().expect("trace"))
    };
    let (report, doc, trace) = run(Parallelism::default());
    assert_eq!(
        report.checkpoint_rollbacks, 1,
        "a rotten newest generation must roll back exactly once"
    );
    assert_eq!(report.failovers.len(), 1, "crash must fail over once");
    assert_eq!(report.failovers[0].round, CRASH_ROUND);
    assert_eq!(report.failovers[0].checkpoint_round, 0);
    assert!(report.rounds.iter().all(|r| !r.active.is_empty()));

    for parallel in [Parallelism::serial(), Parallelism::default()] {
        let (again, again_doc, again_trace) = run(parallel);
        assert_eq!(report, again, "{parallel:?}: recovery is not deterministic");
        assert_eq!(doc, again_doc, "{parallel:?}: golden documents diverged");
        assert_eq!(trace, again_trace, "{parallel:?}: trace streams diverged");
    }
}

/// The three canonical golden scenarios, mirroring `golden_report.rs`.
fn scenario(name: &str) -> Simulation {
    let base = base_simulation();
    match name {
        "ideal" => base.clone(),
        "net_chaos" => base.with_faults(
            FaultPlan::seeded(7).with_default_faults(LinkFaults::lossy(0.25)),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "sensor_chaos" => base.with_faults(
            FaultPlan::ideal(),
            SensorFaultPlan::seeded(11)
                .with_default_impairments(SensorImpairments::harsh())
                .with_occlusion(1, 40, 100, 0.25),
            ControllerFaultPlan::none(),
        ),
        other => panic!("unknown scenario {other}"),
    }
}

/// Re-attaches a scenario's own fault plan with an explicit no-op
/// corruption plan bolted on.
fn with_inert_plans(name: &str) -> Simulation {
    let base = base_simulation();
    let inert = |plan: FaultPlan| plan.with_corruption(CorruptionPlan::none());
    let sim = match name {
        "ideal" => base.with_faults(
            inert(FaultPlan::ideal()),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "net_chaos" => base.with_faults(
            inert(FaultPlan::seeded(7).with_default_faults(LinkFaults::lossy(0.25))),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "sensor_chaos" => base.with_faults(
            inert(FaultPlan::ideal()),
            SensorFaultPlan::seeded(11)
                .with_default_impairments(SensorImpairments::harsh())
                .with_occlusion(1, 40, 100, 0.25),
            ControllerFaultPlan::none(),
        ),
        other => panic!("unknown scenario {other}"),
    };
    sim.with_checkpoint_faults(CheckpointFaultPlan::none())
}

#[test]
fn inert_integrity_plans_leave_reports_byte_identical() {
    // A disabled corruption plan and a disabled checkpoint fault plan
    // must consume zero RNG rolls and emit zero new fields: the golden
    // document of every canonical scenario is byte-for-byte the same
    // whether the plans are attached or the run never heard of them.
    for name in ["ideal", "net_chaos", "sensor_chaos"] {
        let tel_plain = Telemetry::recording(65536);
        let plain = scenario(name)
            .with_telemetry(tel_plain.clone())
            .run()
            .expect("plain run");
        let tel_inert = Telemetry::recording(65536);
        let inert = with_inert_plans(name)
            .with_telemetry(tel_inert.clone())
            .run()
            .expect("inert run");

        assert_eq!(plain, inert, "{name}: inert plans changed the report");
        assert_eq!(plain.corrupted_frames, 0);
        assert_eq!(plain.checkpoint_rollbacks, 0);
        let doc_plain = golden_document(name, &plain, &tel_plain).expect("plain doc");
        let doc_inert = golden_document(name, &inert, &tel_inert).expect("inert doc");
        assert_eq!(
            doc_plain, doc_inert,
            "{name}: inert plans changed the golden document bytes"
        );
        assert!(
            !doc_plain.contains("corrupted_frames") && !doc_plain.contains("checkpoint_rollbacks"),
            "{name}: zero counters must not appear in the document"
        );
        assert_eq!(
            tel_plain.trace_json().expect("plain trace"),
            tel_inert.trace_json().expect("inert trace"),
            "{name}: inert plans changed the trace stream"
        );
    }
}
