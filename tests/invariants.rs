//! Invariant battery: every scenario the suite knows — ideal, lossy
//! links, sensor degradation, a network partition, a corruption storm
//! with a torn checkpoint, and the new churn/heterogeneous-fleet
//! variants — is run serial *and* parallel, and each finished run is
//! audited by [`eecs::core::testkit::InvariantChecker`]'s default rules:
//! energy conservation against per-camera capacities, assignment and
//! quarantine membership against the event-derived join/leave timeline,
//! and counter/event agreement. A final test proves replay bit-identity
//! through [`eecs::core::testkit::verify_replay`] on the richest
//! scenario.

use eecs::core::checkpoint::CheckpointFaultPlan;
use eecs::core::config::EecsConfig;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::telemetry::Telemetry;
use eecs::core::testkit::{verify_replay, InvariantChecker, InvariantContext};
use eecs::detect::bank::DetectorBank;
use eecs::energy::profile::DeviceProfile;
use eecs::net::fault::{
    ChurnPlan, ControllerFaultPlan, CorruptionPlan, Endpoint, FaultPlan, LinkFaults, PartitionPlan,
};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};

/// Large enough that no scenario here ever evicts a trace event; the
/// harness asserts `trace_evicted() == 0` so a silent truncation can
/// never masquerade as a passing audit.
const TRACE_CAPACITY: usize = 16384;

/// Four cameras over four rounds gives churn a window to leave *and*
/// rejoin while the suite still finishes quickly.
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
            end_frame: 160,
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

fn two_islands() -> Vec<Vec<Endpoint>> {
    vec![
        vec![Endpoint::Hub, Endpoint::Camera(0), Endpoint::Camera(1)],
        vec![Endpoint::Camera(2), Endpoint::Camera(3)],
    ]
}

/// Flagship + two midrange + lowend: every cost table distinct.
fn mixed_fleet() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile::flagship(),
        DeviceProfile::midrange(),
        DeviceProfile::midrange(),
        DeviceProfile::lowend(),
    ]
}

/// Camera 3 sits out rounds [1, 3) and rejoins; camera 1 departs for
/// good at round 2. Camera 0 is left alone so a controller seat always
/// has a stable home.
fn churn_plan() -> ChurnPlan {
    ChurnPlan::seeded(5).with_leave(3, 1, 3).with_depart(1, 2)
}

/// Every scenario in the battery, by name.
const SCENARIOS: &[&str] = &[
    "ideal",
    "net_chaos",
    "sensor_chaos",
    "partition",
    "integrity",
    "churn",
    "churn_hetero",
];

fn scenario(name: &str) -> Simulation {
    let base = base_simulation();
    match name {
        "ideal" => base,
        "net_chaos" => base.with_faults(
            FaultPlan::seeded(7).with_default_faults(LinkFaults::lossy(0.25)),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "sensor_chaos" => base.with_faults(
            FaultPlan::ideal(),
            SensorFaultPlan::seeded(11)
                .with_default_impairments(SensorImpairments::harsh())
                .with_occlusion(1, 40, 160, 0.25),
            ControllerFaultPlan::none(),
        ),
        "partition" => base.with_faults(
            FaultPlan::ideal().with_partition(PartitionPlan::none().with_split(
                two_islands(),
                1,
                3,
            )),
            SensorFaultPlan::ideal(),
            ControllerFaultPlan::none(),
        ),
        "integrity" => base
            .with_faults(
                FaultPlan::seeded(17)
                    .with_default_faults(LinkFaults::lossy(0.1))
                    .with_corruption(CorruptionPlan::with_rate(0.2)),
                SensorFaultPlan::ideal(),
                ControllerFaultPlan::none().with_crash(1, 2),
            )
            .with_checkpoint_faults(CheckpointFaultPlan::seeded(5).with_torn_write(2)),
        "churn" => base.with_churn(churn_plan()),
        "churn_hetero" => base
            .with_fleet(mixed_fleet())
            .expect("fleet fits the miniature profile")
            .with_churn(churn_plan())
            .with_faults(
                FaultPlan::seeded(7).with_default_faults(LinkFaults::lossy(0.15)),
                SensorFaultPlan::ideal(),
                ControllerFaultPlan::none(),
            ),
        other => panic!("unknown scenario {other}"),
    }
}

/// Run `name` under `parallel`, then put the finished run in front of
/// the default rule set.
fn audit(name: &str, parallel: Parallelism) {
    let sim = scenario(name).with_parallelism(parallel);
    let tel = Telemetry::recording(TRACE_CAPACITY);
    let report = sim
        .with_telemetry(tel.clone())
        .run()
        .unwrap_or_else(|e| panic!("{name} run completes: {e}"));
    assert_eq!(
        tel.trace_evicted(),
        0,
        "{name}: trace capacity too small for a trustworthy audit"
    );
    let events = tel.events();
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    let ctx = InvariantContext {
        report: &report,
        events: &events,
        capacities: &capacities,
    };
    InvariantChecker::with_defaults().assert_clean(&ctx);
}

#[test]
fn all_scenarios_hold_invariants_serially() {
    for name in SCENARIOS {
        audit(name, Parallelism::serial());
    }
}

#[test]
fn all_scenarios_hold_invariants_in_parallel() {
    for name in SCENARIOS {
        audit(name, Parallelism::default());
    }
}

/// The churn scenarios actually churned — otherwise the membership
/// rules above were vacuously auditing a fixed fleet.
#[test]
fn churn_scenarios_exercise_joins_and_leaves() {
    for name in ["churn", "churn_hetero"] {
        let report = scenario(name).run().expect("churn run completes");
        assert!(
            report.camera_leaves >= 2,
            "{name}: expected both scheduled departures, saw {}",
            report.camera_leaves
        );
        assert!(
            report.camera_joins >= 1,
            "{name}: camera 3 should have rejoined, saw {} joins",
            report.camera_joins
        );
    }
}

/// The richest scenario replays bit-identically — `verify_replay` runs
/// it twice and demands equality before handing the report back.
#[test]
fn churn_hetero_replays_bit_identically() {
    let report = verify_replay(
        &scenario("churn_hetero"),
        &Telemetry::recording(TRACE_CAPACITY),
    )
    .expect("replay is bit-identical");
    assert!(
        report.rounds.len() >= 2,
        "needs multiple rounds to mean anything"
    );
}

/// A deliberately broken rule reports; the defaults never do. Guards
/// against `assert_clean` silently passing because no rules loaded.
#[test]
fn checker_is_actually_armed() {
    let checker = InvariantChecker::with_defaults();
    assert!(
        checker.rule_names().len() >= 4,
        "default rule set lost rules: {:?}",
        checker.rule_names()
    );
    let sim = scenario("ideal");
    let report = sim.run().expect("run");
    let capacities: Vec<f64> = sim.fleet().iter().map(|p| p.battery_capacity_j).collect();
    let ctx = InvariantContext {
        report: &report,
        events: &[],
        capacities: &capacities,
    };
    let mut checker = InvariantChecker::with_defaults();
    checker.add_rule("always-fires", |_ctx| vec!["sentinel violation".into()]);
    let violations = checker.check(&ctx);
    assert!(
        violations.iter().any(|v| v.contains("sentinel violation")),
        "custom rule did not run: {violations:?}"
    );
    assert_eq!(
        violations.len(),
        1,
        "default rules flagged a clean run: {violations:?}"
    );
}
