//! Partition-tolerance end-to-end: the network splits into islands, each
//! island that loses sight of the controller elects its own epoch-fenced
//! acting seat, planning continues locally, and the heal merges every
//! seat back into one through the deterministic reconciliation join.
//! The whole episode must replay bit-for-bit, across worker counts, and
//! an inert partition plan must change nothing at all.

use eecs::core::checkpoint::CheckpointFaultPlan;
use eecs::core::config::EecsConfig;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::telemetry::{summary, Telemetry};
use eecs::detect::bank::DetectorBank;
use eecs::net::fault::{ControllerFaultPlan, Endpoint, FaultPlan, PartitionPlan};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sensor_fault::SensorFaultPlan;

/// Rounds `[SPLIT_START, SPLIT_END)` run with the network split into
/// {hub, cam 0, cam 1} and {cam 2, cam 3}.
const SPLIT_START: usize = 1;
const SPLIT_END: usize = 3;

fn two_islands() -> Vec<Vec<Endpoint>> {
    vec![
        vec![Endpoint::Hub, Endpoint::Camera(0), Endpoint::Camera(1)],
        vec![Endpoint::Camera(2), Endpoint::Camera(3)],
    ]
}

fn partition_simulation(plan: PartitionPlan) -> Simulation {
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
            fault_plan: FaultPlan::ideal().with_partition(plan),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel: Parallelism::default(),
        },
    )
    .expect("prepare")
}

fn split_plan() -> PartitionPlan {
    PartitionPlan::none().with_split(two_islands(), SPLIT_START, SPLIT_END)
}

#[test]
fn two_island_split_elects_one_acting_seat_and_heals_to_one() {
    let tel = Telemetry::recording(8192);
    let report = partition_simulation(split_plan())
        .with_telemetry(tel.clone())
        .run()
        .expect("partitioned run completes");

    // One partition episode, exactly one election (the hub island keeps
    // its official seat; the orphaned island elects one acting seat),
    // one reconciliation on heal, and two rounds of split brain.
    assert_eq!(report.partitions, 1);
    assert_eq!(report.elections, 1);
    assert_eq!(report.reconciliations, 1);
    assert_eq!(report.split_brain_rounds, SPLIT_END - SPLIT_START);
    assert!(
        report.failovers.is_empty(),
        "an island election is not a controller-crash failover"
    );

    // The mission never stopped: every round planned and scored.
    assert_eq!(report.rounds.len(), 4);
    assert!(report.gt_objects > 0);
    for round in &report.rounds {
        assert!(!round.active.is_empty(), "a round planned nobody");
    }

    // The trace agrees with the report, field for field.
    let count = |kind: &str| tel.events().iter().filter(|e| e.kind() == kind).count();
    assert_eq!(count("partition_start"), report.partitions);
    assert_eq!(count("partition_heal"), report.partitions);
    assert_eq!(count("election"), report.elections);
    assert_eq!(count("reconcile"), report.reconciliations);

    // The elected acting seat lives on the orphaned island, announced a
    // positive fencing epoch, and the heal-round merge kept it or the
    // hub — never a phantom seat.
    let election = tel
        .events()
        .iter()
        .find(|e| e.kind() == "election")
        .cloned()
        .expect("election event");
    let elected = election.camera().expect("election names its seat");
    assert!(elected == 2 || elected == 3, "elected {elected}");
    assert_eq!(election.round(), SPLIT_START);
    let reconcile = tel
        .events()
        .iter()
        .find(|e| e.kind() == "reconcile")
        .cloned()
        .expect("reconcile event");
    assert_eq!(reconcile.round(), SPLIT_END);
}

#[test]
fn partitioned_run_replays_bit_exactly() {
    let sim = partition_simulation(split_plan());
    let run = || {
        let tel = Telemetry::recording(8192);
        let report = sim
            .with_telemetry(tel.clone())
            .run()
            .expect("partitioned run completes");
        let doc = summary::golden_document("partition", &report, &tel).expect("golden doc");
        (report, doc)
    };
    let (report_a, doc_a) = run();
    let (report_b, doc_b) = run();
    // The replay exercises the same mid-partition checkpoint restore the
    // first run did — reports and the full golden document (metrics
    // included) must match byte for byte.
    assert_eq!(report_a, report_b);
    assert_eq!(doc_a, doc_b);
}

#[test]
fn election_restore_rolls_back_past_a_torn_checkpoint() {
    // Generation 2 (the round-0 snapshot) is torn on write, so the
    // orphaned island's election at the split must skip it and restore
    // the initial generation — the election side of the restore path that
    // crash failover shares.
    let sim = partition_simulation(split_plan())
        .with_checkpoint_faults(CheckpointFaultPlan::seeded(5).with_torn_write(2));
    let run = || {
        let tel = Telemetry::recording(8192);
        let report = sim
            .with_telemetry(tel.clone())
            .run()
            .expect("torn-checkpoint partitioned run completes");
        let doc = summary::golden_document("partition", &report, &tel).expect("golden doc");
        (report, tel, doc)
    };
    let (report, tel, doc) = run();
    assert_eq!(report.elections, 1);
    assert_eq!(report.checkpoint_rollbacks, 1);
    assert!(report.failovers.is_empty());
    let rollback = tel
        .events()
        .iter()
        .find(|e| e.kind() == "checkpoint_rollback")
        .cloned()
        .expect("checkpoint_rollback event");
    assert_eq!(rollback.round(), SPLIT_START);

    let (again, _, doc_again) = run();
    assert_eq!(report, again);
    assert_eq!(doc, doc_again);
}

#[test]
fn serial_and_parallel_partition_runs_are_identical() {
    let sim = partition_simulation(split_plan());
    let parallel = sim.run().expect("parallel run");
    let serial = sim
        .with_parallelism(Parallelism::serial())
        .run()
        .expect("serial run");
    assert_eq!(parallel, serial);
}

#[test]
fn inert_partition_plans_change_nothing() {
    let baseline = partition_simulation(PartitionPlan::none())
        .run()
        .expect("baseline run");
    assert_eq!(baseline.partitions, 0);
    assert_eq!(baseline.elections, 0);
    assert_eq!(baseline.reconciliations, 0);
    assert_eq!(baseline.split_brain_rounds, 0);

    // An empty window schedules nothing: the plan is disabled, the
    // partition control plane never runs, and the report is bit-identical
    // to the no-plan run.
    let empty_window = PartitionPlan::none().with_split(two_islands(), 2, 2);
    let report = partition_simulation(empty_window).run().expect("runs");
    assert_eq!(report, baseline);
}

#[test]
fn flapping_split_elects_once_per_dark_window() {
    // On for round 1, off for round 2, on again for round 3 (the last
    // round of the run — the second episode never heals).
    let plan = PartitionPlan::none().with_flapping(two_islands(), 1, 4, 1);
    let report = partition_simulation(plan).run().expect("flapping run");
    // Each on-window orphans somebody afresh: round 1 elects an acting
    // seat for {2, 3}; the round-2 heal adopts its higher epoch (demoting
    // the hub), so the round-3 flap orphans the *hub* island, which
    // elects again at a yet-higher epoch. Only the first episode heals.
    assert_eq!(report.partitions, 2);
    assert_eq!(report.elections, 2);
    assert_eq!(report.reconciliations, 1);
    assert_eq!(report.split_brain_rounds, 2);
}
