//! The clean-frame store of a prepared [`Simulation`]: clean-sensor runs
//! borrow one shared capture of the test segment, sensor-fault runs
//! capture and corrupt a private copy. Neither may leak into the other — every
//! report must equal the report of a freshly prepared simulation, to the
//! byte, whatever ran on the shared store before it.

use eecs::core::config::EecsConfig;
use eecs::core::simulation::{
    OperatingMode, Parallelism, Simulation, SimulationConfig, SimulationReport,
};
use eecs::core::telemetry::summary::report_to_json;
use eecs::core::EecsError;
use eecs::detect::bank::DetectorBank;
use eecs::net::fault::{ControllerFaultPlan, FaultPlan};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use std::sync::OnceLock;

/// One trained bank for the whole binary.
fn bank() -> DetectorBank {
    static BANK: OnceLock<DetectorBank> = OnceLock::new();
    BANK.get_or_init(|| DetectorBank::train_quick(23).expect("bank"))
        .clone()
}

/// A freshly prepared miniature Lab simulation over `start..end`, with
/// ideal sensors and two workers.
fn prepare(start: usize, end: usize) -> Simulation {
    let eecs = EecsConfig {
        assessment_period: 10,
        recalibration_interval: 30,
        key_frames: 8,
        ..EecsConfig::default()
    };
    Simulation::prepare(
        bank(),
        SimulationConfig {
            profile: DatasetProfile::miniature(DatasetId::Lab),
            cameras: 4,
            start_frame: start,
            end_frame: end,
            budget_j_per_frame: 5.0,
            mode: OperatingMode::FullEecs,
            eecs,
            feature_words: 12,
            max_training_frames: 8,
            boost_every: 0,
            fault_plan: FaultPlan::ideal(),
            sensor_plan: SensorFaultPlan::ideal(),
            controller_plan: ControllerFaultPlan::none(),
            parallel: Parallelism {
                workers: 2,
                feature_cache: true,
            },
        },
    )
    .expect("prepare")
}

/// Harsh sensors everywhere (drops included) and an occlusion on
/// camera 1: the run corrupts nearly every frame it renders.
fn chaos(sim: &Simulation) -> Simulation {
    let sensors = SensorFaultPlan::seeded(7)
        .with_default_impairments(SensorImpairments {
            drop_prob: 0.2,
            ..SensorImpairments::harsh()
        })
        .with_occlusion(1, 40, 100, 0.4);
    sim.with_faults(FaultPlan::ideal(), sensors, ControllerFaultPlan::none())
}

fn json(report: &SimulationReport) -> String {
    report_to_json(report).write().expect("report serializes")
}

fn run(sim: &Simulation) -> String {
    json(&sim.run().expect("run"))
}

fn filled(sim: &Simulation) -> bool {
    format!("{sim:?}").contains("FrameStore(4 cameras, filled")
}

#[test]
fn a_chaos_run_never_writes_through_to_the_shared_frames() {
    let sim = prepare(40, 100);
    let ideal_first = run(&sim);
    let chaos_report = chaos(&sim).run().expect("chaos run");
    assert!(chaos_report.dropped_frames > 0, "no frame was dropped");
    assert!(chaos_report.degraded_frames > 0, "no frame was degraded");
    let ideal_again = run(&sim);

    assert_eq!(ideal_first, ideal_again);
    assert_eq!(ideal_first, run(&prepare(40, 100)));
    assert_eq!(json(&chaos_report), run(&chaos(&prepare(40, 100))));
}

#[test]
fn a_clone_taken_before_the_first_run_shares_the_fill() {
    let sim = prepare(40, 100);
    let early = sim.with_mode(OperatingMode::AllBest);
    assert!(!filled(&sim) && !filled(&early));

    // A sensor-fault run neither reads nor fills the store.
    chaos(&early).run().expect("chaos run");
    assert!(!filled(&sim) && !filled(&early));

    let report = run(&sim);
    assert!(filled(&early), "the clone did not see the fill");
    assert_eq!(
        run(&early),
        run(&prepare(40, 100).with_mode(OperatingMode::AllBest))
    );
    assert_eq!(report, run(&prepare(40, 100)));
}

#[test]
fn one_and_two_workers_read_the_store_identically() {
    let sim = prepare(40, 100);
    let serial = sim.with_parallelism(Parallelism::serial());
    let workers = |workers| Parallelism {
        workers,
        feature_cache: true,
    };
    let two = sim.with_parallelism(workers(2));
    let three = sim.with_parallelism(workers(3));
    // The two-worker run fills the store; the others read it.
    let ideal = run(&two);
    assert_eq!(ideal, run(&serial));
    assert_eq!(ideal, run(&three));
    // A store captured on three workers (an uneven split of the four
    // cameras) holds the same frames.
    assert_eq!(ideal, run(&prepare(40, 100).with_parallelism(workers(3))));
    // Sensor-fault runs capture on their own worker count.
    let sensor_chaos = run(&chaos(&two));
    assert_eq!(sensor_chaos, run(&chaos(&serial)));
    assert_eq!(sensor_chaos, run(&chaos(&three)));
}

#[test]
fn an_empty_frame_range_fails_on_every_run() {
    // The miniature profile annotates every 5th frame: 41..44 holds none.
    let sim = prepare(41, 44);
    for attempt in [
        &sim,
        &chaos(&sim),
        &sim,
        &sim.with_mode(OperatingMode::AllBest),
    ] {
        assert!(
            matches!(attempt.run(), Err(EecsError::InvalidArgument(_))),
            "an empty frame range must be rejected on every run"
        );
    }
}

/// A sensor plan that is enabled but corrupts nothing: an occlusion on
/// frames before the test segment. Its runs detect a private clean copy
/// afresh, so they are a reference that never touches the memo.
fn unmemoized(sim: &Simulation) -> Simulation {
    let sensors = SensorFaultPlan::seeded(3).with_occlusion(0, 0, 10, 0.5);
    sim.with_faults(FaultPlan::ideal(), sensors, ControllerFaultPlan::none())
}

/// The number of memoized detections, from the store's `Debug` line.
fn memoized(sim: &Simulation) -> usize {
    let debug = format!("{sim:?}");
    let Some(at) = debug.find(" detections)") else {
        return 0;
    };
    let digits = debug[..at].rsplit(' ').next().expect("a count");
    digits.parse().expect("a detection count")
}

#[test]
fn warm_runs_equal_fresh_runs_in_fig5_cell_order() {
    // Fig. 5's grid: budget regime × strategy, every cell a clone of one
    // base. The budgets admit different algorithm sets, so later cells
    // read some slots and fill others.
    let cell = |sim: &Simulation, budget: f64, mode: OperatingMode| {
        sim.with_budget(budget).expect("budget").with_mode(mode)
    };
    let cells: Vec<(f64, OperatingMode)> = [5.0, 1.5]
        .into_iter()
        .flat_map(|b| {
            [
                OperatingMode::AllBest,
                OperatingMode::CameraSubset,
                OperatingMode::FullEecs,
            ]
            .map(|m| (b, m))
        })
        .collect();
    let fresh: Vec<String> = cells
        .iter()
        .map(|&(b, m)| run(&cell(&unmemoized(&prepare(40, 100)), b, m)))
        .collect();
    for workers in [1, 2, 3] {
        let base = prepare(40, 100).with_parallelism(Parallelism {
            workers,
            feature_cache: true,
        });
        for (&(b, m), want) in cells.iter().zip(&fresh) {
            let cold = memoized(&base);
            assert_eq!(
                &run(&cell(&base, b, m)),
                want,
                "{workers} workers, {b} J, {m:?}"
            );
            assert!(memoized(&base) >= cold);
        }
        // Every cell again, now all memo reads.
        let full = memoized(&base);
        for (&(b, m), want) in cells.iter().zip(&fresh) {
            assert_eq!(&run(&cell(&base, b, m)), want, "warm: {workers} workers");
        }
        assert_eq!(memoized(&base), full, "a warm pass filled a slot");
    }
}

#[test]
fn a_chaos_run_between_clean_runs_neither_reads_nor_fills_a_slot() {
    let sim = prepare(40, 100);
    let first = run(&sim);
    let slots = memoized(&sim);
    assert!(slots > 0, "the clean run memoized nothing");

    // A sensor-fault run reading the slots would see clean detections of
    // its corrupted frames and differ from a run on a fresh base.
    assert_eq!(run(&chaos(&sim)), run(&chaos(&prepare(40, 100))));
    assert_eq!(run(&unmemoized(&sim)), first);
    assert_eq!(memoized(&sim), slots, "a sensor-fault run filled a slot");
    assert_eq!(run(&sim), first);
}

#[test]
fn two_clones_run_concurrently_give_identical_reports() {
    let sim = prepare(40, 100);
    let (a, b) = (sim.clone(), sim.with_mode(OperatingMode::FullEecs));
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(&a));
        let tb = s.spawn(|| run(&b));
        (ta.join().expect("thread a"), tb.join().expect("thread b"))
    });
    assert_eq!(ra, rb);
    assert_eq!(ra, run(&unmemoized(&prepare(40, 100))));
}
