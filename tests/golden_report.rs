//! Golden-master snapshots: four canonical runs (ideal, net-chaos,
//! sensor-chaos, churn-fleet) serialized — report + final metrics
//! registry — through `eecs_core::jsonio` and compared byte-for-byte
//! against checked-in `tests/golden/*.json`.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```sh
//! EECS_BLESS=1 cargo test --test golden_report
//! ```
//!
//! Every scenario runs under both serial and default (parallel)
//! execution and must produce the same bytes — the snapshot doubles as
//! the determinism regression net for the telemetry layer.

use eecs::core::config::EecsConfig;
use eecs::core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs::core::telemetry::summary::golden_document;
use eecs::core::telemetry::Telemetry;
use eecs::detect::bank::DetectorBank;
use eecs::energy::profile::DeviceProfile;
use eecs::net::fault::{ChurnPlan, ControllerFaultPlan, FaultPlan, LinkFaults};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Flight-recorder capacity for golden runs — large enough that nothing
/// is evicted, so the trace comparisons see the whole run.
const TRACE_CAPACITY: usize = 4096;

fn base_simulation() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        let eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        };
        Simulation::prepare(
            DetectorBank::train_quick(42).expect("bank"),
            SimulationConfig {
                profile,
                cameras: 2,
                start_frame: 40,
                end_frame: 100,
                budget_j_per_frame: 10.0,
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
    })
}

/// Heterogeneous fleet under churn: three distinct device profiles,
/// with the lowend camera leaving at round 1 and rejoining at round 3.
fn churn_fleet_simulation() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut profile = DatasetProfile::miniature(DatasetId::Lab);
        profile.num_people = 4;
        let eecs = EecsConfig {
            assessment_period: 10,
            recalibration_interval: 30,
            key_frames: 8,
            ..EecsConfig::default()
        };
        Simulation::prepare(
            DetectorBank::train_quick(42).expect("bank"),
            SimulationConfig {
                profile,
                cameras: 3,
                start_frame: 40,
                end_frame: 160,
                budget_j_per_frame: 10.0,
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
        .with_fleet(vec![
            DeviceProfile::flagship(),
            DeviceProfile::midrange(),
            DeviceProfile::lowend(),
        ])
        .expect("fleet")
        .with_churn(ChurnPlan::seeded(13).with_leave(2, 1, 3))
    })
}

/// The four canonical scenarios, with fixed seeds.
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
        "churn_fleet" => churn_fleet_simulation().clone(),
        other => panic!("unknown scenario {other}"),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Runs one scenario under the given parallelism with a fresh recording
/// telemetry handle; returns `(golden document, full trace JSON)`.
fn run_scenario(name: &str, parallel: Parallelism) -> (String, String) {
    let tel = Telemetry::recording(TRACE_CAPACITY);
    let sim = scenario(name)
        .with_telemetry(tel.clone())
        .with_parallelism(parallel);
    let report = sim.run().expect("scenario run");
    let doc = golden_document(name, &report, &tel).expect("golden document");
    let trace = tel.trace_json().expect("trace dump");
    assert_eq!(
        tel.trace_evicted(),
        0,
        "{name}: raise TRACE_CAPACITY, the recorder overflowed"
    );
    (doc, trace)
}

#[test]
fn golden_reports_match_byte_for_byte() {
    let bless = std::env::var_os("EECS_BLESS").is_some_and(|v| v == "1");
    for name in ["ideal", "net_chaos", "sensor_chaos", "churn_fleet"] {
        // Parallel first: clones of a base share its memoized detections,
        // so the first clean-sensor run on a base detects every frame and
        // later ones read the memo.
        let (parallel_doc, parallel_trace) = run_scenario(name, Parallelism::default());
        let (serial_doc, serial_trace) = run_scenario(name, Parallelism::serial());

        // Same seed + config ⇒ same bytes, regardless of worker count.
        assert_eq!(
            serial_doc, parallel_doc,
            "{name}: serial and parallel documents diverged"
        );
        assert_eq!(
            serial_trace, parallel_trace,
            "{name}: serial and parallel trace streams diverged"
        );
        // The document is real JSON and re-encoding it is a fixed point.
        let reparsed = eecs::core::jsonio::parse(&serial_doc).expect("valid JSON");
        assert_eq!(reparsed.write().expect("re-encode"), serial_doc);

        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(&path, &serial_doc).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `EECS_BLESS=1 cargo test --test golden_report` to generate",
                path.display()
            )
        });
        assert_eq!(
            serial_doc, expected,
            "{name}: golden mismatch — if the change is intentional, re-bless with \
             EECS_BLESS=1 cargo test --test golden_report"
        );
    }
}

/// The 3×2 (fault-seed × budget) micro-sweep behind `sweep_tiny.json`.
fn tiny_sweep_shard() -> eecs_bench::sweep::Shard<'static> {
    use eecs::core::jsonio::Json;
    let spec = eecs_bench::sweep::SweepSpec::new("sweep_tiny")
        .axis("fault_seed", ["1", "2", "3"])
        .axis("budget", ["9.0", "12.0"]);
    eecs_bench::sweep::Shard::new(spec, |job| {
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let report = base_simulation()
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                FaultPlan::seeded(seed).with_default_faults(LinkFaults::lossy(0.25)),
                SensorFaultPlan::ideal(),
                ControllerFaultPlan::none(),
            )
            .with_parallelism(Parallelism::serial())
            .run()
            .map_err(|e| e.to_string())?;
        Ok(Json::Obj(vec![
            (
                "detected".into(),
                Json::Num(report.correctly_detected as f64),
            ),
            ("gt".into(), Json::Num(report.gt_objects as f64)),
            ("energy_j".into(), Json::Num(report.total_energy_j)),
            (
                "retries".into(),
                Json::Num(report.total_transport().retries as f64),
            ),
        ]))
    })
}

#[test]
fn golden_sweep_tiny_matches_byte_for_byte() {
    use eecs_bench::sweep::{run_sweep, SweepOptions};
    let shard = tiny_sweep_shard();
    let sweep = |workers: usize| {
        run_sweep(
            &shard,
            &SweepOptions {
                workers,
                ..Default::default()
            },
        )
        .expect("tiny sweep")
        .merged
        .expect("tiny sweep merge")
    };
    let serial = sweep(1);
    assert_eq!(
        serial,
        sweep(2),
        "sweep_tiny: one and two workers must merge to the same bytes"
    );
    // The merged document is real JSON and re-encoding it is a fixed point.
    let reparsed = eecs::core::jsonio::parse(&serial).expect("valid JSON");
    assert_eq!(reparsed.write().expect("re-encode"), serial);

    let path = golden_path("sweep_tiny");
    if std::env::var_os("EECS_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &serial).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `EECS_BLESS=1 cargo test --test golden_report` to generate",
            path.display()
        )
    });
    assert_eq!(
        serial, expected,
        "sweep_tiny: golden mismatch — if the change is intentional, re-bless with \
         EECS_BLESS=1 cargo test --test golden_report"
    );
}

#[test]
fn null_telemetry_is_bit_identical_to_untelemetered_runs() {
    // The base simulation carries the default `Telemetry::null()` — the
    // exact HEAD configuration. Attaching a recording handle must not
    // change a single bit of the report, and an explicit null handle
    // must be indistinguishable from never touching telemetry at all.
    let base = scenario("ideal");
    let untouched = base.run().expect("untelemetered run");
    let null = base
        .with_telemetry(Telemetry::null())
        .run()
        .expect("null-sink run");
    let recorded_tel = Telemetry::recording(TRACE_CAPACITY);
    let recorded = base
        .with_telemetry(recorded_tel.clone())
        .run()
        .expect("recording run");

    for report in [&null, &recorded] {
        assert_eq!(&untouched, report);
        assert_eq!(
            untouched.total_energy_j.to_bits(),
            report.total_energy_j.to_bits()
        );
        for (a, b) in untouched
            .per_camera_energy
            .iter()
            .zip(&report.per_camera_energy)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    // And the recording run actually recorded something.
    assert!(!recorded_tel.metrics().is_empty());
    assert!(!recorded_tel.events().is_empty());
}

/// Long-run telemetry soak: 4 cameras, every chaos layer armed, and a
/// deliberately tiny flight recorder. Run with `EECS_SOAK=1 ci.sh` or
/// `cargo test -- --ignored`.
#[test]
#[ignore]
fn telemetry_soak_bounded_memory_and_determinism() {
    let mut profile = DatasetProfile::miniature(DatasetId::Lab);
    profile.num_people = 4;
    let eecs = EecsConfig {
        assessment_period: 10,
        recalibration_interval: 30,
        key_frames: 8,
        ..EecsConfig::default()
    };
    let sim = Simulation::prepare(
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
            fault_plan: FaultPlan::seeded(42).with_default_faults(LinkFaults::lossy(0.2)),
            sensor_plan: SensorFaultPlan::seeded(42)
                .with_default_impairments(SensorImpairments::harsh()),
            controller_plan: ControllerFaultPlan::none().with_crash(1, 2),
            parallel: Parallelism::default(),
        },
    )
    .expect("prepare");

    const SMALL: usize = 128;
    let run = |parallel: Parallelism| {
        let tel = Telemetry::recording(SMALL);
        let report = sim
            .with_telemetry(tel.clone())
            .with_parallelism(parallel)
            .run()
            .expect("soak run");
        (report, tel)
    };
    let (report_a, tel_a) = run(Parallelism::serial());
    let (report_b, tel_b) = run(Parallelism::default());

    // Memory stays bounded and the ring actually wrapped.
    assert!(tel_a.events().len() <= SMALL);
    assert!(tel_a.trace_evicted() > 0, "soak too short to wrap the ring");
    // The tail still covers the newest rounds, including the last one.
    let last_round = report_a.rounds.len() - 1;
    assert!(tel_a.tail_events(1).iter().all(|e| e.round() == last_round));
    // Bit-identical across executions, even under chaos + failover.
    assert_eq!(report_a, report_b);
    assert_eq!(report_a.failovers.len(), 1);
    assert_eq!(
        tel_a.metrics_json().expect("metrics"),
        tel_b.metrics_json().expect("metrics")
    );
    assert_eq!(
        tel_a.trace_json().expect("trace"),
        tel_b.trace_json().expect("trace")
    );
}
