//! Differential battery for the mission service: a mission run *through*
//! the service must be indistinguishable — to the byte and to the bit —
//! from the same spec run directly on [`Simulation::run`].
//!
//! The grid covers (scenario × service seed × worker count): ideal,
//! network chaos (lossy links + wire corruption), harsh sensor
//! impairments, and mid-mission fleet churn. For every completed mission
//! the service's `report_json` must equal the direct run's canonical
//! [`report_to_json`] bytes and its `energy_bits` must equal the direct
//! run's `total_energy_j.to_bits()`.
//!
//! The `#[ignore]`d soak at the bottom pushes 500 mixed-priority
//! missions through a 4-slot queue under seeded corruption and churn
//! (run with `EECS_SOAK=1 ci.sh` or `cargo test -- --ignored`).

use eecs::core::simulation::Simulation;
use eecs::core::telemetry::summary::report_to_json;
use eecs::core::telemetry::Telemetry;
use eecs::core::testkit::{InvariantChecker, InvariantContext};
use eecs::net::checksum::crc32;
use eecs::net::fault::{ChurnPlan, ControllerFaultPlan, CorruptionPlan, FaultPlan, LinkFaults};
use eecs::scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
use eecs_bench::artifacts::Artifacts;
use eecs_bench::serving::{mixed_batch, service_base};
use eecs_bench::Scale;
use eecs_serve::invariants::{ServiceContext, ServiceInvariants};
use eecs_serve::{
    BatchOptions, MissionRequest, MissionService, MissionSpec, Priority, Rejected, ServiceConfig,
};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// The shared prepared base — one training pass for the whole binary,
/// via the same memoized [`Artifacts`] cache the service promises to
/// tenants.
fn base() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| service_base(&Artifacts::quick_trained(Scale::Quick, 5)))
}

/// Direct-run cache keyed by spec fingerprint: `(report_json, energy
/// bits)` of `spec.apply(base).run()`, computed once per distinct spec
/// so the 8 grid cells per scenario share their reference runs.
fn direct(spec: &MissionSpec) -> (String, u64) {
    static CACHE: OnceLock<Mutex<BTreeMap<u32, (String, u64)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = spec.fingerprint();
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let report = spec
        .apply(base())
        .expect("spec applies")
        .run()
        .expect("direct run");
    let entry = (
        report_to_json(&report).write().expect("report serializes"),
        report.total_energy_j.to_bits(),
    );
    cache.lock().unwrap().insert(key, entry.clone());
    entry
}

/// The two admissible specs of one scenario (distinct budgets so their
/// reports differ), parameterized by a per-mission chaos seed.
fn scenario_specs(scenario: &str) -> Vec<MissionSpec> {
    (0..2u64)
        .map(|i| {
            let mut spec = MissionSpec {
                budget_j_per_frame: Some(8.0 + i as f64),
                ..MissionSpec::default()
            };
            match scenario {
                "ideal" => {}
                "net_chaos" => {
                    spec.fault_plan = Some(
                        FaultPlan::seeded(40 + i)
                            .with_default_faults(LinkFaults::lossy(0.25))
                            .with_corruption(CorruptionPlan::with_rate(0.2)),
                    );
                }
                "sensor_chaos" => {
                    spec.sensor_plan = Some(
                        SensorFaultPlan::seeded(40 + i)
                            .with_default_impairments(SensorImpairments::harsh()),
                    );
                }
                "churn" => {
                    // A scheduled leave keeps the 2-camera fleet feasible
                    // in every round, unlike a random-absence lottery.
                    spec.churn = Some(ChurnPlan::seeded(40 + i).with_leave(1, 1, 2));
                }
                other => panic!("unknown scenario {other}"),
            }
            spec
        })
        .collect()
}

/// One scenario's batch: two admissible missions plus one whose deadline
/// is infeasible on arrival — the differential grid exercises the
/// rejection path without paying for a third simulation.
fn scenario_batch(scenario: &str) -> Vec<MissionRequest> {
    let specs = scenario_specs(scenario);
    vec![
        MissionRequest::new("acme")
            .with_priority(Priority::High)
            .with_work(2)
            .with_spec(specs[0].clone()),
        MissionRequest::new("zenith")
            .with_work(1)
            .with_deadline(20)
            .with_spec(specs[1].clone()),
        MissionRequest::new("zenith")
            .with_work(5)
            .with_deadline(1)
            .with_spec(specs[1].clone()),
    ]
}

/// Runs one scenario across seeds {7, 11} × workers {1, 2} and checks
/// every completion against its direct run.
fn differential(scenario: &str) {
    let batch = scenario_batch(scenario);
    for seed in [7u64, 11] {
        let mut traces = Vec::new();
        for workers in [1usize, 2] {
            let config = ServiceConfig::new(seed)
                .with_slots(2)
                .with_queue_capacity(8)
                .with_tenant_cap(8)
                .with_workers(workers);
            let run = MissionService::new(base().clone(), config)
                .run_batch(&batch, &BatchOptions::default())
                .expect("batch runs")
                .run
                .expect("uninterrupted batch assembles");

            // Admission: both feasible missions complete, the infeasible
            // deadline is typed.
            assert_eq!(run.completed.len(), 2, "{scenario}/{seed}/{workers}");
            assert!(matches!(
                run.schedule.rejections().as_slice(),
                [(2, Rejected::DeadlineInfeasible { .. })]
            ));

            // Differential core: service bytes == direct-run bytes.
            for c in &run.completed {
                let (expected_json, expected_bits) = direct(&batch[c.mission].spec);
                assert_eq!(
                    c.report_json, expected_json,
                    "{scenario}/{seed}/{workers}: mission {} report bytes diverge",
                    c.mission
                );
                assert_eq!(
                    c.energy_bits, expected_bits,
                    "{scenario}/{seed}/{workers}: mission {} energy bits diverge",
                    c.mission
                );
                assert_eq!(c.report_crc, crc32(expected_json.as_bytes()));
                let report = c.report.as_ref().expect("fresh run keeps the report");
                assert_eq!(report.total_energy_j.to_bits(), expected_bits);
            }
            traces.push(run.trace_bytes());
        }
        // The whole service trace is worker-count independent.
        assert_eq!(traces[0], traces[1], "{scenario}/{seed}: trace differs");
    }
}

#[test]
fn service_matches_direct_runs_ideal() {
    differential("ideal");
}

#[test]
fn service_matches_direct_runs_under_net_chaos() {
    differential("net_chaos");
}

#[test]
fn service_matches_direct_runs_under_sensor_chaos() {
    differential("sensor_chaos");
}

#[test]
fn service_matches_direct_runs_under_churn() {
    differential("churn");
}

/// `MissionSpec::apply` overrides only the plans a spec sets: every plan
/// left `None` keeps the base's, whichever of the three is set.
#[test]
fn partial_fault_specs_keep_the_base_plans_they_leave_unset() {
    let fault = FaultPlan::seeded(3).with_default_faults(LinkFaults::lossy(0.1));
    let sensor = SensorFaultPlan::seeded(5).with_default_impairments(SensorImpairments::harsh());
    let controller = ControllerFaultPlan::none().with_crash(1, 2);
    let chaotic = base().with_faults(fault.clone(), sensor.clone(), controller.clone());

    let only_fault = MissionSpec {
        fault_plan: Some(FaultPlan::seeded(9)),
        ..MissionSpec::default()
    };
    let applied = only_fault.apply(&chaotic).expect("spec applies");
    assert_eq!(applied.config().fault_plan, FaultPlan::seeded(9));
    assert_eq!(applied.config().sensor_plan, sensor);
    assert_eq!(applied.config().controller_plan, controller);

    let only_sensor = MissionSpec {
        sensor_plan: Some(SensorFaultPlan::ideal()),
        ..MissionSpec::default()
    };
    let applied = only_sensor.apply(&chaotic).expect("spec applies");
    assert_eq!(applied.config().fault_plan, fault);
    assert_eq!(applied.config().sensor_plan, SensorFaultPlan::ideal());
    assert_eq!(applied.config().controller_plan, controller);
}

/// Soak: 500 mixed-priority missions — seeded corruption, churn and
/// sensor chaos in the mix — through a 4-slot, 4-deep queue on 4
/// workers. Memory stays bounded by the flight-recorder ring, the batch
/// drains without deadlock, and both invariant batteries come back
/// clean: [`ServiceInvariants`] over the batch, the core
/// [`InvariantChecker`] over every fresh mission report.
#[test]
#[ignore]
fn soak_500_missions_through_a_4_slot_queue() {
    // Heavier declared costs than the smoke batches use, so arrivals
    // outpace the virtual service rate and the queue genuinely fills.
    // Most deadlines are generous (feasible on admission, missable
    // under queue delay); every 7th keeps the smoke batch's tight one,
    // so the infeasible-on-arrival path fires too.
    let mut batch: Vec<MissionRequest> =
        mixed_batch(500, &["acme", "zenith", "orbit", "kite"], true)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let work = 4 + (i as u64 % 13);
                let r = r.with_work(work);
                if i % 7 == 0 {
                    r
                } else {
                    r.with_deadline(work + 20 + (i as u64 % 10))
                }
            })
            .collect();
    // One poisoned spec: the invalid-config rejection path must also
    // survive the soak without consuming capacity.
    batch[250].spec.budget_j_per_frame = Some(-1.0);

    let config = ServiceConfig::new(97)
        .with_slots(4)
        .with_queue_capacity(4)
        .with_tenant_cap(3)
        .with_workers(4);
    // The planned shape this soak pins: a saturated queue, well over
    // 100 executions, and deadline misses under queue delay.
    const RING: usize = 256;
    let telemetry = Telemetry::recording(RING);
    let run = MissionService::new(base().clone(), config.clone())
        .with_telemetry(telemetry.clone())
        .run_batch(&batch, &BatchOptions::default())
        .expect("soak batch runs")
        .run
        .expect("soak batch assembles");

    // The queue saturated and every rejection kind fired.
    let rejections = run.schedule.rejections();
    assert_eq!(run.schedule.max_queue_depth, config.queue_capacity);
    for kind in ["queue_full", "deadline_infeasible", "invalid_config"] {
        assert!(
            rejections.iter().any(|(_, r)| r.kind() == kind),
            "soak produced no {kind} rejection"
        );
    }
    // Conservation, directly: every submission either completed or was
    // rejected with a typed reason.
    assert_eq!(run.completed.len() + rejections.len(), batch.len());
    assert!(run.completed.len() > 100, "soak barely admitted anything");
    let missed: u64 = run.tenants.values().map(|t| t.deadline_missed).sum();
    assert!(missed > 0, "queue delay produced no deadline misses");

    // Bounded memory: the ring wrapped and never exceeded its capacity.
    assert!(telemetry.events().len() <= RING);
    assert!(telemetry.trace_evicted() > 0, "soak too short to wrap");

    // Full service-invariant battery over the batch.
    ServiceInvariants::with_defaults().assert_clean(&ServiceContext {
        config: &config,
        requests: &batch,
        run: &run,
        telemetry: &telemetry,
    });

    // Core conservation laws over every fresh mission report (events
    // empty: missions run under the null handle by design).
    let checker = InvariantChecker::with_defaults();
    for c in &run.completed {
        let report = c.report.as_ref().expect("fresh soak run keeps reports");
        checker.assert_clean(&InvariantContext {
            report,
            events: &[],
            capacities: &[],
        });
    }
}
