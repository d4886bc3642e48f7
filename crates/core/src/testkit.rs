//! Post-run invariant auditing for simulation tests.
//!
//! Every scenario in the test suite — ideal, network chaos, sensor
//! chaos, partitions, integrity faults, fleet churn — must obey the same
//! conservation laws no matter what the fault plans did: energy drained
//! never exceeds a battery's capacity, plans never name a camera that is
//! not a fleet member, and the report's summary counters agree with the
//! trace events that were recorded while it ran. [`InvariantChecker`]
//! bundles those laws as named, pluggable rules so `tests/invariants.rs`
//! can sweep one auditor across every scenario (serial and parallel)
//! instead of re-deriving ad-hoc assertions per test.
//!
//! The checker is deliberately post-hoc: it reads a finished
//! [`SimulationReport`] plus the run's trace events, so it cannot
//! perturb the run it audits — an audited run stays bit-identical to an
//! unaudited one.
//!
//! [`assert_records_bit_identical`] is the one bit-for-bit comparison of
//! offline-training records that tests of training paths share.

use crate::profile::TrainingRecord;
use crate::simulation::{Simulation, SimulationReport};
use crate::telemetry::{Telemetry, TraceEvent};

/// Everything a rule may inspect about one finished run.
pub struct InvariantContext<'a> {
    /// The finished report under audit.
    pub report: &'a SimulationReport,
    /// The run's recorded trace events. Pass an empty slice when the
    /// run used the null telemetry sink — event-based rules then skip
    /// rather than report phantom mismatches. Callers must ensure the
    /// flight recorder did not evict (capacity ≥ event count), or the
    /// counter-agreement rule will flag the truncation.
    pub events: &'a [TraceEvent],
    /// Per-camera battery capacities in Joules (from the fleet's
    /// [`eecs_energy::profile::DeviceProfile`]s). An empty slice skips
    /// the capacity bound but keeps the other energy laws.
    pub capacities: &'a [f64],
}

type Rule = Box<dyn Fn(&InvariantContext<'_>) -> Vec<String>>;

/// A named, pluggable post-run auditor.
pub struct InvariantChecker {
    rules: Vec<(String, Rule)>,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        InvariantChecker::with_defaults()
    }
}

impl InvariantChecker {
    /// An auditor with no rules; add them with [`Self::add_rule`].
    pub fn new() -> InvariantChecker {
        InvariantChecker { rules: Vec::new() }
    }

    /// The standard conservation laws: energy accounting, membership of
    /// every planned camera, counter/event agreement, and quarantine
    /// strikes never referencing departed cameras.
    pub fn with_defaults() -> InvariantChecker {
        let mut checker = InvariantChecker::new();
        checker.add_rule("energy-conservation", rule_energy_conservation);
        checker.add_rule("assignment-membership", rule_assignment_membership);
        checker.add_rule("counter-event-agreement", rule_counter_event_agreement);
        checker.add_rule("quarantine-membership", rule_quarantine_membership);
        checker
    }

    /// Registers one more rule under `name`. A rule returns one message
    /// per violation it finds, or an empty vector when satisfied.
    pub fn add_rule<F>(&mut self, name: &str, rule: F)
    where
        F: Fn(&InvariantContext<'_>) -> Vec<String> + 'static,
    {
        self.rules.push((name.to_string(), Box::new(rule)));
    }

    /// The registered rule names, in evaluation order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Runs every rule and collects all violations (never short-circuits
    /// — a failing audit should show the full damage at once).
    pub fn check(&self, ctx: &InvariantContext<'_>) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, rule) in &self.rules {
            for v in rule(ctx) {
                violations.push(format!("{name}: {v}"));
            }
        }
        violations
    }

    /// Panics with every violation when the audit is not clean.
    ///
    /// # Panics
    ///
    /// Panics if any rule reports a violation, listing all of them.
    pub fn assert_clean(&self, ctx: &InvariantContext<'_>) {
        let violations = self.check(ctx);
        assert!(
            violations.is_empty(),
            "invariant violations:\n  {}",
            violations.join("\n  ")
        );
    }
}

/// Fleet membership per round, derived from the recorded join/leave
/// events: `timeline[r][j]` says whether camera `j` was a member during
/// round `r`. Every camera starts as a member (the runtime emits a
/// round-0 `CameraLeave` for cameras absent from the start), and the
/// timeline reflects what the runtime *actually did* — including
/// deferred departures of seat-holding cameras — not the raw plan.
pub fn membership_timeline(events: &[TraceEvent], cams: usize, rounds: usize) -> Vec<Vec<bool>> {
    let mut member = vec![true; cams];
    let mut timeline = Vec::with_capacity(rounds);
    for r in 0..rounds {
        for e in events {
            match *e {
                TraceEvent::CameraJoin { round, camera } if round == r && camera < cams => {
                    member[camera] = true;
                }
                TraceEvent::CameraLeave { round, camera } if round == r && camera < cams => {
                    member[camera] = false;
                }
                _ => {}
            }
        }
        timeline.push(member.clone());
    }
    timeline
}

/// Runs the simulation twice and demands a bit-identical replay — the
/// replay half of the audit. The first pass records into `telemetry`,
/// which is reset first, so the caller keeps that run's trace for the
/// invariant audit and a post-mortem; the second records into a fresh
/// handle of the same sink. The two reports must be equal, and so must
/// the two trace and metrics JSON documents. Returns the first report.
///
/// # Errors
///
/// Returns a description of the first divergence (or the run error).
pub fn verify_replay(sim: &Simulation, telemetry: &Telemetry) -> Result<SimulationReport, String> {
    telemetry.reset();
    let replay_tel = Telemetry::new(telemetry.sink());
    let first = sim
        .with_telemetry(telemetry.clone())
        .run()
        .map_err(|e| format!("first run failed: {e}"))?;
    let second = sim
        .with_telemetry(replay_tel.clone())
        .run()
        .map_err(|e| format!("second run failed: {e}"))?;
    if first != second {
        return Err(format!(
            "replay diverged: total {} J vs {} J, {} vs {} rounds",
            first.total_energy_j,
            second.total_energy_j,
            first.rounds.len(),
            second.rounds.len()
        ));
    }
    if telemetry.trace_json() != replay_tel.trace_json() {
        return Err("replay diverged: the trace streams differ".into());
    }
    if telemetry.metrics_json() != replay_tel.metrics_json() {
        return Err("replay diverged: the metrics registries differ".into());
    }
    Ok(first)
}

/// Asserts that two training records are identical to the bit: name,
/// video item name, key-frame features, and every profile field compared
/// with `f64::to_bits`.
///
/// # Panics
///
/// Panics at the first difference, naming the record and the field.
pub fn assert_records_bit_identical(a: &TrainingRecord, b: &TrainingRecord) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.video.name(), b.video.name(), "{}: video name", a.name);
    let (fa, fb) = (a.video.features().as_slice(), b.video.features().as_slice());
    assert_eq!(fa.len(), fb.len(), "{}: key-frame feature count", a.name);
    assert!(
        fa.iter().zip(fb).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{}: key-frame features differ",
        a.name
    );
    let algos: Vec<_> = a.profiles.keys().copied().collect();
    assert_eq!(
        algos,
        b.profiles.keys().copied().collect::<Vec<_>>(),
        "{}: profiled algorithms",
        a.name
    );
    for algo in algos {
        let (pa, pb) = (&a.profiles[&algo], &b.profiles[&algo]);
        for (field, x, y) in [
            ("threshold", pa.threshold, pb.threshold),
            ("recall", pa.recall, pb.recall),
            ("precision", pa.precision, pb.precision),
            ("f_score", pa.f_score, pb.f_score),
            (
                "energy_per_frame_j",
                pa.energy_per_frame_j,
                pb.energy_per_frame_j,
            ),
            (
                "processing_time_s",
                pa.processing_time_s,
                pb.processing_time_s,
            ),
            (
                "calibration slope",
                pa.calibration.parts().0,
                pb.calibration.parts().0,
            ),
            (
                "calibration offset",
                pa.calibration.parts().1,
                pb.calibration.parts().1,
            ),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{}: {algo:?} {field} differs",
                a.name
            );
        }
    }
}

/// Relative tolerance for energy sums re-added in a different grouping.
const ENERGY_REL_EPS: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_REL_EPS * a.abs().max(b.abs()).max(1.0)
}

fn rule_energy_conservation(ctx: &InvariantContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let r = ctx.report;
    let mut sum = 0.0;
    for (j, &e) in r.per_camera_energy.iter().enumerate() {
        if !e.is_finite() || e < 0.0 {
            v.push(format!("camera {j} drained a non-physical {e} J"));
            continue;
        }
        if let Some(&cap) = ctx.capacities.get(j) {
            if e > cap {
                v.push(format!("camera {j} drained {e} J from a {cap} J battery"));
            }
        }
        sum += e;
    }
    if !close(sum, r.total_energy_j) {
        v.push(format!(
            "per-camera energies sum to {sum} J but the report totals {} J",
            r.total_energy_j
        ));
    }
    let mut round_sum = 0.0;
    for (i, round) in r.rounds.iter().enumerate() {
        if !round.energy_j.is_finite() || round.energy_j < -1e-12 {
            v.push(format!(
                "round {i} recorded a non-monotone energy delta {} J",
                round.energy_j
            ));
        }
        round_sum += round.energy_j;
    }
    // Rounds cover everything but the one-time feature uploads.
    if round_sum > r.total_energy_j + ENERGY_REL_EPS * r.total_energy_j.abs().max(1.0) {
        v.push(format!(
            "rounds sum to {round_sum} J, more than the run total {} J",
            r.total_energy_j
        ));
    }
    v
}

fn rule_assignment_membership(ctx: &InvariantContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let r = ctx.report;
    let cams = r.per_camera_energy.len();
    let timeline = membership_timeline(ctx.events, cams, r.rounds.len());
    for (i, round) in r.rounds.iter().enumerate() {
        let members = &timeline[i];
        for (&j, alg) in &round.assignment {
            if j >= cams {
                v.push(format!("round {i} assigns {alg} to unknown camera {j}"));
            } else if !members[j] {
                v.push(format!("round {i} assigns {alg} to departed camera {j}"));
            }
        }
        for &j in &round.active {
            if j >= cams {
                v.push(format!("round {i} activates unknown camera {j}"));
            } else if !members[j] {
                v.push(format!("round {i} activates departed camera {j}"));
            }
        }
    }
    v
}

fn rule_counter_event_agreement(ctx: &InvariantContext<'_>) -> Vec<String> {
    if ctx.events.is_empty() {
        // Null telemetry: nothing recorded, nothing to cross-check.
        return Vec::new();
    }
    let mut v = Vec::new();
    let r = ctx.report;
    let count = |pred: fn(&TraceEvent) -> bool| ctx.events.iter().filter(|e| pred(e)).count();
    let checks: [(&str, usize, usize); 8] = [
        (
            "quarantine_strikes",
            r.quarantine_strikes,
            count(|e| matches!(e, TraceEvent::QuarantineStrike { .. })),
        ),
        (
            "failovers",
            r.failovers.len(),
            count(|e| matches!(e, TraceEvent::Failover { .. })),
        ),
        (
            "elections",
            r.elections,
            count(|e| matches!(e, TraceEvent::Election { .. })),
        ),
        (
            "reconciliations",
            r.reconciliations,
            count(|e| matches!(e, TraceEvent::Reconcile { .. })),
        ),
        (
            "partitions",
            r.partitions,
            count(|e| matches!(e, TraceEvent::PartitionStart { .. })),
        ),
        (
            "camera_joins",
            r.camera_joins,
            count(|e| matches!(e, TraceEvent::CameraJoin { .. })),
        ),
        (
            "camera_leaves",
            r.camera_leaves,
            count(|e| matches!(e, TraceEvent::CameraLeave { .. })),
        ),
        (
            "rounds",
            r.rounds.len(),
            count(|e| matches!(e, TraceEvent::RoundStart { .. })),
        ),
    ];
    for (name, counter, events) in checks {
        if counter != events {
            v.push(format!(
                "report counts {counter} {name} but the trace recorded {events}"
            ));
        }
    }
    let rolled: u64 = ctx
        .events
        .iter()
        .map(|e| match *e {
            TraceEvent::CheckpointRollback { rolled_back, .. } => rolled_back,
            _ => 0,
        })
        .sum();
    if rolled != r.checkpoint_rollbacks {
        v.push(format!(
            "report counts {} checkpoint rollbacks but the trace recorded {rolled}",
            r.checkpoint_rollbacks
        ));
    }
    v
}

fn rule_quarantine_membership(ctx: &InvariantContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let r = ctx.report;
    let cams = r.per_camera_energy.len();
    let timeline = membership_timeline(ctx.events, cams, r.rounds.len());
    for e in ctx.events {
        if let TraceEvent::QuarantineStrike {
            round,
            camera,
            algorithm,
            ..
        } = *e
        {
            let member = timeline
                .get(round)
                .and_then(|m| m.get(camera).copied())
                .unwrap_or(false);
            if !member {
                v.push(format!(
                    "round {round} struck {algorithm} on departed camera {camera}"
                ));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{OperatingMode, RoundRecord};
    use eecs_detect::detection::AlgorithmId;
    use eecs_net::transport::TransportStats;
    use std::collections::BTreeMap;

    fn report() -> SimulationReport {
        let mut assignment = BTreeMap::new();
        assignment.insert(0, AlgorithmId::Acf);
        SimulationReport {
            mode: OperatingMode::FullEecs,
            rounds: vec![RoundRecord {
                first_frame: 40,
                last_frame: 65,
                active: vec![0],
                assignment,
                energy_j: 10.0,
                correct: 3,
                gt: 4,
            }],
            total_energy_j: 12.0,
            correctly_detected: 3,
            gt_objects: 4,
            per_camera_energy: vec![7.0, 5.0],
            transport: vec![TransportStats::default(); 2],
            downlink: TransportStats::default(),
            failovers: Vec::new(),
            degraded_frames: 0,
            dropped_frames: 0,
            quarantine_strikes: 0,
            partitions: 0,
            elections: 0,
            reconciliations: 0,
            split_brain_rounds: 0,
            corrupted_frames: 0,
            checkpoint_rollbacks: 0,
            camera_joins: 0,
            camera_leaves: 0,
        }
    }

    fn events() -> Vec<TraceEvent> {
        vec![TraceEvent::RoundStart {
            round: 0,
            first_frame: 40,
        }]
    }

    #[test]
    fn clean_report_passes_all_default_rules() {
        let r = report();
        let e = events();
        let ctx = InvariantContext {
            report: &r,
            events: &e,
            capacities: &[1e12, 1e12],
        };
        InvariantChecker::with_defaults().assert_clean(&ctx);
        assert_eq!(
            InvariantChecker::with_defaults().rule_names(),
            vec![
                "energy-conservation",
                "assignment-membership",
                "counter-event-agreement",
                "quarantine-membership",
            ]
        );
    }

    #[test]
    fn overdrawn_battery_is_flagged() {
        let r = report();
        let e = events();
        let ctx = InvariantContext {
            report: &r,
            events: &e,
            capacities: &[6.0, 1e12],
        };
        let violations = InvariantChecker::with_defaults().check(&ctx);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("energy-conservation:"));
        assert!(violations[0].contains("camera 0 drained 7 J"));
    }

    #[test]
    fn total_mismatch_and_negative_round_are_flagged() {
        let mut r = report();
        r.total_energy_j = 99.0;
        r.rounds[0].energy_j = -1.0;
        let ctx = InvariantContext {
            report: &r,
            events: &[],
            capacities: &[],
        };
        let violations = InvariantChecker::with_defaults().check(&ctx);
        assert!(violations.iter().any(|v| v.contains("sum to 12 J")));
        assert!(violations.iter().any(|v| v.contains("non-monotone")));
    }

    #[test]
    fn departed_camera_in_plan_is_flagged() {
        let mut r = report();
        r.camera_leaves = 1;
        let e = vec![
            TraceEvent::CameraLeave {
                round: 0,
                camera: 0,
            },
            TraceEvent::RoundStart {
                round: 0,
                first_frame: 40,
            },
            TraceEvent::QuarantineStrike {
                round: 0,
                camera: 0,
                algorithm: AlgorithmId::Acf,
                strikes: 1,
            },
        ];
        r.quarantine_strikes = 1;
        let ctx = InvariantContext {
            report: &r,
            events: &e,
            capacities: &[],
        };
        let violations = InvariantChecker::with_defaults().check(&ctx);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("assigns ACF to departed camera 0")),
            "{violations:?}"
        );
        assert!(violations.iter().any(|v| v.contains("activates departed")));
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("quarantine-membership:")),
            "{violations:?}"
        );
    }

    #[test]
    fn counter_event_disagreement_is_flagged() {
        let mut r = report();
        r.quarantine_strikes = 3;
        let e = events();
        let ctx = InvariantContext {
            report: &r,
            events: &e,
            capacities: &[],
        };
        let violations = InvariantChecker::with_defaults().check(&ctx);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("counts 3 quarantine_strikes but the trace recorded 0")),
            "{violations:?}"
        );
        // With no events recorded the rule skips instead of guessing.
        let ctx = InvariantContext {
            report: &r,
            events: &[],
            capacities: &[],
        };
        assert!(InvariantChecker::with_defaults().check(&ctx).is_empty());
    }

    #[test]
    fn custom_rules_plug_in() {
        let mut checker = InvariantChecker::new();
        checker.add_rule("no-partitions", |ctx| {
            if ctx.report.partitions > 0 {
                vec!["partition observed".into()]
            } else {
                Vec::new()
            }
        });
        let mut r = report();
        let ctx = InvariantContext {
            report: &r,
            events: &[],
            capacities: &[],
        };
        assert!(checker.check(&ctx).is_empty());
        r.partitions = 1;
        let ctx = InvariantContext {
            report: &r,
            events: &[],
            capacities: &[],
        };
        assert_eq!(
            checker.check(&ctx),
            vec!["no-partitions: partition observed"]
        );
    }

    #[test]
    fn membership_timeline_tracks_leave_and_rejoin() {
        let e = vec![
            TraceEvent::CameraLeave {
                round: 1,
                camera: 1,
            },
            TraceEvent::CameraJoin {
                round: 3,
                camera: 1,
            },
        ];
        let t = membership_timeline(&e, 2, 4);
        assert_eq!(t[0], vec![true, true]);
        assert_eq!(t[1], vec![true, false]);
        assert_eq!(t[2], vec![true, false]);
        assert_eq!(t[3], vec![true, true]);
    }
}
