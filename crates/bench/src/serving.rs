//! Mission-service glue over the memoized [`Artifacts`] cache.
//!
//! `eecs-serve` deliberately sits *below* this crate (it takes a
//! prepared [`Simulation`], never builds one), so the artifact sharing
//! the service promises — N missions on one profile pay one training
//! pass — lives here: [`service_base`] builds the shared base through
//! [`Artifacts`], whose bank/extractor/record memos are the single
//! training pass every mission then reuses.

use crate::artifacts::Artifacts;
use crate::miniature_config;
use eecs_core::simulation::{Parallelism, Simulation};
use eecs_detect::bank::DetectorBank;
use eecs_net::fault::{ChurnPlan, CorruptionPlan, FaultPlan, LinkFaults};
use eecs_scene::sensor_fault::SensorFaultPlan;
use eecs_serve::{MissionRequest, MissionSpec, Priority};

/// The shared prepared base every mission of one service reuses:
/// miniature Lab profile, 2 cameras, frames 40–70, quick-trained bank
/// out of `artifacts` (trained once, cloned per service, memoized for
/// the process lifetime).
///
/// # Panics
///
/// Panics if preparation fails (deterministic; cannot fail for the
/// miniature configuration).
pub fn service_base(artifacts: &Artifacts) -> Simulation {
    let bank: DetectorBank = artifacts.bank().as_ref().clone();
    Simulation::prepare(bank, miniature_config(2, 70, 10.0, Parallelism::serial()))
        .expect("miniature service base prepares")
}

/// A deterministic mixed batch for smokes, benches and soaks: `n`
/// requests round-robined over `tenants`, cycling through priorities,
/// budgets, deadlines and — when `chaos` is set — seeded link-loss,
/// corruption and churn plans.
pub fn mixed_batch(n: usize, tenants: &[&str], chaos: bool) -> Vec<MissionRequest> {
    (0..n)
        .map(|i| {
            let tenant = tenants[i % tenants.len().max(1)];
            let priority = match i % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            let mut spec = MissionSpec {
                budget_j_per_frame: Some(8.0 + (i % 3) as f64),
                ..MissionSpec::default()
            };
            if chaos {
                match i % 4 {
                    1 => {
                        spec.fault_plan = Some(
                            FaultPlan::seeded(i as u64)
                                .with_default_faults(LinkFaults::lossy(0.2))
                                .with_corruption(CorruptionPlan::with_rate(0.2)),
                        );
                    }
                    2 => {
                        spec.churn = Some(ChurnPlan::seeded(i as u64).with_random_absence(0.2, 1));
                    }
                    3 => {
                        spec.sensor_plan = Some(SensorFaultPlan::seeded(i as u64));
                    }
                    _ => {}
                }
            }
            MissionRequest::new(tenant)
                .with_priority(priority)
                .with_work(1 + (i as u64 % 3))
                .with_deadline(6 + (i as u64 % 5) * 3)
                .with_spec(spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use eecs_serve::{plan_schedule, ServiceConfig};

    #[test]
    fn mixed_batch_is_deterministic_and_varied() {
        let a = mixed_batch(12, &["a", "b"], true);
        let b = mixed_batch(12, &["a", "b"], true);
        assert_eq!(a, b);
        assert!(a.iter().any(|r| r.priority == Priority::High));
        assert!(a.iter().any(|r| r.spec.churn.is_some()));
        assert!(a.iter().any(|r| r.spec.fault_plan.is_some()));
    }

    #[test]
    fn planned_mixed_batch_admits_and_rejects() {
        let config = ServiceConfig::new(3).with_slots(2).with_queue_capacity(1);
        let batch = mixed_batch(10, &["a", "b", "c"], false);
        let schedule = plan_schedule(&config, &batch);
        assert!(!schedule.admitted().is_empty());
        assert_eq!(
            schedule.admitted().len() + schedule.rejections().len(),
            batch.len()
        );
    }

    #[test]
    fn service_base_prepares_from_shared_artifacts() {
        let artifacts = Artifacts::quick_trained(Scale::Quick, 5);
        let base = service_base(&artifacts);
        // Same artifacts → the memoized bank, not a retrain.
        let again = service_base(&artifacts);
        assert_eq!(base.matched_records(), again.matched_records());
    }
}
