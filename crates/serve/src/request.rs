//! Mission requests and admission verdicts.
//!
//! A [`MissionRequest`] is everything a tenant submits: a spec (the
//! knobs to turn on a shared prepared base [`Simulation`]), a priority,
//! a relative deadline and a declared virtual cost. Specs never carry a
//! full config — missions on one service share the base's dataset,
//! training and matching, which is what lets N missions on one profile
//! pay one training pass.

use eecs_core::simulation::{OperatingMode, Simulation};
use eecs_net::checksum::crc32;
use eecs_net::fault::{ChurnPlan, ControllerFaultPlan, FaultPlan};
use eecs_scene::sensor_fault::SensorFaultPlan;

/// Scheduling priority of a mission. Higher dispatches first from the
/// admission queue; ties break by submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Background work: dispatched only when nothing above it waits.
    Low,
    /// The default service class.
    Normal,
    /// Latency-sensitive work: jumps the queue ahead of both others.
    High,
}

impl Priority {
    /// A stable lowercase label for traces and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// The per-mission knobs applied to the service's shared prepared base.
///
/// Every field is optional; [`MissionSpec::default`] runs the base
/// unchanged. Fault and churn plans are per-mission — two tenants can
/// run the same profile under different chaos schedules concurrently.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MissionSpec {
    /// Per-frame energy budget override (J); `None` keeps the base's.
    pub budget_j_per_frame: Option<f64>,
    /// Operating-mode override; `None` keeps the base's.
    pub mode: Option<OperatingMode>,
    /// Network fault plan; `None` keeps the base's.
    pub fault_plan: Option<FaultPlan>,
    /// Sensor fault plan; `None` keeps the base's.
    pub sensor_plan: Option<SensorFaultPlan>,
    /// Controller crash plan; `None` keeps the base's.
    pub controller_plan: Option<ControllerFaultPlan>,
    /// Fleet churn plan; `None` keeps the base's.
    pub churn: Option<ChurnPlan>,
}

impl MissionSpec {
    /// Checks the spec without touching a simulation, so admission can
    /// reject bad configs before any slot or queue capacity is spent.
    ///
    /// # Errors
    ///
    /// Returns the reason the spec cannot run: a negative or non-finite
    /// budget override.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(budget) = self.budget_j_per_frame {
            if !budget.is_finite() || budget < 0.0 {
                return Err(format!(
                    "budget override must be finite and >= 0, got {budget}"
                ));
            }
        }
        Ok(())
    }

    /// The base simulation with this spec's overrides applied, in a
    /// fixed order (mode, budget, faults, churn) so equal specs always
    /// build equal simulations.
    ///
    /// # Errors
    ///
    /// Returns the builder error message when an override is rejected
    /// (e.g. a negative budget).
    pub fn apply(&self, base: &Simulation) -> Result<Simulation, String> {
        self.validate()?;
        let mut sim = match self.mode {
            Some(mode) => base.with_mode(mode),
            None => base.clone(),
        };
        if let Some(budget) = self.budget_j_per_frame {
            sim = sim.with_budget(budget).map_err(|e| e.to_string())?;
        }
        if self.fault_plan.is_some() || self.sensor_plan.is_some() || self.controller_plan.is_some()
        {
            let config = base.config();
            sim = sim.with_faults(
                self.fault_plan
                    .clone()
                    .unwrap_or_else(|| config.fault_plan.clone()),
                self.sensor_plan
                    .clone()
                    .unwrap_or_else(|| config.sensor_plan.clone()),
                self.controller_plan
                    .clone()
                    .unwrap_or_else(|| config.controller_plan.clone()),
            );
        }
        if let Some(churn) = self.churn.clone() {
            sim = sim.with_churn(churn);
        }
        Ok(sim)
    }

    /// A CRC32 fingerprint of the spec's canonical header string,
    /// carried in [`eecs_net::message::Message::MissionSubmit`] frames.
    /// The spec body stays modeled-by-size, like bulk payloads on the
    /// camera wire; the fingerprint is what lets the service detect a
    /// spec that mutated between client and queue.
    pub fn fingerprint(&self) -> u32 {
        let budget = match self.budget_j_per_frame {
            Some(b) => format!("{:016x}", b.to_bits()),
            None => "none".to_string(),
        };
        let header = format!(
            "mission-spec/1|budget={budget}|mode={:?}|fault={:?}|sensor={:?}|controller={:?}|churn={:?}",
            self.mode, self.fault_plan, self.sensor_plan, self.controller_plan, self.churn,
        );
        crc32(header.as_bytes())
    }
}

/// One tenant's request for one mission run.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionRequest {
    /// The submitting tenant's name (per-tenant caps and telemetry key).
    pub tenant: String,
    /// Queue priority.
    pub priority: Priority,
    /// Completion deadline in virtual-clock ticks, relative to arrival;
    /// `None` means best-effort.
    pub deadline_ticks: Option<u64>,
    /// Declared virtual cost in ticks (clamped to at least 1). The
    /// virtual clock bills this, not wall time, so schedules replay
    /// bit-identically under any worker count.
    pub work_ticks: u64,
    /// The knobs to apply to the shared base simulation.
    pub spec: MissionSpec,
}

impl MissionRequest {
    /// A best-effort, normal-priority, unit-cost request for `tenant`
    /// running the base unchanged.
    pub fn new(tenant: &str) -> MissionRequest {
        MissionRequest {
            tenant: tenant.to_string(),
            priority: Priority::Normal,
            deadline_ticks: None,
            work_ticks: 1,
            spec: MissionSpec::default(),
        }
    }

    /// This request with a different priority.
    pub fn with_priority(mut self, priority: Priority) -> MissionRequest {
        self.priority = priority;
        self
    }

    /// This request with a relative deadline in virtual ticks.
    pub fn with_deadline(mut self, ticks: u64) -> MissionRequest {
        self.deadline_ticks = Some(ticks);
        self
    }

    /// This request with a declared virtual cost in ticks.
    pub fn with_work(mut self, ticks: u64) -> MissionRequest {
        self.work_ticks = ticks;
        self
    }

    /// This request with a different mission spec.
    pub fn with_spec(mut self, spec: MissionSpec) -> MissionRequest {
        self.spec = spec;
        self
    }

    /// The declared cost with the minimum-one-tick clamp applied.
    pub fn cost_ticks(&self) -> u64 {
        self.work_ticks.max(1)
    }
}

/// Why the service refused a mission at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// No free slot, and the wait queue (or the tenant's in-flight cap)
    /// is exhausted.
    QueueFull {
        /// Queue depth observed at the rejection.
        depth: usize,
    },
    /// The declared cost alone already exceeds the deadline — the
    /// mission could never finish in time even starting instantly.
    DeadlineInfeasible {
        /// The relative deadline the request declared.
        deadline: u64,
        /// The ticks the mission needs at minimum.
        needed: u64,
    },
    /// The spec failed validation before any capacity was considered.
    InvalidConfig {
        /// The validation error.
        reason: String,
    },
}

impl Rejected {
    /// A stable kind label for traces and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::DeadlineInfeasible { .. } => "deadline_infeasible",
            Rejected::InvalidConfig { .. } => "invalid_config",
        }
    }

    /// The nonzero wire verdict code carried in
    /// [`eecs_net::message::Message::MissionVerdict`] frames (0 means
    /// accepted).
    pub fn verdict_code(&self) -> u64 {
        match self {
            Rejected::QueueFull { .. } => 1,
            Rejected::DeadlineInfeasible { .. } => 2,
            Rejected::InvalidConfig { .. } => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_normal_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::High.label(), "high");
    }

    #[test]
    fn default_spec_validates_and_bad_budgets_do_not() {
        assert!(MissionSpec::default().validate().is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let spec = MissionSpec {
                budget_j_per_frame: Some(bad),
                ..MissionSpec::default()
            };
            assert!(spec.validate().is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn fingerprint_separates_distinct_specs() {
        let base = MissionSpec::default();
        let budgeted = MissionSpec {
            budget_j_per_frame: Some(7.5),
            ..MissionSpec::default()
        };
        let chaotic = MissionSpec {
            fault_plan: Some(FaultPlan::seeded(3)),
            ..MissionSpec::default()
        };
        assert_ne!(base.fingerprint(), budgeted.fingerprint());
        assert_ne!(base.fingerprint(), chaotic.fingerprint());
        assert_eq!(base.fingerprint(), MissionSpec::default().fingerprint());
    }

    #[test]
    fn request_builders_and_cost_clamp() {
        let r = MissionRequest::new("acme")
            .with_priority(Priority::High)
            .with_deadline(9)
            .with_work(0);
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline_ticks, Some(9));
        assert_eq!(r.cost_ticks(), 1);
    }

    #[test]
    fn rejection_codes_are_stable() {
        assert_eq!(Rejected::QueueFull { depth: 4 }.verdict_code(), 1);
        assert_eq!(
            Rejected::DeadlineInfeasible {
                deadline: 1,
                needed: 2
            }
            .verdict_code(),
            2
        );
        let invalid = Rejected::InvalidConfig {
            reason: "bad".into(),
        };
        assert_eq!(invalid.verdict_code(), 3);
        assert_eq!(invalid.kind(), "invalid_config");
    }
}
