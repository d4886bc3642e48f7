//! Energy budgets and battery state.
//!
//! Section VI: "the energy budget is computed by first defining an expected
//! operation time (e.g., 6 hours) and an expected frame rate (e.g., image
//! frames are processed every 2 seconds). … the residual energy capacity is
//! divided by the number of frames to compute the energy budget for each
//! frame."

use crate::{EnergyError, Result};

/// A per-frame energy budget `B_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    joules_per_frame: f64,
}

impl EnergyBudget {
    /// A budget of `joules_per_frame` Joules per processed frame.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidArgument`] for a negative budget.
    pub fn per_frame(joules_per_frame: f64) -> Result<EnergyBudget> {
        if joules_per_frame < 0.0 {
            return Err(EnergyError::InvalidArgument(
                "budget must be non-negative".into(),
            ));
        }
        Ok(EnergyBudget { joules_per_frame })
    }

    /// The paper's derivation: residual capacity, expected operation time
    /// and frame period → Joules per frame.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidArgument`] for non-positive inputs.
    pub fn from_operation(
        residual_capacity_j: f64,
        operation_hours: f64,
        frame_period_s: f64,
    ) -> Result<EnergyBudget> {
        if residual_capacity_j <= 0.0 || operation_hours <= 0.0 || frame_period_s <= 0.0 {
            return Err(EnergyError::InvalidArgument(
                "capacity, duration and frame period must be positive".into(),
            ));
        }
        let frames = operation_hours * 3600.0 / frame_period_s;
        EnergyBudget::per_frame(residual_capacity_j / frames)
    }

    /// The budget in Joules per frame.
    pub fn joules_per_frame(&self) -> f64 {
        self.joules_per_frame
    }

    /// Whether a per-frame cost fits the budget
    /// (the constraint `c(A'_j) + C_j ≤ B_j` of Section IV).
    pub fn allows(&self, cost_j: f64) -> bool {
        cost_j <= self.joules_per_frame
    }
}

/// A camera's battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryState {
    capacity_j: f64,
    used_j: f64,
}

impl BatteryState {
    /// A fresh battery of `capacity_j` Joules.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidArgument`] for a non-positive capacity.
    pub fn new(capacity_j: f64) -> Result<BatteryState> {
        if capacity_j <= 0.0 {
            return Err(EnergyError::InvalidArgument(
                "capacity must be positive".into(),
            ));
        }
        Ok(BatteryState {
            capacity_j,
            used_j: 0.0,
        })
    }

    /// Remaining energy in Joules.
    pub fn residual(&self) -> f64 {
        (self.capacity_j - self.used_j).max(0.0)
    }

    /// Total energy consumed so far.
    pub fn used(&self) -> f64 {
        self.used_j
    }

    /// Consumes `joules` from the battery.
    ///
    /// # Errors
    ///
    /// * [`EnergyError::InvalidArgument`] for negative draws,
    /// * [`EnergyError::BatteryExhausted`] when the draw exceeds the
    ///   residual (the battery is left unchanged).
    pub fn drain(&mut self, joules: f64) -> Result<()> {
        if joules < 0.0 {
            return Err(EnergyError::InvalidArgument(
                "cannot drain negative energy".into(),
            ));
        }
        if joules > self.residual() + 1e-12 {
            return Err(EnergyError::BatteryExhausted {
                requested: joules,
                remaining: self.residual(),
            });
        }
        self.used_j += joules;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_example() {
        // 6 hours at one frame per 2 seconds = 10800 frames; a 10.8 kJ
        // residual yields 1 J/frame — the regime of Fig. 5a.
        let b = EnergyBudget::from_operation(10_800.0, 6.0, 2.0).unwrap();
        assert!((b.joules_per_frame() - 1.0).abs() < 1e-9);
        assert!(b.allows(0.9));
        assert!(!b.allows(1.1));
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let b = EnergyBudget::per_frame(0.07).unwrap();
        assert!(b.allows(0.07));
    }

    #[test]
    fn rejects_bad_budget_inputs() {
        assert!(EnergyBudget::per_frame(-0.1).is_err());
        assert!(EnergyBudget::from_operation(0.0, 6.0, 2.0).is_err());
        assert!(EnergyBudget::from_operation(100.0, 0.0, 2.0).is_err());
        assert!(EnergyBudget::from_operation(100.0, 6.0, 0.0).is_err());
    }

    #[test]
    fn battery_drains_and_reports() {
        let mut b = BatteryState::new(10.0).unwrap();
        b.drain(4.0).unwrap();
        assert!((b.residual() - 6.0).abs() < 1e-12);
        assert!((b.used() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn battery_exhaustion_is_detected_and_atomic() {
        let mut b = BatteryState::new(1.0).unwrap();
        let err = b.drain(2.0).unwrap_err();
        assert!(matches!(err, EnergyError::BatteryExhausted { .. }));
        // Failed drain leaves state untouched.
        assert_eq!(b.used(), 0.0);
    }

    #[test]
    fn battery_rejects_negative_drain_and_capacity() {
        assert!(BatteryState::new(0.0).is_err());
        let mut b = BatteryState::new(1.0).unwrap();
        assert!(b.drain(-0.5).is_err());
    }
}
