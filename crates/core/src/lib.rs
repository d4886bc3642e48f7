//! EECS — the energy-efficient camera-sensor coordination framework.
//!
//! This crate is the paper's contribution (Section IV): a central
//! controller that, given a network of battery-powered cameras with four
//! detection algorithms each, chooses *which cameras* to activate and
//! *which algorithm* each should run so that a desired global detection
//! accuracy is met at minimum energy.
//!
//! Pipeline (Fig. 1/2 of the paper):
//!
//! 1. **Offline training** ([`training`]) — every algorithm is run on every
//!    training video; per-item thresholds `d_t`, f-scores, energy costs and
//!    score calibrations are recorded ([`profile`]).
//! 2. **Feature upload & matching** ([`features`], [`controller`]) —
//!    cameras upload compact per-frame features; the controller matches
//!    them to training items on the Grassmann manifold (`eecs-manifold`)
//!    and thereby knows each camera's algorithm ranking.
//! 3. **Assessment** — for a short period (100 frames) cameras run all
//!    budget-feasible algorithms and upload detection metadata
//!    ([`metadata`]).
//! 4. **Re-identification** ([`reid`]) — the controller fuses metadata
//!    across cameras via ground-plane homographies + Mahalanobis-gated
//!    color matching, and combines probabilities with Eq. 6
//!    ([`accuracy`]).
//! 5. **Selection** ([`selection`]) — greedy camera-subset choice and
//!    f-score/energy-ratio algorithm downgrades, subject to
//!    `D = [γ_n·N*, γ_p·P*]`.
//! 6. **Operation** ([`camera_node`], [`simulation`]) — the chosen
//!    configuration runs until the next recalibration (500 frames), with
//!    every Joule accounted.

pub mod accuracy;
pub mod camera_node;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod features;
pub mod journal;
pub mod jsonio;
pub mod metadata;
pub mod par;
pub mod profile;
pub mod reconcile;
pub mod reid;
pub mod selection;
pub mod simulation;
pub mod telemetry;
pub mod testkit;
pub mod training;

pub use accuracy::{DesiredAccuracy, GlobalAccuracy};
pub use camera_node::CameraNode;
pub use checkpoint::{
    CheckpointError, CheckpointFaultPlan, CheckpointStore, RestoredCheckpoint, SimulationCheckpoint,
};
pub use config::{ConfigError, EecsConfig};
pub use controller::{Controller, QuarantineLedger, QuarantinePolicy};
/// The CRC-32 unit shared by wire framing, the checkpoint store, and
/// the [`journal`] (re-exported from `eecs_net`, which sits
/// below this crate in the dependency order).
pub use eecs_net::checksum;
pub use features::FeatureExtractor;
pub use metadata::{CameraReport, ObjectMetadata};
pub use profile::{AlgorithmProfile, DowngradeRule, TrainingRecord};
pub use reconcile::SeatSnapshot;
pub use reid::FusedObject;
pub use simulation::{FailoverEvent, OperatingMode, Parallelism, SimulationReport};
pub use telemetry::{FlightRecorder, MetricsRegistry, Telemetry, TelemetrySink, TraceEvent};
pub use testkit::{InvariantChecker, InvariantContext};

use std::error::Error;
use std::fmt;

/// Errors produced by the EECS framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EecsError {
    /// A subsystem failed.
    Subsystem(String),
    /// Invalid configuration or arguments.
    InvalidArgument(String),
    /// No feasible camera/algorithm assignment exists under the budgets.
    Infeasible(String),
}

impl fmt::Display for EecsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EecsError::Subsystem(msg) => write!(f, "subsystem failure: {msg}"),
            EecsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            EecsError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
        }
    }
}

impl Error for EecsError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, EecsError>;

macro_rules! from_subsystem_error {
    ($($ty:ty),+) => {
        $(impl From<$ty> for EecsError {
            fn from(e: $ty) -> Self {
                EecsError::Subsystem(e.to_string())
            }
        })+
    };
}

from_subsystem_error!(
    eecs_detect::DetectError,
    eecs_manifold::ManifoldError,
    eecs_geometry::GeometryError,
    eecs_energy::EnergyError,
    eecs_net::NetError,
    eecs_linalg::LinalgError,
    eecs_vision::VisionError,
    eecs_learn::LearnError
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_convert_from_subsystems() {
        let e: EecsError = eecs_energy::EnergyError::InvalidArgument("x".into()).into();
        assert!(matches!(e, EecsError::Subsystem(_)));
        assert!(e.to_string().contains('x'));
    }
}
