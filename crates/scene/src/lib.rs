//! Synthetic multi-camera world simulator.
//!
//! The paper evaluates on three public multi-camera datasets (EPFL "lab",
//! Graz "chap", EPFL "terrace" — Section VI), each with four overlapping
//! views, ~3000 frames, and ground-truth 3-D positions plus ground-plane
//! homographies. Those videos are not redistributable and the testbed
//! hardware is gone, so this crate generates an equivalent world:
//!
//! * [`dataset`] — per-dataset profiles matching the paper's resolutions,
//!   person counts, clutter and ground-truth cadence,
//! * [`world`] — people walking by a random-waypoint model in a bounded
//!   arena,
//! * [`rig`] — four overlapping cameras around the arena,
//! * [`render`] — rasterizes each camera's view (backgrounds, furniture
//!   clutter, depth-sorted human sprites, illumination, sensor noise),
//! * [`ground_truth`] — exact per-frame bounding boxes with occlusion
//!   fractions, plus the 3-D positions the real datasets annotate,
//! * [`sequence`] — deterministic video feeds: `(dataset, camera, frame)`
//!   uniquely determines the image, mirroring the pre-recorded videos
//!   loaded onto the paper's phones,
//! * [`sensor_fault`] — seeded per-camera sensor degradation (noise,
//!   blur, occlusion, exposure drift, stuck rows, frame drops) applied on
//!   top of the rendered frames; `SensorFaultPlan::ideal()` is a no-op.
//!
//! Determinism matters: EECS compares *video items* across cameras and
//! time, so frame `f` of camera `c` must be reproducible. All randomness is
//! seeded per dataset.

pub mod dataset;
pub mod ground_truth;
pub mod render;
pub mod rig;
pub mod sensor_fault;
pub mod sequence;
pub mod world;

pub use dataset::{DatasetId, DatasetProfile};
pub use ground_truth::GtBox;
pub use sensor_fault::{FrameImpairment, SensorFaultPlan, SensorImpairments};
pub use sequence::{FrameData, VideoFeed};
pub use world::World;

#[cfg(test)]
mod tests {
    #[test]
    fn module_reexports_compile() {
        // Presence test: the public surface referenced by downstream crates.
        let _ = crate::DatasetId::Lab;
    }
}
