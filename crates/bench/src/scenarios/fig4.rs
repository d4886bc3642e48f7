//! Fig. 4 as a sweep: accuracy vs energy for fixed camera/algorithm mixes
//! on dataset #1 — one cell per mix, shared frames/records/calibrations
//! built lazily from the memoized [`Artifacts`].

use crate::artifacts::{Artifacts, WORDS};
use crate::scenarios::{cell_num, row, shard_cells, CellContext};
use crate::sweep::{Shard, SweepSpec};
use crate::{fmt3, test_frames};
use eecs_core::accuracy::count_correct;
use eecs_core::camera_node::region_color;
use eecs_core::config::EecsConfig;
use eecs_core::jsonio::Json;
use eecs_core::metadata::{CameraReport, ObjectMetadata};
use eecs_core::profile::TrainingRecord;
use eecs_core::reid::{fuse_reports, ReidConfig};
use eecs_detect::bank::DetectorBank;
use eecs_detect::detection::AlgorithmId;
use eecs_energy::comm::metadata_bytes;
use eecs_geometry::calibration::GroundCalibration;
use eecs_geometry::point::Point2;
use eecs_scene::dataset::DatasetProfile;
use eecs_scene::rig::{camera_rig, rig_calibrations};
use eecs_scene::sequence::FrameData;
use std::collections::BTreeMap;
use std::sync::Arc;

const GT_GATE_M: f64 = 1.2;

/// The paper's six camera/algorithm mixes, in figure order.
pub fn mixes() -> Vec<(&'static str, Vec<(usize, AlgorithmId)>)> {
    use AlgorithmId::{Acf, Hog};
    vec![
        ("2ACF", vec![(0, Acf), (1, Acf)]),
        ("HOG+ACF", vec![(0, Hog), (1, Acf)]),
        ("2HOG", vec![(0, Hog), (1, Hog)]),
        ("4ACF", vec![(0, Acf), (1, Acf), (2, Acf), (3, Acf)]),
        ("2HOG+2ACF", vec![(0, Hog), (1, Hog), (2, Acf), (3, Acf)]),
        ("4HOG", vec![(0, Hog), (1, Hog), (2, Hog), (3, Hog)]),
    ]
}

/// The Fig. 4 grid: one axis, one cell per mix.
pub fn spec() -> SweepSpec {
    SweepSpec::new("fig4").axis("config", mixes().iter().map(|(name, _)| *name))
}

/// Everything a cell needs beyond its mix, built once on first use.
struct Ctx {
    records: Vec<Arc<TrainingRecord>>,
    calibrations: Vec<GroundCalibration>,
    frames: Vec<Vec<FrameData>>,
    config: Arc<EecsConfig>,
    reid: ReidConfig,
}

fn build_ctx(artifacts: &Artifacts) -> Ctx {
    let profile = DatasetProfile::lab();
    let config = artifacts.config();
    let records = (0..4)
        .map(|cam| artifacts.record(&profile, cam, WORDS))
        .collect();
    let rig = camera_rig(&profile);
    let calibrations = rig_calibrations(&profile, &rig);
    let frames = (0..4)
        .map(|cam| test_frames(&profile, cam, artifacts.scale()))
        .collect();
    let reid = ReidConfig {
        ground_gate_m: config.reid_ground_gate_m,
        color_gate: config.reid_color_gate,
        color_metric: None,
    };
    Ctx {
        records,
        calibrations,
        frames,
        config,
        reid,
    }
}

/// The Fig. 4 shard over shared artifacts.
pub fn shard(artifacts: &Artifacts) -> Shard<'_> {
    let spec = spec();
    let ctx = CellContext::new(spec.cell_count());
    Shard::new(spec, move |job| {
        let name = job.value("config").ok_or("cell without a config axis")?;
        let mixes = mixes();
        let (_, assignment) = mixes
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown Fig. 4 config {name:?}"))?;
        let (correct, gt, energy) = ctx.with(
            || build_ctx(artifacts),
            |ctx| run_config(assignment, &artifacts.bank(), ctx),
        );
        Ok(Json::Obj(vec![
            ("detected".into(), Json::Num(correct as f64)),
            ("gt".into(), Json::Num(gt as f64)),
            ("energy_j".into(), Json::Num(energy)),
        ]))
    })
}

/// Renders the figure table from a merged sweep document.
///
/// # Errors
///
/// Returns an error when the document lacks the Fig. 4 shard or a field.
pub fn format(doc: &Json) -> Result<String, String> {
    let widths = [11usize, 10, 10, 10, 12];
    let mut out = String::from("== Fig. 4: accuracy vs energy, dataset #1 ==\n");
    let header = ["config", "detected", "gt", "recall", "energy (J)"];
    out.push_str(&row(&header.map(String::from), &widths));
    for ((name, _), (_, data)) in mixes().iter().zip(shard_cells(doc, "fig4")?) {
        let detected = cell_num(data, "detected")?;
        let gt = cell_num(data, "gt")?;
        out.push_str(&row(
            &[
                (*name).into(),
                format!("{detected}"),
                format!("{gt}"),
                fmt3(detected / gt.max(1.0)),
                fmt3(cell_num(data, "energy_j")?),
            ],
            &widths,
        ));
    }
    Ok(out)
}

/// Runs one fixed configuration over all test frames; returns
/// `(correct, gt_total, energy_j)`.
fn run_config(
    assignment: &[(usize, AlgorithmId)],
    bank: &DetectorBank,
    ctx: &Ctx,
) -> (usize, usize, f64) {
    let (device, link) = (&ctx.config.device, &ctx.config.link);
    let n = ctx.frames[0].len();
    let mut correct = 0usize;
    let mut gt_total = 0usize;
    let mut energy = 0.0f64;
    for f in 0..n {
        let mut reports = Vec::new();
        for &(cam, alg) in assignment {
            let frame = &ctx.frames[cam][f];
            let p = ctx.records[cam].profile(alg).expect("algorithm profiled");
            let out = bank.detector(alg).detect(&frame.image);
            energy += device.processing_energy(out.ops);
            let mut objects = Vec::new();
            for det in out.detections.iter().filter(|d| d.score >= p.threshold) {
                objects.push(ObjectMetadata {
                    camera: cam,
                    bbox: det.bbox,
                    probability: p.calibration.probability(det.score),
                    color: region_color(&frame.image, det.bbox),
                });
            }
            energy += link.transmit_energy(metadata_bytes(objects.len()) + 16, device);
            reports.push(CameraReport { objects });
        }
        let fused = fuse_reports(&reports, &ctx.calibrations, &ctx.reid);
        // Ground truth: union over the *participating* cameras.
        let mut gt: BTreeMap<usize, Point2> = BTreeMap::new();
        for &(cam, _) in assignment {
            for g in &ctx.frames[cam][f].gt {
                if g.visibility >= ctx.config.eval.min_visibility {
                    gt.entry(g.human_id).or_insert(g.ground);
                }
            }
        }
        let positions: Vec<Point2> = gt.values().copied().collect();
        correct += count_correct(&fused, &positions, GT_GATE_M);
        gt_total += positions.len();
    }
    (correct, gt_total, energy)
}
