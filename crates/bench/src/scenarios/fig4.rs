//! Fig. 4 as a sweep: accuracy vs energy for fixed camera/algorithm mixes
//! on dataset #1 — one cell per mix, fusing per-(camera, algorithm)
//! detections computed once, lazily, from the memoized [`Artifacts`].

use crate::artifacts::{Artifacts, WORDS};
use crate::fmt3;
use crate::scenarios::{cell_num, row, shard_cells, CellContext};
use crate::sweep::{Shard, SweepSpec};
use eecs_core::accuracy::count_correct;
use eecs_core::camera_node::region_color;
use eecs_core::config::EecsConfig;
use eecs_core::jsonio::Json;
use eecs_core::metadata::{CameraReport, ObjectMetadata};
use eecs_core::par::par_map_indexed;
use eecs_core::reid::{fuse_reports, ReidConfig};
use eecs_detect::detection::AlgorithmId;
use eecs_energy::comm::metadata_bytes;
use eecs_geometry::calibration::GroundCalibration;
use eecs_geometry::point::Point2;
use eecs_scene::dataset::DatasetProfile;
use eecs_scene::ground_truth::GtBox;
use eecs_scene::rig::{camera_rig, rig_calibrations};
use eecs_scene::sequence::VideoFeed;
use std::collections::{BTreeMap, BTreeSet};
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
    calibrations: Vec<GroundCalibration>,
    /// Ground truth per camera and test frame.
    gt: Vec<Vec<Vec<GtBox>>>,
    /// The report and detector ops of every (camera, algorithm) pair some
    /// mix runs, per test frame: each is detected once, and the mixes
    /// that share a pair read the same outputs.
    outputs: BTreeMap<(usize, AlgorithmId), Vec<(CameraReport, u64)>>,
    config: Arc<EecsConfig>,
    reid: ReidConfig,
}

/// Renders the test frames and runs every mixed (camera, algorithm) pair
/// on them: one pool task per (camera, frame), so at most one frame per
/// worker is alive.
fn build_ctx(artifacts: &Artifacts) -> Ctx {
    let profile = DatasetProfile::lab();
    let (bank, config) = (artifacts.bank(), artifacts.config());
    let pairs: BTreeSet<(usize, AlgorithmId)> = mixes().into_iter().flat_map(|(_, m)| m).collect();
    let records: Vec<_> = (0..4)
        .map(|cam| artifacts.record(&profile, cam, WORDS))
        .collect();
    let feeds: Vec<_> = (0..4)
        .map(|cam| VideoFeed::open(profile.clone(), cam))
        .collect();
    let (train_end, test_end) = artifacts.scale().bounds(&profile);
    let indices: Vec<usize> = feeds[0].annotated_indices(train_end, test_end).collect();
    let n = indices.len();
    let per_frame = par_map_indexed(feeds.len() * n, 0, |t| {
        let (cam, frame) = (t / n, feeds[t / n].frame(indices[t % n]));
        let outputs: Vec<_> = pairs
            .iter()
            .filter(|(c, _)| *c == cam)
            .map(|&(_, alg)| {
                let p = records[cam].profile(alg).expect("algorithm profiled");
                let out = bank.detector(alg).detect(&frame.image);
                let objects = out
                    .detections
                    .iter()
                    .filter(|d| d.score >= p.threshold)
                    .map(|det| ObjectMetadata {
                        camera: cam,
                        bbox: det.bbox,
                        probability: p.calibration.probability(det.score),
                        color: region_color(&frame.image, det.bbox),
                    })
                    .collect();
                (alg, (CameraReport { objects }, out.ops))
            })
            .collect();
        (frame.gt, outputs)
    });
    let mut gt = vec![Vec::with_capacity(n); feeds.len()];
    let mut outputs: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for (t, (frame_gt, frame_outputs)) in per_frame.into_iter().enumerate() {
        gt[t / n].push(frame_gt);
        for (alg, output) in frame_outputs {
            outputs.entry((t / n, alg)).or_default().push(output);
        }
    }
    Ctx {
        calibrations: rig_calibrations(&profile, &camera_rig(&profile)),
        gt,
        outputs,
        reid: ReidConfig {
            ground_gate_m: config.reid_ground_gate_m,
            color_gate: config.reid_color_gate,
            color_metric: None,
        },
        config,
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
        let (correct, gt, energy) =
            ctx.with(|| build_ctx(artifacts), |ctx| run_config(assignment, ctx));
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
fn run_config(assignment: &[(usize, AlgorithmId)], ctx: &Ctx) -> (usize, usize, f64) {
    let (device, link) = (&ctx.config.device, &ctx.config.link);
    let mut correct = 0usize;
    let mut gt_total = 0usize;
    let mut energy = 0.0f64;
    for f in 0..ctx.gt[0].len() {
        let mut reports = Vec::new();
        for &(cam, alg) in assignment {
            let (report, ops) = &ctx.outputs[&(cam, alg)][f];
            energy += device.processing_energy(*ops);
            energy += link.transmit_energy(metadata_bytes(report.objects.len()) + 16, device);
            reports.push(report.clone());
        }
        let fused = fuse_reports(&reports, &ctx.calibrations, &ctx.reid);
        // Ground truth: union over the *participating* cameras.
        let mut gt: BTreeMap<usize, Point2> = BTreeMap::new();
        for &(cam, _) in assignment {
            for g in &ctx.gt[cam][f] {
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
