//! End-to-end pipeline benchmarks: cross-camera re-identification fusion,
//! per-kernel detection, offline training (`Simulation::prepare`), and a
//! full assessment → selection → operation round on the miniature
//! dataset, run both serial and parallel.
//!
//! Unlike the other bench targets this one has a custom `main`: after the
//! benches run it computes the serial-vs-parallel speedup of the full
//! round and writes `BENCH_pipeline.json` at the repository root — the
//! machine-readable trajectory CI smoke-checks (`check_bench`) and future
//! PRs regress against. `EECS_BENCH_ITERS=1` keeps smoke runs short.

use criterion::{black_box, Criterion};
use eecs_bench::artifacts::Artifacts;
use eecs_bench::report::{self, BenchEntry};
use eecs_bench::serving::{mixed_batch, service_base};
use eecs_bench::sweep::{run_sweep, Shard, SweepOptions, SweepSpec};
use eecs_bench::{miniature_config, Scale};
use eecs_core::metadata::{CameraReport, ObjectMetadata};
use eecs_core::reid::{fuse_reports, ReidConfig};
use eecs_core::simulation::{Parallelism, Simulation};
use eecs_detect::bank::DetectorBank;
use eecs_detect::c4_detector::census_transform;
use eecs_detect::detection::BBox;
use eecs_detect::pyramid::ScaleSchedule;
use eecs_detect::{CensusCodePlane, Detector, FrameFeatures};
use eecs_geometry::calibration::{landmark_grid, GroundCalibration};
use eecs_geometry::camera::Camera;
use eecs_geometry::point::{Point2, Point3};
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sequence::VideoFeed;
use eecs_vision::draw::add_noise;
use eecs_vision::gradient::GradientField;
use eecs_vision::hog::{HogCellGrid, HogConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::{resize_gray, resize_gray_into};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn reid_bench(c: &mut Criterion) {
    // 4 cameras × 8 people per frame.
    let lm = landmark_grid(10.0, 5);
    let mut cams = Vec::new();
    let mut cals = Vec::new();
    for k in 0..4 {
        let angle = k as f64 / 4.0 * std::f64::consts::TAU;
        let cam = Camera::new(
            Point3::new(5.0 + 8.0 * angle.cos(), 5.0 + 8.0 * angle.sin(), 2.8),
            angle + std::f64::consts::PI,
            0.33,
            320.0,
            360,
            288,
        );
        cals.push(GroundCalibration::from_camera(&cam, &lm).unwrap());
        cams.push(cam);
    }
    let reports: Vec<CameraReport> = cams
        .iter()
        .enumerate()
        .map(|(j, cam)| CameraReport {
            objects: (0..8)
                .filter_map(|i| {
                    let a = i as f64 / 8.0 * std::f64::consts::TAU;
                    let t = Point2::new(5.0 + 2.5 * a.cos(), 5.0 + 2.5 * a.sin());
                    cam.person_bbox(&t, 1.7, 0.5)
                        .ok()
                        .map(|(x0, y0, x1, y1)| ObjectMetadata {
                            camera: j,
                            bbox: BBox::new(x0, y0, x1, y1),
                            probability: 0.8,
                            color: vec![i as f64 * 0.1; 8],
                        })
                })
                .collect(),
        })
        .collect();
    let reid = ReidConfig {
        ground_gate_m: 0.9,
        color_gate: 8.0,
        color_metric: None,
    };
    c.bench_function("reid_fuse_4cams_8people", |b| {
        b.iter(|| black_box(fuse_reports(black_box(&reports), &cals, &reid)))
    });
}

/// Per-kernel microbenches: the optimized detect path against the kept
/// pre-optimization reference of each algorithm, precompute-only and
/// cached-scan slices of the C4 pipeline, and the HOG cell, resize,
/// census-code and sensor-noise stage kernels against their definitions.
/// Before any timing, each pair is asserted bit-identical on the bench
/// frame, so a speedup can never be reported for a path that drifted.
/// Returns the C4 cascade reject ratio (computed outside the timing
/// loops).
fn kernel_bench(c: &mut Criterion) -> f64 {
    let bank = DetectorBank::train_quick(5).expect("bank");
    let profile = DatasetProfile::miniature(DatasetId::Lab);
    let frame = VideoFeed::open(profile, 0)
        .annotated_frames(40, 46)
        .into_iter()
        .next()
        .expect("annotated frame")
        .image;

    let assert_same = |got: &eecs_detect::detection::DetectionOutput,
                       want: &eecs_detect::detection::DetectionOutput,
                       alg: &str| {
        assert_eq!(got.ops, want.ops, "{alg}: ops diverged from reference");
        assert_eq!(got.detections.len(), want.detections.len(), "{alg}: count");
        for (a, b) in got.detections.iter().zip(&want.detections) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{alg}: score bits");
            assert_eq!(a.bbox, b.bbox, "{alg}: bbox");
        }
    };
    assert_same(
        &bank.c4().detect(&frame),
        &bank.c4().detect_reference(&frame),
        "C4",
    );
    assert_same(
        &bank.hog().detect(&frame),
        &bank.hog().detect_reference(&frame),
        "HOG",
    );
    assert_same(
        &bank.lsvm().detect(&frame),
        &bank.lsvm().detect_reference(&frame),
        "LSVM",
    );
    assert_same(
        &bank.acf().detect(&frame),
        &bank.acf().detect_reference(&frame),
        "ACF",
    );

    let mut group = c.benchmark_group("kernels");
    group.bench_function("c4_optimized", |b| {
        b.iter(|| black_box(bank.c4().detect(black_box(&frame))))
    });
    group.bench_function("c4_reference", |b| {
        b.iter(|| black_box(bank.c4().detect_reference(black_box(&frame))))
    });
    group.bench_function("hog_optimized", |b| {
        b.iter(|| black_box(bank.hog().detect(black_box(&frame))))
    });
    group.bench_function("hog_reference", |b| {
        b.iter(|| black_box(bank.hog().detect_reference(black_box(&frame))))
    });
    group.bench_function("lsvm_optimized", |b| {
        b.iter(|| black_box(bank.lsvm().detect(black_box(&frame))))
    });
    group.bench_function("lsvm_reference", |b| {
        b.iter(|| black_box(bank.lsvm().detect_reference(black_box(&frame))))
    });
    group.bench_function("acf_optimized", |b| {
        b.iter(|| black_box(bank.acf().detect(black_box(&frame))))
    });
    group.bench_function("acf_reference", |b| {
        b.iter(|| black_box(bank.acf().detect_reference(black_box(&frame))))
    });
    // Pipeline slices: per-level precompute alone (a fresh handle every
    // iteration, each level's code plane built into its scratch as
    // `detect` builds it) and the scan through a warmed handle (gray
    // converted and scratch grown once, so iterations measure the level
    // builds into reused buffers plus window scoring).
    let c4_cfg = bank.c4().config().clone();
    group.bench_function("c4_precompute_levels", |b| {
        b.iter(|| {
            let cache = FrameFeatures::new(&frame);
            let (iw, ih) = (c4_cfg.internal_w, c4_cfg.internal_h);
            cache.with_scratch(|s| {
                resize_gray_into(cache.gray(), iw, ih, &mut s.internal).expect("internal");
                for scale in c4_cfg.scales.usable_scales(iw, ih) {
                    let (sw, sh) = ScaleSchedule::level_dims(scale, iw, ih);
                    resize_gray_into(&s.internal, sw, sh, &mut s.level).expect("level");
                    s.codes.compute_into(&s.level);
                    black_box(&s.codes);
                }
            })
        })
    });
    let warmed = FrameFeatures::new(&frame);
    let _ = bank.c4().detect_with_cache(&frame, &warmed);
    group.bench_function("c4_scan_cached", |b| {
        b.iter(|| black_box(bank.c4().detect_with_cache(black_box(&frame), &warmed)))
    });
    // HOG cell binning alone: the fused single-pass kernel against the
    // two-pass gradient-field definition, on the HOG detector's layout.
    let gray = frame.to_gray();
    let hog_cfg = bank.hog().config().hog;
    let cells = HogCellGrid::compute(&gray, hog_cfg).expect("hog cells");
    let want = hog_cells_two_pass(&gray, hog_cfg);
    let got = (0..cells.cells_y()).flat_map(|cy| (0..cells.cells_x()).map(move |cx| (cx, cy)));
    let got: Vec<f32> = got
        .flat_map(|(cx, cy)| cells.cell(cx, cy).to_vec())
        .collect();
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "hog cells diverged from the two-pass definition"
    );
    group.bench_function("hog_cells", |b| {
        b.iter(|| black_box(HogCellGrid::compute(black_box(&gray), hog_cfg)))
    });
    group.bench_function("hog_cells_reference", |b| {
        b.iter(|| black_box(hog_cells_two_pass(black_box(&gray), hog_cfg)))
    });
    // Census codes alone: the one-pass kernel against the cast of the
    // `f32` transform, over the C4 detector's levels of the frame.
    let (iw, ih) = (c4_cfg.internal_w, c4_cfg.internal_h);
    let internal = resize_gray(&gray, iw, ih).expect("internal resize");
    let census_levels: Vec<GrayImage> = c4_cfg
        .scales
        .usable_scales(iw, ih)
        .into_iter()
        .map(|scale| {
            let (w, h) = ScaleSchedule::level_dims(scale, iw, ih);
            resize_gray(&internal, w, h).expect("level resize")
        })
        .collect();
    for level in &census_levels {
        assert_eq!(
            CensusCodePlane::compute(level),
            CensusCodePlane::from_census(&census_transform(level)),
            "census codes of a {}x{} level diverged from the f32 transform",
            level.width(),
            level.height()
        );
    }
    group.bench_function("census_codes", |b| {
        b.iter(|| {
            for level in &census_levels {
                black_box(CensusCodePlane::compute(black_box(level)));
            }
        })
    });
    group.bench_function("census_codes_reference", |b| {
        b.iter(|| {
            for level in &census_levels {
                black_box(CensusCodePlane::from_census(&census_transform(black_box(
                    level,
                ))));
            }
        })
    });
    // Bilinear resize alone: the hoisted-tap kernel against the per-pixel
    // definition, over the HOG detector's pyramid levels of the frame.
    let levels: Vec<(usize, usize)> = bank
        .hog()
        .config()
        .scales
        .usable_scales(gray.width(), gray.height())
        .into_iter()
        .map(|scale| ScaleSchedule::level_dims(scale, gray.width(), gray.height()))
        .collect();
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for &(w, h) in &levels {
        assert_eq!(
            bits(resize_gray(&gray, w, h).expect("resize").as_slice()),
            bits(&resize_per_pixel(&gray, w, h)),
            "resize to {w}x{h} diverged from the per-pixel definition"
        );
    }
    group.bench_function("resize_gray", |b| {
        b.iter(|| {
            for &(w, h) in &levels {
                black_box(resize_gray(black_box(&gray), w, h).expect("resize"));
            }
        })
    });
    group.bench_function("resize_gray_reference", |b| {
        b.iter(|| {
            for &(w, h) in &levels {
                black_box(resize_per_pixel(black_box(&gray), w, h));
            }
        })
    });
    // Sensor noise alone: the zipped three-plane pass against the
    // per-pixel `get`/`set` loop, with the same RNG stream.
    let (mut noisy, mut want) = (frame.clone(), frame.clone());
    add_noise(&mut noisy, 0.25, &mut StdRng::seed_from_u64(3));
    add_noise_per_pixel(&mut want, 0.25, &mut StdRng::seed_from_u64(3));
    let planes = |img: &RgbImage| [&img.r, &img.g, &img.b].map(|c| bits(c.as_slice()));
    assert_eq!(
        planes(&noisy),
        planes(&want),
        "add_noise diverged from the per-pixel definition"
    );
    let mut rng = StdRng::seed_from_u64(4);
    group.bench_function("add_noise", |b| {
        b.iter(|| add_noise(black_box(&mut noisy), 0.05, &mut rng))
    });
    group.bench_function("add_noise_reference", |b| {
        b.iter(|| add_noise_per_pixel(black_box(&mut want), 0.05, &mut rng))
    });
    group.finish();

    let (windows, rejected) = bank.c4().cascade_stats(&frame);
    if windows == 0 {
        0.0
    } else {
        rejected as f64 / windows as f64
    }
}

/// HOG cell histograms the two-pass way: materialise the gradient field,
/// then bin each cell's pixels through `orientation_bin` (`atan2f`).
fn hog_cells_two_pass(img: &GrayImage, config: HogConfig) -> Vec<f32> {
    let cs = config.cell_size;
    let (cells_x, cells_y) = (img.width() / cs, img.height() / cs);
    let grad = GradientField::compute(img);
    let mut hist = vec![0.0f32; cells_x * cells_y * config.bins];
    for cy in 0..cells_y {
        for cx in 0..cells_x {
            let base = (cy * cells_x + cx) * config.bins;
            for y in cy * cs..(cy + 1) * cs {
                for x in cx * cs..(cx + 1) * cs {
                    let mag = grad.magnitude.get(x, y);
                    if mag != 0.0 {
                        hist[base + grad.orientation_bin(x, y, config.bins)] += mag;
                    }
                }
            }
        }
    }
    hist
}

/// Bilinear resize the per-pixel way: each output pixel computes its own
/// sample position, `floor`, clamped taps and three lerps.
fn resize_per_pixel(src: &GrayImage, new_w: usize, new_h: usize) -> Vec<f32> {
    let sx = src.width() as f32 / new_w as f32;
    let sy = src.height() as f32 / new_h as f32;
    let mut out = Vec::with_capacity(new_w * new_h);
    for y in 0..new_h {
        for x in 0..new_w {
            let fx = (x as f32 + 0.5) * sx - 0.5;
            let fy = (y as f32 + 0.5) * sy - 0.5;
            let (x0, y0) = (fx.floor() as isize, fy.floor() as isize);
            let (tx, ty) = (fx - x0 as f32, fy - y0 as f32);
            let p00 = src.get_clamped(x0, y0);
            let p10 = src.get_clamped(x0 + 1, y0);
            let p01 = src.get_clamped(x0, y0 + 1);
            let p11 = src.get_clamped(x0 + 1, y0 + 1);
            let top = p00 + tx * (p10 - p00);
            let bot = p01 + tx * (p11 - p01);
            out.push(top + ty * (bot - top));
        }
    }
    out
}

/// Sensor noise the per-pixel way: read a pixel, draw its sample, write
/// the three clamped channels back.
fn add_noise_per_pixel(img: &mut RgbImage, amp: f32, rng: &mut StdRng) {
    for y in 0..img.height() {
        for x in 0..img.width() {
            let [r, g, b] = img.get(x, y);
            let n = rng.random_range(-amp..=amp);
            img.set(
                x,
                y,
                [
                    (r + n).clamp(0.0, 1.0),
                    (g + n).clamp(0.0, 1.0),
                    (b + n).clamp(0.0, 1.0),
                ],
            );
        }
    }
}

fn round_sim(parallel: Parallelism) -> Simulation {
    let bank = DetectorBank::train_quick(5).expect("bank");
    Simulation::prepare(bank, miniature_config(4, 70, 10.0, parallel)).expect("prepare")
}

/// Offline training: `Simulation::prepare` on the miniature round's
/// configuration (4 cameras × 8 training frames × 4 algorithms, then
/// feed matching), which fans out over every host core whatever the
/// `Parallelism`. Recorded for the trajectory only; `check_bench` gates
/// no metric on it.
fn prepare_bench(c: &mut Criterion) {
    let bank = DetectorBank::train_quick(5).expect("bank");
    let config = miniature_config(4, 70, 10.0, Parallelism::serial());
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("prepare_miniature", |b| {
        b.iter(|| black_box(Simulation::prepare(bank.clone(), config.clone()).expect("prepare")))
    });
    group.finish();
}

/// The full round, serial (1 worker, no cache) vs parallel (auto workers,
/// shared frame-feature cache). Both must produce the identical report —
/// the parallel pipeline only changes wall-clock.
fn round_bench(c: &mut Criterion) {
    let serial = round_sim(Parallelism::serial());
    let parallel = round_sim(Parallelism::default());
    assert_eq!(
        serial.run().expect("serial run"),
        parallel.run().expect("parallel run"),
        "parallelism must not change the report"
    );
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("full_eecs_round_serial", |b| {
        b.iter(|| black_box(serial.run().expect("run")))
    });
    group.bench_function("full_eecs_round_parallel", |b| {
        b.iter(|| black_box(parallel.run().expect("run")))
    });
    group.finish();
}

/// A 2×2×2 (budget × fault-seed × churn) grid over the miniature round
/// simulation, run through the sweep engine. Cells pin
/// `Parallelism::serial()` — under the engine the cell is the unit of
/// parallelism. The churn axis removes camera 3 for the (single) round,
/// so half the grid plans around a three-camera fleet.
fn sweep_shard(base: &Simulation) -> Shard<'_> {
    let spec = SweepSpec::new("bench_grid")
        .axis("budget", ["8.0", "12.0"])
        .axis("fault_seed", ["1", "2"])
        .axis("churn", ["0", "1"]);
    Shard::new(spec, move |job| {
        let budget: f64 = job.value("budget").unwrap().parse().unwrap();
        let seed: u64 = job.value("fault_seed").unwrap().parse().unwrap();
        let churn = match job.value("churn").unwrap() {
            "1" => eecs_net::fault::ChurnPlan::seeded(seed).with_leave(3, 0, 1),
            _ => eecs_net::fault::ChurnPlan::ideal(),
        };
        let report = base
            .with_budget(budget)
            .map_err(|e| e.to_string())?
            .with_faults(
                eecs_net::fault::FaultPlan::seeded(seed),
                eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
                eecs_net::fault::ControllerFaultPlan::none(),
            )
            .with_churn(churn)
            .run()
            .map_err(|e| e.to_string())?;
        Ok(report::Json::Obj(vec![
            (
                "detected".into(),
                report::Json::Num(report.correctly_detected as f64),
            ),
            ("energy_j".into(), report::Json::Num(report.total_energy_j)),
            (
                "leaves".into(),
                report::Json::Num(report.camera_leaves as f64),
            ),
        ]))
    })
}

/// The elastic-fleet benches. The end-to-end side: a three-round
/// mission whose churn plan takes camera 3 out for round 1 and brings
/// it back at round 2, timed next to the fixed-fleet mission. The
/// microbench side: `churn_replan` times exactly the controller
/// bookkeeping one departure + rejoin costs — quarantine purge, sticky
/// plan retain, and stale assessment-cache eviction — which is what
/// `churn_replan_ns` reports.
fn churn_bench(c: &mut Criterion) {
    let sim = Simulation::prepare(
        DetectorBank::train_quick(5).expect("bank"),
        miniature_config(4, 130, 10.0, Parallelism::default()),
    )
    .expect("prepare");
    let churned = sim.with_churn(eecs_net::fault::ChurnPlan::seeded(3).with_leave(3, 1, 2));
    // The plan fired, and the run replays bit-identically — a perf
    // number for a nondeterministic path would be meaningless.
    let probe = churned.run().expect("churn mission");
    assert_eq!(probe.camera_leaves, 1, "churn plan never fired");
    assert_eq!(probe.camera_joins, 1, "camera 3 never rejoined");
    assert_eq!(probe, churned.run().expect("churn replay"));

    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("full_eecs_mission_3rounds", |b| {
        b.iter(|| black_box(sim.run().expect("run")))
    });
    group.bench_function("full_eecs_mission_3rounds_churn", |b| {
        b.iter(|| black_box(churned.run().expect("run")))
    });
    group.finish();

    // Controller-state bookkeeping for one departure + rejoin, on state
    // sized like a busy 4-camera mission.
    use eecs_core::controller::{AssessmentCache, QuarantineLedger, QuarantinePolicy};
    use eecs_core::metadata::CameraReport;
    use eecs_detect::detection::AlgorithmId;
    let policy = QuarantinePolicy::default();
    let algs = [
        AlgorithmId::Hog,
        AlgorithmId::Acf,
        AlgorithmId::C4,
        AlgorithmId::Lsvm,
    ];
    c.bench_function("churn_replan", |b| {
        b.iter(|| {
            let mut ledger = QuarantineLedger::new();
            let mut cache = AssessmentCache::new(4);
            let mut plan: std::collections::BTreeMap<usize, AlgorithmId> =
                (0..4).map(|j| (j, algs[j])).collect();
            let mut active: Vec<usize> = (0..4).collect();
            for cam in 0..4 {
                for &alg in &algs {
                    ledger.report_unhealthy(cam, alg, 0, &policy);
                }
                let mut assessment = eecs_core::controller::CameraAssessment::new();
                assessment.insert(algs[cam], vec![CameraReport { objects: vec![] }]);
                cache.record(cam, 0, assessment);
            }
            // Departure: purge quarantine, drop sticky plan entries.
            let purged = ledger.purge_camera(3);
            plan.remove(&3);
            active.retain(|&j| j != 3);
            // Rejoin two rounds later: evict what went stale meanwhile.
            let evicted = cache.evict_stale(3, 2, 1);
            black_box((purged, evicted, plan.len(), active.len()))
        })
    });
}

/// The same sweep at 1 worker vs 4 workers. The engine guarantees the
/// merged bytes are identical (asserted here once, outside the timing
/// loop); the worker count only changes wall-clock.
fn sweep_bench(c: &mut Criterion) {
    let base = round_sim(Parallelism::serial());
    let shard = sweep_shard(&base);
    let sweep = |workers: usize| {
        run_sweep(
            &shard,
            &SweepOptions {
                workers,
                ..Default::default()
            },
        )
        .expect("bench sweep")
        .merged
        .expect("bench sweep merge")
    };
    assert_eq!(
        sweep(1),
        sweep(4),
        "worker count must not change the merged bytes"
    );
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("grid2x2_serial", |b| b.iter(|| black_box(sweep(1))));
    group.bench_function("grid2x2_4workers", |b| b.iter(|| black_box(sweep(4))));
    group.finish();
}

/// Mission-service throughput: one 4-mission batch through the service
/// at 1 worker vs 4 workers. The schedule is a pure function of the
/// seed, so both produce the identical service trace — asserted once
/// here, outside the timing loop — and the worker count only changes
/// wall-clock. The `Artifacts` cache means both services (and every
/// timed iteration) reuse one training pass.
fn serve_bench(c: &mut Criterion) {
    use eecs_serve::{BatchOptions, MissionService, ServiceConfig};
    let artifacts = Artifacts::quick_trained(Scale::Quick, 5);
    let base = service_base(&artifacts);
    let batch = mixed_batch(4, &["acme", "zenith"], false);
    let config = ServiceConfig::new(11).with_slots(2).with_queue_capacity(4);
    let run = |workers: usize| {
        MissionService::new(base.clone(), config.clone().with_workers(workers))
            .run_batch(&batch, &BatchOptions::default())
            .expect("service batch")
            .run
            .expect("assembled run")
            .trace_bytes()
    };
    assert_eq!(
        run(1),
        run(4),
        "worker count must not change the service trace"
    );
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("batch4_serial", |b| b.iter(|| black_box(run(1))));
    group.bench_function("batch4_4workers", |b| b.iter(|| black_box(run(4))));
    group.finish();
}

/// Repo-root path of the machine-readable report.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

fn main() {
    // `cargo bench` passes --bench; anything else (notably this target
    // executed during `cargo test`) is a smoke invocation and must stay
    // fast.
    if !std::env::args().any(|a| a == "--bench") {
        println!("pipeline bench: pass --bench (cargo bench) to run");
        return;
    }
    let mut c = Criterion::new();
    reid_bench(&mut c);
    let cascade_reject_ratio = kernel_bench(&mut c);
    round_bench(&mut c);
    prepare_bench(&mut c);
    churn_bench(&mut c);
    sweep_bench(&mut c);
    serve_bench(&mut c);

    let entries: Vec<BenchEntry> = c
        .results()
        .iter()
        .map(|(name, mean_ns)| BenchEntry {
            name: name.clone(),
            mean_ns: *mean_ns,
        })
        .collect();
    let serial_ns = c
        .mean_ns("simulation/full_eecs_round_serial")
        .expect("serial round ran");
    let parallel_ns = c
        .mean_ns("simulation/full_eecs_round_parallel")
        .expect("parallel round ran")
        .max(1);
    let speedup = serial_ns as f64 / parallel_ns as f64;
    let sweep_serial_ns = c.mean_ns("sweep/grid2x2_serial").expect("serial sweep ran");
    let sweep_parallel_ns = c
        .mean_ns("sweep/grid2x2_4workers")
        .expect("4-worker sweep ran")
        .max(1);
    let sweep_speedup = sweep_serial_ns as f64 / sweep_parallel_ns as f64;
    // Interpretation key for the speedups: the parallel round / 4-worker
    // sweep fan out over this many cores. On a single-core host both
    // reduce to ~1× (the round keeps its feature-cache gain); a 4-core
    // host is where the ≥2× sweep expectation applies.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut metrics = vec![
        ("round_speedup".to_string(), speedup),
        ("sweep_speedup".to_string(), sweep_speedup),
    ];
    // Kernel speedups: optimized vs reference of the SAME run — the ratio
    // is host-independent, which is what lets `check_bench --baseline`
    // compare it across runs where absolute ns are incomparable.
    for alg in ["c4", "hog", "lsvm", "acf"] {
        let opt = c
            .mean_ns(&format!("kernels/{alg}_optimized"))
            .expect("kernel optimized ran")
            .max(1);
        let reference = c
            .mean_ns(&format!("kernels/{alg}_reference"))
            .expect("kernel reference ran");
        let ratio = reference as f64 / opt as f64;
        println!("kernel speedup {alg} (reference/optimized): {ratio:.2}x");
        metrics.push((format!("kernel_speedup_{alg}"), ratio));
    }
    // Stage kernels: `kernels/<bench>` against `kernels/<bench>_reference`.
    for (bench, kernel, sides) in [
        ("hog_cells", "hog_cells", "two-pass/fused"),
        ("resize_gray", "resize_gray", "per-pixel/hoisted"),
        ("census_codes", "census", "f32 transform/one-pass"),
        ("add_noise", "add_noise", "per-pixel/zipped"),
    ] {
        let opt = c
            .mean_ns(&format!("kernels/{bench}"))
            .expect("stage kernel ran")
            .max(1);
        let reference = c
            .mean_ns(&format!("kernels/{bench}_reference"))
            .expect("stage kernel reference ran");
        let ratio = reference as f64 / opt as f64;
        println!("kernel speedup {kernel} ({sides}): {ratio:.2}x");
        metrics.push((format!("kernel_speedup_{kernel}"), ratio));
    }
    metrics.push(("c4_cascade_reject_ratio".into(), cascade_reject_ratio));
    metrics.push(("host_parallelism".into(), host as f64));
    // The controller-side cost of one departure + rejoin (quarantine
    // purge, sticky-plan retain, stale-cache eviction), straight from
    // the microbench — unlike a mission-level difference this is not
    // noise-dominated (a departed camera makes the mission *cheaper*).
    let churn_replan_ns = c.mean_ns("churn_replan").expect("churn_replan ran") as f64;
    println!("churn replan bookkeeping: {churn_replan_ns:.0} ns");
    metrics.push(("churn_replan_ns".into(), churn_replan_ns));
    // Service throughput: same batch, 1 worker vs 4 — like the sweep
    // speedup, a host-relative ratio over byte-identical outputs.
    let serve_serial_ns = c.mean_ns("serve/batch4_serial").expect("serial serve ran");
    let serve_parallel_ns = c
        .mean_ns("serve/batch4_4workers")
        .expect("4-worker serve ran")
        .max(1);
    let serve_speedup = serve_serial_ns as f64 / serve_parallel_ns as f64;
    println!("serve speedup (1 worker / 4 workers): {serve_speedup:.2}x");
    metrics.push(("serve_speedup".into(), serve_speedup));
    let text = report::render(&entries, &metrics);
    report::validate_pipeline_report(&text).expect("generated report validates");
    std::fs::write(REPORT_PATH, &text).expect("write BENCH_pipeline.json");
    println!("round speedup (serial/parallel): {speedup:.2}x");
    println!("sweep speedup (1 worker / 4 workers): {sweep_speedup:.2}x");
    println!("C4 cascade reject ratio: {cascade_reject_ratio:.3}");
    println!("wrote {REPORT_PATH}");
}
