//! Fig. 5 as a sweep: detected humans vs energy on dataset #1 under two
//! budget regimes × three strategies — one cell per (regime, strategy),
//! all six derived from a single lazily prepared base [`Simulation`].
//!
//! The strategy axis, the strategy shard and the strategy table are shared
//! with Fig. 6, which differs only in its dataset, its training-frame cap,
//! its budget rule and its output.

use crate::artifacts::{Artifacts, WORDS};
use crate::scenarios::{cell_num, row, shard_cells, CellContext};
use crate::sweep::{Shard, SweepJob, SweepSpec};
use crate::{fmt3, Scale};
use eecs_core::jsonio::Json;
use eecs_core::profile::TrainingRecord;
use eecs_core::simulation::{OperatingMode, Parallelism, Simulation, SimulationConfig};
use eecs_detect::detection::AlgorithmId;
use eecs_scene::dataset::DatasetProfile;

/// The strategies Figs. 5 and 6 compare: axis value, operating mode and
/// report label. The first is the baseline the percentages refer to.
pub(crate) const STRATEGIES: [(&str, OperatingMode, &str); 3] = [
    ("all_best", OperatingMode::AllBest, "all cameras, best alg"),
    (
        "camera_subset",
        OperatingMode::CameraSubset,
        "EECS camera subset",
    ),
    ("full_eecs", OperatingMode::FullEecs, "EECS full"),
];

/// The Fig. 5 grid: budget regime × strategy.
pub fn spec() -> SweepSpec {
    SweepSpec::new("fig5")
        .axis("regime", ["5a", "5b"])
        .axis("strategy", STRATEGIES.map(|(name, _, _)| name))
}

/// Camera #1's measured energy per frame of `alg`: the paper derives its
/// budgets from such (PowerTutor) measurements.
pub(crate) fn cost(record: &TrainingRecord, alg: AlgorithmId) -> Result<f64, String> {
    record
        .profile(alg)
        .map(|p| p.energy_per_frame_j)
        .ok_or_else(|| format!("{alg} not profiled"))
}

/// The cost anchors a cell's budget came from, as `(field, joules)`.
pub(crate) type Anchors = Vec<(&'static str, f64)>;

/// A strategy comparison as a shard. The base simulation — four cameras
/// over `profile`'s test segment at the artifacts' scale, training on at
/// most `(paper, quick)` frames per camera at that scale — is prepared
/// once for all cells. Each cell runs its job's strategy under the budget
/// that `budget` derives from the job and camera #1's training record,
/// and records that budget, its anchors, the detections and the energy.
/// Full-EECS cells also record the flavor of the adaptation: the
/// first-round assignment and the active cameras per round.
pub(crate) fn strategy_shard<'a>(
    artifacts: &'a Artifacts,
    spec: SweepSpec,
    profile: DatasetProfile,
    (paper, quick): (usize, usize),
    budget: impl Fn(&SweepJob, &TrainingRecord) -> Result<(f64, Anchors), String> + Sync + 'a,
) -> Shard<'a> {
    let prepare = move || {
        let (start, end) = artifacts.scale().bounds(&profile);
        let paper_scale = artifacts.scale() == Scale::Paper;
        Simulation::prepare(
            (*artifacts.bank()).clone(),
            SimulationConfig {
                profile: profile.clone(),
                cameras: 4,
                start_frame: start,
                end_frame: end,
                budget_j_per_frame: f64::MAX, // replaced per cell
                mode: OperatingMode::AllBest,
                eecs: (*artifacts.config()).clone(),
                feature_words: WORDS,
                max_training_frames: if paper_scale { paper } else { quick },
                boost_every: 0,
                fault_plan: eecs_net::fault::FaultPlan::ideal(),
                sensor_plan: eecs_scene::sensor_fault::SensorFaultPlan::ideal(),
                controller_plan: eecs_net::fault::ControllerFaultPlan::none(),
                // Cells are the unit of parallelism; each runs its rounds
                // serially so one live simulation per worker bounds memory.
                parallel: Parallelism::serial(),
            },
        )
        .map_err(|e| format!("simulation preparation: {e}"))
    };
    let ctx = CellContext::new(spec.cell_count());
    Shard::new(spec, move |job| {
        ctx.with(&prepare, |base| {
            let base = base.as_ref().map_err(Clone::clone)?;
            let (budget, anchors) = budget(job, base.record_for_camera(0))?;
            let strategy = job.value("strategy");
            let (_, mode, _) = STRATEGIES
                .iter()
                .find(|(name, _, _)| Some(*name) == strategy)
                .ok_or_else(|| format!("unknown strategy {strategy:?}"))?;
            let report = base
                .with_budget(budget)
                .map_err(|e| format!("budget {budget}: {e}"))?
                .with_mode(*mode)
                .run()
                .map_err(|e| format!("strategy cell run: {e}"))?;
            let detected = report.correctly_detected as f64;
            let fields = [("budget_j", budget)].into_iter().chain(anchors);
            let fields =
                fields.chain([("detected", detected), ("energy_j", report.total_energy_j)]);
            let mut data: Vec<_> = fields.map(|(k, v)| (k.to_string(), Json::Num(v))).collect();
            if *mode == OperatingMode::FullEecs {
                let rounds = &report.rounds;
                let assign = rounds[0].assignment.iter();
                let assign = assign.map(|(cam, alg)| Json::Str(format!("cam{cam}:{alg}")));
                let active = rounds.iter().map(|r| Json::Num(r.active.len() as f64));
                data.push(("first_assignment".into(), Json::Arr(assign.collect())));
                data.push(("active_per_round".into(), Json::Arr(active.collect())));
            }
            Ok(Json::Obj(data))
        })
    })
}

/// Renders one strategy table from its cells (in [`STRATEGIES`] order),
/// each with `detected` and `energy_j`. A cell holding the array `field`
/// gets an indented `label: items` line under its row.
pub(crate) fn strategy_table(
    cells: &[(&str, &Json)],
    (field, label): (&str, &str),
) -> Result<String, String> {
    let widths = [24usize, 10, 12, 12, 12];
    let header = [
        "strategy",
        "detected",
        "% of base",
        "energy (J)",
        "% of base",
    ];
    let mut out = row(&header.map(String::from), &widths);
    let base = cells.first().ok_or("strategy table without cells")?.1;
    let base_detected = cell_num(base, "detected")?;
    let base_energy = cell_num(base, "energy_j")?;
    for ((_, _, strategy), (_, data)) in STRATEGIES.iter().zip(cells) {
        let detected = cell_num(data, "detected")?;
        let energy = cell_num(data, "energy_j")?;
        out.push_str(&row(
            &[
                (*strategy).into(),
                format!("{detected}"),
                format!("{:.0}%", 100.0 * detected / base_detected.max(1.0)),
                fmt3(energy),
                format!("{:.0}%", 100.0 * energy / base_energy.max(1e-9)),
            ],
            &widths,
        ));
        if let Some(items) = data.get(field).and_then(Json::as_arr) {
            let items = items.iter().map(|v| match v {
                Json::Str(s) => s.clone(),
                other => other.as_u64().map_or_else(String::new, |n| n.to_string()),
            });
            out.push_str(&format!(
                "    {label}: {}\n",
                items.collect::<Vec<_>>().join(" ")
            ));
        }
    }
    Ok(out)
}

/// The Fig. 5 shard over shared artifacts.
pub fn shard(artifacts: &Artifacts) -> Shard<'_> {
    let budget = |job: &SweepJob, record: &TrainingRecord| {
        let (hog, acf) = (
            cost(record, AlgorithmId::Hog)?,
            cost(record, AlgorithmId::Acf)?,
        );
        let budget = match job.value("regime") {
            Some("5a") => hog * 1.10,
            Some("5b") => acf + (hog - acf) * 0.3,
            other => return Err(format!("unknown Fig. 5 regime {other:?}")),
        };
        Ok((budget, vec![("hog_j", hog), ("acf_j", acf)]))
    };
    let profile = DatasetProfile::lab();
    strategy_shard(artifacts, spec(), profile, (40, 8), budget)
}

/// Renders the two regime tables from a merged sweep document.
///
/// # Errors
///
/// Returns an error when the document lacks the Fig. 5 shard or a field.
pub fn format(doc: &Json) -> Result<String, String> {
    let cells = shard_cells(doc, "fig5")?;
    if cells.len() != 6 {
        return Err(format!("Fig. 5 expects 6 cells, found {}", cells.len()));
    }
    let mut out = format!(
        "measured per-frame cost: HOG {} J, ACF {} J\n",
        fmt3(cell_num(cells[0].1, "hog_j")?),
        fmt3(cell_num(cells[0].1, "acf_j")?),
    );
    for (r, label) in [
        "Fig 5a: budget >= cost(HOG)",
        "Fig 5b: budget in [ACF, HOG)",
    ]
    .iter()
    .enumerate()
    {
        let regime = &cells[3 * r..3 * r + 3];
        out.push_str(&format!(
            "\n== {label} (B = {} J/frame) ==\n",
            fmt3(cell_num(regime[0].1, "budget_j")?)
        ));
        let note = ("first_assignment", "first-round assignment");
        out.push_str(&strategy_table(regime, note)?);
    }
    Ok(out)
}
