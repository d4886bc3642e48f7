//! Tables II, III, IV as a sweep, one cell per table: per-algorithm
//! threshold, recall, precision, f-score, energy/frame and processing
//! time/frame of camera #1. Tables II (dataset #1) and III (dataset #2)
//! are the profiles of the memoized training-segment records; Table IV is
//! the memoized dataset #1 test-segment evaluation at those records'
//! thresholds (as in the paper), which Fig. 3 reads too.

use crate::artifacts::{Artifacts, SegmentEval, WORDS};
use crate::fmt3;
use crate::scenarios::{cell_num, row, shard_cells};
use crate::sweep::{Shard, SweepSpec};
use eecs_core::jsonio::Json;
use eecs_core::profile::AlgorithmProfile;
use eecs_detect::detection::AlgorithmId;
use eecs_scene::dataset::DatasetProfile;

/// Axis value and heading of each table, in report order.
const TABLES: [(&str, &str); 3] = [
    (
        "II",
        "== Table II: dataset #1 (lab), camera #1, training segment ==",
    ),
    (
        "III",
        "\n== Table III: dataset #2 (chap), camera #1, training segment ==",
    ),
    (
        "IV",
        "\n== Table IV: dataset #1 (lab), camera #1, test segment (training thresholds) ==",
    ),
];

/// The columns: a row's JSON field names and the table header.
const COLUMNS: [&str; 7] = [
    "Alg",
    "Threshold",
    "Recall",
    "Precision",
    "F-score",
    "Energy(J/fr)",
    "Time(s/fr)",
];

/// The grid: one cell per table.
pub fn spec() -> SweepSpec {
    SweepSpec::new("table2_3_4").axis("table", TABLES.map(|(id, _)| id))
}

/// The Tables II–IV shard over shared artifacts.
pub fn shard(artifacts: &Artifacts) -> Shard<'_> {
    Shard::new(spec(), move |job| {
        let config = artifacts.config();
        let rows: Vec<(AlgorithmId, [f64; 6])> = match job.value("table") {
            Some(table @ ("II" | "III")) => {
                let profile = if table == "II" {
                    DatasetProfile::lab()
                } else {
                    DatasetProfile::chap()
                };
                let record = artifacts.record(&profile, 0, WORDS);
                let row = |p: &AlgorithmProfile| {
                    let (energy, time) = (p.energy_per_frame_j, p.processing_time_s);
                    [p.threshold, p.recall, p.precision, p.f_score, energy, time]
                };
                record
                    .profiles
                    .iter()
                    .map(|(&alg, p)| (alg, row(p)))
                    .collect()
            }
            Some("IV") => {
                let evals = artifacts.test_eval(&DatasetProfile::lab(), 0);
                let row = |e: &SegmentEval| {
                    let ((energy, time), c) = (e.cost(&config), e.counts);
                    [
                        e.threshold,
                        c.recall(),
                        c.precision(),
                        c.f_score(),
                        energy,
                        time,
                    ]
                };
                evals.iter().map(|(&alg, e)| (alg, row(e))).collect()
            }
            other => return Err(format!("unknown table {other:?}")),
        };
        let rows = rows.into_iter().map(|(alg, values)| {
            let values = values.map(Json::Num);
            let cells = std::iter::once(Json::Str(alg.to_string())).chain(values);
            Json::Obj(COLUMNS.iter().map(|c| c.to_string()).zip(cells).collect())
        });
        Ok(Json::Obj(vec![("rows".into(), Json::Arr(rows.collect()))]))
    })
}

/// Renders the three tables from a merged sweep document.
///
/// # Errors
///
/// Returns an error when the document lacks the shard or a field.
pub fn format(doc: &Json) -> Result<String, String> {
    let cells = shard_cells(doc, "table2_3_4")?;
    if cells.len() != TABLES.len() {
        return Err(format!(
            "Tables II-IV expect 3 cells, found {}",
            cells.len()
        ));
    }
    let widths = [5, 10, 8, 10, 8, 14, 12];
    let mut out = String::new();
    for ((_, heading), (_, data)) in TABLES.iter().zip(cells) {
        out.push_str(&format!("{heading}\n"));
        out.push_str(&row(&COLUMNS.map(String::from), &widths));
        let rows = data
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("table cell without rows")?;
        for r in rows {
            let alg = r.get(COLUMNS[0]).and_then(Json::as_str);
            let mut cells = vec![alg.ok_or("row without an algorithm")?.to_string()];
            for column in &COLUMNS[1..] {
                cells.push(fmt3(cell_num(r, column)?));
            }
            out.push_str(&row(&cells, &widths));
        }
    }
    Ok(out)
}
