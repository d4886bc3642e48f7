//! Fig. 3 as a sweep: the benefit of adaptively choosing detection
//! algorithms, one cell per dataset.
//!
//! The paper's experiment: if the environment changes from dataset #1 to
//! dataset #2 but the system keeps using one fixed algorithm, the best it
//! can do (HOG everywhere) is f ≈ 0.70; adaptively choosing the best
//! algorithm per dataset (HOG on #1, ACF on #2) reaches f ≈ 0.81 — and
//! crucially improves precision and recall *simultaneously*.
//!
//! A cell holds each algorithm's counts on camera #1's test segment at the
//! thresholds learned on its training segment: the memoized evaluation
//! that Table IV prints for dataset #1.

use crate::artifacts::Artifacts;
use crate::fmt3;
use crate::scenarios::{row, shard_cells};
use crate::sweep::{Shard, SweepSpec};
use eecs_core::jsonio::Json;
use eecs_detect::detection::AlgorithmId;
use eecs_detect::eval::EvalCounts;
use eecs_scene::dataset::DatasetProfile;

/// The grid: dataset #1 (lab) and dataset #2 (chap).
pub fn spec() -> SweepSpec {
    SweepSpec::new("fig3").axis("dataset", ["1", "2"])
}

/// The Fig. 3 shard over shared artifacts.
pub fn shard(artifacts: &Artifacts) -> Shard<'_> {
    Shard::new(spec(), move |job| {
        let profile = match job.value("dataset") {
            Some("1") => DatasetProfile::lab(),
            Some("2") => DatasetProfile::chap(),
            other => return Err(format!("unknown Fig. 3 dataset {other:?}")),
        };
        let evals = artifacts.test_eval(&profile, 0);
        let counts = evals.values().map(|e| {
            let c = e.counts;
            Json::Arr([c.tp, c.fp, c.fn_].map(|n| Json::Num(n as f64)).to_vec())
        });
        Ok(Json::Obj(vec![(
            "counts".into(),
            Json::Arr(counts.collect()),
        )]))
    })
}

/// A dataset cell's `[tp, fp, fn]` counts, in [`AlgorithmId::ALL`] order.
fn dataset_counts(data: &Json) -> Result<Vec<EvalCounts>, String> {
    let counts = data.get("counts").and_then(Json::as_arr);
    let counts = counts.filter(|c| c.len() == AlgorithmId::ALL.len());
    let counts = counts.ok_or("Fig. 3 cell needs counts per algorithm")?;
    let n = |v: &Json| {
        v.as_u64()
            .map(|n| n as usize)
            .ok_or("count is not an integer")
    };
    let counts = counts.iter().map(|c| match c.as_arr().unwrap_or_default() {
        [tp, fp, fn_] => Ok(EvalCounts {
            tp: n(tp)?,
            fp: n(fp)?,
            fn_: n(fn_)?,
        }),
        _ => Err("a Fig. 3 count is not [tp, fp, fn]"),
    });
    Ok(counts.collect::<Result<_, _>>()?)
}

/// Renders the figure table from a merged sweep document.
///
/// # Errors
///
/// Returns an error when the document lacks the Fig. 3 shard or a field.
pub fn format(doc: &Json) -> Result<String, String> {
    let cells = shard_cells(doc, "fig3")?;
    let [(_, d1), (_, d2)] = cells[..] else {
        return Err(format!("Fig. 3 expects 2 cells, found {}", cells.len()));
    };
    let (d1, d2) = (dataset_counts(d1)?, dataset_counts(d2)?);
    let widths = [14, 9, 9, 9, 9, 9, 9];
    let header = [
        "strategy",
        "f(D1)",
        "f(D2)",
        "mean f",
        "recall",
        "precision",
        "f(pooled)",
    ];
    let mut out = String::from(
        "== Fig. 3: fixed algorithm vs adaptive choice (datasets #1 + #2, camera #1) ==\n",
    );
    out.push_str(&row(&header.map(String::from), &widths));
    let mean_f = |c1: EvalCounts, c2: EvalCounts| (c1.f_score() + c2.f_score()) / 2.0;
    let strategy_row = |name: String, c1: EvalCounts, c2: EvalCounts| {
        let mut pooled = c1;
        pooled.accumulate(c2);
        let (r, p, f) = (pooled.recall(), pooled.precision(), pooled.f_score());
        let values = [c1.f_score(), c2.f_score(), mean_f(c1, c2), r, p, f];
        let mut cells = vec![name];
        cells.extend(values.map(fmt3));
        row(&cells, &widths)
    };

    let mut best_fixed: Option<(AlgorithmId, f64)> = None;
    for ((alg, &c1), &c2) in AlgorithmId::ALL.iter().zip(&d1).zip(&d2) {
        out.push_str(&strategy_row(format!("fixed {alg}"), c1, c2));
        if best_fixed.is_none_or(|(_, best)| mean_f(c1, c2) > best) {
            best_fixed = Some((*alg, mean_f(c1, c2)));
        }
    }

    // Adaptive: per dataset, the algorithm with the best f-score (the
    // last of equals, as `max_by` picks).
    let pick = |counts: &[EvalCounts]| {
        let best = AlgorithmId::ALL.iter().zip(counts);
        let best = best.max_by(|a, b| a.1.f_score().total_cmp(&b.1.f_score()));
        best.map(|(&alg, &c)| (alg, c))
            .expect("four algorithms evaluated")
    };
    let ((a1, c1), (a2, c2)) = (pick(&d1), pick(&d2));
    out.push_str(&strategy_row(format!("adaptive {a1}/{a2}"), c1, c2));

    let (bf_alg, bf) = best_fixed.expect("four algorithms evaluated");
    let adaptive = mean_f(c1, c2);
    out.push_str(&format!(
        "\nbest fixed: {bf_alg} (mean f {}), adaptive: {} — gain {:+.3}\n",
        fmt3(bf),
        fmt3(adaptive),
        adaptive - bf
    ));
    Ok(out)
}
