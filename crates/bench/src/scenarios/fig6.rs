//! Fig. 6 as a sweep: detected humans vs energy on dataset #2, one cell
//! per strategy, all three derived from a single lazily prepared base
//! simulation (Fig. 5's preparation, strategies and table).
//!
//! On the chap dataset ACF is both the most accurate *and* the most energy
//! efficient algorithm, so EECS cannot save by downgrading — all savings
//! come from using fewer cameras (the paper: 97% of the detections at 70%
//! of the energy).

use crate::artifacts::Artifacts;
use crate::fmt3;
use crate::scenarios::fig5::{cost, strategy_shard, strategy_table, STRATEGIES};
use crate::scenarios::{cell_num, shard_cells};
use crate::sweep::{Shard, SweepJob, SweepSpec};
use eecs_core::jsonio::Json;
use eecs_core::profile::TrainingRecord;
use eecs_detect::detection::AlgorithmId;
use eecs_scene::dataset::DatasetProfile;

/// The Fig. 6 grid: one cell per strategy.
pub fn spec() -> SweepSpec {
    SweepSpec::new("fig6").axis("strategy", STRATEGIES.map(|(name, _, _)| name))
}

/// The Fig. 6 shard over shared artifacts.
pub fn shard(artifacts: &Artifacts) -> Shard<'_> {
    // Budget between ACF and the second-cheapest algorithm: only ACF is
    // feasible (the regime in which the paper ran Fig. 6 — "the energy
    // consumption values of ACF ... since the resolution in dataset #2 is
    // significantly higher").
    let budget = |_: &SweepJob, record: &TrainingRecord| {
        let acf = cost(record, AlgorithmId::Acf)?;
        let mut others = AlgorithmId::ALL
            .into_iter()
            .filter(|&a| a != AlgorithmId::Acf);
        let next = others.try_fold(f64::INFINITY, |next, a| {
            Ok::<_, String>(next.min(cost(record, a)?))
        })?;
        Ok((
            acf + (next - acf) * 0.3,
            vec![("acf_j", acf), ("next_j", next)],
        ))
    };
    let profile = DatasetProfile::chap();
    strategy_shard(artifacts, spec(), profile, (25, 6), budget)
}

/// Renders the budget line and the strategy table from a merged sweep
/// document.
///
/// # Errors
///
/// Returns an error when the document lacks the Fig. 6 shard or a field.
pub fn format(doc: &Json) -> Result<String, String> {
    let cells = shard_cells(doc, "fig6")?;
    if cells.len() != STRATEGIES.len() {
        return Err(format!("Fig. 6 expects 3 cells, found {}", cells.len()));
    }
    let mut out = format!(
        "measured per-frame cost: ACF {} J, next-cheapest {} J; budget {} J\n",
        fmt3(cell_num(cells[0].1, "acf_j")?),
        fmt3(cell_num(cells[0].1, "next_j")?),
        fmt3(cell_num(cells[0].1, "budget_j")?),
    );
    out.push_str("\n== Fig. 6: dataset #2 ==\n");
    let note = ("active_per_round", "active cameras per round");
    out.push_str(&strategy_table(&cells, note)?);
    Ok(out)
}
