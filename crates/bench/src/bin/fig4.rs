//! Fig. 4: accuracy (fraction of humans correctly detected) vs energy for
//! fixed camera/algorithm mixes on dataset #1:
//!
//! * two cameras: 2HOG, HOG+ACF, 2ACF,
//! * four cameras: 4HOG, 2HOG+2ACF, 4ACF.
//!
//! The paper's point: 2HOG+2ACF consumes ≈ 54% of 4HOG's energy while
//! detecting 85% vs 92% of the people — a 7-point accuracy hit for nearly
//! half the energy.
//!
//! Runs on the sweep engine: `--workers N` fans the six mixes over a
//! worker pool, a kill resumes from `SWEEP_fig4.manifest.jsonl`, and the
//! merged grid lands in `SWEEP_fig4.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, fig4};
use eecs_bench::Scale;

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [fig4::shard(&artifacts)];
    scenarios::run_bin("fig4", &shards, fig4::format).expect("fig4 sweep");
}
