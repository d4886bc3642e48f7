//! Fig. 3: the benefit of adaptively choosing detection algorithms —
//! camera #1's test segments of datasets #1 and #2, evaluated with
//! thresholds learned on the corresponding training segments, under each
//! fixed algorithm and under the per-dataset best choice.
//!
//! Runs on the sweep engine: `--workers N` fans the two datasets over a
//! worker pool, a kill resumes from `SWEEP_fig3.manifest.jsonl`, and the
//! merged grid lands in `SWEEP_fig3.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, fig3};
use eecs_bench::Scale;

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [fig3::shard(&artifacts)];
    scenarios::run_bin("fig3", &shards, fig3::format).expect("fig3 sweep");
}
