//! Fig. 6: detected humans vs energy on dataset #2 for the three
//! strategies of Fig. 5, under a budget that leaves ACF the only feasible
//! algorithm — so all of EECS's savings come from using fewer cameras.
//!
//! Runs on the sweep engine: `--workers N` fans the three strategy cells
//! over a worker pool, a kill resumes from `SWEEP_fig6.manifest.jsonl`,
//! and the merged grid lands in `SWEEP_fig6.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, fig6};
use eecs_bench::Scale;

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [fig6::shard(&artifacts)];
    scenarios::run_bin("fig6", &shards, fig6::format).expect("fig6 sweep");
}
