//! Tables II, III, IV: per-algorithm threshold, recall, precision, f-score,
//! energy/frame and processing time/frame on:
//!
//! * Table II  — dataset #1, camera #1, training segment,
//! * Table III — dataset #2, camera #1, training segment,
//! * Table IV  — dataset #1, camera #1, test segment (thresholds reused
//!   from training, as in the paper).
//!
//! Runs on the sweep engine: `--workers N` fans the three tables over a
//! worker pool, a kill resumes from `SWEEP_table2_3_4.manifest.jsonl`,
//! and the merged grid lands in `SWEEP_table2_3_4.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, table2_3_4};
use eecs_bench::Scale;

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [table2_3_4::shard(&artifacts)];
    scenarios::run_bin("table2_3_4", &shards, table2_3_4::format).expect("table2_3_4 sweep");
}
