//! Table V: the 12×12 video-similarity matrix.
//!
//! For every dataset (#1–#3) and camera (#1–#4), features of randomly
//! placed consecutive-frame windows are extracted from the training segment
//! (`T_x.y`) and the test segment (`V_x.y`); similarities are computed with
//! the Grassmann-manifold pipeline of Section III and averaged over
//! repeats (the paper samples 100 frames × 5 repeats; we default to 60 × 3
//! — see EXPERIMENTS.md).
//!
//! Pass `--naive` for the DESIGN.md §5 ablation: plain Euclidean distance
//! between mean feature vectors instead of the geodesic flow kernel.
//!
//! Runs on the sweep engine: `--workers N` fans the twelve matrix rows
//! over a worker pool, a kill resumes from the manifest, and the merged
//! grid lands in `SWEEP_table5.json` (`SWEEP_table5_naive.json` for the
//! ablation).

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, table5};
use eecs_bench::Scale;

fn main() {
    let naive = std::env::args().any(|a| a == "--naive");
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [table5::shard(&artifacts, naive)];
    let name = if naive { "table5_naive" } else { "table5" };
    scenarios::run_bin(name, &shards, |doc| table5::format(doc, naive)).expect("table5 sweep");
}
