//! Fig. 5: detected humans vs energy on dataset #1 under two budget
//! regimes, for the three strategies:
//!
//! * all cameras + best algorithms (baseline),
//! * EECS camera subset + best algorithms,
//! * full EECS (subset + algorithm downgrades).
//!
//! Fig. 5a: budget ≥ cost(HOG) → HOG is the best feasible algorithm and
//! EECS can both drop cameras *and* downgrade some to ACF.
//! Fig. 5b: budget ∈ [cost(ACF), cost(HOG)) → only ACF is feasible and the
//! savings come from the camera subset alone.
//!
//! Runs on the sweep engine: `--workers N` fans the six (regime, strategy)
//! cells over a worker pool, a kill resumes from
//! `SWEEP_fig5.manifest.jsonl`, and the merged grid lands in
//! `SWEEP_fig5.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, fig5};
use eecs_bench::Scale;

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards = [fig5::shard(&artifacts)];
    scenarios::run_bin("fig5", &shards, fig5::format).expect("fig5 sweep");
}
