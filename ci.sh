#!/usr/bin/env bash
# Full local CI gate. Runs offline: every external dependency (rand,
# crossbeam, proptest, criterion) is vendored as a minimal shim under
# vendor/ and resolved as a path dependency (see DESIGN.md §7), so no
# registry access is needed or attempted.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test"
cargo test -q --workspace

echo "==> golden-master suite (telemetry + report snapshots)"
# Byte-for-byte comparison of the three canonical runs against
# tests/golden/*.json, under both serial and parallel execution.
cargo test -q --test golden_report

echo "==> golden bless-check (snapshots in sync with the code)"
# Regenerate the goldens and fail if the checked-in files are stale —
# i.e. someone changed behavior without re-blessing.
EECS_BLESS=1 cargo test -q --test golden_report
git diff --exit-code -- tests/golden \
  || { echo "stale golden files: commit the regenerated tests/golden/*.json"; exit 1; }

if [[ "${EECS_SOAK:-0}" == "1" ]]; then
  echo "==> telemetry soak (EECS_SOAK=1)"
  cargo test -q --workspace -- --ignored
fi

echo "==> cargo clippy"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> bench smoke (pipeline trajectory + kernel regression gate)"
# One timed iteration per bench: enough to prove the harness runs end to
# end and regenerates a well-formed BENCH_pipeline.json at the repo root.
# The committed report is saved first and used as the regression baseline:
# check_bench compares the per-kernel optimized-vs-reference ratios (which
# are host-independent, unlike raw ns) and fails on a kernel regression
# beyond the tolerance. The generous tolerance absorbs 1-iteration noise.
bench_baseline="$(mktemp)"
cp BENCH_pipeline.json "$bench_baseline"
EECS_BENCH_ITERS=1 cargo bench -q -p eecs-bench --bench pipeline -- --bench
cargo run -q --release -p eecs-bench --bin check_bench -- \
  --baseline "$bench_baseline" --tolerance 0.5
# The smoke run's 1-iteration timings are noise: restore the committed
# multi-iteration report so CI leaves the tree clean.
cp "$bench_baseline" BENCH_pipeline.json
rm -f "$bench_baseline"

echo "==> repository benchmark (unit tests + smoke run of every workload)"
# The benchmark is a package of its own (benchmark/Cargo.toml) outside
# the workspace, so nothing above compiles it. Its tests include a
# miniature run of all four workloads through the correctness gate, so
# a core API change cannot break the benchmark unnoticed.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> sweep smoke (2 workers, kill after 2 cells, resume)"
# Tiny budget × fault-seed grid through the sweep engine: a 2-worker run
# aborted mid-sweep and resumed from its manifest must merge to bytes
# identical to an uninterrupted run, with no completed cell re-executing.
cargo run -q --release -p eecs-bench --bin sweep_smoke

echo "==> serve smoke (mission service: kill mid-queue, resume, replay)"
# Per seed, a chaotic 6-mission batch through the admission-controlled
# service: a 2-worker journaled run killed after 2 missions, with half
# of its journal's final line torn off, and resumed must produce a
# service trace byte-identical to an uninterrupted 1-worker run, with
# only the torn mission re-executing.
cargo run -q --release -p eecs-bench --bin serve_smoke -- 1 2 3

echo "==> chaos smoke (crash, integrity, partition and churn fault rows)"
# Per seed, five fault rows on a miniature mission: a controller crash
# under lossy links and harsh sensors, a corruption storm with a torn
# checkpoint write, a clean and a flapping two-island partition, and a
# heterogeneous fleet with a camera leaving and rejoining. Every run
# must replay bit-for-bit (report, trace and metrics), pass the
# testkit's InvariantChecker with no trace eviction, stay live, and meet
# its row's expectations (failover on schedule, corrupt frames rejected
# and one checkpoint rollback, election and heal reconcile, the churned
# camera planned around and rejoined).
cargo run -q --release -p eecs-bench --bin chaos_smoke -- 1 2 3

echo "CI OK"
