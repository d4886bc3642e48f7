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
# service: a 2-worker journaled run killed after 2 missions and resumed
# must produce a service trace byte-identical to an uninterrupted
# 1-worker run, with no completed mission re-executing.
cargo run -q --release -p eecs-bench --bin serve_smoke -- 1 2 3

echo "==> fault-matrix smoke (sensor + network + controller chaos)"
# One combined-chaos mission per seed: must complete, stay physical,
# record the scheduled failover, and replay bit-for-bit.
cargo run -q --release -p eecs-bench --bin chaos_smoke -- 1 2 3

echo "==> partition smoke (islands, split-brain election, heal reconcile)"
# Per seed, a clean two-island split and a flapping split over lossy
# links: each must elect an acting seat, reconcile on heal, record no
# crash failover, and replay bit-for-bit.
cargo run -q --release -p eecs-bench --bin chaos_smoke -- --partition 1 2 3

echo "==> integrity smoke (wire corruption storm + torn checkpoint write)"
# Per seed, a bit-flip corruption storm over lossy links plus a torn
# write of the newest checkpoint generation under a controller crash:
# corrupt frames must be rejected (never consumed) with their energy
# charged, the restore must roll back exactly one generation, and the
# whole run must replay bit-for-bit.
cargo run -q --release -p eecs-bench --bin chaos_smoke -- --corruption 1 2 3

echo "==> churn smoke (heterogeneous fleet, mid-mission leave/rejoin, crash)"
# Per seed, a flagship/midrange/lowend fleet over lossy links with a
# scheduled controller crash and a churn plan that removes one camera
# for two rounds: the failover must land on schedule, planning must
# route around the departure (the absent camera never appears in a
# round's plan), the camera must rejoin, and the run must replay
# bit-for-bit.
cargo run -q --release -p eecs-bench --bin chaos_smoke -- --churn 1 2 3

echo "CI OK"
