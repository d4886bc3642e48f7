//! CI gate for the benchmark trajectory.
//!
//! Always: verifies that `BENCH_pipeline.json` exists at the repository
//! root and is a well-formed pipeline report, then prints its contents.
//!
//! `--baseline <path>` additionally regresses the current report against a
//! previously recorded one. The comparison runs on the per-kernel
//! optimized-vs-reference *ratios* (`kernel_speedup_*`), never absolute
//! entry times: both sides of a ratio come from one run on one host, so
//! the ratio survives host and iteration-count changes that make raw ns
//! incomparable (CI smokes with `EECS_BENCH_ITERS=1` against a committed
//! multi-iteration baseline). A kernel fails when its speedup drops below
//! `baseline × (1 − tolerance)` (`--tolerance`, default 0.25).
//!
//! The parallel speedups are gated by recorded host width: on a 1-core
//! host `round_speedup`/`sweep_speedup` legitimately collapse to ~1× and
//! only warn; a multi-core host that shows no parallel speedup fails.
//!
//! Exits non-zero on any problem so `ci.sh` fails loudly.

use eecs_bench::report::{validate_pipeline_report, PipelineSummary};
use std::process::ExitCode;

/// Repo-root path of the machine-readable report.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

/// Default allowed relative drop of a kernel speedup vs the baseline.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Sweep speedup a multi-core host must reach (4 workers over ≥2 cores).
const MULTICORE_SWEEP_FLOOR: f64 = 1.2;
/// Round speedup a multi-core host must reach (parallel detectors plus
/// the shared feature cache must at least break even).
const MULTICORE_ROUND_FLOOR: f64 = 1.0;

struct Args {
    baseline: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: None,
        tolerance: DEFAULT_TOLERANCE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?);
            }
            "--tolerance" => {
                let raw = it.next().ok_or("--tolerance needs a value")?;
                let t: f64 = raw
                    .parse()
                    .map_err(|_| format!("--tolerance {raw:?} is not a number"))?;
                if !(0.0..1.0).contains(&t) {
                    return Err(format!("--tolerance {t} outside [0, 1)"));
                }
                args.tolerance = t;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<PipelineSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_pipeline_report(&text).map_err(|e| format!("{path} is invalid: {e}"))
}

/// Parallel-speedup gate: warn-only on a single core, hard floors beyond.
fn check_parallel_speedups(summary: &PipelineSummary) -> Result<(), String> {
    let host = summary.host_parallelism.unwrap_or(1.0);
    if host < 2.0 {
        if summary.sweep_speedup < MULTICORE_SWEEP_FLOOR {
            println!(
                "  note: sweep speedup {:.2}x on a {host:.0}-core host (expected; \
                 would fail on multi-core)",
                summary.sweep_speedup
            );
        }
        return Ok(());
    }
    if summary.sweep_speedup < MULTICORE_SWEEP_FLOOR {
        return Err(format!(
            "sweep_speedup {:.2}x on a {host:.0}-core host (floor {MULTICORE_SWEEP_FLOOR}x): \
             the sweep engine is not parallelizing",
            summary.sweep_speedup
        ));
    }
    if summary.round_speedup < MULTICORE_ROUND_FLOOR {
        return Err(format!(
            "round_speedup {:.2}x on a {host:.0}-core host (floor {MULTICORE_ROUND_FLOOR}x): \
             the parallel round is slower than serial",
            summary.round_speedup
        ));
    }
    Ok(())
}

/// Kernel-regression gate against a baseline report.
fn check_against_baseline(
    summary: &PipelineSummary,
    baseline: &PipelineSummary,
    tolerance: f64,
) -> Result<(), String> {
    if summary.kernel_speedups.is_empty() {
        return Err("current report has no kernel_speedup_* metrics".into());
    }
    for (kernel, base) in &baseline.kernel_speedups {
        let Some((_, current)) = summary.kernel_speedups.iter().find(|(k, _)| k == kernel) else {
            return Err(format!(
                "kernel_speedup_{kernel} present in baseline but missing from current report"
            ));
        };
        let floor = base * (1.0 - tolerance);
        if *current < floor {
            return Err(format!(
                "kernel_speedup_{kernel} regressed: {current:.2}x vs baseline {base:.2}x \
                 (floor {floor:.2}x at tolerance {tolerance})"
            ));
        }
        println!(
            "  kernel {kernel:<9} {current:>6.2}x (baseline {base:.2}x, floor {floor:.2}x) ok"
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let summary = load(REPORT_PATH).map_err(|e| {
        format!("{e}\nrun `cargo bench -p eecs-bench --bench pipeline` to generate it")
    })?;
    println!("BENCH_pipeline.json: {} entries", summary.entries.len());
    for e in &summary.entries {
        println!("  {:<45} {:>12} ns", e.name, e.mean_ns);
    }
    println!(
        "  round speedup (serial/parallel): {:.2}x",
        summary.round_speedup
    );
    println!(
        "  sweep speedup (1 worker / 4 workers): {:.2}x",
        summary.sweep_speedup
    );
    for (kernel, speedup) in &summary.kernel_speedups {
        println!("  kernel speedup {kernel}: {speedup:.2}x");
    }
    if let Some(ns) = summary.churn_replan_ns {
        println!("  churn replan bookkeeping: {ns:.0} ns");
    }
    if let Some(x) = summary.serve_speedup {
        println!("  serve speedup (1 worker / 4 workers): {x:.2}x");
    }
    check_parallel_speedups(&summary)?;
    if let Some(path) = &args.baseline {
        let baseline = load(path)?;
        check_against_baseline(&summary, &baseline, args.tolerance)?;
        println!("baseline check ok ({path}, tolerance {})", args.tolerance);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("check_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
