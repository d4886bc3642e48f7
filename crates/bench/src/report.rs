//! Machine-readable benchmark reports (`BENCH_pipeline.json`).
//!
//! The pipeline bench (`benches/pipeline.rs`) emits a small JSON document
//! at the repository root recording each benchmark's mean time plus
//! derived metrics (serial-vs-parallel speedup of the full assessment
//! round). Future PRs regress against this trajectory; CI smoke-checks
//! that the file exists and is well-formed (`src/bin/check_bench.rs`).
//!
//! The build environment is offline (no serde); the JSON value tree and
//! parser live in [`eecs_core::jsonio`] (shared with the controller
//! checkpoint) and are re-exported here for compatibility — this module
//! adds only the report writer and its schema validation.

use std::fmt::Write as _;

pub use eecs_core::jsonio::{escape_into, parse, Json};

/// One benchmark's result: the label and the mean wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Benchmark label (`group/name` for grouped benches).
    pub name: String,
    /// Mean time per iteration in nanoseconds.
    pub mean_ns: u128,
}

/// Schema tag stamped into every report.
pub const SCHEMA: &str = "eecs-bench-pipeline/1";

/// Renders a pipeline report: the benchmark entries in run order plus
/// named derived metrics (e.g. `round_speedup`).
pub fn render(entries: &[BenchEntry], metrics: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\"name\": \"");
        escape_into(&mut out, &e.name);
        let _ = write!(out, "\", \"mean_ns\": {}}}", e.mean_ns);
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        out.push_str("    \"");
        escape_into(&mut out, name);
        // {:?} keeps a fractional part on round numbers, so the value
        // re-parses as the same f64.
        let _ = write!(out, "\": {value:?}");
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Metric-name prefix of the per-kernel optimized-vs-reference ratios
/// (`kernel_speedup_c4`, `kernel_speedup_hog`, …).
pub const KERNEL_SPEEDUP_PREFIX: &str = "kernel_speedup_";

/// What a well-formed pipeline report contains.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSummary {
    /// Parsed benchmark entries.
    pub entries: Vec<BenchEntry>,
    /// The serial-vs-parallel speedup of the full assessment round.
    pub round_speedup: f64,
    /// The 1-worker vs 4-worker speedup of the benchmark sweep grid.
    ///
    /// Like `round_speedup`, validated as finite and positive rather
    /// than against a numeric floor: on a single-core host (where CI
    /// runs) both collapse to ~1×, while the ≥2× expectation applies on
    /// multi-core hardware.
    pub sweep_speedup: f64,
    /// Per-kernel optimized-vs-reference speedups, in report order, with
    /// the [`KERNEL_SPEEDUP_PREFIX`] stripped (`("c4", 3.4)`, …). Both
    /// sides of each ratio are measured in the *same* run on the same
    /// host, so the ratio — unlike absolute entry times — is comparable
    /// across runs and hosts; `check_bench --baseline` regresses on it.
    /// Empty for reports predating the kernel benches.
    pub kernel_speedups: Vec<(String, f64)>,
    /// Cores visible to the benchmark host, when recorded. Gates how
    /// `check_bench` treats the parallel speedups: ~1× is expected on one
    /// core and a defect on many.
    pub host_parallelism: Option<f64>,
    /// Controller-side bookkeeping cost of one camera departure +
    /// rejoin (quarantine purge, sticky-plan retain, stale
    /// assessment-cache eviction), when recorded. Validated finite and
    /// non-negative — a sub-resolution timer may legally report zero.
    /// Absent in reports predating the elastic-fleet benches.
    pub churn_replan_ns: Option<f64>,
    /// Mission-service throughput ratio (1 worker / 4 workers) over
    /// byte-identical service traces, when recorded. Host-relative like
    /// `sweep_speedup`, validated finite and positive. Absent in
    /// reports predating the serving layer.
    pub serve_speedup: Option<f64>,
    /// Cold over warm parallel round time: how much a second clean run
    /// on one prepared simulation saves by reading memoized detections.
    /// Host-relative, validated finite and positive, gated on no floor.
    /// Absent in reports predating the detection memo.
    pub detect_memo_speedup: Option<f64>,
}

/// Validates a `BENCH_pipeline.json` document: schema tag, a non-empty
/// entry list with positive integer times, and the `round_speedup` and
/// `sweep_speedup` metrics.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_pipeline_report(text: &str) -> Result<PipelineSummary, String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let raw_entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing \"entries\" array")?;
    if raw_entries.is_empty() {
        return Err("\"entries\" is empty".into());
    }
    let mut entries = Vec::with_capacity(raw_entries.len());
    for e in raw_entries {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("entry missing \"name\"")?;
        let mean_ns = e
            .get("mean_ns")
            .ok_or_else(|| format!("entry {name:?} missing \"mean_ns\""))?
            .as_u64()
            .filter(|&ns| ns > 0)
            .ok_or_else(|| format!("entry {name:?} mean_ns must be a positive integer"))?;
        entries.push(BenchEntry {
            name: name.to_owned(),
            mean_ns: u128::from(mean_ns),
        });
    }
    let speedup = |name: &str| -> Result<f64, String> {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing metrics.{name}"))?;
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("{name} must be positive"));
        }
        Ok(value)
    };
    let mut kernel_speedups = Vec::new();
    if let Some(Json::Obj(metrics)) = doc.get("metrics") {
        for (name, value) in metrics {
            let Some(kernel) = name.strip_prefix(KERNEL_SPEEDUP_PREFIX) else {
                continue;
            };
            let value = value
                .as_num()
                .ok_or_else(|| format!("metrics.{name} is not a number"))?;
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{name} must be positive"));
            }
            kernel_speedups.push((kernel.to_owned(), value));
        }
    }
    let host_parallelism = doc
        .get("metrics")
        .and_then(|m| m.get("host_parallelism"))
        .and_then(Json::as_num);
    let churn_replan_ns = doc
        .get("metrics")
        .and_then(|m| m.get("churn_replan_ns"))
        .map(|v| {
            let value = v
                .as_num()
                .ok_or("metrics.churn_replan_ns is not a number")?;
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("churn_replan_ns must be non-negative, got {value}"));
            }
            Ok(value)
        })
        .transpose()?;
    let optional_speedup = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .map(|v| {
                let value = v
                    .as_num()
                    .ok_or_else(|| format!("metrics.{name} is not a number"))?;
                if !(value.is_finite() && value > 0.0) {
                    return Err(format!("{name} must be positive, got {value}"));
                }
                Ok(value)
            })
            .transpose()
    };
    let serve_speedup = optional_speedup("serve_speedup")?;
    let detect_memo_speedup = optional_speedup("detect_memo_speedup")?;
    Ok(PipelineSummary {
        entries,
        round_speedup: speedup("round_speedup")?,
        sweep_speedup: speedup("sweep_speedup")?,
        kernel_speedups,
        host_parallelism,
        churn_replan_ns,
        serve_speedup,
        detect_memo_speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<BenchEntry> {
        vec![
            BenchEntry {
                name: "reid_fuse_4cams_8people".into(),
                mean_ns: 120_000,
            },
            BenchEntry {
                name: "simulation/full_eecs_round_serial".into(),
                mean_ns: 2_000_000_000,
            },
        ]
    }

    fn sample_metrics() -> Vec<(String, f64)> {
        vec![("round_speedup".into(), 2.5), ("sweep_speedup".into(), 3.5)]
    }

    #[test]
    fn render_then_validate_round_trips() {
        let text = render(&sample_entries(), &sample_metrics());
        let summary = validate_pipeline_report(&text).unwrap();
        assert_eq!(summary.entries, sample_entries());
        assert!((summary.round_speedup - 2.5).abs() < 1e-12);
        assert!((summary.sweep_speedup - 3.5).abs() < 1e-12);
        assert!(summary.kernel_speedups.is_empty());
        assert_eq!(summary.host_parallelism, None);
    }

    #[test]
    fn kernel_speedups_and_host_parallelism_parsed() {
        let mut metrics = sample_metrics();
        metrics.push(("kernel_speedup_c4".into(), 3.4));
        metrics.push(("kernel_speedup_hog".into(), 1.8));
        metrics.push(("host_parallelism".into(), 4.0));
        let text = render(&sample_entries(), &metrics);
        let summary = validate_pipeline_report(&text).unwrap();
        assert_eq!(
            summary.kernel_speedups,
            vec![("c4".to_string(), 3.4), ("hog".to_string(), 1.8)]
        );
        assert_eq!(summary.host_parallelism, Some(4.0));
    }

    #[test]
    fn churn_replan_ns_parsed_and_sign_checked() {
        // Absent: the field stays None and validation passes.
        let text = render(&sample_entries(), &sample_metrics());
        assert_eq!(
            validate_pipeline_report(&text).unwrap().churn_replan_ns,
            None
        );
        // Present and non-negative (zero is legal — noise-clamped).
        for value in [0.0, 125_000.0] {
            let mut metrics = sample_metrics();
            metrics.push(("churn_replan_ns".into(), value));
            let text = render(&sample_entries(), &metrics);
            assert_eq!(
                validate_pipeline_report(&text).unwrap().churn_replan_ns,
                Some(value)
            );
        }
        // Negative is rejected.
        let mut metrics = sample_metrics();
        metrics.push(("churn_replan_ns".into(), -1.0));
        let text = render(&sample_entries(), &metrics);
        assert!(validate_pipeline_report(&text)
            .unwrap_err()
            .contains("churn_replan_ns"));
    }

    #[test]
    fn serve_speedup_parsed_and_sign_checked() {
        // Absent: the field stays None and validation passes.
        let text = render(&sample_entries(), &sample_metrics());
        assert_eq!(validate_pipeline_report(&text).unwrap().serve_speedup, None);
        // Present and positive.
        let mut metrics = sample_metrics();
        metrics.push(("serve_speedup".into(), 1.7));
        let text = render(&sample_entries(), &metrics);
        assert_eq!(
            validate_pipeline_report(&text).unwrap().serve_speedup,
            Some(1.7)
        );
        // Zero is rejected: a throughput ratio over two real runs is
        // never zero.
        let mut metrics = sample_metrics();
        metrics.push(("serve_speedup".into(), 0.0));
        let text = render(&sample_entries(), &metrics);
        assert!(validate_pipeline_report(&text)
            .unwrap_err()
            .contains("serve_speedup"));
    }

    #[test]
    fn detect_memo_speedup_parsed_and_sign_checked() {
        let text = render(&sample_entries(), &sample_metrics());
        let summary = validate_pipeline_report(&text).unwrap();
        assert_eq!(summary.detect_memo_speedup, None);
        for (value, ok) in [(40.0, true), (0.0, false), (-2.0, false)] {
            let mut metrics = sample_metrics();
            metrics.push(("detect_memo_speedup".into(), value));
            let got = validate_pipeline_report(&render(&sample_entries(), &metrics));
            match got {
                Ok(summary) => assert!(ok && summary.detect_memo_speedup == Some(value)),
                Err(e) => assert!(!ok && e.contains("detect_memo_speedup"), "{e}"),
            }
        }
    }

    #[test]
    fn non_positive_kernel_speedup_rejected() {
        let mut metrics = sample_metrics();
        metrics.push(("kernel_speedup_acf".into(), 0.0));
        let text = render(&sample_entries(), &metrics);
        assert!(validate_pipeline_report(&text)
            .unwrap_err()
            .contains("kernel_speedup_acf"));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\"y\n", null, true], "b": {}}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\"y\n"));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4], Json::Bool(true));
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn validation_rejects_structural_problems() {
        assert!(validate_pipeline_report("{}").is_err());
        let bad_schema = render(&sample_entries(), &sample_metrics()).replace(SCHEMA, "other/9");
        assert!(validate_pipeline_report(&bad_schema).is_err());
        let no_entries = render(&[], &sample_metrics());
        assert!(validate_pipeline_report(&no_entries).is_err());
        let no_speedup = render(&sample_entries(), &[]);
        assert!(validate_pipeline_report(&no_speedup).is_err());
        // Each speedup metric is individually required.
        let only_round = render(&sample_entries(), &[("round_speedup".into(), 2.0)]);
        assert!(validate_pipeline_report(&only_round)
            .unwrap_err()
            .contains("sweep_speedup"));
        let only_sweep = render(&sample_entries(), &[("sweep_speedup".into(), 2.0)]);
        assert!(validate_pipeline_report(&only_sweep)
            .unwrap_err()
            .contains("round_speedup"));
    }

    #[test]
    fn mean_ns_must_be_an_exact_positive_integer() {
        let text = render(&sample_entries(), &sample_metrics());
        let with =
            |mean: &str| text.replacen("\"mean_ns\": 120000", &format!("\"mean_ns\": {mean}"), 1);
        assert!(validate_pipeline_report(&with("120000")).is_ok());
        for bad in ["0", "0.5", "1.5", "1e300", "-1", "18446744073709551616"] {
            let err = validate_pipeline_report(&with(bad)).unwrap_err();
            assert!(err.contains("mean_ns"), "{bad}: {err}");
        }
    }

    #[test]
    fn escaped_names_survive_the_round_trip() {
        let entries = vec![BenchEntry {
            name: "weird \"quoted\"\tname\\path".into(),
            mean_ns: 7,
        }];
        let text = render(&entries, &sample_metrics());
        let summary = validate_pipeline_report(&text).unwrap();
        assert_eq!(summary.entries, entries);
    }

    /// A report with `with` in place of its `which`-th number value.
    fn swap_number(text: &str, which: usize, with: &str) -> String {
        let bytes = text.as_bytes();
        let is_num = |b: u8| b == b'-' || b == b'.' || b == b'e' || b.is_ascii_digit();
        let starts: Vec<usize> = (2..bytes.len())
            .filter(|&i| bytes[i - 2] == b':' && bytes[i - 1] == b' ' && is_num(bytes[i]))
            .collect();
        let start = starts[which % starts.len()];
        let end = (start..bytes.len())
            .find(|&i| !is_num(bytes[i]))
            .unwrap_or(bytes.len());
        format!("{}{with}{}", &text[..start], &text[end..])
    }

    /// What every accepted report guarantees its reader.
    fn assert_sound(summary: &PipelineSummary) {
        assert!(summary.entries.iter().all(|e| e.mean_ns > 0));
        for v in [summary.round_speedup, summary.sweep_speedup]
            .into_iter()
            .chain(summary.kernel_speedups.iter().map(|&(_, v)| v))
            .chain(summary.serve_speedup)
            .chain(summary.detect_memo_speedup)
        {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
        assert!(summary
            .churn_replan_ns
            .is_none_or(|v| v.is_finite() && v >= 0.0));
    }

    #[test]
    fn validation_is_total_on_damaged_input() {
        let battery = || {
            let mut metrics = sample_metrics();
            metrics.push(("kernel_speedup_c4".into(), 3.4));
            metrics.push(("churn_replan_ns".into(), 0.0));
            metrics.push(("serve_speedup".into(), 1.7));
            metrics.push(("detect_memo_speedup".into(), 40.0));
            let text = render(&sample_entries(), &metrics);
            let check = |doc: &str| {
                if let Ok(summary) = validate_pipeline_report(doc) {
                    assert_sound(&summary);
                }
            };
            for bit in 0..text.len() * 8 {
                let mut bytes = text.clone().into_bytes();
                bytes[bit / 8] ^= 1 << (bit % 8);
                check(&String::from_utf8_lossy(&bytes));
            }
            for end in 0..text.trim_end().len() {
                assert!(
                    validate_pipeline_report(&text[..end]).is_err(),
                    "cut at {end}"
                );
            }
            let bomb = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
            let long = format!("\"{}\"", "x".repeat(1 << 20));
            let huge = "9".repeat(400);
            let withs = ["1e300", "-1", "1.5", "18446744073709551616", "1e-300", "-0"];
            let numbers = text.matches(": ").count();
            for with in withs.into_iter().chain([&*bomb, &*long, &*huge]) {
                for which in 0..numbers {
                    check(&swap_number(&text, which, with));
                }
            }
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(battery)
            .expect("spawn")
            .join()
            .expect("the validator panicked");
    }
}
