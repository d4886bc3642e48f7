//! Runs every table/figure harness as ONE sharded sweep in one process and
//! tees the combined report to `EXPERIMENTS-report.txt` in the current
//! directory.
//!
//! All six scenarios (Tables II–IV, Table V, Figs. 3–6) are shards over
//! one set of memoized training artifacts: the detector bank, the
//! vocabulary, the per-feed records and the test-segment evaluations are
//! each built once, not once per figure. `--workers N` sets the pool size,
//! `--quick` shrinks the frame ranges, and a killed run resumes from
//! `SWEEP_run_all.manifest.jsonl` without re-executing completed cells.
//! The merged grid lands in `SWEEP_run_all.json`.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::scenarios::{self, fig3, fig4, fig5, fig6, table2_3_4, table5};
use eecs_bench::sweep::Shard;
use eecs_bench::Scale;
use eecs_core::jsonio::Json;

/// A report section: its name, its shard and its formatter.
type Section = (
    &'static str,
    fn(&Artifacts) -> Shard<'_>,
    fn(&Json) -> Result<String, String>,
);

/// The report's sections, in order. The sweep executes their cells
/// concurrently; the report renders them in this order regardless.
const SECTIONS: [Section; 6] = [
    ("table2_3_4", table2_3_4::shard, table2_3_4::format),
    (
        "table5",
        |a| table5::shard(a, false),
        |d| table5::format(d, false),
    ),
    ("fig3", fig3::shard, fig3::format),
    ("fig4", fig4::shard, fig4::format),
    ("fig5", fig5::shard, fig5::format),
    ("fig6", fig6::shard, fig6::format),
];

fn main() {
    let artifacts = Artifacts::new(Scale::from_args());
    let shards: Vec<_> = SECTIONS
        .iter()
        .map(|(_, shard, _)| shard(&artifacts))
        .collect();
    let report = scenarios::run_bin("run_all", &shards, |doc| {
        let mut report = String::new();
        for (section, _, format) in SECTIONS {
            report.push_str(&format!("\n########## {section} ##########\n"));
            report.push_str(&format(doc).map_err(|e| format!("rendering {section}: {e}"))?);
        }
        Ok(report)
    })
    .expect("run_all sweep");
    std::fs::write("EXPERIMENTS-report.txt", report).expect("writable cwd");
    eprintln!("report written to EXPERIMENTS-report.txt");
}
