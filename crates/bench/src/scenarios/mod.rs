//! Sweep-engine ports of the figure/table harnesses.
//!
//! Each scenario module exposes the same three-piece shape:
//!
//! * `spec()` — the declarative [`crate::sweep::SweepSpec`] grid,
//! * `shard(&Artifacts)` — a [`crate::sweep::Shard`] whose runner computes
//!   one cell from shared, memoized training artifacts (expensive context
//!   is a `CellContext`: built lazily, once, on first cell, and dropped
//!   after the shard's last cell), and
//! * `format(&Json)` — the human-readable report rendered from the merged
//!   sweep document, byte-for-byte in canonical cell order.
//!
//! The binaries in `src/bin/` are thin wrappers: build artifacts, run the
//! shard (with a resumable manifest), write `SWEEP_<name>.json`, print the
//! formatted report.

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table2_3_4;
pub mod table5;

use eecs_core::jsonio::Json;
use std::sync::{Arc, Mutex};

/// A shard's expensive per-cell context (rendered frames, a prepared
/// simulation): built by the first cell that needs it, shared by the
/// others, and dropped once all `cells` cells have used it — so in a
/// multi-shard sweep a finished scenario's frames do not stay alive while
/// the remaining scenarios run. (A resumed sweep runs fewer cells; its
/// contexts then live until the shard is dropped, as any value would.)
pub(crate) struct CellContext<T> {
    /// Cells still to run, and the context once built.
    slot: Mutex<(usize, Option<Arc<T>>)>,
}

impl<T> CellContext<T> {
    /// An unbuilt context for a shard of `cells` cells.
    pub(crate) fn new(cells: usize) -> CellContext<T> {
        CellContext {
            slot: Mutex::new((cells, None)),
        }
    }

    /// Runs one cell's `run` on the context, building it first if no
    /// earlier cell did (other cells wait for the build).
    pub(crate) fn with<R>(&self, build: impl FnOnce() -> T, run: impl FnOnce(&T) -> R) -> R {
        let lock = || self.slot.lock().expect("cell context lock");
        let ctx = Arc::clone(lock().1.get_or_insert_with(|| Arc::new(build())));
        let out = run(&ctx);
        drop(ctx);
        let mut slot = lock();
        slot.0 = slot.0.saturating_sub(1);
        if slot.0 == 0 {
            slot.1 = None;
            release_free_pages();
        }
        out
    }
}

/// Returns the allocator's free pages to the kernel. glibc keeps freed
/// chunks resident in the arena of the thread that allocated them, where a
/// scenario running on another worker cannot reuse them: without this, a
/// paper-scale `run_all` carried about 1 GB of dead frames under Fig. 6's
/// 7 GB chap frame store.
fn release_free_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only hands free pages of glibc's own
        // arenas back to the kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Parses `--workers N` from the process arguments (`0` = auto).
pub fn workers_from_args() -> usize {
    let mut args = std::env::args().skip_while(|a| a != "--workers");
    args.next().map_or(0, |_| {
        let count = args.next().and_then(|n| n.parse().ok());
        count.expect("--workers takes a count")
    })
}

/// One fixed-width table row, right-aligned cells, newline-terminated.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  "));
    }
    format!("{}\n", line.trim_end())
}

/// Runs scenario shards as one sweep named `name`, the way every harness
/// binary does: resumable manifest at `SWEEP_<name>.manifest.jsonl`,
/// merged document written to `SWEEP_<name>.json`, formatted report
/// printed to stdout and returned. The manifest is a crash journal, not a
/// cache — it is deleted once the sweep completes, so a finished binary
/// always recomputes from scratch on its next run while a killed one
/// resumes.
///
/// # Errors
///
/// Returns sweep-engine, formatting, or I/O failures.
pub fn run_bin(
    name: &str,
    shards: &[crate::sweep::Shard<'_>],
    format: impl Fn(&Json) -> Result<String, String>,
) -> Result<String, String> {
    let manifest = std::path::PathBuf::from(format!("SWEEP_{name}.manifest.jsonl"));
    let opts = crate::sweep::SweepOptions {
        workers: workers_from_args(),
        manifest_path: Some(manifest.clone()),
        progress: true,
        ..Default::default()
    };
    let outcome = crate::sweep::run_shards(name, shards, &opts)?;
    if outcome.skipped > 0 {
        eprintln!(
            "resumed from {}: skipped {} completed cell(s)",
            manifest.display(),
            outcome.skipped
        );
    }
    let merged = outcome.merged.ok_or("sweep did not complete")?;
    let out = std::path::PathBuf::from(format!("SWEEP_{name}.json"));
    std::fs::write(&out, &merged).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let report = format(&eecs_core::jsonio::parse(&merged)?)?;
    print!("{report}");
    eprintln!("merged sweep written to {}", out.display());
    let _ = std::fs::remove_file(&manifest);
    Ok(report)
}

/// Extracts one shard's `(cell id, data)` pairs, in canonical job order,
/// from a merged sweep document.
pub fn shard_cells<'a>(doc: &'a Json, shard: &str) -> Result<Vec<(&'a str, &'a Json)>, String> {
    let shards = doc
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("merged sweep document has no \"shards\"")?;
    let section = shards
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(shard))
        .ok_or_else(|| format!("merged sweep document has no shard {shard:?}"))?;
    section
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("shard {shard:?} has no cells"))?
        .iter()
        .map(|c| {
            let id = c
                .get("cell")
                .and_then(Json::as_str)
                .ok_or("cell without an id")?;
            let data = c.get("data").ok_or("cell without data")?;
            Ok((id, data))
        })
        .collect()
}

/// Reads a required numeric field of a cell.
pub(crate) fn cell_num(data: &Json, key: &str) -> Result<f64, String> {
    data.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("cell is missing numeric field {key:?}"))
}
