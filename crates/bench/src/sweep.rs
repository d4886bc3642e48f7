//! Sharded scenario-sweep engine with resumable manifests.
//!
//! The paper's entire evaluation (Tables II–V, Figs. 3–6) is a grid of
//! *independent* cells — (dataset profile × strategy × budget × seed) —
//! yet the original harness binaries executed them one at a time on one
//! core. This module turns such a grid into a declarative [`SweepSpec`]
//! (axes of labels), expands it into a job list, executes the jobs across
//! a work-stealing worker pool ([`eecs_core::par::par_map_streamed`]),
//! and streams every finished cell as a bit-stable [`eecs_core::jsonio`]
//! record into an append-only manifest — an [`eecs_core::journal`] file.
//!
//! Determinism contract (enforced by `tests/sweep_determinism.rs`,
//! `tests/sweep_resume.rs` and the golden `sweep_tiny.json` snapshot):
//!
//! * every cell runner is a pure function of its job coordinates, so
//! * the final merged `SWEEP_<name>.json` document is **byte-identical**
//!   regardless of worker count, job execution order, or any kill/resume
//!   history — cells are merged in canonical job order, and a resumed
//!   cell re-serializes to the same bytes it was recorded with
//!   (encode → decode → encode is a fixed point in `jsonio`).
//!
//! A killed sweep resumes by loading the manifest and skipping complete
//! cells; per-cell `sweep.runs.<cell>` telemetry counters prove that no
//! completed cell ever re-executes.

use eecs_core::journal::Journal;
use eecs_core::jsonio::Json;
use eecs_core::par::par_map_streamed;
use eecs_core::telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Schema tag of the merged sweep document.
pub const SWEEP_SCHEMA: &str = "eecs-sweep/1";

/// Schema tag of the manifest header line. `/2` added the journal's
/// per-record CRC-32 member, so interior bit-rot is pinpointed to its
/// line as a typed [`eecs_core::journal::JournalError::ChecksumMismatch`]
/// instead of being half-read.
pub const MANIFEST_SCHEMA: &str = "eecs-sweep-manifest/2";

/// One sweep axis: a name and its ordered value labels.
///
/// Labels are strings on purpose — the runner maps them back to typed
/// values (budgets, seeds, fault plans), while the engine, the manifest
/// and the merged document only ever see stable text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    /// Axis name (e.g. `budget`).
    pub name: String,
    /// Ordered value labels (e.g. `["5a", "5b"]`).
    pub values: Vec<String>,
}

/// A declarative sweep: a name plus axes whose cartesian product is the
/// job list (last axis fastest, like nested `for` loops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Sweep (or shard) name; becomes the cell-id prefix.
    pub name: String,
    /// The axes, outermost first.
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// An empty spec with the given name.
    pub fn new(name: impl Into<String>) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            axes: Vec::new(),
        }
    }

    /// Appends one axis (builder style).
    pub fn axis<I, S>(mut self, name: impl Into<String>, values: I) -> SweepSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.axes.push(SweepAxis {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Structural validation: a non-empty name, at least one axis, no
    /// empty axis, and no duplicate axis names or duplicate values within
    /// an axis (duplicates would collide in the manifest).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("sweep spec has an empty name".into());
        }
        if self.axes.is_empty() {
            return Err(format!("sweep {:?} has no axes", self.name));
        }
        let mut axis_names = std::collections::BTreeSet::new();
        for axis in &self.axes {
            if axis.name.is_empty() {
                return Err(format!("sweep {:?} has an unnamed axis", self.name));
            }
            if !axis_names.insert(&axis.name) {
                return Err(format!(
                    "sweep {:?}: duplicate axis {:?}",
                    self.name, axis.name
                ));
            }
            if axis.values.is_empty() {
                return Err(format!(
                    "sweep {:?}: axis {:?} is empty",
                    self.name, axis.name
                ));
            }
            let mut seen = std::collections::BTreeSet::new();
            for v in &axis.values {
                if !seen.insert(v) {
                    return Err(format!(
                        "sweep {:?}: axis {:?} repeats value {v:?}",
                        self.name, axis.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of cells (the product of the axis sizes).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expands the cartesian product into jobs with *local* indices
    /// `0..cell_count()`, last axis fastest.
    pub fn jobs(&self) -> Vec<SweepJob> {
        let total = self.cell_count();
        let mut jobs = Vec::with_capacity(total);
        for index in 0..total {
            let mut coords = Vec::with_capacity(self.axes.len());
            let mut rem = index;
            for axis in self.axes.iter().rev() {
                let k = rem % axis.values.len();
                rem /= axis.values.len();
                coords.push((axis.name.clone(), axis.values[k].clone()));
            }
            coords.reverse();
            jobs.push(SweepJob {
                index,
                shard: self.name.clone(),
                coords,
            });
        }
        jobs
    }

    /// The spec as a JSON value (part of the manifest identity and the
    /// merged document).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "axes".into(),
                Json::Arr(
                    self.axes
                        .iter()
                        .map(|a| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(a.name.clone())),
                                (
                                    "values".into(),
                                    Json::Arr(a.values.iter().cloned().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One cell of a sweep: its global index and its axis coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Global index in the (possibly multi-shard) job list.
    pub index: usize,
    /// Name of the owning shard's spec.
    pub shard: String,
    /// `(axis, value)` pairs, outermost axis first.
    pub coords: Vec<(String, String)>,
}

impl SweepJob {
    /// The value label of one axis.
    pub fn value(&self, axis: &str) -> Option<&str> {
        self.coords
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
    }

    /// The stable cell identifier: `shard:axis=value/axis=value/…`.
    pub fn cell_id(&self) -> String {
        let coords: Vec<String> = self
            .coords
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect();
        format!("{}:{}", self.shard, coords.join("/"))
    }
}

/// One finished cell: where it sits in the job list and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Global job index.
    pub index: usize,
    /// Cell identifier ([`SweepJob::cell_id`]).
    pub cell: String,
    /// The runner's output.
    pub data: Json,
}

impl CellRecord {
    /// The record as a JSON value (one manifest line).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("index".into(), Json::Num(self.index as f64)),
            ("cell".into(), Json::Str(self.cell.clone())),
            ("data".into(), self.data.clone()),
        ])
    }

    /// Parses a record from a manifest-line JSON value.
    ///
    /// # Errors
    ///
    /// Returns an error when a field is missing or malformed.
    pub fn from_json(v: &Json) -> Result<CellRecord, String> {
        let index = v
            .get("index")
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("cell record missing integral \"index\"")?;
        let cell = v
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("cell record missing \"cell\"")?
            .to_owned();
        let data = v.get("data").ok_or("cell record missing \"data\"")?.clone();
        Ok(CellRecord { index, cell, data })
    }
}

/// Merges two partial cell sets: the union, deduplicated by index (first
/// occurrence wins), sorted by index. Commutative on disjoint or
/// consistent inputs and associative — the properties
/// `tests/properties.rs` pins down.
pub fn combine(a: &[CellRecord], b: &[CellRecord]) -> Vec<CellRecord> {
    let mut by_index: BTreeMap<usize, &CellRecord> = BTreeMap::new();
    for rec in a.iter().chain(b) {
        by_index.entry(rec.index).or_insert(rec);
    }
    by_index.into_values().cloned().collect()
}

/// The manifest identity header: binds a manifest file to one sweep
/// (name + every shard's axes), so a stale or foreign manifest can never
/// silently poison a resume.
pub fn manifest_identity(name: &str, specs: &[&SweepSpec]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(MANIFEST_SCHEMA.into())),
        ("sweep".into(), Json::Str(name.into())),
        (
            "shards".into(),
            Json::Arr(specs.iter().map(|s| s.to_json()).collect()),
        ),
    ])
}

/// Builds the merged sweep document from a complete cell set.
///
/// Cells are emitted in canonical job order inside their shard sections,
/// so the bytes depend only on the spec and the cell data — never on
/// worker count, execution order, or resume history.
///
/// # Errors
///
/// Returns an error when a cell is missing, an index is out of range, a
/// recorded cell id contradicts the spec, or a cell holds a non-finite
/// number.
pub fn merge_cells(
    name: &str,
    specs: &[&SweepSpec],
    cells: &[CellRecord],
) -> Result<String, String> {
    let jobs = global_jobs(specs);
    let by_index: BTreeMap<usize, &CellRecord> = {
        let mut m = BTreeMap::new();
        for rec in cells {
            m.entry(rec.index).or_insert(rec);
        }
        m
    };
    let mut shards = Vec::with_capacity(specs.len());
    let mut cursor = 0usize;
    for spec in specs {
        let count = spec.cell_count();
        let mut shard_cells = Vec::with_capacity(count);
        for job in &jobs[cursor..cursor + count] {
            let rec = by_index.get(&job.index).ok_or_else(|| {
                format!(
                    "sweep {name}: cell {} is missing from the merge",
                    job.cell_id()
                )
            })?;
            if rec.cell != job.cell_id() {
                return Err(format!(
                    "sweep {name}: index {} recorded as {:?}, expected {:?}",
                    job.index,
                    rec.cell,
                    job.cell_id()
                ));
            }
            shard_cells.push(Json::Obj(vec![
                ("cell".into(), Json::Str(rec.cell.clone())),
                ("data".into(), rec.data.clone()),
            ]));
        }
        cursor += count;
        let mut members = match spec.to_json() {
            Json::Obj(m) => m,
            _ => unreachable!("spec serializes to an object"),
        };
        members.push(("cells".into(), Json::Arr(shard_cells)));
        shards.push(Json::Obj(members));
    }
    if by_index.len() > jobs.len() {
        return Err(format!(
            "sweep {name}: {} cells for {} jobs",
            by_index.len(),
            jobs.len()
        ));
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(SWEEP_SCHEMA.into())),
        ("sweep".into(), Json::Str(name.into())),
        ("shards".into(), Json::Arr(shards)),
    ])
    .write()
}

/// How the pending job list is ordered before the pool claims from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOrder {
    /// Canonical spec order.
    InOrder,
    /// A seeded Fisher–Yates shuffle — the determinism tests' proof that
    /// execution order cannot reach the merged bytes.
    Shuffled(u64),
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads for the job pool (`0` = auto, `1` = serial).
    pub workers: usize,
    /// Manifest file for streaming completion records; `None` disables
    /// both streaming and resume.
    pub manifest_path: Option<PathBuf>,
    /// Execution order of the pending jobs.
    pub order: JobOrder,
    /// Abort (cleanly) after this many *newly executed* cells — the
    /// kill half of the kill/resume tests and the CI smoke step. A
    /// budget that covers every pending cell is no abort: the sweep
    /// completes and merges.
    pub stop_after: Option<usize>,
    /// Telemetry handle: per-cell `sweep.runs.<cell>` counters plus
    /// aggregate executed/skipped counters and timing gauges.
    pub telemetry: Telemetry,
    /// Per-cell progress lines on stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            manifest_path: None,
            order: JobOrder::InOrder,
            stop_after: None,
            telemetry: Telemetry::null(),
            progress: false,
        }
    }
}

/// What a sweep run produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The merged document — `Some` only when every cell is complete
    /// (i.e. the run was not aborted by `stop_after`).
    pub merged: Option<String>,
    /// Cells newly executed by this run.
    pub executed: usize,
    /// Cells skipped because the manifest already held them.
    pub skipped: usize,
    /// Total cells in the job list.
    pub total: usize,
}

/// A boxed cell runner: maps a job to its cell data.
pub type CellRunner<'a> = Box<dyn Fn(&SweepJob) -> Result<Json, String> + Sync + 'a>;

/// One shard: a spec plus the runner mapping each job to its cell data.
pub struct Shard<'a> {
    /// The declarative grid.
    pub spec: SweepSpec,
    /// Pure cell runner; must depend only on the job's coordinates.
    pub run: CellRunner<'a>,
}

impl<'a> Shard<'a> {
    /// Builds a shard from a spec and a runner closure.
    pub fn new(
        spec: SweepSpec,
        run: impl Fn(&SweepJob) -> Result<Json, String> + Sync + 'a,
    ) -> Shard<'a> {
        Shard {
            spec,
            run: Box::new(run),
        }
    }
}

/// Runs a single-shard sweep. See [`run_shards`].
///
/// # Errors
///
/// Same contract as [`run_shards`].
pub fn run_sweep(shard: &Shard<'_>, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let name = shard.spec.name.clone();
    run_shards(&name, std::slice::from_ref(shard), opts)
}

/// Runs a sharded sweep: expands every shard's spec into one global job
/// list, skips manifest-complete cells, executes the rest on a
/// work-stealing pool (one live cell per worker — memory stays bounded by
/// the pool size), streams each completion into the manifest, and merges.
///
/// # Errors
///
/// Returns the first cell failure, manifest corruption, or I/O error.
/// Completed cells always remain in the manifest, so a failed or killed
/// sweep resumes where it stopped.
pub fn run_shards(
    name: &str,
    shards: &[Shard<'_>],
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    if shards.is_empty() {
        return Err(format!("sweep {name}: no shards"));
    }
    let mut seen = std::collections::BTreeSet::new();
    for shard in shards {
        shard.spec.validate()?;
        if !seen.insert(&shard.spec.name) {
            return Err(format!(
                "sweep {name}: duplicate shard {:?}",
                shard.spec.name
            ));
        }
    }
    let specs: Vec<&SweepSpec> = shards.iter().map(|s| &s.spec).collect();
    let jobs = global_jobs(&specs);
    let total = jobs.len();
    let identity = manifest_identity(name, &specs);

    // Resume: cells the manifest already holds are never re-executed.
    let mut completed: BTreeMap<usize, CellRecord> = BTreeMap::new();
    let mut manifest = None;
    if let Some(path) = &opts.manifest_path {
        let (journal, records) = Journal::open(path, &identity, |v| {
            let rec = CellRecord::from_json(v)?;
            match jobs.get(rec.index) {
                Some(job) if rec.cell == job.cell_id() => Ok(rec),
                Some(job) => Err(format!(
                    "cell {:?} does not match job {:?} at index {}",
                    rec.cell,
                    job.cell_id(),
                    rec.index
                )),
                None => Err(format!(
                    "cell index {} out of range (total {total})",
                    rec.index
                )),
            }
        })
        .map_err(|e| e.to_string())?;
        for rec in records {
            completed.entry(rec.index).or_insert(rec);
        }
        manifest = Some(journal);
    }
    let skipped = completed.len();
    let tel = &opts.telemetry;
    tel.gauge_set("sweep.cells_total", total as f64);
    tel.counter_add("sweep.skipped", skipped as u64);

    // Which shard owns a global index (for runner dispatch).
    let mut owner = Vec::with_capacity(total);
    for (s, spec) in specs.iter().enumerate() {
        owner.extend(std::iter::repeat_n(s, spec.cell_count()));
    }

    let mut pending: Vec<&SweepJob> = jobs
        .iter()
        .filter(|j| !completed.contains_key(&j.index))
        .collect();
    if let JobOrder::Shuffled(seed) = opts.order {
        shuffle(&mut pending, seed);
    }

    let mut executed = 0usize;
    let mut aborted = false;
    let mut failure: Option<String> = None;
    let budget = opts.stop_after.unwrap_or(usize::MAX);
    par_map_streamed(
        pending.len(),
        opts.workers,
        |k| {
            let job = pending[k];
            ((shards[owner[job.index]].run)(job)).map(|data| CellRecord {
                index: job.index,
                cell: job.cell_id(),
                data,
            })
        },
        |_, result| {
            let rec = match result {
                Ok(rec) => rec,
                Err(e) => {
                    failure = Some(e);
                    return false;
                }
            };
            if let Some(journal) = manifest.as_mut() {
                if let Err(e) = journal.append(&rec.to_json()) {
                    failure = Some(e.to_string());
                    return false;
                }
            }
            executed += 1;
            tel.counter_add("sweep.executed", 1);
            tel.counter_add(&format!("sweep.runs.{}", rec.cell), 1);
            if opts.progress {
                eprintln!("[sweep {name}] {}/{total} {}", skipped + executed, rec.cell);
            }
            completed.insert(rec.index, rec);
            if executed >= budget && executed < pending.len() {
                aborted = true;
                return false;
            }
            true
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }

    let merged = if aborted {
        None
    } else {
        let cells: Vec<CellRecord> = completed.into_values().collect();
        Some(merge_cells(name, &specs, &cells)?)
    };
    Ok(SweepOutcome {
        merged,
        executed,
        skipped,
        total,
    })
}

/// Concatenates every spec's jobs into one list with global indices.
fn global_jobs(specs: &[&SweepSpec]) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for spec in specs {
        for mut job in spec.jobs() {
            job.index = jobs.len();
            jobs.push(job);
        }
    }
    jobs
}

/// Seeded Fisher–Yates over the pending jobs (SplitMix64 stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        eecs_net::fault::mix64(state)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_core::jsonio;

    fn spec() -> SweepSpec {
        SweepSpec::new("demo")
            .axis("mode", ["a", "b"])
            .axis("seed", ["1", "2", "3"])
    }

    fn runner(job: &SweepJob) -> Result<Json, String> {
        let mode = job.value("mode").unwrap().to_owned();
        let seed: f64 = job.value("seed").unwrap().parse().unwrap();
        Ok(Json::Obj(vec![
            ("mode".into(), Json::Str(mode)),
            ("seed_sq".into(), Json::Num(seed * seed)),
        ]))
    }

    #[test]
    fn expansion_is_row_major_with_stable_ids() {
        let jobs = spec().jobs();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].cell_id(), "demo:mode=a/seed=1");
        assert_eq!(jobs[1].cell_id(), "demo:mode=a/seed=2");
        assert_eq!(jobs[3].cell_id(), "demo:mode=b/seed=1");
        assert_eq!(jobs[5].cell_id(), "demo:mode=b/seed=3");
        assert_eq!(jobs[4].value("seed"), Some("2"));
        assert_eq!(jobs[4].value("nope"), None);
    }

    #[test]
    fn validation_rejects_structural_problems() {
        assert!(SweepSpec::new("x").validate().is_err()); // no axes
        assert!(SweepSpec::new("").axis("a", ["1"]).validate().is_err());
        assert!(SweepSpec::new("x")
            .axis("a", Vec::<String>::new())
            .validate()
            .is_err());
        assert!(SweepSpec::new("x")
            .axis("a", ["1", "1"])
            .validate()
            .is_err());
        assert!(SweepSpec::new("x")
            .axis("a", ["1"])
            .axis("a", ["2"])
            .validate()
            .is_err());
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn merged_bytes_identical_across_workers_and_order() {
        let shard = Shard::new(spec(), runner);
        let base = run_sweep(&shard, &SweepOptions::default())
            .unwrap()
            .merged
            .unwrap();
        for (workers, order) in [
            (1, JobOrder::InOrder),
            (2, JobOrder::InOrder),
            (8, JobOrder::Shuffled(99)),
        ] {
            let opts = SweepOptions {
                workers,
                order,
                ..SweepOptions::default()
            };
            let out = run_sweep(&shard, &opts).unwrap();
            assert_eq!(out.merged.as_deref(), Some(base.as_str()));
            assert_eq!((out.executed, out.skipped, out.total), (6, 0, 6));
        }
        // The merged document is valid JSON and a re-encode fixed point.
        let v = jsonio::parse(&base).unwrap();
        assert_eq!(v.write().unwrap(), base);
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(SWEEP_SCHEMA));
    }

    #[test]
    fn cell_failure_propagates() {
        let shard = Shard::new(spec(), |job| {
            if job.value("seed") == Some("2") {
                Err("boom".into())
            } else {
                runner(job)
            }
        });
        let err = run_sweep(&shard, &SweepOptions::default()).unwrap_err();
        assert!(err.contains("boom"));
    }

    #[test]
    fn merge_rejects_missing_and_mismatched_cells() {
        let s = spec();
        let specs = [&s];
        let jobs = global_jobs(&specs);
        let mut cells: Vec<CellRecord> = jobs
            .iter()
            .map(|j| CellRecord {
                index: j.index,
                cell: j.cell_id(),
                data: Json::Num(j.index as f64),
            })
            .collect();
        assert!(merge_cells("demo", &specs, &cells).is_ok());
        let gone = cells.pop().unwrap();
        assert!(merge_cells("demo", &specs, &cells)
            .unwrap_err()
            .contains("missing"));
        cells.push(CellRecord {
            cell: "demo:wrong=id".into(),
            ..gone
        });
        assert!(merge_cells("demo", &specs, &cells)
            .unwrap_err()
            .contains("expected"));
    }

    #[test]
    fn combine_dedupes_and_sorts() {
        let rec = |i: usize| CellRecord {
            index: i,
            cell: format!("c{i}"),
            data: Json::Num(i as f64),
        };
        let merged = combine(&[rec(3), rec(1)], &[rec(1), rec(0)]);
        let indices: Vec<usize> = merged.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 3]);
    }

    #[test]
    fn shuffle_is_deterministic_and_a_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b: Vec<usize> = (0..20).collect();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        assert_ne!(a, (0..20).collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
