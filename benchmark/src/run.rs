//! One benchmark run: set-up, then either the timed jobs (tracing off) or
//! the traced replay, then the correctness gate and the result.

use crate::metrics::{per_layer, LAYER_TIMES};
use crate::reference;
use crate::replay::{replay_job, replay_setup, Counts, Extras};
use crate::result::{Manifest, Metric, ResultFile};
use crate::stats::{median, tail};
use crate::trace::{busy_by_name, Tracer};
use crate::workloads::{
    execute, invariant_violations, jobs, setup, Executed, Job, Prepared, Workload,
};
use eecs_core::jsonio::Json;
use eecs_net::transport::TransportStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Miniature scenes and exactly [`MIN_ITERATIONS`] iterations.
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut out = None;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value()?)?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(format!("--seconds {seconds} is outside [0, 3600]"));
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--out" => out = Some(PathBuf::from(value()?)),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            out,
        })
    }

    fn default_out(&self) -> PathBuf {
        PathBuf::from(format!(
            "benchmark/results/{}-seed{}-trace{}.json",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ))
    }
}

pub fn main(args: &[String]) -> i32 {
    let opts = match Options::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let result = run(&opts);
    for line in &result.failures {
        eprintln!("FAILED: {line}");
    }
    for (k, digest) in result.digests.iter().enumerate() {
        println!("digest job {k}: {digest}");
    }
    for (series, values) in &result.samples {
        println!(
            "{series}: {} samples, median {}",
            values.len(),
            median(values)
        );
    }
    if let Some((percentile, seconds)) = result.manifest.tail {
        println!(
            "tail: p{percentile:.0} of {} samples = {seconds} s",
            result.manifest.n
        );
    }
    for m in &result.metrics {
        println!("{:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    let out = opts.out.clone().unwrap_or_else(|| opts.default_out());
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                &out,
                result.to_json().write().expect("finite metrics") + "\n",
            )
        });
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", out.display());
        return 1;
    }
    println!("{}", result.summary_json().write().expect("finite metrics"));
    if result.correct {
        0
    } else {
        1
    }
}

/// Runs `opts` and assembles its result.
pub fn run(opts: &Options) -> ResultFile {
    let start_unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let wall = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let mut book = Book::default();
    let outcome = if opts.trace {
        traced(opts, workers, &mut book)
    } else {
        timed(opts, workers, &mut book)
    };
    let Done {
        metrics,
        samples,
        spans,
    } = outcome.unwrap_or_else(|e| {
        book.failures.push(e);
        Done::default()
    });
    let expected: Vec<(String, &str)> = if opts.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        crate::metrics::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    // A failed run still reports every metric; a value it could not
    // measure reads 0 and the run reads incorrect.
    let metrics: Vec<Metric> = expected
        .into_iter()
        .map(|(name, unit)| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            if !value.is_finite() {
                book.failures.push(format!("{name} was not measured"));
            }
            Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit: unit.to_string(),
            }
        })
        .collect();
    let series = |key: &str| {
        samples
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&[][..], |(_, v): &(String, Vec<f64>)| v)
    };
    let count = |key: &str| series(key).len();
    let main_series = if opts.trace { "replay_s" } else { "run_s" };
    let manifest = Manifest {
        commit: git_head(),
        workload: opts.workload.name().into(),
        seed: opts.seed,
        trace: opts.trace,
        smoke: opts.smoke,
        seconds: opts.seconds,
        n: count(main_series),
        serial_n: count("serial_s"),
        tail: tail(series(main_series)),
        jobs: book.digests.len(),
        setup_repeats: count("setup_s"),
        workers,
        nproc,
        start_unix_s,
        wall_s: wall.elapsed().as_secs_f64(),
    };
    let spans = Json::Arr(
        spans
            .iter()
            .map(|s| {
                let index = |i: Option<usize>| i.map_or(Json::Null, |i| Json::Num(i as f64));
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.start_s),
                    Json::Num(s.end_s),
                    index(s.parent),
                    index(s.mission),
                ])
            })
            .collect(),
    );
    // A run that went wrong outside any job still counts one failure.
    let failed = book.failed.max(usize::from(!book.failures.is_empty()));
    ResultFile {
        manifest,
        correct: book.failures.is_empty(),
        attempted: book.attempted.max(failed).max(1),
        failed,
        failures: book.failures,
        digests: book
            .digests
            .iter()
            .map(|d| d.map_or("-".into(), |d| format!("{d:08x}")))
            .collect(),
        metrics,
        samples,
        spans,
    }
}

#[derive(Default)]
struct Done {
    metrics: Vec<(String, f64)>,
    samples: Vec<(String, Vec<f64>)>,
    spans: Vec<crate::trace::Span>,
}

/// The correctness ledger: every execution's digest must equal the first
/// one of its job, every job's first execution must pass the invariant
/// checkers, and no request may be refused. Missions count as attempted,
/// and as failed when their execution broke any of these.
#[derive(Default)]
struct Book {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    digests: Vec<Option<u32>>,
    /// Modeled energy, correct detections and ground-truth objects summed
    /// over each job's first execution.
    energy_j: f64,
    detected: usize,
    gt: usize,
}

impl Book {
    fn with_jobs(&mut self, jobs: usize) {
        self.digests = vec![None; jobs];
    }

    fn record(
        &mut self,
        prepared: &Prepared,
        job: &Job,
        k: usize,
        result: Result<Executed, String>,
    ) -> Option<Executed> {
        let missions = match job {
            Job::Mission(_) => 1,
            Job::Batch { requests, .. } => requests.len(),
        };
        self.attempted += missions;
        let known = self.failures.len();
        let executed = self.check(prepared, job, k, result);
        if self.failures.len() > known {
            self.failed += missions;
        }
        executed
    }

    fn check(
        &mut self,
        prepared: &Prepared,
        job: &Job,
        k: usize,
        result: Result<Executed, String>,
    ) -> Option<Executed> {
        let executed = match result {
            Ok(executed) => executed,
            Err(e) => {
                self.failures.push(format!("job {k}: {e}"));
                return None;
            }
        };
        if executed.rejected > 0 {
            self.failures
                .push(format!("job {k}: {} requests refused", executed.rejected));
        }
        match self.digests[k] {
            Some(first) if first != executed.digest => self.failures.push(format!(
                "job {k}: digest {:08x} differs from the first run's {first:08x}",
                executed.digest
            )),
            Some(_) => {}
            None => {
                self.digests[k] = Some(executed.digest);
                for v in invariant_violations(prepared, job, &executed) {
                    self.failures.push(format!("job {k}: {v}"));
                }
                for (_, report) in &executed.missions {
                    self.energy_j += report.total_energy_j;
                    self.detected += report.correctly_detected;
                    self.gt += report.gt_objects;
                }
            }
        }
        Some(executed)
    }
}

/// The end-to-end run: repeated set-up, a warm-up, then jobs in turn
/// until `--seconds` have passed, each between two timings of the
/// reference unit.
fn timed(opts: &Options, workers: usize, book: &mut Book) -> Result<Done, String> {
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..repeats {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(setup(opts.workload, opts.smoke)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let jobs = jobs(opts.workload, opts.seed, opts.smoke);
    book.with_jobs(jobs.len());
    let warm = book.record(
        &prepared,
        &jobs[0],
        0,
        execute(&prepared, &jobs[0], workers),
    );
    let units = reference::units_for(warm.map_or(0.0, |e| e.seconds));

    let (mut run_s, mut ref_s, mut relative) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    // Each timing of the reference is the "after" of one job and the
    // "before" of the next.
    let mut before = reference::seconds_per_unit(units, workers);
    let mut i = 0;
    while i < MIN_ITERATIONS || (!opts.smoke && started.elapsed().as_secs_f64() < opts.seconds) {
        let k = i % jobs.len();
        let job = &jobs[k];
        let executed = book.record(&prepared, job, k, execute(&prepared, job, workers));
        let after = reference::seconds_per_unit(units, workers);
        if let Some(e) = executed {
            let host = (before + after) / 2.0;
            run_s.push(e.seconds);
            ref_s.push(host);
            relative.push(e.seconds / host);
        }
        before = after;
        i += 1;
    }
    // Jobs the timed loop did not reach still count toward the quality
    // metrics, so those depend on the seed alone.
    for (k, job) in jobs.iter().enumerate() {
        if book.digests[k].is_none() {
            book.record(&prepared, job, k, execute(&prepared, job, workers));
        }
    }
    // The report may not depend on the worker count.
    book.record(&prepared, &jobs[0], 0, execute(&prepared, &jobs[0], 1));

    let metrics = vec![
        ("setup_s".into(), median(&setup_s)),
        ("run_ref_p50".into(), median(&relative)),
        ("peak_rss_mb".into(), peak_rss_mb()?),
        (
            "energy_j_per_detection".into(),
            book.energy_j / book.detected as f64,
        ),
        ("recall".into(), book.detected as f64 / book.gt as f64),
    ];
    Ok(Done {
        metrics,
        samples: vec![
            ("setup_s".into(), setup_s),
            ("run_s".into(), run_s),
            ("ref_s".into(), ref_s),
        ],
        spans: Vec::new(),
    })
}

/// The per-layer run: one set-up, its traced replay, then the first job
/// on one worker, on `workers`, and its traced replay, in turn until
/// `--seconds` have passed. Mission-layer values are medians over the
/// replays.
fn traced(opts: &Options, workers: usize, book: &mut Book) -> Result<Done, String> {
    let started = Instant::now();
    let prepared = setup(opts.workload, opts.smoke)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    replay_setup(&mut tr, opts.workload, opts.smoke, &prepared, &mut counts)?;
    let setup_busy = busy_by_name(tr.spans());

    let jobs = jobs(opts.workload, opts.seed, opts.smoke);
    book.with_jobs(jobs.len());
    let job = &jobs[0];
    let (mut serial_s, mut run_s, mut replay_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_replay: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut first: Option<(Executed, Counts, Option<Extras>)> = None;
    let started = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || (!opts.smoke && started.elapsed().as_secs_f64() < opts.seconds) {
        let executed = book
            .record(&prepared, job, 0, execute(&prepared, job, 1))
            .ok_or("the job failed; nothing to replay")?;
        serial_s.push(executed.seconds);
        if let Some(e) = book.record(&prepared, job, 0, execute(&prepared, job, workers)) {
            run_s.push(e.seconds);
        }
        let from = tr.spans().len();
        let mut replay_counts = counts.clone();
        let extras = replay_job(
            &mut tr,
            &prepared,
            job,
            &executed,
            &mut replay_counts,
            i == 0,
        )?;
        let busy = busy_by_name(&tr.spans()[from..]);
        replay_s.push(busy["replay"]);
        per_replay.push(busy);
        first.get_or_insert((executed, replay_counts, extras));
        i += 1;
    }
    let (executed, counts, extras) = first.expect("at least one replay");
    let extras = extras.ok_or("the first replay measured no detector extras")?;

    let replay_median = median(&replay_s);
    let total = setup_busy["setup"] + replay_median;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for layer in LAYER_TIMES {
        let mission: Vec<f64> = per_replay
            .iter()
            .map(|b| b.get(layer).copied().unwrap_or(0.0))
            .collect();
        let busy = setup_busy.get(layer).copied().unwrap_or(0.0) + median(&mission);
        metrics.push((format!("{layer}.busy_s"), busy));
        metrics.push((format!("{layer}.share"), busy / total));
    }
    let mut net = TransportStats::default();
    let mut rollbacks = 0;
    for (_, report) in &executed.missions {
        net.merge(&report.total_transport());
        net.merge(&report.downlink);
        rollbacks += report.checkpoint_rollbacks;
    }
    let tenants = executed.service.as_ref().map(|run| {
        run.tenants.values().fold((0, 0, 0), |(a, r, d), t| {
            (a + t.admitted, r + t.rejected, d + t.deadline_missed)
        })
    });
    let (admitted, rejected, deadline_missed) = tenants.unwrap_or((0, 0, 0));
    let n = |v: usize| v as f64;
    let algorithms = ["hog", "acf", "c4", "lsvm"];
    for (i, name) in algorithms.iter().enumerate() {
        metrics.push((format!("detect.{name}.calls"), n(counts.calls[i])));
        metrics.push((format!("detect.{name}.ops"), counts.ops[i] as f64));
    }
    metrics.extend([
        ("scene.render.frames".into(), n(counts.frames)),
        ("scene.impair.degraded".into(), n(counts.degraded)),
        ("detect.cache.gain".into(), extras.cache_gain),
        ("detect.c4.reject_ratio".into(), extras.c4_reject_ratio),
        ("detect.health.unhealthy".into(), n(counts.unhealthy)),
        ("core.ingest.objects".into(), n(counts.objects)),
        ("core.select.calls".into(), n(counts.selects)),
        ("core.reid.calls".into(), n(counts.fusions)),
        ("net.attempts".into(), net.attempts as f64),
        ("net.retries".into(), net.retries as f64),
        ("net.corrupted".into(), net.corrupted as f64),
        ("net.timeouts".into(), net.timeouts as f64),
        (
            "net.goodput".into(),
            net.messages as f64 / net.attempts.max(1) as f64,
        ),
        ("core.checkpoint.commits".into(), n(counts.commits)),
        ("core.checkpoint.rollbacks".into(), rollbacks as f64),
        (
            "core.par.speedup_2w".into(),
            median(&serial_s) / median(&run_s),
        ),
        ("serve.admitted".into(), admitted as f64),
        ("serve.rejected".into(), rejected as f64),
        ("serve.deadline_missed".into(), deadline_missed as f64),
        ("trace.total_s".into(), total),
        ("trace.coverage".into(), replay_median / median(&serial_s)),
        ("trace.setup_coverage".into(), setup_busy["setup"] / setup_s),
    ]);
    Ok(Done {
        metrics,
        samples: vec![
            ("setup_s".into(), vec![setup_s]),
            ("serial_s".into(), serial_s),
            ("run_s".into(), run_s),
            ("replay_s".into(), replay_s),
        ],
        spans: tr.into_spans(),
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit checked out in the working directory, from `.git/HEAD`.
fn git_head() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_core::jsonio::parse;
    use std::collections::BTreeSet;

    fn declared(list: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get(list)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn smoke(workload: Workload, trace: bool) -> ResultFile {
        run(&Options {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            out: None,
        })
    }

    #[test]
    fn options_parse_the_documented_command_line() {
        let args: Vec<String> = "--workload lab_chaos --seed 2 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let opts = Options::parse(&args).unwrap();
        assert_eq!(opts.workload, Workload::LabChaos);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (2, 10.0, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds -1",
            "--frobnicate",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(Options::parse(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_gate_fails_a_mission_whose_digest_changes() {
        let workload = Workload::LabFig5a;
        let prepared = setup(workload, true).unwrap();
        let jobs = jobs(workload, 1, true);
        let first = execute(&prepared, &jobs[0], 1).unwrap();
        let mut changed = execute(&prepared, &jobs[0], 2).unwrap();
        assert_eq!(
            first.digest, changed.digest,
            "worker count changed the report"
        );
        changed.digest ^= 1;
        let mut book = Book::default();
        book.with_jobs(jobs.len());
        book.record(&prepared, &jobs[0], 0, Ok(first));
        assert!(book.failures.is_empty(), "{:?}", book.failures);
        book.record(&prepared, &jobs[0], 0, Ok(changed));
        book.record(&prepared, &jobs[0], 0, Err("no report".into()));
        assert_eq!(
            (book.attempted, book.failed, book.failures.len()),
            (3, 2, 2)
        );
    }

    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        for workload in Workload::ALL {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = smoke(workload, trace);
                assert!(
                    result.correct,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    result.failures
                );
                let names: BTreeSet<String> =
                    result.metrics.iter().map(|m| m.name.clone()).collect();
                assert_eq!(names, declared(list), "{} trace={trace}", workload.name());
                assert!(names.iter().all(|n| crate::metrics::valid_name(n)));
                assert!(result.metrics.iter().all(|m| m.value.is_finite()));
                assert_eq!(result.manifest.n, MIN_ITERATIONS);
            }
        }
    }
}
