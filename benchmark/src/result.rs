//! The result file of one run: a manifest of how it ran, the correctness
//! verdict, every metric, the raw samples and, for a traced run, the
//! spans. Read back by `compare`.

use eecs_core::jsonio::{parse, Json};

pub const SCHEMA: &str = "eecs-benchmark-result/1";

/// How a run ran, after the DASH evaluation protocol: enough to repeat it
/// and to tell two runs' conditions apart.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The checked-out commit, read from `.git/HEAD`; "unknown" outside a
    /// git checkout.
    pub commit: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    /// The `--seconds` the timed phase ran for.
    pub seconds: f64,
    /// Timed samples at `workers` threads (replays, when traced).
    pub n: usize,
    /// Single-worker samples (traced runs only).
    pub serial_n: usize,
    /// `(percentile, seconds)` of the timed samples' tail (see
    /// [`crate::stats::tail`]); `None` when fewer than 11 were taken.
    pub tail: Option<(f64, f64)>,
    /// Distinct jobs the seed expanded to.
    pub jobs: usize,
    pub setup_repeats: usize,
    pub workers: usize,
    pub nproc: usize,
    pub start_unix_s: f64,
    pub wall_s: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub manifest: Manifest,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// CRC32 per job, hex.
    pub digests: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Raw samples by series (`setup_s`, `run_s`, `ref_s`; traced runs
    /// `serial_s` and `replay_s` too).
    pub samples: Vec<(String, Vec<f64>)>,
    /// `[name, start_s, end_s, parent, mission]` per span.
    pub spans: Json,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn count(v: usize) -> Json {
    Json::Num(v as f64)
}

impl ResultFile {
    /// The one-line summary printed last: correctness and the metrics.
    pub fn summary_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), count(self.attempted)),
            ("failed".into(), count(self.failed)),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let entry = Json::Obj(vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        let m = &self.manifest;
        let manifest = Json::Obj(vec![
            ("commit".into(), Json::Str(m.commit.clone())),
            ("workload".into(), Json::Str(m.workload.clone())),
            ("seed".into(), Json::Str(m.seed.to_string())),
            ("trace".into(), Json::Bool(m.trace)),
            ("smoke".into(), Json::Bool(m.smoke)),
            ("seconds".into(), num(m.seconds)),
            ("n".into(), count(m.n)),
            ("serial_n".into(), count(m.serial_n)),
            (
                "tail_percentile".into(),
                m.tail.map_or(Json::Null, |(p, _)| num(p)),
            ),
            ("tail_s".into(), m.tail.map_or(Json::Null, |(_, s)| num(s))),
            ("jobs".into(), count(m.jobs)),
            ("setup_repeats".into(), count(m.setup_repeats)),
            ("workers".into(), count(m.workers)),
            ("nproc".into(), count(m.nproc)),
            ("start_unix_s".into(), num(m.start_unix_s)),
            ("wall_s".into(), num(m.wall_s)),
        ]);
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("manifest".into(), manifest),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), count(self.attempted)),
            ("failed".into(), count(self.failed)),
            ("failures".into(), strings(&self.failures)),
            ("digests".into(), strings(&self.digests)),
            ("metrics".into(), self.metrics_json()),
            (
                "samples".into(),
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Arr(v.iter().copied().map(num).collect())))
                        .collect(),
                ),
            ),
            ("spans".into(), self.spans.clone()),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let m = doc.get("manifest").ok_or("no manifest")?;
        let text = |j: &Json, k: &str| -> Result<String, String> {
            Ok(j.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("no {k}"))?
                .to_string())
        };
        let number = |j: &Json, k: &str| j.get(k).and_then(Json::as_num).ok_or(format!("no {k}"));
        let whole = |j: &Json, k: &str| -> Result<usize, String> {
            let v = number(j, k)?;
            if v >= 0.0 && v.fract() == 0.0 {
                Ok(v as usize)
            } else {
                Err(format!("{k} is not a count"))
            }
        };
        let flag = |j: &Json, k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("no {k}")),
        };
        let strings = |k: &str| -> Result<Vec<String>, String> {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or(format!("no {k}"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{k} holds a non-string"))
                })
                .collect()
        };
        let manifest = Manifest {
            commit: text(m, "commit")?,
            workload: text(m, "workload")?,
            seed: text(m, "seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            trace: flag(m, "trace")?,
            smoke: flag(m, "smoke")?,
            seconds: number(m, "seconds")?,
            n: whole(m, "n")?,
            serial_n: whole(m, "serial_n")?,
            tail: match (m.get("tail_percentile"), m.get("tail_s")) {
                (Some(Json::Null), Some(Json::Null)) => None,
                _ => Some((number(m, "tail_percentile")?, number(m, "tail_s")?)),
            },
            jobs: whole(m, "jobs")?,
            setup_repeats: whole(m, "setup_repeats")?,
            workers: whole(m, "workers")?,
            nproc: whole(m, "nproc")?,
            start_unix_s: number(m, "start_unix_s")?,
            wall_s: number(m, "wall_s")?,
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("no metrics".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, entry)| {
                Ok(Metric {
                    name: name.clone(),
                    value: number(entry, "value")?,
                    unit: text(entry, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let Some(Json::Obj(samples)) = doc.get("samples") else {
            return Err("no samples".into());
        };
        let samples = samples
            .iter()
            .map(|(k, v)| {
                let values = v
                    .as_arr()
                    .ok_or(format!("samples.{k} is not an array"))?
                    .iter()
                    .map(|x| x.as_num().ok_or(format!("samples.{k} holds a non-number")))
                    .collect::<Result<_, String>>()?;
                Ok((k.clone(), values))
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile {
            manifest,
            correct: flag(doc, "correct")?,
            attempted: whole(doc, "attempted")?,
            failed: whole(doc, "failed")?,
            failures: strings("failures")?,
            digests: strings("digests")?,
            metrics,
            samples,
            spans: doc.get("spans").cloned().unwrap_or(Json::Arr(Vec::new())),
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
pub fn sample_file(workload: &str, metrics: &[(&str, f64)]) -> ResultFile {
    ResultFile {
        manifest: Manifest {
            commit: "0123abc".into(),
            workload: workload.into(),
            seed: u64::MAX,
            trace: false,
            smoke: false,
            seconds: 10.0,
            n: 12,
            serial_n: 6,
            tail: Some((100.0 * 2.0 / 12.0, 0.375)),
            jobs: 16,
            setup_repeats: 3,
            workers: 2,
            nproc: 2,
            start_unix_s: 1.7e9,
            wall_s: 31.25,
        },
        correct: true,
        attempted: 29,
        failed: 0,
        failures: vec!["none \"quoted\"".into()],
        digests: vec!["0000beef".into()],
        metrics: metrics
            .iter()
            .map(|&(name, value)| Metric {
                name: name.into(),
                value,
                unit: "s".into(),
            })
            .collect(),
        samples: vec![("run_s".into(), vec![0.5, 0.25, 1e-9])],
        spans: Json::Arr(vec![Json::Arr(vec![
            Json::Str("mission".into()),
            Json::Num(0.0),
            Json::Num(0.1),
            Json::Null,
            Json::Num(1.0),
        ])]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips_through_jsonio() {
        let mut file = sample_file("lab_chaos", &[("run_ref_p50", 0.1 + 0.2), ("setup_s", 3.0)]);
        for tail in [file.manifest.tail, None] {
            file.manifest.tail = tail;
            let text = file.to_json().write().unwrap();
            let back = ResultFile::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, file);
            assert_eq!(back.metric("run_ref_p50"), Some(0.1 + 0.2));
        }
    }

    #[test]
    fn foreign_documents_are_refused() {
        assert!(ResultFile::from_json(&parse("{\"schema\":\"other\"}").unwrap()).is_err());
        let mut doc = sample_file("w", &[]).to_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "manifest");
        }
        assert!(ResultFile::from_json(&doc).is_err());
    }
}
