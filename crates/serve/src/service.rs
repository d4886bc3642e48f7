//! The mission service: planning, concurrent execution, journaling and
//! the byte-stable service trace.
//!
//! [`MissionService::run_batch`] splits a batch into two halves with
//! very different rules:
//!
//! * the **plan** ([`plan_schedule`]) — admissions, ordering,
//!   completions, rejections — is a pure function of `(seed, request
//!   list)` and never touches a thread pool;
//! * the **execution** fills in one [`SimulationReport`] per admitted
//!   mission on [`eecs_core::par`] workers, in any order, because a
//!   mission report is itself a pure function of its spec (every mission
//!   runs under a null telemetry handle, which existing golden tests
//!   prove leaves reports bit-identical).
//!
//! The two halves meet in the assembly step, which walks the planned
//! trace serially and attaches the reports — so the whole service run,
//! including its JSON trace bytes, replays identically under any worker
//! count, and a journaled batch can be killed mid-queue and resumed
//! without re-running finished missions.

use crate::request::MissionRequest;
use crate::schedule::{plan_schedule, MissionVerdict, Schedule, ServiceConfig, ServiceEvent};
use eecs_core::journal::Journal;
use eecs_core::jsonio::Json;
use eecs_core::par::par_map_streamed;
use eecs_core::simulation::{Simulation, SimulationReport};
use eecs_core::telemetry::summary::report_to_json;
use eecs_core::telemetry::Telemetry;
use eecs_core::TraceEvent;
use eecs_net::checksum::crc32;
use eecs_net::message::{decode_frame, encode_frame, Message};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Schema tag of the batch journal's header line. `/2` moved the batch
/// journal onto [`eecs_core::journal`]: one CRC per record covering the
/// mission index, the report and the energy bits alike.
pub const JOURNAL_SCHEMA: &str = "eecs-serve-journal/2";
/// Schema tag of the service trace document.
pub const TRACE_SCHEMA: &str = "eecs-serve-trace/1";

/// Per-batch execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// When set, completed missions are journaled here (JSONL) and a
    /// re-run against the same file skips them — the kill/resume path.
    pub journal_path: Option<PathBuf>,
    /// Stop the batch after this many *newly executed* missions (test
    /// hook simulating a mid-queue kill). The aborted batch returns no
    /// assembled run.
    pub stop_after: Option<usize>,
}

impl BatchOptions {
    /// Options journaling into `path`.
    pub fn journaled(path: PathBuf) -> BatchOptions {
        BatchOptions {
            journal_path: Some(path),
            ..BatchOptions::default()
        }
    }

    /// These options with a kill-after-N-executions hook.
    pub fn with_stop_after(mut self, n: usize) -> BatchOptions {
        self.stop_after = Some(n);
        self
    }
}

/// One admitted mission's completed record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedMission {
    /// Mission index in the batch.
    pub mission: usize,
    /// The submitting tenant.
    pub tenant: String,
    /// Virtual tick the mission took a slot.
    pub started_tick: u64,
    /// Virtual tick the mission freed the slot.
    pub finished_tick: u64,
    /// Whether it met its declared deadline.
    pub deadline_met: bool,
    /// The report's canonical JSON bytes (the exact
    /// [`report_to_json`] encoding a direct run produces).
    pub report_json: String,
    /// CRC32 of `report_json`, as carried on the wire.
    pub report_crc: u32,
    /// `total_energy_j.to_bits()` — the bit-exact energy.
    pub energy_bits: u64,
    /// The in-memory report; `None` when this record was restored from
    /// a journal instead of executed in this process.
    pub report: Option<SimulationReport>,
}

/// Per-tenant admission accounting for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSummary {
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Missions completed (equals `admitted` in an assembled run).
    pub completed: u64,
    /// Completions that missed their declared deadline.
    pub deadline_missed: u64,
}

/// A fully assembled service run: the planned trace plus every report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// The planned (and executed) schedule.
    pub schedule: Schedule,
    /// Completed missions in batch order.
    pub completed: Vec<CompletedMission>,
    /// Per-tenant accounting, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantSummary>,
}

impl ServiceRun {
    /// The completed record for `mission`, if it was admitted.
    pub fn completion(&self, mission: usize) -> Option<&CompletedMission> {
        self.completed.iter().find(|c| c.mission == mission)
    }

    /// The byte-stable service trace document. Two runs of the same
    /// `(seed, request list)` — at any worker count, killed and resumed
    /// or not — produce identical bytes.
    pub fn trace_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        let events = self
            .schedule
            .events
            .iter()
            .map(|e| match *e {
                ServiceEvent::Started { tick, mission } => Json::Obj(vec![
                    ("event".into(), Json::Str("mission_start".into())),
                    ("tick".into(), n(tick as usize)),
                    ("mission".into(), n(mission)),
                ]),
                ServiceEvent::Finished {
                    tick,
                    mission,
                    deadline_met,
                } => Json::Obj(vec![
                    ("event".into(), Json::Str("mission_end".into())),
                    ("tick".into(), n(tick as usize)),
                    ("mission".into(), n(mission)),
                    ("deadline_met".into(), Json::Bool(deadline_met)),
                ]),
                ServiceEvent::Rejected { tick, mission } => Json::Obj(vec![
                    ("event".into(), Json::Str("mission_rejected".into())),
                    ("tick".into(), n(tick as usize)),
                    ("mission".into(), n(mission)),
                ]),
            })
            .collect();
        let completions = self
            .completed
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("mission".into(), n(c.mission)),
                    ("tenant".into(), Json::Str(c.tenant.clone())),
                    ("start".into(), n(c.started_tick as usize)),
                    ("finish".into(), n(c.finished_tick as usize)),
                    ("deadline_met".into(), Json::Bool(c.deadline_met)),
                    ("report_crc".into(), n(c.report_crc as usize)),
                    (
                        "energy_bits".into(),
                        Json::Str(format!("{:016x}", c.energy_bits)),
                    ),
                ])
            })
            .collect();
        let rejections = self
            .schedule
            .rejections()
            .iter()
            .map(|(m, r)| {
                Json::Obj(vec![
                    ("mission".into(), n(*m)),
                    ("kind".into(), Json::Str(r.kind().into())),
                    ("code".into(), n(r.verdict_code() as usize)),
                ])
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .map(|(name, t)| {
                Json::Obj(vec![
                    ("tenant".into(), Json::Str(name.clone())),
                    ("submitted".into(), n(t.submitted as usize)),
                    ("admitted".into(), n(t.admitted as usize)),
                    ("rejected".into(), n(t.rejected as usize)),
                    ("completed".into(), n(t.completed as usize)),
                    ("deadline_missed".into(), n(t.deadline_missed as usize)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
            ("events".into(), Json::Arr(events)),
            ("completions".into(), Json::Arr(completions)),
            ("rejections".into(), Json::Arr(rejections)),
            ("tenants".into(), Json::Arr(tenants)),
            ("max_queue_depth".into(), n(self.schedule.max_queue_depth)),
        ])
    }

    /// [`ServiceRun::trace_json`] rendered to its canonical bytes.
    pub fn trace_bytes(&self) -> String {
        self.trace_json()
            .write()
            .expect("trace document always serializes")
    }
}

/// What one `run_batch` call did.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The assembled run; `None` when `stop_after` aborted the batch
    /// mid-queue (resume against the same journal to finish).
    pub run: Option<ServiceRun>,
    /// Missions newly executed by this call.
    pub executed: usize,
    /// Admitted missions skipped because the journal already held them.
    pub skipped: usize,
}

/// The multi-tenant mission service.
///
/// Holds one prepared base [`Simulation`] — the shared artifact every
/// mission reuses (dataset, training, matching) — plus the static
/// [`ServiceConfig`]. The base is behind an `Arc`: execution workers
/// share it read-only, exactly like the sweep engine shares its
/// prepared simulation.
#[derive(Debug, Clone)]
pub struct MissionService {
    base: Arc<Simulation>,
    config: ServiceConfig,
    telemetry: Telemetry,
}

impl MissionService {
    /// A service over `base` with `config`, publishing nothing.
    pub fn new(base: Simulation, config: ServiceConfig) -> MissionService {
        MissionService {
            base: Arc::new(base),
            config,
            telemetry: Telemetry::null(),
        }
    }

    /// This service publishing service-level metrics and trace events
    /// into `telemetry`. Mission executions themselves always run under
    /// a null handle — reports are telemetry-independent, and a shared
    /// recorder would otherwise interleave nondeterministically.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> MissionService {
        self.telemetry = telemetry;
        self
    }

    /// The service's static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The planned trace for `requests` — admission control without
    /// executing anything.
    pub fn plan(&self, requests: &[MissionRequest]) -> Schedule {
        plan_schedule(&self.config, requests)
    }

    /// Plans, executes and assembles one batch.
    ///
    /// Every request/response crosses the canonical CRC32 wire framing
    /// (submit, verdict, report digest) — an encode/decode round-trip
    /// per message, so a framing regression fails the service itself,
    /// not just the net tests.
    ///
    /// # Errors
    ///
    /// Returns the first mission execution error, a journal that does
    /// not belong to this `(config, batch)`, or an I/O failure on the
    /// journal file.
    pub fn run_batch(
        &self,
        requests: &[MissionRequest],
        options: &BatchOptions,
    ) -> Result<BatchOutcome, String> {
        for (i, req) in requests.iter().enumerate() {
            roundtrip(&Message::MissionSubmit {
                mission: i,
                payload_crc: u64::from(req.spec.fingerprint()),
            })?;
        }
        let schedule = self.plan(requests);
        for outcome in &schedule.outcomes {
            roundtrip(&Message::MissionVerdict {
                mission: outcome.mission,
                verdict: outcome.verdict.verdict_code(),
            })?;
        }
        let admitted = schedule.admitted();

        // Journal: restore completed missions, then open for appends.
        let mut restored: BTreeMap<usize, (String, u64)> = BTreeMap::new();
        let mut journal = None;
        if let Some(path) = &options.journal_path {
            let identity = journal_identity(&self.config, requests);
            let (file, records) =
                Journal::open(path, &identity, |v| decode_completion(v, requests.len()))
                    .map_err(|e| e.to_string())?;
            restored = records.into_iter().collect();
            journal = Some(file);
        }
        for m in restored.keys() {
            if !admitted.contains(m) {
                return Err(format!(
                    "journal holds mission {m}, which this plan rejects"
                ));
            }
        }

        let todo: Vec<usize> = admitted
            .iter()
            .copied()
            .filter(|m| !restored.contains_key(m))
            .collect();
        let skipped = admitted.len() - todo.len();

        // Fan the pending missions out; the sink journals each result
        // serially on this thread, in completion order.
        let base = Arc::clone(&self.base);
        let reqs = requests;
        let execute = |i: usize| -> Result<(usize, SimulationReport, String), String> {
            let mission = todo[i];
            let sim = reqs[mission]
                .spec
                .apply(&base)?
                .with_telemetry(Telemetry::null());
            let report = sim.run().map_err(|e| format!("mission {mission}: {e}"))?;
            let json = report_to_json(&report).write()?;
            Ok((mission, report, json))
        };
        let mut fresh: BTreeMap<usize, (SimulationReport, String)> = BTreeMap::new();
        let mut first_error = None;
        let mut executed = 0usize;
        let mut aborted = false;
        par_map_streamed(
            todo.len(),
            self.config.workers,
            execute,
            |_, result| match result {
                Ok((mission, report, json)) => {
                    if let Some(file) = journal.as_mut() {
                        let record = Json::Obj(vec![
                            ("mission".into(), Json::Num(mission as f64)),
                            ("report".into(), report_to_json(&report)),
                            (
                                "energy_bits".into(),
                                Json::Str(format!("{:016x}", report.total_energy_j.to_bits())),
                            ),
                        ]);
                        if let Err(e) = file.append(&record) {
                            first_error = Some(e.to_string());
                            aborted = true;
                            return false;
                        }
                    }
                    self.telemetry
                        .counter_add(&format!("serve.runs.{mission}"), 1);
                    fresh.insert(mission, (report, json));
                    executed += 1;
                    if options.stop_after.is_some_and(|n| executed >= n) && executed < todo.len() {
                        aborted = true;
                        return false;
                    }
                    true
                }
                Err(e) => {
                    first_error = Some(e);
                    aborted = true;
                    false
                }
            },
        );
        self.telemetry
            .counter_add("serve.executed", executed as u64);
        self.telemetry.counter_add("serve.skipped", skipped as u64);
        if let Some(e) = first_error {
            return Err(e);
        }
        if aborted {
            return Ok(BatchOutcome {
                run: None,
                executed,
                skipped,
            });
        }

        // Assembly: walk the planned trace serially, attach reports,
        // publish service telemetry in deterministic order.
        let mut completed = Vec::with_capacity(admitted.len());
        for outcome in &schedule.outcomes {
            let MissionVerdict::Admitted {
                start_tick,
                finish_tick,
                deadline_met,
            } = outcome.verdict
            else {
                continue;
            };
            let m = outcome.mission;
            let (report, report_json, energy_bits) = match fresh.remove(&m) {
                Some((report, json)) => {
                    let bits = report.total_energy_j.to_bits();
                    (Some(report), json, bits)
                }
                None => {
                    let (json, bits) = restored
                        .remove(&m)
                        .ok_or_else(|| format!("mission {m} neither executed nor restored"))?;
                    (None, json, bits)
                }
            };
            let report_crc = crc32(report_json.as_bytes());
            roundtrip(&Message::MissionReport {
                mission: m,
                report_crc: u64::from(report_crc),
            })?;
            completed.push(CompletedMission {
                mission: m,
                tenant: outcome.tenant.clone(),
                started_tick: start_tick,
                finished_tick: finish_tick,
                deadline_met,
                report_json,
                report_crc,
                energy_bits,
                report,
            });
        }

        let mut tenants: BTreeMap<String, TenantSummary> = BTreeMap::new();
        for outcome in &schedule.outcomes {
            let t = tenants.entry(outcome.tenant.clone()).or_default();
            t.submitted += 1;
            match &outcome.verdict {
                MissionVerdict::Admitted { deadline_met, .. } => {
                    t.admitted += 1;
                    t.completed += 1;
                    if !deadline_met {
                        t.deadline_missed += 1;
                    }
                }
                MissionVerdict::Rejected(_) => t.rejected += 1,
            }
        }

        self.publish(&schedule, &tenants);
        Ok(BatchOutcome {
            run: Some(ServiceRun {
                schedule,
                completed,
                tenants,
            }),
            executed,
            skipped,
        })
    }

    /// Emits the service-level trace events and counters for an
    /// assembled run, in virtual-clock order.
    fn publish(&self, schedule: &Schedule, tenants: &BTreeMap<String, TenantSummary>) {
        if !self.telemetry.enabled() {
            return;
        }
        for event in &schedule.events {
            match *event {
                ServiceEvent::Started { tick, mission } => {
                    self.telemetry.event(|| TraceEvent::MissionStart {
                        round: tick as usize,
                        mission,
                    });
                }
                ServiceEvent::Finished {
                    tick,
                    mission,
                    deadline_met,
                } => {
                    self.telemetry.event(|| TraceEvent::MissionEnd {
                        round: tick as usize,
                        mission,
                        deadline_met,
                    });
                }
                ServiceEvent::Rejected { tick, mission } => {
                    self.telemetry.event(|| TraceEvent::MissionRejected {
                        round: tick as usize,
                        mission,
                    });
                }
            }
        }
        for (name, t) in tenants {
            self.telemetry.counter_add("serve.admitted", t.admitted);
            self.telemetry.counter_add("serve.rejected", t.rejected);
            self.telemetry.counter_add("serve.completed", t.completed);
            self.telemetry
                .counter_add("serve.deadline_missed", t.deadline_missed);
            self.telemetry
                .counter_add(&format!("serve.admitted.{name}"), t.admitted);
            self.telemetry
                .counter_add(&format!("serve.rejected.{name}"), t.rejected);
            self.telemetry
                .counter_add(&format!("serve.completed.{name}"), t.completed);
            self.telemetry
                .counter_add(&format!("serve.deadline_missed.{name}"), t.deadline_missed);
        }
        self.telemetry
            .gauge_set("serve.queue_depth", schedule.max_queue_depth as f64);
    }
}

/// Encode→decode one control frame, failing loudly on any mismatch.
fn roundtrip(message: &Message) -> Result<(), String> {
    let frame = encode_frame(message);
    let decoded = decode_frame(&frame).map_err(|e| format!("frame decode: {e}"))?;
    if decoded != *message {
        return Err(format!("frame round-trip mutated {message:?}"));
    }
    Ok(())
}

/// CRC32 identity of `(config, batch)` — what makes a journal file
/// belong to exactly one planned schedule.
fn batch_fingerprint(config: &ServiceConfig, requests: &[MissionRequest]) -> u32 {
    let mut canon = format!(
        "serve-batch/1|seed={:016x}|slots={}|queue={}|tenant_cap={}",
        config.seed, config.slots, config.queue_capacity, config.tenant_inflight_cap
    );
    for (i, r) in requests.iter().enumerate() {
        canon.push_str(&format!(
            "|{i}:{}:{}:{:?}:{}:{:08x}",
            r.tenant,
            r.priority.label(),
            r.deadline_ticks,
            r.cost_ticks(),
            r.spec.fingerprint(),
        ));
    }
    crc32(canon.as_bytes())
}

/// The journal header binding a file to one `(config, batch)`.
fn journal_identity(config: &ServiceConfig, requests: &[MissionRequest]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(JOURNAL_SCHEMA.into())),
        ("seed".into(), Json::Str(format!("{:016x}", config.seed))),
        ("requests".into(), Json::Num(requests.len() as f64)),
        (
            "fingerprint".into(),
            Json::Num(f64::from(batch_fingerprint(config, requests))),
        ),
    ])
}

/// Decodes one journal record into `(mission, (report JSON, energy
/// bits))`, refusing a mission index that is not an integer below
/// `requests`.
fn decode_completion(v: &Json, requests: usize) -> Result<(usize, (String, u64)), String> {
    let mission = v
        .get("mission")
        .and_then(Json::as_num)
        .filter(|n| n.fract() == 0.0 && (0.0..requests as f64).contains(n))
        .ok_or_else(|| format!("record needs an integral \"mission\" below {requests}"))?
        as usize;
    let report_json = v
        .get("report")
        .ok_or("record lacks a \"report\"")?
        .write()?;
    let energy_bits = v
        .get("energy_bits")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("record lacks hex \"energy_bits\"")?;
    Ok((mission, (report_json, energy_bits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Rejected;

    #[test]
    fn batch_fingerprint_tracks_config_and_requests() {
        let config = ServiceConfig::new(1);
        let batch = vec![MissionRequest::new("a"), MissionRequest::new("b")];
        let same = batch_fingerprint(&config, &batch);
        assert_eq!(same, batch_fingerprint(&config, &batch));
        assert_ne!(same, batch_fingerprint(&ServiceConfig::new(2), &batch));
        let reordered = vec![MissionRequest::new("b"), MissionRequest::new("a")];
        assert_ne!(same, batch_fingerprint(&config, &reordered));
    }

    #[test]
    fn wire_roundtrip_accepts_all_mission_frames() {
        roundtrip(&Message::MissionSubmit {
            mission: 3,
            payload_crc: 0xFFFF_FFFF,
        })
        .unwrap();
        roundtrip(&Message::MissionVerdict {
            mission: 3,
            verdict: Rejected::QueueFull { depth: 2 }.verdict_code(),
        })
        .unwrap();
        roundtrip(&Message::MissionReport {
            mission: 3,
            report_crc: 0,
        })
        .unwrap();
    }

    #[test]
    fn completion_records_reject_bad_mission_indices() {
        let record = |mission: f64| {
            Json::Obj(vec![
                ("mission".into(), Json::Num(mission)),
                ("report".into(), Json::Obj(Vec::new())),
                ("energy_bits".into(), Json::Str("3ff0000000000000".into())),
            ])
        };
        assert_eq!(
            decode_completion(&record(2.0), 3),
            Ok((2, ("{}".into(), 1.0f64.to_bits())))
        );
        for bad in [1.5, -1.0, 3.0, 1e300] {
            assert!(decode_completion(&record(bad), 3).is_err(), "{bad}");
        }
    }
}
