//! Periodic controller-state checkpoints for failover.
//!
//! When a [`eecs_net::ControllerFaultPlan`] can kill the controller
//! mid-run, the simulation snapshots the controller's volatile selection
//! state at the end of each round ([`crate::config::EecsConfig::checkpoint_every`]):
//! the assessment cache, the current assignment plan, the quarantine
//! ledger, and the per-camera battery ledger. After a crash the newly
//! elected camera-controller restores the latest checkpoint and carries
//! on — within one assessment round it behaves as if it had been the
//! controller all along.
//!
//! Serialization goes through the workspace's hand-rolled JSON
//! ([`crate::jsonio`], shared with `eecs_bench::report`; the build is
//! offline, no serde). Floats are written with `{:?}` — Rust's shortest
//! round-trip format — so a serialize → parse cycle restores every
//! `f64` bit-for-bit, and a restored controller replays byte-identically
//! with one that never crashed between checkpoints.

use crate::controller::{AssessmentCache, CameraAssessment};
use crate::jsonio::{self, Json};
use crate::metadata::{CameraReport, ObjectMetadata};
use eecs_detect::detection::{AlgorithmId, BBox};
use eecs_net::checksum::crc32;
use eecs_net::fault::mix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag stamped into every checkpoint payload document.
/// Version 4 adds fleet membership and per-camera device-profile names,
/// so a restored seat knows which cameras existed and on what hardware.
pub const SCHEMA: &str = "eecs-checkpoint/4";

/// Schema tag stamped into every verified store record (envelope).
pub const STORE_SCHEMA: &str = "eecs-checkpoint/3";

/// One camera's slot in the serialized assessment cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheSlot {
    /// Seat epoch the slot was last written under; reconciliation
    /// prefers the (epoch, round)-freshest slot when islands merge.
    pub epoch: u64,
    /// Round the camera was last heard from.
    pub heard: Option<usize>,
    /// `(round gathered, reports)` as cached by the controller.
    pub entry: Option<(usize, CameraAssessment)>,
}

/// A snapshot of everything the controller needs to resume selection
/// after a crash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimulationCheckpoint {
    /// Round index the snapshot was taken at the end of.
    pub round: usize,
    /// Fencing epoch of the seat that took the snapshot. A controller
    /// elected after a crash or partition restores this and announces
    /// `epoch + 1`, so stale seats can always be recognized.
    pub epoch: u64,
    /// The standing algorithm assignment (camera → algorithm).
    pub assignment: BTreeMap<usize, AlgorithmId>,
    /// The standing active-camera set.
    pub active: Vec<usize>,
    /// Per-camera energy drawn so far (J) — the battery ledger; restored
    /// for bookkeeping and used by the election sanity checks.
    pub battery_used_j: Vec<f64>,
    /// The assessment cache, slot per camera.
    pub cache: Vec<CacheSlot>,
    /// Quarantine ledger entries `(camera, algorithm, strikes,
    /// eligible_round)`.
    pub quarantine: Vec<(usize, AlgorithmId, u32, usize)>,
    /// Camera indices that were fleet members when the snapshot was
    /// taken. Restore ignores this for replay (membership is a pure
    /// function of the churn plan) but keeps it for audit.
    pub members: Vec<usize>,
    /// Device-profile name per camera slot (empty for a uniform fleet
    /// that never configured profiles).
    pub profiles: Vec<String>,
}

impl SimulationCheckpoint {
    /// An empty checkpoint for `cameras` cameras — what a controller that
    /// crashed before its first round-end snapshot restores to.
    pub fn initial(cameras: usize) -> SimulationCheckpoint {
        SimulationCheckpoint {
            round: 0,
            epoch: 0,
            assignment: BTreeMap::new(),
            active: Vec::new(),
            battery_used_j: vec![0.0; cameras],
            cache: vec![CacheSlot::default(); cameras],
            quarantine: Vec::new(),
            members: (0..cameras).collect(),
            profiles: Vec::new(),
        }
    }

    /// Captures the cache side of a snapshot from the live controller
    /// structures.
    pub fn capture_cache(cache: &AssessmentCache, cameras: usize) -> Vec<CacheSlot> {
        (0..cameras)
            .map(|j| CacheSlot {
                epoch: 0,
                heard: cache.heard_round(j),
                entry: cache.entry(j).map(|(r, a)| (r, a.clone())),
            })
            .collect()
    }

    /// Rebuilds a live [`AssessmentCache`] from the snapshot.
    pub fn restore_cache(&self) -> AssessmentCache {
        let mut cache = AssessmentCache::new(self.cache.len());
        for (j, slot) in self.cache.iter().enumerate() {
            cache.restore_entry(j, slot.heard, slot.entry.clone());
        }
        cache
    }

    /// Serializes the checkpoint to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\": \"");
        out.push_str(SCHEMA);
        let _ = write!(
            out,
            "\", \"round\": {}, \"epoch\": {}",
            self.round, self.epoch
        );

        out.push_str(", \"assignment\": [");
        for (i, (cam, alg)) in self.assignment.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{cam}, \"{alg}\"]");
        }
        out.push(']');

        out.push_str(", \"active\": [");
        for (i, cam) in self.active.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{cam}");
        }
        out.push(']');

        out.push_str(", \"battery_used_j\": [");
        for (i, j) in self.battery_used_j.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{j:?}");
        }
        out.push(']');

        out.push_str(", \"cache\": [");
        for (i, slot) in self.cache.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_slot(&mut out, slot);
        }
        out.push(']');

        out.push_str(", \"quarantine\": [");
        for (i, (cam, alg, strikes, until)) in self.quarantine.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{cam}, \"{alg}\", {strikes}, {until}]");
        }
        out.push(']');

        out.push_str(", \"members\": [");
        for (i, cam) in self.members.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{cam}");
        }
        out.push(']');

        out.push_str(", \"profiles\": [");
        for (i, name) in self.profiles.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{name:?}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem — malformed
    /// JSON, a wrong schema tag, or a missing/ill-typed field.
    pub fn from_json(text: &str) -> Result<SimulationCheckpoint, String> {
        let doc = jsonio::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let round = get_usize(&doc, "round")?;
        let epoch = get_usize(&doc, "epoch")? as u64;

        let mut assignment = BTreeMap::new();
        for pair in get_arr(&doc, "assignment")? {
            let items = pair.as_arr().ok_or("assignment entry must be an array")?;
            let (cam, alg) = match items {
                [cam, alg] => (as_usize(cam)?, as_algorithm(alg)?),
                _ => return Err("assignment entry must be [camera, algorithm]".into()),
            };
            assignment.insert(cam, alg);
        }

        let active = get_arr(&doc, "active")?
            .iter()
            .map(as_usize)
            .collect::<Result<Vec<_>, _>>()?;

        let battery_used_j = get_arr(&doc, "battery_used_j")?
            .iter()
            .map(|v| {
                v.as_num()
                    .ok_or_else(|| "battery entry must be a number".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        let cache = get_arr(&doc, "cache")?
            .iter()
            .map(parse_slot)
            .collect::<Result<Vec<_>, _>>()?;

        let mut quarantine = Vec::new();
        for entry in get_arr(&doc, "quarantine")? {
            let items = entry.as_arr().ok_or("quarantine entry must be an array")?;
            match items {
                [cam, alg, strikes, until] => quarantine.push((
                    as_usize(cam)?,
                    as_algorithm(alg)?,
                    as_usize(strikes)? as u32,
                    as_usize(until)?,
                )),
                _ => {
                    return Err(
                        "quarantine entry must be [camera, algorithm, strikes, round]".into(),
                    )
                }
            }
        }

        let members = get_arr(&doc, "members")?
            .iter()
            .map(as_usize)
            .collect::<Result<Vec<_>, _>>()?;

        let profiles = get_arr(&doc, "profiles")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "profile name must be a string".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(SimulationCheckpoint {
            round,
            epoch,
            assignment,
            active,
            battery_used_j,
            cache,
            quarantine,
            members,
            profiles,
        })
    }
}

fn write_slot(out: &mut String, slot: &CacheSlot) {
    out.push('{');
    let _ = write!(out, "\"epoch\": {}, ", slot.epoch);
    match slot.heard {
        Some(r) => {
            let _ = write!(out, "\"heard\": {r}");
        }
        None => out.push_str("\"heard\": null"),
    }
    out.push_str(", \"entry\": ");
    match &slot.entry {
        None => out.push_str("null"),
        Some((round, reports)) => {
            let _ = write!(out, "{{\"round\": {round}, \"reports\": [");
            for (i, (alg, series)) in reports.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[\"{alg}\", [");
                for (k, report) in series.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    write_report(out, report);
                }
                out.push_str("]]");
            }
            out.push_str("]}");
        }
    }
    out.push('}');
}

fn write_report(out: &mut String, report: &CameraReport) {
    out.push_str("{\"objects\": [");
    for (i, o) in report.objects.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"camera\": {}, \"bbox\": [{:?}, {:?}, {:?}, {:?}], \"probability\": {:?}, \"color\": [",
            o.camera, o.bbox.x0, o.bbox.y0, o.bbox.x1, o.bbox.y1, o.probability
        );
        for (k, c) in o.color.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{c:?}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

fn parse_slot(v: &Json) -> Result<CacheSlot, String> {
    let epoch = get_usize(v, "epoch")? as u64;
    let heard = match v.get("heard") {
        Some(Json::Null) | None => None,
        Some(n) => Some(as_usize(n)?),
    };
    let entry = match v.get("entry") {
        Some(Json::Null) | None => None,
        Some(e) => {
            let round = get_usize(e, "round")?;
            let mut reports: CameraAssessment = BTreeMap::new();
            for pair in get_arr(e, "reports")? {
                let items = pair.as_arr().ok_or("reports entry must be an array")?;
                let (alg, series) = match items {
                    [alg, series] => (as_algorithm(alg)?, series),
                    _ => return Err("reports entry must be [algorithm, series]".into()),
                };
                let series = series
                    .as_arr()
                    .ok_or("report series must be an array")?
                    .iter()
                    .map(parse_report)
                    .collect::<Result<Vec<_>, _>>()?;
                reports.insert(alg, series);
            }
            Some((round, reports))
        }
    };
    Ok(CacheSlot {
        epoch,
        heard,
        entry,
    })
}

fn parse_report(v: &Json) -> Result<CameraReport, String> {
    let mut objects = Vec::new();
    for o in get_arr(v, "objects")? {
        let camera = get_usize(o, "camera")?;
        let bbox = o
            .get("bbox")
            .and_then(Json::as_arr)
            .ok_or("object missing \"bbox\"")?;
        let bbox = match bbox {
            [x0, y0, x1, y1] => BBox {
                x0: as_f64(x0)?,
                y0: as_f64(y0)?,
                x1: as_f64(x1)?,
                y1: as_f64(y1)?,
            },
            _ => return Err("bbox must be [x0, y0, x1, y1]".into()),
        };
        let probability = o
            .get("probability")
            .and_then(Json::as_num)
            .ok_or("object missing \"probability\"")?;
        let color = o
            .get("color")
            .and_then(Json::as_arr)
            .ok_or("object missing \"color\"")?
            .iter()
            .map(as_f64)
            .collect::<Result<Vec<_>, _>>()?;
        objects.push(ObjectMetadata {
            camera,
            bbox,
            probability,
            color,
        });
    }
    Ok(CameraReport { objects })
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing \"{key}\" array"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .ok_or_else(|| format!("missing \"{key}\""))
        .and_then(as_usize)
}

fn as_usize(v: &Json) -> Result<usize, String> {
    let n = v.as_num().ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("expected a non-negative integer, got {n}"));
    }
    Ok(n as usize)
}

fn as_f64(v: &Json) -> Result<f64, String> {
    v.as_num().ok_or_else(|| "expected a number".to_string())
}

fn as_algorithm(v: &Json) -> Result<AlgorithmId, String> {
    v.as_str().ok_or("expected an algorithm name")?.parse()
}

// ---------------------------------------------------------------------------
// Verified checkpoint store (schema eecs-checkpoint/3)
// ---------------------------------------------------------------------------

/// Deterministic storage-fault injection for the checkpoint store.
///
/// Mirrors [`eecs_net::FaultPlan`]: a pure function of `(seed,
/// generation)` decides whether — and how — a committed record is
/// damaged, so a faulted run replays bit-identically. A default plan
/// injects nothing and consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CheckpointFaultPlan {
    seed: u64,
    torn_write: Option<u64>,
    bit_rot: Option<u64>,
    bit_rot_rate: f64,
}

impl CheckpointFaultPlan {
    /// No storage faults at all.
    pub fn none() -> CheckpointFaultPlan {
        CheckpointFaultPlan::default()
    }

    /// A plan whose stochastic choices (bit positions, rot rolls) are
    /// keyed by `seed`.
    pub fn seeded(seed: u64) -> CheckpointFaultPlan {
        CheckpointFaultPlan {
            seed,
            ..CheckpointFaultPlan::default()
        }
    }

    /// Tear the write of `generation`: only a prefix of the record
    /// reaches storage (a crash mid-`write(2)`).
    pub fn with_torn_write(mut self, generation: u64) -> CheckpointFaultPlan {
        self.torn_write = Some(generation);
        self
    }

    /// Flip one bit of `generation`'s record after it is written
    /// (media decay on a specific record).
    pub fn with_bit_rot(mut self, generation: u64) -> CheckpointFaultPlan {
        self.bit_rot = Some(generation);
        self
    }

    /// Flip one bit of each committed record with probability `rate`,
    /// decided per generation from the seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)` — rate 1 would rot every
    /// generation and make restore impossible by construction.
    pub fn with_bit_rot_rate(mut self, rate: f64) -> CheckpointFaultPlan {
        assert!(
            (0.0..1.0).contains(&rate),
            "bit-rot rate must be in [0, 1), got {rate}"
        );
        self.bit_rot_rate = rate;
        self
    }

    /// Whether this plan can damage anything.
    pub fn enabled(&self) -> bool {
        self.torn_write.is_some() || self.bit_rot.is_some() || self.bit_rot_rate > 0.0
    }

    /// SplitMix64-finalized draw, pure in `(seed, generation, stream)`.
    fn mix(&self, generation: u64, stream: u64) -> u64 {
        mix64(
            self.seed
                .wrapping_add(generation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        )
    }

    /// Applies this plan to a freshly written record. Returns `true`
    /// when the bytes were damaged.
    fn corrupt(&self, generation: u64, record: &mut Vec<u8>) -> bool {
        if record.is_empty() {
            return false;
        }
        let mut damaged = false;
        if self.torn_write == Some(generation) {
            record.truncate(record.len() / 2);
            damaged = true;
        }
        let unit = (self.mix(generation, 1) >> 11) as f64 / ((1u64 << 53) as f64);
        let rot_hit = self.bit_rot == Some(generation)
            || (self.bit_rot_rate > 0.0 && unit < self.bit_rot_rate);
        if rot_hit && !record.is_empty() {
            let bit = (self.mix(generation, 2) % (record.len() as u64 * 8)) as usize;
            record[bit / 8] ^= 1 << (bit % 8);
            damaged = true;
        }
        damaged
    }
}

/// Why the checkpoint store could not produce a state to restore.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Every retained generation failed verification (or the store is
    /// empty) — there is no consistent state to fall back to.
    NoVerifiedGeneration {
        /// Number of retained records that were tried and rejected.
        tried: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NoVerifiedGeneration { tried } => write!(
                f,
                "no checkpoint generation verifies ({tried} record(s) rejected)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Outcome of a successful [`CheckpointStore::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct RestoredCheckpoint {
    /// Generation counter of the record that verified.
    pub generation: u64,
    /// Newer generations that failed verification and were skipped to
    /// reach this one.
    pub rolled_back: u64,
    /// The verified checkpoint payload (a [`SCHEMA`] JSON document).
    pub payload: String,
}

/// One retained record: the generation counter plus its raw stored
/// bytes (possibly damaged by the fault plan).
#[derive(Debug, Clone)]
struct StoredGeneration {
    generation: u64,
    record: Vec<u8>,
}

/// Fields a record's header must carry to be considered at all.
struct RecordHeader {
    generation: u64,
    prev_crc: u32,
    payload_crc: u32,
}

/// A verified, generation-chained checkpoint store.
///
/// Every [`commit`](CheckpointStore::commit) wraps the payload in a
/// [`STORE_SCHEMA`] record: a JSON header line carrying a monotone
/// generation counter, the payload's CRC-32, and the *previous*
/// generation's payload CRC (the chain link), followed by the raw
/// payload bytes. [`restore`](CheckpointStore::restore) walks from the
/// newest retained generation backwards and returns the first record
/// that verifies — header parses, schema and length match, payload
/// checksum matches, and (when its predecessor is itself healthy) the
/// chain link agrees. Torn writes and bit rot therefore degrade
/// recovery to an older consistent state instead of deserializing
/// garbage; each skipped generation is counted as a rollback.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    records: Vec<StoredGeneration>,
    next_generation: u64,
    last_payload_crc: u32,
    faults: CheckpointFaultPlan,
    rollbacks: u64,
    keep: usize,
}

impl CheckpointStore {
    /// Generations retained by default — enough to survive a damaged
    /// newest record with headroom, without unbounded growth.
    pub const DEFAULT_KEEP: usize = 4;

    /// An empty store injecting `faults` at commit time.
    pub fn new(faults: CheckpointFaultPlan) -> CheckpointStore {
        CheckpointStore {
            records: Vec::new(),
            next_generation: 1,
            last_payload_crc: 0,
            faults,
            rollbacks: 0,
            keep: CheckpointStore::DEFAULT_KEEP,
        }
    }

    /// Overrides how many generations are retained (min 1).
    pub fn with_keep(mut self, keep: usize) -> CheckpointStore {
        assert!(keep >= 1, "must retain at least one generation");
        self.keep = keep;
        self
    }

    /// Commits `payload` as the next generation and returns its
    /// generation counter. The record is damaged here, deterministically,
    /// if the fault plan says so — exactly like a storage medium that
    /// corrupts on write.
    pub fn commit(&mut self, payload: &str) -> u64 {
        let generation = self.next_generation;
        let payload_crc = crc32(payload.as_bytes());
        let mut record = format!(
            "{{\"schema\": \"{STORE_SCHEMA}\", \"generation\": {generation}, \
             \"prev_crc\": {prev}, \"payload_crc\": {crc}, \"payload_bytes\": {len}}}",
            prev = self.last_payload_crc,
            crc = payload_crc,
            len = payload.len(),
        )
        .into_bytes();
        record.push(b'\n');
        record.extend_from_slice(payload.as_bytes());
        self.faults.corrupt(generation, &mut record);
        self.records.push(StoredGeneration { generation, record });
        if self.records.len() > self.keep {
            self.records.remove(0);
        }
        self.next_generation = generation + 1;
        self.last_payload_crc = payload_crc;
        generation
    }

    /// Restores the newest generation that verifies, counting every
    /// newer record skipped on the way as a rollback.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoVerifiedGeneration`] when no retained record
    /// verifies — including the empty store.
    pub fn restore(&mut self) -> Result<RestoredCheckpoint, CheckpointError> {
        let mut rolled_back = 0u64;
        for idx in (0..self.records.len()).rev() {
            let Some((header, payload)) = verify_record(&self.records[idx].record) else {
                rolled_back += 1;
                continue;
            };
            // Chain check: a healthy predecessor must be the one this
            // record claims to extend. A damaged predecessor cannot
            // testify either way, so the payload checksum alone decides.
            if idx > 0 {
                if let Some((prev, _)) = verify_record(&self.records[idx - 1].record) {
                    if header.prev_crc != prev.payload_crc {
                        rolled_back += 1;
                        continue;
                    }
                }
            }
            self.rollbacks += rolled_back;
            return Ok(RestoredCheckpoint {
                generation: header.generation,
                rolled_back,
                payload,
            });
        }
        self.rollbacks += rolled_back;
        Err(CheckpointError::NoVerifiedGeneration {
            tried: self.records.len(),
        })
    }

    /// Rollbacks counted across every restore so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Number of generations currently retained.
    pub fn generations(&self) -> usize {
        self.records.len()
    }

    /// Generation counter of the newest retained record (0 when empty).
    pub fn latest_generation(&self) -> u64 {
        self.records.last().map_or(0, |r| r.generation)
    }
}

/// Verifies one stored record: header line parses as [`STORE_SCHEMA`]
/// JSON, the payload length matches, and the payload checksum agrees.
/// Returns `None` on any damage — this function must be total over
/// arbitrary bytes.
fn verify_record(record: &[u8]) -> Option<(RecordHeader, String)> {
    let split = record.iter().position(|&b| b == b'\n')?;
    let (header_bytes, rest) = record.split_at(split);
    let payload_bytes = &rest[1..];
    let header = std::str::from_utf8(header_bytes).ok()?;
    let doc = jsonio::parse(header).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
        return None;
    }
    let field = |key: &str| -> Option<u64> {
        let n = doc.get(key).and_then(Json::as_num)?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    };
    let generation = field("generation")?;
    let prev_crc = u32::try_from(field("prev_crc")?).ok()?;
    let payload_crc = u32::try_from(field("payload_crc")?).ok()?;
    let payload_bytes_len = field("payload_bytes")? as usize;
    if payload_bytes.len() != payload_bytes_len || crc32(payload_bytes) != payload_crc {
        return None;
    }
    let payload = std::str::from_utf8(payload_bytes).ok()?.to_string();
    Some((
        RecordHeader {
            generation,
            prev_crc,
            payload_crc,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimulationCheckpoint {
        let report = CameraReport {
            objects: vec![ObjectMetadata {
                camera: 1,
                bbox: BBox::new(3.25, 4.5, 10.125, 30.75),
                probability: 1.0 / 3.0,
                color: vec![0.1, 0.2, 1.0 / 7.0],
            }],
        };
        let mut reports: CameraAssessment = BTreeMap::new();
        reports.insert(
            AlgorithmId::Hog,
            vec![report.clone(), CameraReport::default()],
        );
        reports.insert(AlgorithmId::C4, vec![report]);
        SimulationCheckpoint {
            round: 7,
            epoch: 3,
            assignment: [(0, AlgorithmId::Hog), (2, AlgorithmId::Lsvm)].into(),
            active: vec![0, 2],
            battery_used_j: vec![1.5, 0.1 + 0.2, 0.0],
            cache: vec![
                CacheSlot {
                    epoch: 2,
                    heard: Some(7),
                    entry: Some((6, reports)),
                },
                CacheSlot::default(),
                CacheSlot {
                    epoch: 3,
                    heard: Some(5),
                    entry: None,
                },
            ],
            quarantine: vec![(1, AlgorithmId::Acf, 2, 9)],
            members: vec![0, 2],
            profiles: vec!["flagship".into(), "midrange".into(), "lowend".into()],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ckpt = sample();
        let restored = SimulationCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(restored, ckpt);
        // The f64 ledger must survive bit-for-bit, not just approximately.
        for (a, b) in ckpt.battery_used_j.iter().zip(&restored.battery_used_j) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (pa, pb) = (
            &ckpt.cache[0].entry.as_ref().unwrap().1[&AlgorithmId::Hog][0].objects[0],
            &restored.cache[0].entry.as_ref().unwrap().1[&AlgorithmId::Hog][0].objects[0],
        );
        assert_eq!(pa.probability.to_bits(), pb.probability.to_bits());
        assert_eq!(pa.bbox.x1.to_bits(), pb.bbox.x1.to_bits());
    }

    #[test]
    fn initial_checkpoint_is_empty() {
        let ckpt = SimulationCheckpoint::initial(3);
        assert_eq!(ckpt.round, 0);
        assert_eq!(ckpt.epoch, 0);
        assert!(ckpt.assignment.is_empty() && ckpt.active.is_empty());
        assert_eq!(ckpt.battery_used_j, vec![0.0; 3]);
        assert_eq!(ckpt.cache.len(), 3);
        assert_eq!(ckpt.members, vec![0, 1, 2], "everyone starts a member");
        assert!(ckpt.profiles.is_empty(), "uniform fleet names no profiles");
        let restored = SimulationCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(restored, ckpt);
    }

    #[test]
    fn cache_capture_and_restore_round_trip() {
        let mut cache = AssessmentCache::new(2);
        let reports: CameraAssessment = [(AlgorithmId::Acf, Vec::new())].into();
        cache.record(0, 4, reports.clone());
        cache.mark_heard(1, 2);
        let ckpt = SimulationCheckpoint {
            cache: SimulationCheckpoint::capture_cache(&cache, 2),
            ..SimulationCheckpoint::initial(2)
        };
        let restored = ckpt.restore_cache();
        assert_eq!(restored.entry(0), Some((4, &reports)));
        assert!(restored.heard_in(1, 2));
        assert!(restored.entry(1).is_none());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(SimulationCheckpoint::from_json("{").is_err());
        assert!(SimulationCheckpoint::from_json("{}").is_err());
        let wrong_schema = sample().to_json().replace(SCHEMA, "other/1");
        assert!(SimulationCheckpoint::from_json(&wrong_schema).is_err());
        let bad_alg = sample().to_json().replace("LSVM", "YOLO");
        assert!(SimulationCheckpoint::from_json(&bad_alg).is_err());
    }

    #[test]
    fn store_restores_newest_healthy_generation() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
        assert_eq!(store.commit("alpha"), 1);
        assert_eq!(store.commit("beta"), 2);
        let restored = store.restore().unwrap();
        assert_eq!(restored.generation, 2);
        assert_eq!(restored.rolled_back, 0);
        assert_eq!(restored.payload, "beta");
        assert_eq!(store.rollbacks(), 0);
    }

    #[test]
    fn torn_newest_generation_rolls_back_one() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::seeded(7).with_torn_write(2));
        store.commit("alpha");
        store.commit("beta");
        let restored = store.restore().unwrap();
        assert_eq!(restored.generation, 1);
        assert_eq!(restored.rolled_back, 1);
        assert_eq!(restored.payload, "alpha");
        assert_eq!(store.rollbacks(), 1);
    }

    #[test]
    fn bit_rot_anywhere_in_newest_record_rolls_back() {
        // Deterministic rot of generation 3 under many seeds: the flipped
        // bit lands all over the record (header, payload, checksum), and
        // every position must be caught.
        for seed in 0..50 {
            let mut store = CheckpointStore::new(CheckpointFaultPlan::seeded(seed).with_bit_rot(3));
            store.commit("one");
            store.commit("two");
            store.commit("three");
            let restored = store.restore().unwrap();
            assert_eq!(restored.generation, 2, "seed {seed}");
            assert_eq!(restored.rolled_back, 1, "seed {seed}");
            assert_eq!(restored.payload, "two", "seed {seed}");
        }
    }

    #[test]
    fn chain_mismatch_with_healthy_predecessor_is_rejected() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
        store.commit("alpha");
        store.commit("beta");
        // Forge generation 2: internally consistent (schema, length and
        // payload CRC all verify) but chained to a payload that was never
        // generation 1. Only the chain check can catch this.
        let forged_payload = "evil";
        let mut forged = format!(
            "{{\"schema\": \"{STORE_SCHEMA}\", \"generation\": 2, \
             \"prev_crc\": {prev}, \"payload_crc\": {crc}, \"payload_bytes\": {len}}}",
            prev = crc32(b"not-alpha"),
            crc = crc32(forged_payload.as_bytes()),
            len = forged_payload.len(),
        )
        .into_bytes();
        forged.push(b'\n');
        forged.extend_from_slice(forged_payload.as_bytes());
        store.records[1].record = forged;

        let restored = store.restore().unwrap();
        assert_eq!(restored.generation, 1);
        assert_eq!(restored.rolled_back, 1);
        assert_eq!(restored.payload, "alpha");
    }

    #[test]
    fn exhausted_store_returns_typed_error_never_panics() {
        let mut empty = CheckpointStore::new(CheckpointFaultPlan::none());
        assert_eq!(
            empty.restore(),
            Err(CheckpointError::NoVerifiedGeneration { tried: 0 })
        );

        let mut store = CheckpointStore::new(
            CheckpointFaultPlan::seeded(3)
                .with_torn_write(1)
                .with_bit_rot(2),
        );
        store.commit("alpha");
        store.commit("beta");
        let err = store.restore().unwrap_err();
        assert_eq!(err, CheckpointError::NoVerifiedGeneration { tried: 2 });
        assert!(err.to_string().contains("2 record(s)"));
        assert_eq!(store.rollbacks(), 2);
    }

    #[test]
    fn store_bounds_retained_generations() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none()).with_keep(2);
        for i in 0..10 {
            store.commit(&format!("payload-{i}"));
        }
        assert_eq!(store.generations(), 2);
        assert_eq!(store.latest_generation(), 10);
        let restored = store.restore().unwrap();
        assert_eq!(restored.generation, 10);
        assert_eq!(restored.payload, "payload-9");
    }

    #[test]
    fn rate_based_rot_is_deterministic_and_survivable() {
        let run = |seed: u64| {
            let mut store =
                CheckpointStore::new(CheckpointFaultPlan::seeded(seed).with_bit_rot_rate(0.5));
            for i in 0..4 {
                store.commit(&format!("gen-{i}"));
            }
            let restored = store.restore();
            (restored, store.rollbacks())
        };
        for seed in 0..20 {
            assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
        }
        // At rate 0.5 over 20 seeds at least one run must roll back and
        // at least one must restore the newest generation untouched.
        let outcomes: Vec<_> = (0..20).map(run).collect();
        assert!(outcomes.iter().any(|(_, rb)| *rb > 0));
        assert!(outcomes
            .iter()
            .any(|(r, _)| matches!(r, Ok(c) if c.generation == 4 && c.rolled_back == 0)));
    }

    #[test]
    fn disabled_fault_plan_is_inert() {
        assert!(!CheckpointFaultPlan::none().enabled());
        assert!(!CheckpointFaultPlan::seeded(9).enabled());
        assert!(CheckpointFaultPlan::seeded(9).with_torn_write(1).enabled());
        assert!(CheckpointFaultPlan::seeded(9).with_bit_rot(1).enabled());
        assert!(CheckpointFaultPlan::seeded(9)
            .with_bit_rot_rate(0.1)
            .enabled());
        let mut bytes = b"header\npayload".to_vec();
        let before = bytes.clone();
        assert!(!CheckpointFaultPlan::none().corrupt(1, &mut bytes));
        assert_eq!(bytes, before);
    }

    #[test]
    #[should_panic(expected = "bit-rot rate")]
    fn certain_rot_rate_is_rejected() {
        let _ = CheckpointFaultPlan::seeded(1).with_bit_rot_rate(1.0);
    }
}
