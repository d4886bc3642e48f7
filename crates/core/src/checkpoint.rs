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
//! A checkpoint is a [`Json`] tree written by [`Json::write`], the
//! workspace's one JSON codec ([`crate::jsonio`]; the build is offline,
//! no serde), which restores every `f64` bit-for-bit — so a restored
//! controller replays byte-identically with one that never crashed
//! between checkpoints. Decoding is total: integers go through
//! [`Json::as_u64`] and are narrowed with `try_from`, so an
//! out-of-range or non-integral number is an error, never a wrapped
//! value. The [`CheckpointStore`] frames each payload with a
//! [`crate::journal`] record header, checksummed like any journal line.

use crate::controller::{AssessmentCache, CameraAssessment};
use crate::journal::{read_record, record_line};
use crate::jsonio::{self, Json};
use crate::metadata::{CameraReport, ObjectMetadata};
use eecs_detect::detection::{AlgorithmId, BBox};
use eecs_net::checksum::crc32;
use eecs_net::fault::mix64;
use std::collections::BTreeMap;

/// Schema tag stamped into every checkpoint payload document.
/// Version 4 adds fleet membership and per-camera device-profile names,
/// so a restored seat knows which cameras existed and on what hardware.
pub const SCHEMA: &str = "eecs-checkpoint/4";

/// Schema tag stamped into every verified store record header.
pub const STORE_SCHEMA: &str = "eecs-checkpoint-store/1";

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

    /// Serializes the checkpoint to JSON. Never panics: a non-finite
    /// number, which JSON cannot carry, yields an empty document that
    /// [`SimulationCheckpoint::from_json`] refuses.
    pub fn to_json(&self) -> String {
        let ints = |v: &[usize]| arr(v, |&n| int(n));
        obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("round", int(self.round)),
            ("epoch", Json::Num(self.epoch as f64)),
            (
                "assignment",
                arr(&self.assignment, |(&cam, &alg)| {
                    Json::Arr(vec![int(cam), name(alg)])
                }),
            ),
            ("active", ints(&self.active)),
            (
                "battery_used_j",
                arr(&self.battery_used_j, |&j| Json::Num(j)),
            ),
            ("cache", arr(&self.cache, slot_json)),
            (
                "quarantine",
                arr(&self.quarantine, |&(cam, alg, strikes, until)| {
                    Json::Arr(vec![
                        int(cam),
                        name(alg),
                        Json::Num(strikes.into()),
                        int(until),
                    ])
                }),
            ),
            ("members", ints(&self.members)),
            ("profiles", arr(&self.profiles, |p| Json::Str(p.clone()))),
        ])
        .write()
        .unwrap_or_default()
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem — malformed
    /// JSON, a wrong schema tag, a missing/ill-typed field, or a number
    /// out of its field's range.
    pub fn from_json(text: &str) -> Result<SimulationCheckpoint, String> {
        let doc = jsonio::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        Ok(SimulationCheckpoint {
            round: get_int(&doc, "round")?,
            epoch: get_int(&doc, "epoch")?,
            assignment: get_list(&doc, "assignment", |pair| match pair.as_arr() {
                Some([cam, alg]) => Ok((as_int(cam)?, as_algorithm(alg)?)),
                _ => Err("assignment entry must be [camera, algorithm]".into()),
            })?,
            active: get_list(&doc, "active", as_int)?,
            battery_used_j: get_list(&doc, "battery_used_j", as_f64)?,
            cache: get_list(&doc, "cache", parse_slot)?,
            quarantine: get_list(&doc, "quarantine", |entry| match entry.as_arr() {
                Some([cam, alg, strikes, until]) => Ok((
                    as_int(cam)?,
                    as_algorithm(alg)?,
                    as_int(strikes)?,
                    as_int(until)?,
                )),
                _ => Err("quarantine entry must be [camera, algorithm, strikes, round]".into()),
            })?,
            members: get_list(&doc, "members", as_int)?,
            profiles: get_list(&doc, "profiles", |v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "profile name must be a string".to_string())
            })?,
        })
    }
}

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_owned(), v)).into())
}

fn arr<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
    Json::Arr(items.into_iter().map(f).collect())
}

fn int(n: usize) -> Json {
    Json::Num(n as f64)
}

fn name(alg: AlgorithmId) -> Json {
    Json::Str(alg.to_string())
}

fn slot_json(slot: &CacheSlot) -> Json {
    let entry = slot.entry.as_ref().map_or(Json::Null, |(round, reports)| {
        let series = |(&alg, series): (&AlgorithmId, &Vec<CameraReport>)| {
            Json::Arr(vec![name(alg), arr(series, report_json)])
        };
        obj([("round", int(*round)), ("reports", arr(reports, series))])
    });
    obj([
        ("epoch", Json::Num(slot.epoch as f64)),
        ("heard", slot.heard.map_or(Json::Null, int)),
        ("entry", entry),
    ])
}

fn report_json(report: &CameraReport) -> Json {
    let object = |o: &ObjectMetadata| {
        let BBox { x0, y0, x1, y1 } = o.bbox;
        obj([
            ("camera", int(o.camera)),
            ("bbox", arr([x0, y0, x1, y1], Json::Num)),
            ("probability", Json::Num(o.probability)),
            ("color", arr(&o.color, |&c| Json::Num(c))),
        ])
    };
    obj([("objects", arr(&report.objects, object))])
}

fn parse_slot(v: &Json) -> Result<CacheSlot, String> {
    let heard = match v.get("heard") {
        Some(Json::Null) | None => None,
        Some(n) => Some(as_int(n)?),
    };
    let entry = match v.get("entry") {
        Some(Json::Null) | None => None,
        Some(e) => {
            let reports = get_list(e, "reports", |pair| match pair.as_arr() {
                Some([alg, series]) => Ok((
                    as_algorithm(alg)?,
                    series
                        .as_arr()
                        .ok_or("report series must be an array")?
                        .iter()
                        .map(parse_report)
                        .collect::<Result<_, _>>()?,
                )),
                _ => Err("reports entry must be [algorithm, series]".into()),
            })?;
            Some((get_int(e, "round")?, reports))
        }
    };
    Ok(CacheSlot {
        epoch: get_int(v, "epoch")?,
        heard,
        entry,
    })
}

fn parse_report(v: &Json) -> Result<CameraReport, String> {
    let objects = get_list(v, "objects", |o| {
        let bbox = match o.get("bbox").and_then(Json::as_arr) {
            Some([x0, y0, x1, y1]) => BBox {
                x0: as_f64(x0)?,
                y0: as_f64(y0)?,
                x1: as_f64(x1)?,
                y1: as_f64(y1)?,
            },
            _ => return Err("object needs \"bbox\": [x0, y0, x1, y1]".into()),
        };
        Ok(ObjectMetadata {
            camera: get_int(o, "camera")?,
            bbox,
            probability: as_f64(
                o.get("probability")
                    .ok_or("object missing \"probability\"")?,
            )?,
            color: get_list(o, "color", as_f64)?,
        })
    })?;
    Ok(CameraReport { objects })
}

/// Decodes every element of the `key` array with `f` into any
/// collection (a `Vec`, or a `BTreeMap` from pairs).
fn get_list<T, C: FromIterator<T>>(
    v: &Json,
    key: &str,
    f: impl FnMut(&Json) -> Result<T, String>,
) -> Result<C, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing \"{key}\" array"))?
        .iter()
        .map(f)
        .collect()
}

fn get_int<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    as_int(v.get(key).ok_or_else(|| format!("missing \"{key}\""))?)
}

fn as_int<T: TryFrom<u64>>(v: &Json) -> Result<T, String> {
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| match v {
            Json::Num(n) => format!("integer out of range: {n}"),
            _ => "expected an integer".to_string(),
        })
}

fn as_f64(v: &Json) -> Result<f64, String> {
    v.as_num()
        .filter(|n| n.is_finite())
        .ok_or_else(|| "expected a finite number".to_string())
}

fn as_algorithm(v: &Json) -> Result<AlgorithmId, String> {
    v.as_str().ok_or("expected an algorithm name")?.parse()
}

// ---------------------------------------------------------------------------
// Verified checkpoint store (record header schema eecs-checkpoint-store/1)
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

/// Fields a record's header must carry to be considered at all.
struct RecordHeader {
    generation: u64,
    prev_crc: u32,
    payload_crc: u32,
}

/// A verified, generation-chained checkpoint store.
///
/// Every [`commit`](CheckpointStore::commit) stores one record: a header
/// line, then the raw payload bytes. The header is a
/// [`crate::journal`] record — `{schema, generation, prev_crc,
/// payload_crc}` with the journal's trailing `crc` member over its
/// canonical encoding — carrying the [`STORE_SCHEMA`] tag, a monotone
/// generation counter, the payload's CRC-32 and the *previous*
/// generation's payload CRC (the chain link).
/// [`restore`](CheckpointStore::restore) walks from the newest retained
/// generation backwards and returns the first record that verifies —
/// header checksum and schema match, payload checksum matches, and
/// (when its predecessor is itself healthy) the chain link agrees. Torn
/// writes and bit rot therefore degrade recovery to an older consistent
/// state instead of deserializing garbage; each skipped generation is
/// counted as a rollback.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Retained records, oldest first, as stored (possibly damaged).
    records: Vec<Vec<u8>>,
    next_generation: u64,
    last_payload_crc: u32,
    faults: CheckpointFaultPlan,
}

impl CheckpointStore {
    /// Generations retained — enough to survive a damaged newest record
    /// with headroom, without unbounded growth.
    pub const DEFAULT_KEEP: usize = 4;

    /// An empty store injecting `faults` at commit time.
    pub fn new(faults: CheckpointFaultPlan) -> CheckpointStore {
        CheckpointStore {
            records: Vec::new(),
            next_generation: 1,
            last_payload_crc: 0,
            faults,
        }
    }

    /// Commits `payload` as the next generation and returns its
    /// generation counter. The record is damaged here, deterministically,
    /// if the fault plan says so — exactly like a storage medium that
    /// corrupts on write.
    pub fn commit(&mut self, payload: &str) -> u64 {
        let generation = self.next_generation;
        let payload_crc = crc32(payload.as_bytes());
        let mut record = encode_record(generation, self.last_payload_crc, payload_crc, payload);
        self.faults.corrupt(generation, &mut record);
        self.records.push(record);
        if self.records.len() > CheckpointStore::DEFAULT_KEEP {
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
            let Some((header, payload)) = verify_record(&self.records[idx]) else {
                rolled_back += 1;
                continue;
            };
            // Chain check: a healthy predecessor must be the one this
            // record claims to extend. A damaged predecessor cannot
            // testify either way, so the payload checksum alone decides.
            if idx > 0 {
                if let Some((prev, _)) = verify_record(&self.records[idx - 1]) {
                    if header.prev_crc != prev.payload_crc {
                        rolled_back += 1;
                        continue;
                    }
                }
            }
            return Ok(RestoredCheckpoint {
                generation: header.generation,
                rolled_back,
                payload: payload.to_owned(),
            });
        }
        Err(CheckpointError::NoVerifiedGeneration {
            tried: self.records.len(),
        })
    }
}

/// One store record: the checksummed header line, then the payload
/// whose CRC-32 is `payload_crc`.
fn encode_record(generation: u64, prev_crc: u32, payload_crc: u32, payload: &str) -> Vec<u8> {
    let header = obj([
        ("schema", Json::Str(STORE_SCHEMA.into())),
        ("generation", Json::Num(generation as f64)),
        ("prev_crc", Json::Num(prev_crc.into())),
        ("payload_crc", Json::Num(payload_crc.into())),
    ]);
    let mut record = record_line(&header)
        .expect("an object of one string and finite integers always encodes")
        .into_bytes();
    record.push(b'\n');
    record.extend_from_slice(payload.as_bytes());
    record
}

/// Verifies one stored record: the header line is a checksummed
/// [`STORE_SCHEMA`] journal record and the payload checksum agrees.
/// Returns `None` on any damage — this function must be total over
/// arbitrary bytes.
fn verify_record(record: &[u8]) -> Option<(RecordHeader, &str)> {
    let split = record.iter().position(|&b| b == b'\n')?;
    let header = read_record(&record[..split], "checkpoint store", 1).ok()?;
    if header.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
        return None;
    }
    let field = |key: &str| header.get(key).and_then(Json::as_u64);
    let crc = |key: &str| u32::try_from(field(key)?).ok();
    let header = RecordHeader {
        generation: field("generation")?,
        prev_crc: crc("prev_crc")?,
        payload_crc: crc("payload_crc")?,
    };
    let payload = &record[split + 1..];
    if crc32(payload) != header.payload_crc {
        return None;
    }
    Some((header, std::str::from_utf8(payload).ok()?))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn spaced_documents_with_float_zeros_decode() {
        // Checkpoints written before the move to `Json::write` space their
        // members and spell integral floats `0.0`; the codec writes
        // neither, and both spellings decode alike.
        let spaced = "{\"schema\": \"eecs-checkpoint/4\", \"round\": 0, \"epoch\": 0, \
                      \"assignment\": [], \"active\": [], \"battery_used_j\": [0.0], \
                      \"cache\": [{\"epoch\": 0, \"heard\": null, \"entry\": null}], \
                      \"quarantine\": [], \"members\": [0], \"profiles\": []}";
        let initial = SimulationCheckpoint::initial(1);
        assert_eq!(SimulationCheckpoint::from_json(spaced), Ok(initial.clone()));
        assert!(initial.to_json().contains("\"battery_used_j\":[0]"));
    }

    #[test]
    fn captured_cache_round_trips_through_json() {
        let mut cache = AssessmentCache::new(2);
        let reports: CameraAssessment = [(AlgorithmId::Acf, Vec::new())].into();
        cache.record(0, 4, reports.clone());
        cache.mark_heard(1, 2);
        let ckpt = SimulationCheckpoint {
            cache: SimulationCheckpoint::capture_cache(&cache, 2),
            ..SimulationCheckpoint::initial(2)
        };
        let restored = SimulationCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(restored.cache[0].entry, Some((4, reports)));
        assert_eq!(restored.cache[1].heard, Some(2));
        assert!(restored.cache[1].entry.is_none());
        assert_eq!(restored, ckpt);
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
    fn out_of_range_integers_are_rejected() {
        let text = sample().to_json();
        for (field, bad) in [
            ("\"round\":7", "\"round\":1e300"),
            ("\"round\":7", "\"round\":-1"),
            ("\"round\":7", "\"round\":7.5"),
            ("\"epoch\":3", "\"epoch\":9007199254740994"),
            ("\"active\":[0,2]", "\"active\":[18446744073709551616,2]"),
            ("[1,\"ACF\",2,9]", "[1,\"ACF\",4294967297,9]"),
            ("\"heard\":5", "\"heard\":1e300"),
        ] {
            assert!(text.contains(field), "{field}");
            let doc = text.replacen(field, bad, 1);
            let err = SimulationCheckpoint::from_json(&doc).unwrap_err();
            assert!(err.contains("integer"), "{bad}: {err}");
        }
        // `1e999` parses as infinity: a float field refuses it too.
        let doc = text.replacen("1.5", "1e999", 1);
        assert!(SimulationCheckpoint::from_json(&doc).is_err());
    }

    #[test]
    fn non_finite_numbers_fail_at_decode_not_encode() {
        let mut ckpt = sample();
        ckpt.battery_used_j[1] = f64::NAN;
        let text = ckpt.to_json();
        assert!(SimulationCheckpoint::from_json(&text).is_err());
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
    }

    #[test]
    fn bit_rot_anywhere_in_newest_record_rolls_back() {
        // Every single-bit flip of generation 3 — header, its checksum,
        // the separator, the payload — must be caught.
        let payload = |round| SimulationCheckpoint { round, ..sample() }.to_json();
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
        for round in 1..=3 {
            store.commit(&payload(round));
        }
        let second = payload(2);
        for bit in 0..store.records[2].len() * 8 {
            store.records[2][bit / 8] ^= 1 << (bit % 8);
            let restored = store.restore().unwrap();
            assert_eq!(
                (restored.generation, restored.rolled_back),
                (2, 1),
                "bit {bit}"
            );
            assert_eq!(restored.payload, second, "bit {bit}");
            store.records[2][bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(store.restore().unwrap().generation, 3);
    }

    #[test]
    fn chain_mismatch_with_healthy_predecessor_is_rejected() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
        store.commit("alpha");
        store.commit("beta");
        // Forge generation 2: internally consistent (header checksum,
        // schema and payload CRC all verify) but chained to a payload
        // that was never generation 1. Only the chain check can catch it.
        let forged = encode_record(2, crc32(b"not-alpha"), crc32(b"evil"), "evil");
        let (header, payload) = verify_record(&forged).expect("the forgery verifies alone");
        assert_eq!((header.generation, payload), (2, "evil"));
        store.records[1] = forged;

        let restored = store.restore().unwrap();
        assert_eq!(restored.generation, 1);
        assert_eq!(restored.rolled_back, 1);
        assert_eq!(restored.payload, "alpha");

        // A record in the retired `eecs-checkpoint/3` layout, whose header
        // no checksum covers, is refused for its format alone.
        let legacy = format!(
            "{{\"schema\": \"eecs-checkpoint/3\", \"generation\": 1, \"prev_crc\": 0, \
             \"payload_crc\": {}, \"payload_bytes\": 5}}\nalpha",
            crc32(b"alpha")
        );
        assert!(verify_record(legacy.as_bytes()).is_none());
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
    }

    #[test]
    fn store_bounds_retained_generations() {
        let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
        for i in 0..10 {
            store.commit(&format!("payload-{i}"));
        }
        assert_eq!(store.records.len(), CheckpointStore::DEFAULT_KEEP);
        let (oldest, _) = verify_record(&store.records[0]).unwrap();
        assert_eq!(oldest.generation, 7);
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
            store.restore()
        };
        for seed in 0..20 {
            assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
        }
        // At rate 0.5 over 20 seeds at least one run must roll back and
        // at least one must restore the newest generation untouched.
        let outcomes: Vec<_> = (0..20).map(run).collect();
        assert!(outcomes
            .iter()
            .any(|r| r.as_ref().map_or(true, |c| c.rolled_back > 0)));
        assert!(outcomes
            .iter()
            .any(|r| matches!(r, Ok(c) if c.generation == 4 && c.rolled_back == 0)));
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

    /// Runs `check` on a thread with the 2 MiB stack a pool worker gets.
    pub(crate) fn on_worker_stack(check: fn()) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(check)
            .expect("spawn")
            .join()
            .expect("decoder panicked");
    }

    /// `doc` with its `which`-th number token (modulo the count)
    /// replaced by `with`.
    pub(crate) fn swap_number(doc: &str, which: usize, with: &str) -> String {
        let bytes = doc.as_bytes();
        let is_num = |b: u8| b == b'-' || b == b'.' || b == b'e' || b.is_ascii_digit();
        let starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| {
                (bytes[i] == b'-' || bytes[i].is_ascii_digit())
                    && (i == 0 || matches!(bytes[i - 1], b':' | b',' | b'['))
            })
            .collect();
        let start = starts[which % starts.len()];
        let end = (start..bytes.len())
            .find(|&i| !is_num(bytes[i]))
            .unwrap_or(bytes.len());
        format!("{}{with}{}", &doc[..start], &doc[end..])
    }

    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0..256u32).prop_map(|b| b as u8), 0..48)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn stored_records_verify_as_committed_or_not_at_all(
            noise in bytes(),
            at in 0..usize::MAX,
            shape in 0..3u32,
        ) {
            let payload = sample().to_json();
            let mut store = CheckpointStore::new(CheckpointFaultPlan::none());
            store.commit(&payload);
            store.commit(&payload);
            let mut record = store.records[1].clone();
            let at = at % record.len();
            match shape {
                0 => record.clone_from(&noise),
                1 => {
                    let end = (at + noise.len()).min(record.len());
                    record[at..end].copy_from_slice(&noise[..end - at]);
                }
                _ => {
                    record.truncate(at);
                    record.extend_from_slice(&noise);
                }
            }
            let verified = verify_record(&record).map(|(_, p)| p.to_owned());
            prop_assert!(verified.is_none() || verified.as_deref() == Some(payload.as_str()));
            store.records[1] = record;
            prop_assert!(store.restore().is_ok(), "generation 1 is intact");
            store.records[0].clone_from(&noise);
            let _ = store.restore();
        }

        fn mutated_documents_fail_or_round_trip(
            at in 0..usize::MAX,
            flips in prop::collection::vec(0..usize::MAX, 1..4),
            swap in 0..4usize,
            shape in 0..3u32,
        ) {
            let doc = sample().to_json();
            let text = match shape {
                0 => {
                    let mut bytes = doc.into_bytes();
                    for bit in flips {
                        let bit = bit % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                1 => doc[..at % doc.len()].to_owned(),
                _ => {
                    let with = ["1e300", "-1", "1.5", "18446744073709551616"][swap];
                    swap_number(&doc, at, with)
                }
            };
            if let Ok(ckpt) = SimulationCheckpoint::from_json(&text) {
                let again = ckpt.to_json();
                let back = SimulationCheckpoint::from_json(&again);
                prop_assert_eq!(back.as_ref().map(SimulationCheckpoint::to_json), Ok(again));
                prop_assert_eq!(back, Ok(ckpt));
            }
        }
    }

    #[test]
    fn decoders_are_total_on_damaged_input() {
        on_worker_stack(stored_records_verify_as_committed_or_not_at_all);
        on_worker_stack(mutated_documents_fail_or_round_trip);
    }
}
