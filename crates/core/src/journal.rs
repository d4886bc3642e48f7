//! The append-only, checksummed JSONL journal behind every resumable
//! run: the sweep manifest and the mission service's batch journal. Its
//! record codec also guards the header line of every checkpoint store
//! record ([`crate::checkpoint::CheckpointStore`]).
//!
//! * Line 1 is an **identity header** binding the file to one run (a
//!   sweep's axes, a batch's fingerprint); a file whose header differs
//!   is refused, never resumed from.
//! * Every further line is one record: a JSON object plus a trailing
//!   `"crc"` member, the CRC-32 of the record's *canonical* encoding.
//!   Loading recomputes it from the parsed record — sound because
//!   encode → decode → encode is a fixed point in [`crate::jsonio`] — so
//!   bit-rot anywhere in a record is pinpointed to its line.
//! * A record is committed once its newline is on disk. Bytes after the
//!   last newline are a kill mid-write: ignored and cut off before the
//!   next append, so that record simply runs again. A missing or empty
//!   file is a fresh journal.
//!
//! Decoding is total: a damaged file yields a typed [`JournalError`],
//! never a panic or a half-read record.

use crate::checksum::crc32;
use crate::jsonio::{self, Json};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

/// The record member carrying the CRC-32 of the rest of the record.
const CRC_MEMBER: &str = "crc";

/// Why a journal could not be opened or appended to. Record-level
/// variants name the failing 1-based line.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalError {
    /// The file cannot be read or written, or a record to append cannot
    /// be encoded (not an object, or a non-finite number).
    Io {
        /// Journal path.
        path: String,
        /// Underlying error text.
        error: String,
    },
    /// The header line is not valid JSON or belongs to another run.
    Header {
        /// Journal path.
        path: String,
        /// What was wrong with the header.
        reason: String,
    },
    /// A committed record line failed to parse or to decode.
    CorruptRecord {
        /// Journal path.
        path: String,
        /// 1-based line number of the corrupt record.
        line: usize,
        /// Parse or decode failure detail.
        reason: String,
    },
    /// A record parsed but its stored CRC-32 does not match the record's
    /// canonical bytes — interior bit-rot, pinpointed to its line.
    ChecksumMismatch {
        /// Journal path.
        path: String,
        /// 1-based line number of the rotten record.
        line: usize,
        /// CRC the line claims.
        expected: u32,
        /// CRC recomputed from the record it carries.
        actual: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "journal {path}: {error}"),
            JournalError::Header { path, reason } => write!(f, "journal {path}: {reason}"),
            JournalError::CorruptRecord { path, line, reason } => {
                write!(f, "journal {path}: corrupt record on line {line}: {reason}")
            }
            JournalError::ChecksumMismatch {
                path,
                line,
                expected,
                actual,
            } => write!(
                f,
                "journal {path}: checksum mismatch on line {line}: \
                 recorded {expected:#010x}, recomputed {actual:#010x} — interior bit-rot"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A journal open for appending. Each [`Journal::append`] writes one
/// whole line and syncs it to disk, so a crash loses at most the
/// record being written.
#[derive(Debug)]
pub struct Journal {
    path: String,
    file: File,
}

impl Journal {
    /// Opens the journal at `path` for the run named by `identity`:
    /// verifies the header, checksum-verifies every committed record and
    /// maps it through `decode`, cuts off a torn final line, and writes
    /// the header when the file is new or empty. Returns the handle and
    /// the decoded records in file order.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on an I/O failure, a foreign or
    /// malformed header, or a committed record that fails to parse, to
    /// verify, or to `decode` (whose message becomes the reason).
    pub fn open<T>(
        path: &Path,
        identity: &Json,
        mut decode: impl FnMut(&Json) -> Result<T, String>,
    ) -> Result<(Journal, Vec<T>), JournalError> {
        let shown = path.display().to_string();
        let io = |e: std::io::Error| JournalError::Io {
            path: shown.clone(),
            error: e.to_string(),
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };
        let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut lines = bytes[..committed].split_inclusive(|&b| b == b'\n');
        if let Some(header) = lines.next() {
            let header = parse_line(header).map_err(|e| JournalError::Header {
                path: shown.clone(),
                reason: format!("bad header: {e}"),
            })?;
            if header != *identity {
                return Err(JournalError::Header {
                    path: shown.clone(),
                    reason: "belongs to a different sweep or batch (header mismatch); \
                             delete it to start fresh"
                        .into(),
                });
            }
        }
        let mut records = Vec::new();
        for (line, text) in (2..).zip(lines) {
            let record = read_record(text, &shown, line)?;
            records.push(
                decode(&record).map_err(|reason| JournalError::CorruptRecord {
                    path: shown.clone(),
                    line,
                    reason,
                })?,
            );
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        if committed < bytes.len() {
            file.set_len(committed as u64).map_err(io)?;
        }
        let mut journal = Journal { path: shown, file };
        if committed == 0 {
            journal.write_line(identity.write())?;
        }
        Ok((journal, records))
    }

    /// Appends one record (a JSON object) with its trailing CRC member.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the record cannot be encoded or
    /// the write fails.
    pub fn append(&mut self, record: &Json) -> Result<(), JournalError> {
        self.write_line(record_line(record))
    }

    fn write_line(&mut self, line: Result<String, String>) -> Result<(), JournalError> {
        line.and_then(|line| {
            self.file
                .write_all((line + "\n").as_bytes())
                .and_then(|()| self.file.sync_data())
                .map_err(|e| e.to_string())
        })
        .map_err(|error| JournalError::Io {
            path: self.path.clone(),
            error,
        })
    }
}

/// One journal line for `record`: its members plus the trailing CRC of
/// its canonical encoding.
pub(crate) fn record_line(record: &Json) -> Result<String, String> {
    let Json::Obj(members) = record else {
        return Err("a journal record must be a JSON object".into());
    };
    let crc = crc32(record.write()?.as_bytes());
    let mut members = members.clone();
    members.push((CRC_MEMBER.into(), Json::Num(f64::from(crc))));
    Json::Obj(members).write()
}

fn parse_line(text: &[u8]) -> Result<Json, String> {
    std::str::from_utf8(text)
        .map_err(|e| e.to_string())
        .and_then(jsonio::parse)
}

/// Parses one committed record line, strips its CRC member and verifies
/// it against the canonical bytes of what remains.
pub(crate) fn read_record(text: &[u8], path: &str, line: usize) -> Result<Json, JournalError> {
    let corrupt = |reason: String| JournalError::CorruptRecord {
        path: path.to_owned(),
        line,
        reason,
    };
    let Json::Obj(mut members) = parse_line(text).map_err(corrupt)? else {
        return Err(corrupt("record is not a JSON object".into()));
    };
    let expected = members
        .pop()
        .filter(|(key, _)| key == CRC_MEMBER)
        .and_then(|(_, crc)| u32::try_from(crc.as_u64()?).ok())
        .ok_or_else(|| corrupt("record missing trailing integral \"crc\"".into()))?;
    let record = Json::Obj(members);
    let actual = crc32(record.write().map_err(corrupt)?.as_bytes());
    if expected != actual {
        return Err(JournalError::ChecksumMismatch {
            path: path.to_owned(),
            line,
            expected,
            actual,
        });
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{on_worker_stack, swap_number};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eecs_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn identity(run: &str) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("test-journal/1".into())),
            ("run".into(), Json::Str(run.into())),
        ])
    }

    fn record(i: usize) -> Json {
        Json::Obj(vec![
            ("index".into(), Json::Num(i as f64)),
            ("value".into(), Json::Num(i as f64)),
        ])
    }

    fn keep(v: &Json) -> Result<Json, String> {
        Ok(v.clone())
    }

    /// Header plus `n` complete record lines, as a writer leaves them.
    fn journal_text(n: usize) -> (String, Vec<String>) {
        let mut text = identity("demo").write().unwrap();
        text.push('\n');
        let lines: Vec<String> = (0..n).map(|i| record_line(&record(i)).unwrap()).collect();
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        (text, lines)
    }

    #[test]
    fn record_lines_carry_verifiable_checksums() {
        let rec = record(3);
        let line = record_line(&rec).unwrap();
        let canonical = rec.write().unwrap();
        let crc = crc32(canonical.as_bytes());
        assert_eq!(
            line,
            format!("{},\"crc\":{crc}}}", &canonical[..canonical.len() - 1])
        );
        assert_eq!(read_record(line.as_bytes(), "j", 2), Ok(rec.clone()));
        // A record without a crc member (the pre-checksum format) is
        // rejected as corrupt, not accepted unverified.
        let legacy = rec.write().unwrap();
        assert!(matches!(
            read_record(legacy.as_bytes(), "j", 2),
            Err(JournalError::CorruptRecord { line: 2, .. })
        ));
        assert!(record_line(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn interior_bit_rot_is_pinpointed_with_a_typed_error() {
        let path = scratch("rot.jsonl");
        let (_, lines) = journal_text(3);
        let mut text = identity("demo").write().unwrap();
        text.push('\n');
        // Rot one byte of the middle record's payload: the value 1
        // becomes 7, every line still parses as JSON.
        let rotten = [
            lines[0].clone(),
            lines[1].replace("\"value\":1,", "\"value\":7,"),
            lines[2].clone(),
        ];
        text.push_str(&rotten.join("\n"));
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let err = Journal::open(&path, &identity("demo"), keep).unwrap_err();
        match &err {
            JournalError::ChecksumMismatch { line, .. } => assert_eq!(*line, 3),
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("line 3"));
        assert!(err.to_string().contains("bit-rot"));
        // The refused file is left exactly as it was.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_cut_and_the_next_append_lands_on_its_own_line() {
        let path = scratch("torn.jsonl");
        let (full, lines) = journal_text(3);
        let torn_at = full.len() - lines[2].len() / 2 - 1;
        std::fs::write(&path, &full[..torn_at]).unwrap();

        let (mut journal, records) = Journal::open(&path, &identity("demo"), keep).unwrap();
        assert_eq!(records, vec![record(0), record(1)]);
        journal.append(&record(2)).unwrap();
        drop(journal);
        // The rewritten file is byte-identical to an unbroken journal.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        let (_, records) = Journal::open(&path, &identity("demo"), keep).unwrap();
        assert_eq!(records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_empty_and_torn_header_files_start_fresh() {
        let (header_only, _) = journal_text(0);
        for (name, contents) in [
            ("missing.jsonl", None),
            ("empty.jsonl", Some("")),
            ("torn_header.jsonl", Some("{\"schema\":\"test-jour")),
        ] {
            let path = scratch(name);
            if let Some(contents) = contents {
                std::fs::write(&path, contents).unwrap();
            }
            let (_, records) = Journal::open(&path, &identity("demo"), keep).unwrap();
            assert!(records.is_empty(), "{name}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                header_only,
                "{name}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn foreign_journals_are_refused() {
        let path = scratch("foreign.jsonl");
        let (text, _) = journal_text(2);
        std::fs::write(&path, &text).unwrap();
        let err = Journal::open(&path, &identity("other"), keep).unwrap_err();
        assert!(matches!(err, JournalError::Header { .. }), "{err:?}");
        assert!(err.to_string().contains("different"), "{err}");
        std::fs::write(&path, "not json\n").unwrap();
        let err = Journal::open(&path, &identity("demo"), keep).unwrap_err();
        assert!(err.to_string().contains("bad header"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn decode_failures_name_their_line() {
        let path = scratch("decode.jsonl");
        let (text, _) = journal_text(3);
        std::fs::write(&path, &text).unwrap();
        let err = Journal::open(&path, &identity("demo"), |v| {
            match v.get("index").and_then(Json::as_num) {
                Some(n) if n < 2.0 => Ok(n),
                _ => Err("index out of range".to_string()),
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            JournalError::CorruptRecord {
                path: path.display().to_string(),
                line: 4,
                reason: "index out of range".into(),
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        fn damaged_journals_open_to_a_verified_prefix_or_an_error(
            at in 0..usize::MAX,
            flips in prop::collection::vec(0..usize::MAX, 1..4),
            pick in 0..4usize,
            shape in 0..5u32,
        ) {
            let (text, _) = journal_text(4);
            let value = format!("\"value\":{pick},");
            let bytes = match shape {
                0 => {
                    let mut bytes = text.into_bytes();
                    for bit in flips {
                        let bit = bit % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    bytes
                }
                1 => text.as_bytes()[..at % (text.len() + 1)].to_vec(),
                2 => {
                    let depth = 129 + at % 100_000;
                    let bomb = format!("\"value\":{}{},", "[".repeat(depth), "]".repeat(depth));
                    text.replacen(&value, &bomb, 1).into_bytes()
                }
                3 => {
                    let with = ["1e300", "-1", "1.5", "18446744073709551616"][pick];
                    swap_number(&text, at, with).into_bytes()
                }
                _ => {
                    let long = format!("\"value\":\"{}\",", "x".repeat(1 << 16));
                    text.replacen(&value, &long, 1).into_bytes()
                }
            };
            let path = scratch("fuzz.jsonl");
            std::fs::write(&path, &bytes).unwrap();
            let opened = Journal::open(&path, &identity("demo"), keep);
            let _ = std::fs::remove_file(&path);
            if let Ok((_, records)) = &opened {
                let committed: Vec<Json> = (0..records.len()).map(record).collect();
                prop_assert!(*records == committed, "not a verified prefix: {records:?}");
            }
            prop_assert!(shape != 1 || opened.is_ok(), "a truncated journal resumes");
        }
    }

    #[test]
    fn journal_decoding_is_total_on_damaged_input() {
        on_worker_stack(damaged_journals_open_to_a_verified_prefix_or_an_error);
    }
}
