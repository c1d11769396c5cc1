//! The crash-safe flight journal: the daemon's durable memory of
//! admitted plans, delivery watermarks, and completed digests.
//!
//! The journal is an append-only text file beside the run cache
//! (`<cache>/flight-journal.bwj`). Each line is one record:
//! a 16-hex-digit FNV-1a checksum of the JSON body, one space, the
//! body. Appends go through [`bw_core::fsutil::append_line`] (the
//! sanctioned append primitive: flushed and fsynced, never rewriting
//! earlier lines), so a crash can tear at most the final line — and
//! the checksum makes a torn tail detectable. Replay mirrors the
//! `.bwt` trace format's validate-at-decode posture: every line is
//! checksummed and shape-checked as it is read, and anything damaged
//! is skipped and counted, never trusted and never a panic.
//!
//! Record kinds:
//!
//! * `session` — a session token was issued. Replay re-adopts the
//!   token (reconnects keep working across a daemon restart) and
//!   keeps the token counter monotonic.
//! * `plan` — a submit was admitted for a session: the request id and
//!   the full cell list. Written *before* admission settles cells, so
//!   a daemon that dies mid-plan still knows the whole plan.
//! * `ack` — the client acknowledged delivered cell indices (the
//!   per-session watermark). Acked cells are never redelivered.
//! * `done` — a flight's result was stored in the run cache, recorded
//!   by key digest. Replay re-enqueues only journaled cells whose
//!   digest has neither a `done` record nor a live cache entry.
//!
//! On startup the daemon replays the journal, rebuilds its session
//! table, restarts orphaned flights, and *compacts*: fully-acked
//! requests are dropped and the survivors are rewritten atomically
//! ([`bw_core::fsutil::atomic_write`]), so the journal stays
//! proportional to outstanding work, not daemon lifetime.
//!
//! This module is a determinism-pass root: replaying the same journal
//! bytes must rebuild the same state on every daemon, so nothing here
//! may read clocks, the environment, or unordered maps.

use std::path::{Path, PathBuf};

use bw_core::types::fnv1a;
use serde::{Deserialize, Serialize};

use crate::protocol::WireError;
use crate::request::CellSpec;

/// The journal's file name inside the cache directory.
pub const JOURNAL_FILE: &str = "flight-journal.bwj";

/// One journal record. See the module docs for when each is written.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "type",
    rename_all = "kebab-case",
    expecting = "journal record type"
)]
pub enum JournalRecord {
    /// A session token was issued.
    Session {
        /// The token.
        token: String,
    },
    /// A submit was admitted for a session.
    Plan {
        /// The owning session.
        token: String,
        /// The client's request id.
        req: u64,
        /// Every cell of the submit, in request order.
        cells: Vec<CellSpec>,
        /// Whether the submit asked for the priority lane.
        priority: bool,
    },
    /// The client acknowledged delivered cells.
    Ack {
        /// The owning session.
        token: String,
        /// The request the indices belong to.
        req: u64,
        /// Acked cell indices.
        cells: Vec<u64>,
    },
    /// A flight's result was stored in the run cache.
    Done {
        /// The completed [`RunKey`](bw_core::RunKey) digest, written
        /// as 16 hex digits.
        #[serde(with = "bw_core::types::hex16")]
        digest: u64,
    },
}

impl JournalRecord {
    /// Renders the record as one checksummed journal line (no
    /// trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let body = serde_json::to_string(self).unwrap_or_default();
        format!("{:016x} {body}", fnv1a(body.as_bytes()))
    }

    /// Parses one journal line: checksum, body JSON, record shape.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for a torn, damaged, or misshapen
    /// line.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let (checksum, body) = line
            .split_once(' ')
            .ok_or_else(|| WireError::Malformed("journal line lacks a checksum".into()))?;
        if checksum.len() != 16 || u64::from_str_radix(checksum, 16).is_err() {
            return Err(WireError::Malformed(format!(
                "bad journal checksum `{checksum}`"
            )));
        }
        if format!("{:016x}", fnv1a(body.as_bytes())) != checksum {
            return Err(WireError::Malformed(
                "journal line fails its checksum (torn tail or damage)".into(),
            ));
        }
        let v = serde_json::parse_value_str(body)?;
        Ok(JournalRecord::from_value(&v)?)
    }
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Lines that failed checksum or shape validation (a crash's torn
    /// tail lands here; so would bit damage).
    pub skipped: usize,
}

/// The append-only flight journal file.
#[derive(Clone, Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// The journal inside cache directory `dir`.
    #[must_use]
    pub fn in_dir(dir: &Path) -> Journal {
        Journal {
            path: dir.join(JOURNAL_FILE),
        }
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. Best-effort, like the run cache's store: a
    /// full disk degrades durability (a crash loses more progress),
    /// not correctness (completed cells are still in the cache).
    pub fn append(&self, record: &JournalRecord) {
        let _ = bw_core::fsutil::append_line(&self.path, &record.to_line());
    }

    /// Reads every valid record. A missing file is an empty journal;
    /// torn or damaged lines are skipped and counted.
    #[must_use]
    pub fn replay(&self) -> JournalReplay {
        let mut replay = JournalReplay::default();
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return replay;
        };
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match JournalRecord::from_line(line) {
                Ok(record) => replay.records.push(record),
                Err(_) => replay.skipped += 1,
            }
        }
        replay
    }

    /// Atomically replaces the journal with `records` (compaction).
    /// Readers observe the old complete journal or the new one, never
    /// a torn intermediate.
    pub fn rewrite(&self, records: &[JournalRecord]) {
        let text: String = records
            .iter()
            .map(|r| {
                let mut line = r.to_line();
                line.push('\n');
                line
            })
            .collect();
        let _ = bw_core::fsutil::atomic_write(&self.path, text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bw-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> CellSpec {
        CellSpec {
            benchmark: "gzip".to_string(),
            predictor: "Bim_4k".to_string(),
            warmup_insts: 2000,
            measure_insts: 1000,
            seed,
            banked: false,
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Session {
                token: "sess-000000000001".to_string(),
            },
            JournalRecord::Plan {
                token: "sess-000000000001".to_string(),
                req: 7,
                cells: vec![spec(1), spec(2)],
                priority: true,
            },
            JournalRecord::Ack {
                token: "sess-000000000001".to_string(),
                req: 7,
                cells: vec![0],
            },
            JournalRecord::Done {
                digest: 0xdead_beef_0102_0304,
            },
        ]
    }

    #[test]
    fn records_round_trip_through_lines() {
        for record in sample_records() {
            let back = JournalRecord::from_line(&record.to_line()).expect("parse back");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn done_digests_must_be_sixteen_hex_digits() {
        for digest in [
            "\"abc\"",
            "\"000000000000000g\"",
            "\"00000000000000001\"",
            "17",
        ] {
            let body = format!(r#"{{"type":"done","digest":{digest}}}"#);
            let line = format!("{:016x} {body}", fnv1a(body.as_bytes()));
            let err = JournalRecord::from_line(&line).expect_err(&body);
            assert!(err.to_string().contains("digest"), "{err}");
        }
    }

    #[test]
    fn append_replay_round_trips_and_tolerates_a_torn_tail() {
        let dir = temp_dir("torn");
        let journal = Journal::in_dir(&dir);
        let records = sample_records();
        for r in &records {
            journal.append(r);
        }
        // Simulate a crash mid-append: a final line with no newline
        // and half its bytes missing.
        let torn = records[1].to_line();
        let mut bytes = std::fs::read(journal.path()).unwrap();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(journal.path(), bytes).unwrap();

        let replay = journal.replay();
        assert_eq!(replay.records, records, "whole lines all survive");
        assert_eq!(replay.skipped, 1, "the torn tail is skipped, not trusted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_lines_are_skipped_never_panic() {
        let dir = temp_dir("corrupt");
        let journal = Journal::in_dir(&dir);
        for r in sample_records() {
            journal.append(&r);
        }
        let mut bytes = std::fs::read(journal.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x3f;
        std::fs::write(journal.path(), bytes).unwrap();
        let replay = journal.replay();
        assert!(replay.skipped >= 1, "the damaged line must be counted");
        assert!(replay.records.len() < 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn journal_append(journal: &Journal, records: Vec<JournalRecord>) {
        for r in records {
            journal.append(&r);
        }
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let dir = temp_dir("rewrite");
        let journal = Journal::in_dir(&dir);
        journal_append(&journal, sample_records());
        let keep = vec![JournalRecord::Session {
            token: "sess-000000000001".to_string(),
        }];
        journal.rewrite(&keep);
        let replay = journal.replay();
        assert_eq!(replay.records, keep);
        assert_eq!(replay.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty() {
        let journal = Journal::in_dir(Path::new("/nonexistent/bw-journal"));
        let replay = journal.replay();
        assert!(replay.records.is_empty());
        assert_eq!(replay.skipped, 0);
    }
}
