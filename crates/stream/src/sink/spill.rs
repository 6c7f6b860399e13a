//! [`SpillLog`]: the durable append-only event log behind degraded-mode
//! egress.
//!
//! When a sink exhausts its delivery attempts, the pipeline stops
//! handing it batches and appends them here instead. A spill file is a
//! score log of events not yet delivered: the same magic (`BCPDSLG1`),
//! framing ([`crate::framed`]) and record codec
//! ([`crate::scorelog::format`]) as `--score-log`, so `query` and every
//! other score-log reader open it. Hence:
//!
//! - appends are crash-safe: a `kill -9` mid-append leaves a torn final
//!   frame, which [`SpillLog::open`] detects (bad length, bad checksum,
//!   short read) and truncates away — the log never replays garbage;
//! - [`SpillLog::sync`] is an `fsync`, which is what lets a checkpoint
//!   commit over spilled events without violating the two-phase
//!   contract ("durably spilled" stands in for "durably delivered");
//! - replay is in append order, so a recovered sink sees exactly the
//!   event sequence a fault-free run would have delivered.
//!
//! A file in any other format (including spills written in the retired
//! `BCPDSPL1` codec) is refused on open and left untouched.

use crate::event::Event;
use crate::scorelog::EventLog;
use std::io;
use std::path::Path;

/// A durable append-only log of [`Event`]s. See the module docs for
/// format and crash-safety properties.
pub struct SpillLog {
    log: EventLog,
}

impl SpillLog {
    /// Open (or create) the log at `path`, scanning existing frames and
    /// truncating a torn tail left by a crash mid-append.
    ///
    /// # Errors
    /// I/O failure, or an existing file whose magic is not a score log
    /// (refusing to truncate a file this module does not own).
    pub fn open(path: &Path) -> io::Result<SpillLog> {
        Ok(SpillLog {
            log: EventLog::open(path, "spill log")?,
        })
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Events recorded (durable or pending [`SpillLog::sync`]).
    pub fn len(&self) -> u64 {
        self.log.events()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.log.events() == 0
    }

    /// Append a batch of events as one frame. Durable only after
    /// [`SpillLog::sync`].
    ///
    /// # Errors
    /// I/O failure; the frame may be torn on disk, which the next
    /// [`SpillLog::open`] truncates away.
    pub fn append(&mut self, events: &[Event]) -> io::Result<()> {
        self.log
            .append(events)
            .map(|_| ())
            .map_err(|e| match e.kind() {
                io::ErrorKind::InvalidInput => io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "spill batch exceeds the maximum frame size",
                ),
                _ => e,
            })
    }

    /// Make every appended frame durable (`fsync`).
    ///
    /// # Errors
    /// I/O failure; the pipeline must not checkpoint over the spill.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Read back every event, in append order. The write position is
    /// unaffected.
    ///
    /// # Errors
    /// I/O failure. Torn tails never error here: `open` already
    /// truncated them, and frames appended by this process are
    /// well-formed; a frame that still fails to decode reports
    /// `InvalidData`.
    pub fn replay(&mut self) -> io::Result<Vec<Event>> {
        self.log.read_all()
    }

    /// Drop every recorded event: truncate back to the magic and sync.
    /// The stream-name intern table restarts with the file.
    ///
    /// # Errors
    /// I/O failure.
    pub fn clear(&mut self) -> io::Result<()> {
        self.log.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DiffOutcome, QuarantineRecord};
    use crate::ingest::source::SourceError;
    use crate::scorelog::{Query, ScoreStore};
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::fs::OpenOptions;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn point(stream: &str, t: usize) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score: 0.5 + t as f64,
                ci: ConfidenceInterval {
                    lo: 0.1,
                    up: 0.9 + t as f64,
                },
                xi: if t.is_multiple_of(2) {
                    Some(-0.25)
                } else {
                    None
                },
                alert: t.is_multiple_of(3),
            },
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            point("a", 0),
            point("b", 1),
            Event::StreamError {
                stream: Arc::from("a"),
                message: "bad bag".into(),
            },
            Event::Quarantine(QuarantineRecord {
                stream: Arc::from("q"),
                error: SourceError::Data("backwards time".into()),
            }),
            Event::Note("rotated".into()),
            Event::CheckpointWritten { bytes: 77, bags: 4 },
            Event::Degraded {
                sink: "csv".into(),
                reason: "refused".into(),
            },
            Event::Recovered {
                sink: "csv".into(),
                replayed: 12,
            },
            Event::ReplayDiff {
                stream: Arc::from("a"),
                t: 9,
                live: 1.25,
                recorded: 1.5,
                outcome: DiffOutcome::Diverged,
            },
        ]
    }

    #[test]
    fn round_trips_every_variant_across_reopen() {
        let dir = tempdir();
        let path = dir.join("log.spill");
        let events = sample_events();
        {
            let mut log = SpillLog::open(&path).unwrap();
            log.append(&events[..3]).unwrap();
            log.append(&events[3..]).unwrap();
            log.sync().unwrap();
            assert_eq!(log.len(), events.len() as u64);
            assert_eq!(log.replay().unwrap(), events);
            // Replay is repeatable and does not disturb appends.
            log.append(&[Event::Note("tail".into())]).unwrap();
            assert_eq!(log.len(), events.len() as u64 + 1);
        }
        let mut log = SpillLog::open(&path).unwrap();
        assert_eq!(log.len(), events.len() as u64 + 1);
        let replayed = log.replay().unwrap();
        assert_eq!(&replayed[..events.len()], &events[..]);
        assert_eq!(replayed.last(), Some(&Event::Note("tail".into())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tempdir();
        let path = dir.join("torn.spill");
        let events = sample_events();
        {
            let mut log = SpillLog::open(&path).unwrap();
            log.append(&events).unwrap();
            log.append(&[Event::Note("will be torn".into())]).unwrap();
            log.sync().unwrap();
        }
        // Tear the final frame, as a kill -9 mid-append would.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let mut log = SpillLog::open(&path).unwrap();
        assert_eq!(log.len(), events.len() as u64, "torn frame dropped whole");
        assert_eq!(log.replay().unwrap(), events);
        // The log stays appendable after truncation.
        log.append(&[Event::Note("after".into())]).unwrap();
        log.sync().unwrap();
        let log = SpillLog::open(&path).unwrap();
        assert_eq!(log.len(), events.len() as u64 + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_foreign_files_and_clears() {
        let dir = tempdir();
        let foreign = dir.join("foreign.bin");
        std::fs::write(&foreign, b"not a spill log at all").unwrap();
        assert!(SpillLog::open(&foreign).is_err());

        let path = dir.join("clear.spill");
        let mut log = SpillLog::open(&path).unwrap();
        log.append(&sample_events()).unwrap();
        log.clear().unwrap();
        assert!(log.is_empty());
        assert!(log.replay().unwrap().is_empty());
        log.append(&[Event::Note("fresh".into())]).unwrap();
        assert_eq!(log.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_restarts_the_intern_table() {
        // After a clear the file holds only what follows it, so the
        // next frame must re-define its streams: a reopen then decodes
        // exactly the post-clear events.
        let dir = tempdir();
        let path = dir.join("reuse.spill");
        {
            let mut log = SpillLog::open(&path).unwrap();
            log.append(&[point("a", 0), point("b", 1)]).unwrap();
            log.clear().unwrap();
            log.append(&[point("b", 2), point("a", 3)]).unwrap();
            log.sync().unwrap();
        }
        let mut log = SpillLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.replay().unwrap(), vec![point("b", 2), point("a", 3)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn score_store_reads_a_spill_file() {
        let dir = tempdir();
        let path = dir.join("query.spill");
        {
            let mut log = SpillLog::open(&path).unwrap();
            log.append(&sample_events()).unwrap();
            log.append(&[point("a", 3)]).unwrap();
            log.sync().unwrap();
        }
        let store = ScoreStore::scan(&path).unwrap();
        let streams: Vec<&str> = store.streams().map(|(name, _)| name.as_ref()).collect();
        assert_eq!(streams, vec!["a", "b"]);
        let rows = store
            .query(&Query {
                stream: Some("a".into()),
                ..Default::default()
            })
            .unwrap();
        let ts: Vec<usize> = rows.iter().map(|row| row.point.t).collect();
        assert_eq!(ts, vec![0, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-spill-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
