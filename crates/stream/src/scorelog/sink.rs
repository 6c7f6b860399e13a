//! Recording side: a [`Sink`] that appends every event to a score log,
//! and the open-log handle it shares with [`crate::sink::SpillLog`].

use super::format::{Decoder, Encoder, MAGIC};
use crate::event::Event;
use crate::framed::FramedLog;
use crate::sink::Sink;
use crate::telemetry::{names, Counter, MetricsRegistry};
use std::io;
use std::path::Path;

/// Durable append-only binary log of the pipeline's event stream — the
/// compact sibling of [`crate::sink::JsonLinesSink`]: every variant is
/// recorded (not just points), but stream names are interned and
/// numbers stay binary, so a point record costs ~a few dozen bytes.
///
/// Crash safety follows the spill log: each delivered batch is one
/// checksummed frame, a torn tail from a crashed writer is truncated on
/// reopen, and [`Sink::flush_durable`] fsyncs — so under the pipeline's
/// two-phase checkpoint contract a committed checkpoint never covers a
/// record the log could lose. The flip side of that contract is that a
/// resumed session re-delivers the uncheckpointed tail, so a log that
/// lived through a `kill -9` may hold duplicate `(stream, t)` records —
/// bit-identical by the determinism guarantee; readers
/// ([`super::ScoreStore`], [`super::ReplayDiffSink`]) dedup on id.
pub struct ScoreLogSink {
    log: EventLog,
    metrics: Option<Metrics>,
}

struct Metrics {
    records: Counter,
    bytes: Counter,
}

impl ScoreLogSink {
    /// Open (or create) the score log at `path`, scanning any existing
    /// content to restore the stream-name intern table and truncate a
    /// torn tail.
    ///
    /// # Errors
    /// I/O failure, or an existing file that is not a score log.
    pub fn open(path: &Path) -> io::Result<ScoreLogSink> {
        Ok(ScoreLogSink {
            log: EventLog::open(path, "score log")?,
            metrics: None,
        })
    }

    /// Report recorded-event and written-byte counts to `registry`
    /// ([`names::SCORELOG_RECORDS`], [`names::SCORELOG_BYTES`]).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> ScoreLogSink {
        self.metrics = Some(Metrics {
            records: registry.counter(names::SCORELOG_RECORDS, "Events recorded to the score log"),
            bytes: registry.counter(
                names::SCORELOG_BYTES,
                "Bytes appended to the score log (frame headers included)",
            ),
        });
        self
    }

    /// Events recorded over the log's lifetime, including any found on
    /// disk when the log was reopened.
    pub fn events(&self) -> u64 {
        self.log.events()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.log.events() == 0
    }
}

impl Sink for ScoreLogSink {
    fn deliver(&mut self, events: &[Event]) -> io::Result<()> {
        let written = self.log.append(events)?;
        if let Some(m) = &self.metrics {
            m.records.add(events.len() as u64);
            m.bytes.add(written);
        }
        Ok(())
    }

    fn flush_durable(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    fn kind(&self) -> &'static str {
        "scorelog"
    }
}

/// An open, appendable score log: the framed file, an encoder whose
/// intern table continues the one on disk, and the count of events the
/// file holds. [`ScoreLogSink`] and [`crate::sink::SpillLog`] are both
/// thin owners of one.
pub(crate) struct EventLog {
    log: FramedLog,
    enc: Encoder,
    buf: Vec<u8>,
    events: u64,
}

impl EventLog {
    /// Open (or create) the log at `path`: scan the existing frames to
    /// count their events and restore the intern table, truncating a
    /// torn tail. `label` names the log type in errors.
    ///
    /// # Errors
    /// I/O failure, or an existing file that is not a score log.
    pub(crate) fn open(path: &Path, label: &str) -> io::Result<EventLog> {
        let mut dec = Decoder::new();
        let mut events = 0u64;
        let mut scratch = Vec::new();
        let log = FramedLog::open(path, MAGIC, label, &mut |payload| {
            if dec.decode_into(payload, &mut scratch) {
                events += scratch.len() as u64;
                scratch.clear();
                true
            } else {
                false
            }
        })?;
        Ok(EventLog {
            log,
            enc: Encoder::restore(dec.names()),
            buf: Vec::new(),
            events,
        })
    }

    /// Where this log lives.
    pub(crate) fn path(&self) -> &Path {
        self.log.path()
    }

    /// Events on disk or pending [`EventLog::sync`].
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Append `events` as one frame (none for an empty batch); returns
    /// the bytes written (frame header included). A frame that fails
    /// leaves the intern table as it was, so streams it introduced are
    /// defined again by the next frame that names them.
    ///
    /// # Errors
    /// I/O failure, or a batch larger than the maximum frame.
    pub(crate) fn append(&mut self, events: &[Event]) -> io::Result<u64> {
        if events.is_empty() {
            return Ok(0);
        }
        let mark = self.enc.defined();
        self.enc.encode_batch(events, &mut self.buf);
        let written = self
            .log
            .append(&self.buf)
            .inspect_err(|_| self.enc.truncate(mark))?;
        self.events += events.len() as u64;
        Ok(written)
    }

    /// Make every appended frame durable (`fsync`).
    ///
    /// # Errors
    /// I/O failure.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Every event in the log, in append order.
    ///
    /// # Errors
    /// I/O failure, or a checksum-valid frame that does not decode.
    pub(crate) fn read_all(&mut self) -> io::Result<Vec<Event>> {
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let path = self.log.path().to_path_buf();
        self.log.scan(&mut |payload| {
            if dec.decode_into(payload, &mut out) {
                Ok(())
            } else {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("undecodable frame in {}", path.display()),
                ))
            }
        })?;
        Ok(out)
    }

    /// Drop every frame and start a fresh intern table: the next frame
    /// re-defines every stream it mentions.
    ///
    /// # Errors
    /// I/O failure.
    pub(crate) fn clear(&mut self) -> io::Result<()> {
        self.log.clear()?;
        self.enc = Encoder::new();
        self.events = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DiffOutcome;
    use bagcpd::{ConfidenceInterval, ScorePoint};
    use std::sync::Arc;

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bagscpd-scorelog-sink-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(stream: &str, t: usize, score: f64) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score - 1.0,
                    up: score + 1.0,
                },
                xi: None,
                alert: false,
            },
        }
    }

    #[test]
    fn reopened_sink_appends_without_redefining_streams() {
        let path = tempdir().join("scores.slog");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = ScoreLogSink::open(&path).unwrap();
            sink.deliver(&[point("a", 0, 1.0), point("b", 0, 2.0)])
                .unwrap();
            sink.flush_durable().unwrap();
            assert_eq!(sink.events(), 2);
        }
        {
            let mut sink = ScoreLogSink::open(&path).unwrap();
            assert_eq!(sink.events(), 2, "reopen counts existing events");
            sink.deliver(&[point("b", 1, 3.0)]).unwrap();
            sink.flush_durable().unwrap();
            assert_eq!(sink.events(), 3);
        }
        let events = super::super::ScoreLogReader::read_all(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], point("b", 1, 3.0));
    }

    #[test]
    fn refused_frame_leaves_its_streams_undefined() {
        let path = tempdir().join("refused.slog");
        let _ = std::fs::remove_file(&path);
        let mut sink = ScoreLogSink::open(&path).unwrap();
        sink.deliver(&[point("a", 0, 1.0)]).unwrap();
        // A batch over the maximum frame that introduces a new stream:
        // refused before a byte reaches disk.
        let huge = Event::Note("x".repeat(crate::framed::MAX_FRAME as usize));
        assert!(sink.deliver(&[point("fresh", 0, 2.0), huge]).is_err());
        assert_eq!(sink.log.enc.defined(), 1, "fresh was rolled back");
        assert_eq!(sink.events(), 1);
        // The next batch naming the stream must carry its DefineStream,
        // or the log would reference an id it never defined.
        sink.deliver(&[point("fresh", 1, 3.0)]).unwrap();
        sink.flush_durable().unwrap();
        drop(sink);
        let events = super::super::ScoreLogReader::read_all(&path).unwrap();
        assert_eq!(events, vec![point("a", 0, 1.0), point("fresh", 1, 3.0)]);
        let reopened = ScoreLogSink::open(&path).unwrap();
        assert_eq!(reopened.events(), 2);
    }

    #[test]
    fn metrics_count_records_and_bytes() {
        let path = tempdir().join("metrics.slog");
        let _ = std::fs::remove_file(&path);
        let registry = MetricsRegistry::new();
        let mut sink = ScoreLogSink::open(&path).unwrap().with_metrics(&registry);
        sink.deliver(&[
            point("a", 0, 1.0),
            Event::ReplayDiff {
                stream: Arc::from("a"),
                t: 0,
                live: 1.0,
                recorded: 1.0,
                outcome: DiffOutcome::Equal,
            },
        ])
        .unwrap();
        let snapshot = registry.snapshot();
        let records = snapshot
            .iter()
            .find(|s| s.key == names::SCORELOG_RECORDS)
            .expect("records counter");
        assert_eq!(records.value, 2.0);
        let bytes = snapshot
            .iter()
            .find(|s| s.key == names::SCORELOG_BYTES)
            .expect("bytes counter");
        assert!(bytes.value > 0.0);
    }
}
