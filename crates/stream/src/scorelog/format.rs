//! The score log's on-disk record format.
//!
//! A score log is a framed log ([`crate::framed`]) whose frame payloads
//! are count-prefixed batches of *records*. Stream names are interned:
//! the first record mentioning a stream is preceded by a `DefineStream`
//! record binding the next dense `u32` id to the name, and every later
//! record carries the 4-byte id instead of the spelled-out name — a
//! point record is ~a few dozen bytes regardless of how long stream
//! names are. Ids are assigned in first-sighting order, so the table is
//! reconstructible from any prefix of the log (torn-tail truncation can
//! never orphan an id).
//!
//! The [`Encoder`]/[`Decoder`] pair below is the only code that knows
//! this layout, and the only `Event` codec in the runtime: the sink,
//! reader, store, differ, and the degraded-mode spill log
//! ([`crate::sink::SpillLog`]) all go through it. Primitives come from
//! [`crate::wire`].

use crate::event::{DiffOutcome, Event, QuarantineRecord};
use crate::ingest::source::SourceError;
use crate::wire::{self, Reader};
use bagcpd::{ConfidenceInterval, ScorePoint};
use std::collections::HashMap;
use std::sync::Arc;

// lint:fingerprint-begin(scorelog-format)
//
// Serialized layout of the score log. Record wire shapes (after the
// u32 record count that opens every frame payload):
//
// | tag | record        | fields                                           |
// |-----|---------------|--------------------------------------------------|
// | 0   | DefineStream  | id u32, name str                                 |
// | 1   | Point         | id u32, t u64, score f64, ci_lo f64, ci_up f64,  |
// |     |               | xi (u8 flag + f64 if 1), alert u8                |
// | 2   | StreamError   | id u32, message str                              |
// | 3   | Quarantine    | id u32, error kind u8 (0 io / 1 data), message str|
// | 4   | Note          | text str                                         |
// | 5   | Checkpoint    | bytes u64, bags u64                              |
// | 6   | Degraded      | sink str, reason str                             |
// | 7   | Recovered     | sink str, replayed u64                           |
// | 8   | ReplayDiff    | id u32, t u64, live f64, recorded f64, outcome u8|
//
// Changing any of this requires bumping the format digit in MAGIC and
// keeping a migration path for logs written by released builds.

/// Magic prefix of every score log; the trailing digit is the format
/// version.
pub const MAGIC: &[u8; 8] = b"BCPDSLG1";

const TAG_DEFINE_STREAM: u8 = 0;
const TAG_POINT: u8 = 1;
const TAG_STREAM_ERROR: u8 = 2;
const TAG_QUARANTINE: u8 = 3;
const TAG_NOTE: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_DEGRADED: u8 = 6;
const TAG_RECOVERED: u8 = 7;
const TAG_REPLAY_DIFF: u8 = 8;
// lint:fingerprint-end(scorelog-format)

/// Streaming encoder: owns the name→id intern table of one log and
/// emits `DefineStream` records as new streams appear.
pub struct Encoder {
    ids: HashMap<Arc<str>, u32>,
}

impl Encoder {
    /// A fresh encoder for an empty log.
    pub fn new() -> Encoder {
        Encoder {
            ids: HashMap::new(),
        }
    }

    /// Rebuild the encoder state of an existing log from the decoder's
    /// reconstructed name table (ids are the indexes, in definition
    /// order) — how a reopened [`super::ScoreLogSink`] resumes
    /// appending without re-defining streams.
    pub fn restore(names: &[Arc<str>]) -> Encoder {
        Encoder {
            ids: names
                .iter()
                .enumerate()
                .map(|(id, name)| (name.clone(), id as u32))
                .collect(),
        }
    }

    /// Encode one event batch as a frame payload into `buf` (cleared
    /// first). Returns the number of records written — the events plus
    /// any `DefineStream` records for first-sighted streams.
    pub fn encode_batch(&mut self, events: &[Event], buf: &mut Vec<u8>) -> u32 {
        buf.clear();
        wire::put_u32(buf, 0); // patched below
        let mut records = 0u32;
        for event in events {
            records += self.encode_event(event, buf);
        }
        buf[..4].copy_from_slice(&records.to_le_bytes());
        records
    }

    /// The id for `name`, interning (and emitting a `DefineStream`
    /// record) on first sighting. Returns `(id, defined)`.
    fn intern(&mut self, name: &Arc<str>, buf: &mut Vec<u8>) -> (u32, bool) {
        if let Some(&id) = self.ids.get(name) {
            return (id, false);
        }
        let id = self.ids.len() as u32;
        self.ids.insert(name.clone(), id);
        buf.push(TAG_DEFINE_STREAM);
        wire::put_u32(buf, id);
        wire::put_str(buf, name);
        (id, true)
    }

    /// Encode one event; returns the records written (1, or 2 when a
    /// `DefineStream` was emitted first).
    fn encode_event(&mut self, event: &Event, buf: &mut Vec<u8>) -> u32 {
        match event {
            Event::Point { stream, point } => {
                let (id, defined) = self.intern(stream, buf);
                buf.push(TAG_POINT);
                wire::put_u32(buf, id);
                wire::put_u64(buf, point.t as u64);
                wire::put_f64(buf, point.score);
                wire::put_f64(buf, point.ci.lo);
                wire::put_f64(buf, point.ci.up);
                match point.xi {
                    Some(xi) => {
                        buf.push(1);
                        wire::put_f64(buf, xi);
                    }
                    None => buf.push(0),
                }
                buf.push(u8::from(point.alert));
                1 + u32::from(defined)
            }
            Event::StreamError { stream, message } => {
                let (id, defined) = self.intern(stream, buf);
                buf.push(TAG_STREAM_ERROR);
                wire::put_u32(buf, id);
                wire::put_str(buf, message);
                1 + u32::from(defined)
            }
            Event::Quarantine(record) => {
                let (id, defined) = self.intern(&record.stream, buf);
                buf.push(TAG_QUARANTINE);
                wire::put_u32(buf, id);
                match &record.error {
                    SourceError::Io(m) => {
                        buf.push(0);
                        wire::put_str(buf, m);
                    }
                    SourceError::Data(m) => {
                        buf.push(1);
                        wire::put_str(buf, m);
                    }
                }
                1 + u32::from(defined)
            }
            Event::Note(text) => {
                buf.push(TAG_NOTE);
                wire::put_str(buf, text);
                1
            }
            Event::CheckpointWritten { bytes, bags } => {
                buf.push(TAG_CHECKPOINT);
                wire::put_u64(buf, *bytes as u64);
                wire::put_u64(buf, *bags);
                1
            }
            Event::Degraded { sink, reason } => {
                buf.push(TAG_DEGRADED);
                wire::put_str(buf, sink);
                wire::put_str(buf, reason);
                1
            }
            Event::Recovered { sink, replayed } => {
                buf.push(TAG_RECOVERED);
                wire::put_str(buf, sink);
                wire::put_u64(buf, *replayed);
                1
            }
            Event::ReplayDiff {
                stream,
                t,
                live,
                recorded,
                outcome,
            } => {
                let (id, defined) = self.intern(stream, buf);
                buf.push(TAG_REPLAY_DIFF);
                wire::put_u32(buf, id);
                wire::put_u64(buf, *t as u64);
                wire::put_f64(buf, *live);
                wire::put_f64(buf, *recorded);
                buf.push(match outcome {
                    DiffOutcome::Equal => 0,
                    DiffOutcome::WithinEps => 1,
                    DiffOutcome::Diverged => 2,
                });
                1 + u32::from(defined)
            }
        }
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// Streaming decoder: rebuilds the id→name table as `DefineStream`
/// records arrive. Because ids are dense and defined in order, decoding
/// any prefix of a log leaves the table consistent.
pub struct Decoder {
    names: Vec<Arc<str>>,
}

impl Decoder {
    /// A fresh decoder (empty table — decode from the first frame).
    pub fn new() -> Decoder {
        Decoder { names: Vec::new() }
    }

    /// A decoder pre-seeded with a complete name table — how
    /// [`super::ScoreStore`] decodes individual frames out of order
    /// (re-definitions already in the table are verified, not re-added).
    pub fn with_names(names: Vec<Arc<str>>) -> Decoder {
        Decoder { names }
    }

    /// The reconstructed name table (index = stream id).
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Decode one frame payload, appending the events to `out`
    /// (`DefineStream` records update the table and emit nothing).
    /// Returns false on any malformed byte — `out` and the name table
    /// are rolled back to their state before the call.
    pub fn decode_into(&mut self, payload: &[u8], out: &mut Vec<Event>) -> bool {
        let out_mark = out.len();
        let names_mark = self.names.len();
        if self.try_decode(payload, out).is_ok() {
            true
        } else {
            out.truncate(out_mark);
            self.names.truncate(names_mark);
            false
        }
    }

    fn try_decode(&mut self, payload: &[u8], out: &mut Vec<Event>) -> Result<(), Malformed> {
        let mut r = Reader::new(payload);
        let count = r.u32()?;
        for _ in 0..count {
            self.decode_record(&mut r, out)?;
        }
        if r.finished() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }

    /// Resolve a stream id against the table.
    fn name(&self, id: u32) -> Result<Arc<str>, Malformed> {
        self.names.get(id as usize).cloned().ok_or(Malformed)
    }

    /// Decode one record (a `DefineStream` updates the table and emits
    /// nothing).
    fn decode_record(&mut self, r: &mut Reader<'_>, out: &mut Vec<Event>) -> Result<(), Malformed> {
        match r.u8()? {
            TAG_DEFINE_STREAM => {
                let id = r.u32()? as usize;
                let name = r.str()?;
                if id == self.names.len() {
                    self.names.push(Arc::from(name));
                } else if self.names.get(id).map(|n| &**n) != Some(name) {
                    // Out-of-order definition, or a redefinition that
                    // disagrees with the table: malformed.
                    return Err(Malformed);
                }
                Ok(())
            }
            TAG_POINT => {
                let stream = self.name(r.u32()?)?;
                let t = r.u64()? as usize;
                let score = r.f64()?;
                let lo = r.f64()?;
                let up = r.f64()?;
                let xi = match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    _ => return Err(Malformed),
                };
                let alert = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(Malformed),
                };
                out.push(Event::Point {
                    stream,
                    point: ScorePoint {
                        t,
                        score,
                        ci: ConfidenceInterval { lo, up },
                        xi,
                        alert,
                    },
                });
                Ok(())
            }
            TAG_STREAM_ERROR => {
                let stream = self.name(r.u32()?)?;
                out.push(Event::StreamError {
                    stream,
                    message: r.str()?.to_owned(),
                });
                Ok(())
            }
            TAG_QUARANTINE => {
                let stream = self.name(r.u32()?)?;
                let error = match r.u8()? {
                    0 => SourceError::Io(r.str()?.to_owned()),
                    1 => SourceError::Data(r.str()?.to_owned()),
                    _ => return Err(Malformed),
                };
                out.push(Event::Quarantine(QuarantineRecord { stream, error }));
                Ok(())
            }
            TAG_NOTE => {
                out.push(Event::Note(r.str()?.to_owned()));
                Ok(())
            }
            TAG_CHECKPOINT => {
                out.push(Event::CheckpointWritten {
                    bytes: r.u64()? as usize,
                    bags: r.u64()?,
                });
                Ok(())
            }
            TAG_DEGRADED => {
                out.push(Event::Degraded {
                    sink: r.str()?.to_owned(),
                    reason: r.str()?.to_owned(),
                });
                Ok(())
            }
            TAG_RECOVERED => {
                out.push(Event::Recovered {
                    sink: r.str()?.to_owned(),
                    replayed: r.u64()?,
                });
                Ok(())
            }
            TAG_REPLAY_DIFF => {
                let stream = self.name(r.u32()?)?;
                out.push(Event::ReplayDiff {
                    stream,
                    t: r.u64()? as usize,
                    live: r.f64()?,
                    recorded: r.f64()?,
                    outcome: match r.u8()? {
                        0 => DiffOutcome::Equal,
                        1 => DiffOutcome::WithinEps,
                        2 => DiffOutcome::Diverged,
                        _ => return Err(Malformed),
                    },
                });
                Ok(())
            }
            _ => Err(Malformed),
        }
    }
}

/// A frame payload that does not decode: truncated, not UTF-8, an
/// unknown tag or flag, an undefined stream id, or trailing bytes.
struct Malformed;

impl From<wire::WireError> for Malformed {
    fn from(_: wire::WireError) -> Self {
        Malformed
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(stream: &str, t: usize, score: f64) -> Event {
        Event::Point {
            stream: Arc::from(stream),
            point: ScorePoint {
                t,
                score,
                ci: ConfidenceInterval {
                    lo: score - 0.5,
                    up: score + 0.5,
                },
                xi: t.is_multiple_of(2).then_some(0.125),
                alert: t.is_multiple_of(3),
            },
        }
    }

    #[test]
    fn every_variant_round_trips_with_interning() {
        let events = vec![
            point("sensor-with-a-long-name", 0, 1.0),
            point("sensor-with-a-long-name", 1, 2.0),
            point("b", 0, 3.0),
            Event::StreamError {
                stream: Arc::from("b"),
                message: "bad bag".into(),
            },
            Event::Quarantine(QuarantineRecord {
                stream: Arc::from("q"),
                error: SourceError::Io("gone".into()),
            }),
            Event::Note("rotated".into()),
            Event::CheckpointWritten { bytes: 10, bags: 3 },
            Event::Degraded {
                sink: "csv".into(),
                reason: "refused".into(),
            },
            Event::Recovered {
                sink: "csv".into(),
                replayed: 7,
            },
            Event::ReplayDiff {
                stream: Arc::from("b"),
                t: 4,
                live: 1.0,
                recorded: 1.0 + 1e-9,
                outcome: DiffOutcome::WithinEps,
            },
        ];
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        // 10 events + 3 DefineStream records.
        assert_eq!(enc.encode_batch(&events, &mut buf), 13);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        assert!(dec.decode_into(&buf, &mut out));
        assert_eq!(out, events);
        assert_eq!(dec.names().len(), 3);
    }

    #[test]
    fn interning_keeps_point_records_compact() {
        let long = "a-stream-name-much-longer-than-a-u32-id";
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.encode_batch(&[point(long, 0, 1.0)], &mut buf);
        let first = buf.len();
        enc.encode_batch(&[point(long, 1, 2.0)], &mut buf);
        let later = buf.len();
        assert!(
            later < first - long.len(),
            "later frames must not re-spell the name ({later} vs {first})"
        );
        // tag + id + t + 3 f64 + xi flag + f64 + alert = 47 bytes, plus
        // the 4-byte count: "a few dozen bytes" as promised.
        assert!(later <= 52, "point record too large: {later}");
    }

    #[test]
    fn encoder_restore_continues_the_table() {
        let mut enc = Encoder::new();
        let mut first = Vec::new();
        enc.encode_batch(&[point("a", 0, 1.0), point("b", 0, 2.0)], &mut first);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        assert!(dec.decode_into(&first, &mut out));

        // A reopened log's encoder must reuse existing ids.
        let mut resumed = Encoder::restore(dec.names());
        let mut second = Vec::new();
        let records = resumed.encode_batch(&[point("b", 1, 3.0), point("c", 0, 4.0)], &mut second);
        assert_eq!(records, 3, "one new DefineStream (c), two points");
        assert!(dec.decode_into(&second, &mut out));
        assert_eq!(out.len(), 4);
        assert_eq!(dec.names().len(), 3);
    }

    #[test]
    fn malformed_frames_roll_back_cleanly() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.encode_batch(&[point("a", 0, 1.0)], &mut buf);
        for cut in 1..buf.len() {
            let mut dec = Decoder::new();
            let mut out = Vec::new();
            assert!(!dec.decode_into(&buf[..cut], &mut out), "prefix {cut}");
            assert!(out.is_empty());
            assert!(dec.names().is_empty(), "table rolled back at {cut}");
        }
        // Redefinition that disagrees with the table is refused.
        let mut dec = Decoder::with_names(vec![Arc::from("other")]);
        let mut out = Vec::new();
        assert!(!dec.decode_into(&buf, &mut out));
        // A consistent redefinition (decoding a frame the table already
        // covers, as the store does) is accepted.
        let mut dec = Decoder::with_names(vec![Arc::from("a")]);
        assert!(dec.decode_into(&buf, &mut out));
        assert_eq!(out.len(), 1);
    }
}
