//! Score log: a durable binary record of the pipeline's output, plus
//! replay-diffing and querying over it.
//!
//! The CSV and JSONL sinks answer "what did the session say?"; the
//! score log answers the follow-up questions that need the output *as
//! data*:
//!
//! - **Record** — [`ScoreLogSink`] appends every [`Event`] to a
//!   compact, checksummed, append-only log (interned stream names, ~a
//!   few dozen bytes per point). It honors the same two-phase
//!   checkpoint contract as every sink: `flush_durable` fsyncs, so a
//!   committed checkpoint never covers a record a crash could lose.
//! - **Replay & diff** — [`ScoreLogReader`] streams a log back as
//!   events, and [`ReplayDiffSink`] wraps any sink so a fresh run over
//!   the *same inputs* (bags are not stored — re-read them from the
//!   original sources) is compared point-by-point against the record,
//!   emitting typed [`Event::ReplayDiff`] verdicts and a final
//!   [`DiffSummary`]. With the engine's determinism guarantee, "replay
//!   diverged" means the code changed behavior — a regression test for
//!   free; with an epsilon it bounds the drift of approximate solvers.
//! - **Query** — [`ScoreStore`] scans a log once into a per-stream
//!   index (record/alert counts, `t` ranges, frame offsets) and
//!   answers filtered [`Query`]s by re-reading only the frames that
//!   match.
//!
//! On-disk format: [`crate::framed`] framing (magic `BCPDSLG1`,
//! length- and checksum-guarded frames, torn tails truncated on
//! reopen) with the record layout in [`mod@format`]. Degraded-mode
//! spill files ([`crate::sink::SpillLog`]) are score logs too, so
//! every reader here (`query` included) reads them. A log that lived
//! through `kill -9` + resume may hold duplicate `(stream, t)` records
//! — bit-identical by construction; every reader here dedups them.
//!
//! [`Event`]: crate::event::Event
//! [`Event::ReplayDiff`]: crate::event::Event::ReplayDiff

pub mod format;

mod diff;
mod reader;
mod sink;
mod store;

pub use diff::{DiffSummary, DiffTracker, ReplayDiffSink};
pub use reader::ScoreLogReader;
pub(crate) use sink::EventLog;
pub use sink::ScoreLogSink;
pub use store::{Query, QueryRow, ScoreStore, StreamSummary};
