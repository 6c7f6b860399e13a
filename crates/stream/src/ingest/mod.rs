//! Multi-source ingestion: the front-end that feeds a
//! [`crate::StreamEngine`] from files, directories, pipes, and sockets.
//!
//! The CLI's original `follow` mode tailed exactly one CSV
//! synchronously, which left the multi-stream engine unreachable from
//! the binary. This module factors that loop into layers every
//! front-end shares:
//!
//! - [`Source`] — an incremental, poll-driven producer of completed
//!   bags for one or more named streams, with per-stream resume
//!   cursors. Implementations: [`CsvFileSource`] (content-addressed
//!   resume, hold-back), [`LineSource`] (stdin/any reader),
//!   [`DirSource`] (one stream per `*.csv` file), [`TcpSource`]
//!   (non-blocking `stream,t,x…` line protocol).
//! - [`BagAssembler`] — the row→bag grouping core (header skipping,
//!   monotonic times, trailing-bag hold-back, rotated-input resume)
//!   lifted out of `run_follow` so every source agrees on semantics.
//! - [`Mux`] — drains sources round-robin into the engine via interned
//!   ids, quarantines streams that fail instead of killing the
//!   process, and persists periodic checkpoints under a
//!   [`CheckpointPolicy`].
//! - [`checkpoint`] — the `cursors + engine snapshot` state format
//!   (`BCPDFLW3`; files of earlier versions are refused, not migrated)
//!   with atomic rename+fsync persistence.

pub mod checkpoint;
pub mod csv;
pub mod dir;
pub mod mem;
pub mod mux;
pub mod source;
pub mod tcp;

pub use checkpoint::{StateError, FOLLOW_STREAM, NO_TIME};
pub use csv::{CsvFileSource, LineSource, ThreadedLineSource};
pub use dir::DirSource;
pub use mem::MemorySource;
pub use mux::{
    CheckpointPolicy, Mux, MuxConfig, MuxError, MuxFinish, QuarantineRecord, TickReport,
    RETAINED_QUARANTINES,
};
pub use source::{
    parse_row, BagAssembler, Source, SourceError, SourceItem, SourceStatus, StreamCursor,
};
pub use tcp::{TcpLimits, TcpSource};
