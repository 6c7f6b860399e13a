//! One fuzz property over every decoder of persisted runtime state:
//! engine snapshots ([`snapshot::decode_engine`]), ingestion
//! checkpoints ([`checkpoint::decode_checkpoint`] in front of a
//! snapshot), and score-log frames ([`Decoder::decode_into`], which
//! spill files share).
//!
//! For generated valid inputs:
//!
//! - every strict prefix fails with a typed truncation error (`false`
//!   for a frame, with the output and name table rolled back);
//! - every single-bit flip returns an error or a value — never a panic,
//!   and never an allocation larger than the input can justify. A
//!   corrupt length field must be capped by
//!   `wire::Reader::bounded_capacity`, not reserved as declared.
//!
//! The allocation bound is checked with a wrapping global allocator
//! that keeps a per-thread high-water mark of single allocation sizes
//! (this test is its own binary, so the allocator affects nothing
//! else).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bagcpd::{BootstrapConfig, ConfidenceInterval, DetectorConfig, ScorePoint};
use emd::Signature;
use proptest::prelude::*;
use stream::ingest::checkpoint::{self, StateError};
use stream::ingest::{SourceError, StreamCursor};
use stream::scorelog::format::{Decoder, Encoder};
use stream::snapshot::{self, SnapshotError};
use stream::{DiffOutcome, Event, OnlineState, QuarantineRecord};

struct PeakAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(|c| c.get()))
}

/// The most one decode of `len` input bytes may ask for at once: a
/// small multiple of the input (each element of every decoded
/// collection occupies some bytes on the wire) plus fixed slack.
fn alloc_budget(len: usize) -> usize {
    64 * len + 4096
}

fn cfg() -> DetectorConfig {
    DetectorConfig {
        tau: 3,
        tau_prime: 2,
        bootstrap: BootstrapConfig {
            replicates: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A structurally valid state with `k` signatures of dimension `dim`.
fn state(seed: u64, k: usize, dim: usize, hist: usize) -> OnlineState {
    let sigs: Vec<Signature> = (0..k)
        .map(|i| {
            let points = (0..=i % 2)
                .map(|p| (0..dim).map(|d| (i + p + d) as f64 * 0.5).collect())
                .collect();
            let weights = (0..=i % 2).map(|p| 1.0 + p as f64).collect();
            Signature::new(points, weights).unwrap()
        })
        .collect();
    OnlineState {
        seed,
        pushed: k as u64 + seed % 5,
        emitted: seed % 3,
        dim: (k > 0).then_some(dim as u32),
        sigs,
        rows: (0..k * k.saturating_sub(1) / 2)
            .map(|i| i as f64 * 0.25)
            .collect(),
        ci_up_hist: (0..hist).map(|i| i as f64 - 0.5).collect(),
    }
}

/// An engine snapshot of `streams` live streams out of `streams + 1`
/// interned names.
fn snapshot_bytes(seed: u64, streams: usize, k: usize, dim: usize) -> Vec<u8> {
    let names: Vec<String> = (0..=streams).map(|i| format!("stream-{i}")).collect();
    let states = (0..streams)
        .map(|i| (i as u32, state(seed ^ i as u64, (k + i) % 5, dim, i % 3)))
        .collect();
    snapshot::encode_engine(&cfg(), seed, &names, states)
}

/// A checkpoint with one cursor per live stream, pending rows on some.
fn checkpoint_bytes(seed: u64, streams: usize, k: usize, dim: usize) -> Vec<u8> {
    let cursors: Vec<(String, StreamCursor)> = (0..streams)
        .map(|i| {
            let pending = (i % 2 == 0).then(|| {
                let rows = (0..=i).map(|r| vec![r as f64 * 0.5; dim]).collect();
                (i as i64 + 10, rows)
            });
            let cursor = StreamCursor {
                completed_time: (i > 0).then_some(i as i64),
                pending,
                consumed: seed % 1000,
                prefix_hash: seed,
                quarantined: i % 3 == 1,
            };
            (format!("stream-{i}"), cursor)
        })
        .collect();
    checkpoint::encode_checkpoint(&cursors, &snapshot_bytes(seed, streams, k, dim))
}

/// One event of each variant, cycling over a few stream names.
fn events(seed: u64, count: usize) -> Vec<Event> {
    (0..count)
        .map(|i| {
            let stream: Arc<str> = Arc::from(format!("s{}", (seed as usize + i) % 3));
            match (seed as usize + i) % 8 {
                0 => Event::Point {
                    stream,
                    point: ScorePoint {
                        t: i,
                        score: i as f64 * 0.5,
                        ci: ConfidenceInterval { lo: -1.0, up: 2.0 },
                        xi: (i % 2 == 0).then_some(0.25),
                        alert: i % 3 == 0,
                    },
                },
                1 => Event::StreamError {
                    stream,
                    message: "bad bag".into(),
                },
                2 => Event::Quarantine(QuarantineRecord {
                    stream,
                    error: if i % 2 == 0 {
                        SourceError::Io("gone".into())
                    } else {
                        SourceError::Data("backwards".into())
                    },
                }),
                3 => Event::Note("rotated".into()),
                4 => Event::CheckpointWritten {
                    bytes: 100 + i,
                    bags: i as u64,
                },
                5 => Event::Degraded {
                    sink: "csv".into(),
                    reason: "refused".into(),
                },
                6 => Event::Recovered {
                    sink: "csv".into(),
                    replayed: i as u64,
                },
                _ => Event::ReplayDiff {
                    stream,
                    t: i,
                    live: 1.0,
                    recorded: 1.5,
                    outcome: DiffOutcome::Diverged,
                },
            }
        })
        .collect()
}

fn decode_checkpoint(bytes: &[u8]) -> Result<(), StateError> {
    let (_, snapshot) = checkpoint::decode_checkpoint(bytes)?;
    snapshot::decode_engine(snapshot, &cfg())?;
    Ok(())
}

/// Decode one frame with a fresh decoder; on refusal, check that
/// nothing leaked into the output or the name table.
fn decode_frame(payload: &[u8]) -> bool {
    let mut dec = Decoder::new();
    let mut out = vec![Event::Note("before".into())];
    let ok = dec.decode_into(payload, &mut out);
    if !ok {
        assert_eq!(out.len(), 1, "refused frame left events behind");
        assert!(dec.names().is_empty(), "refused frame left names behind");
    }
    ok
}

/// Flip every bit of `bytes` in turn, decode each variant with
/// `decode` under the allocation budget, and report the first offender.
fn flip_every_bit<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> T) -> Result<(), String> {
    let budget = alloc_budget(bytes.len());
    let mut flipped = bytes.to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            let (_, largest) = largest_alloc(|| decode(&flipped));
            flipped[at] ^= 1 << bit;
            if largest > budget {
                return Err(format!(
                    "flipping bit {bit} of byte {at} allocated {largest} bytes at once \
                     (budget {budget} for {} input bytes)",
                    bytes.len()
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decoders_refuse_truncation_and_survive_bit_flips(
        seed in 0u64..u64::MAX,
        streams in 1usize..4,
        k in 0usize..5,
        dim in 1usize..3,
        count in 1usize..12,
    ) {
        let snap = snapshot_bytes(seed, streams, k, dim);
        let ck = checkpoint_bytes(seed, streams, k, dim);
        let mut frame = Vec::new();
        Encoder::new().encode_batch(&events(seed, count), &mut frame);

        // The untouched inputs decode.
        prop_assert!(snapshot::decode_engine(&snap, &cfg()).is_ok());
        prop_assert_eq!(decode_checkpoint(&ck), Ok(()));
        prop_assert!(decode_frame(&frame));

        for cut in 0..snap.len() {
            prop_assert_eq!(
                snapshot::decode_engine(&snap[..cut], &cfg()).map(|_| ()),
                Err(SnapshotError::Truncated),
                "snapshot cut at {}", cut
            );
        }
        for cut in 0..ck.len() {
            prop_assert_eq!(
                decode_checkpoint(&ck[..cut]),
                Err(StateError::Truncated),
                "checkpoint cut at {}", cut
            );
        }
        for cut in 0..frame.len() {
            prop_assert!(!decode_frame(&frame[..cut]), "frame cut at {}", cut);
        }

        flip_every_bit(&snap, |b| snapshot::decode_engine(b, &cfg()).is_ok())?;
        flip_every_bit(&ck, |b| decode_checkpoint(b).is_ok())?;
        flip_every_bit(&frame, decode_frame)?;
    }
}
