//! Binary snapshot format for engine checkpoint/restore, encoded with
//! the shared primitives of [`crate::wire`].
//!
//! Layout (all integers little-endian, floats as IEEE-754 bit patterns):
//!
//! ```text
//! magic    8 bytes  b"BCPDSNAP"
//! version  u32      4
//! config   fingerprint of the DetectorConfig (see below)
//! seed     u64      engine master seed
//! names    u64      intern-table size, then per name (id order):
//!   name       u32 length + UTF-8 bytes
//! streams  u64      count, then per stream (ascending id):
//!   id         u32 index into the intern table
//!   state      OnlineState (see put_state): seed, pushed, emitted,
//!              dim, the retained signatures, the flattened
//!              n (n-1) / 2 forward distance rows (one u32 count plus
//!              values), and the CI history
//! ```
//!
//! Restoring rebuilds the intern table in the same order, so
//! [`crate::StreamId`] handles obtained before a snapshot stay valid
//! after a restore, and a restore → snapshot round trip is
//! byte-identical. Only [`VERSION`] loads: any other version field is
//! refused with [`SnapshotError::BadVersion`].
//!
//! The config fingerprint captures every parameter that affects results
//! (windows, score, weighting, signature method, metric, solver,
//! estimator constants, bootstrap); restore refuses a snapshot whose
//! fingerprint differs from the engine's configuration rather than
//! silently resuming with different semantics. The tiered solver in
//! exact mode shares tag 0 with the exact solver (their results are
//! bit-identical), so their snapshots are interchangeable.

use crate::online::OnlineState;
use crate::wire::{put_f64, put_str, put_u32, put_u64, put_u8, Reader, WireError};
use bagcpd::score::EmdSolver;
use bagcpd::{DetectorConfig, GroundMetric, ScoreKind, SignatureMethod, Weighting};
use emd::Signature;

// lint:fingerprint-begin(snapshot-header)
/// Magic bytes opening every snapshot.
pub const MAGIC: &[u8; 8] = b"BCPDSNAP";
/// Format version; the only one [`decode_engine`] reads.
pub const VERSION: u32 = 4;
// lint:fingerprint-end(snapshot-header)

/// Snapshot parse/validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The magic bytes are wrong — not a snapshot.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The snapshot was taken under a different detector configuration.
    ConfigMismatch,
    /// Structurally invalid content (reason attached).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a bags-cpd snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ConfigMismatch => {
                write!(
                    f,
                    "snapshot was taken under a different detector configuration"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => SnapshotError::Truncated,
            WireError::BadUtf8 => SnapshotError::Corrupt(e.to_string()),
        }
    }
}

// ---- config fingerprint ------------------------------------------------

// lint:fingerprint-begin(engine-layout)
// Everything from here to the matching end marker defines the on-disk
// byte layout. Changing it requires a VERSION bump, then re-blessing
// snapshot.rs.fingerprint via
// `cargo run -p lint -- check --update-fingerprints`.
/// Serialize every result-affecting configuration parameter.
fn put_config(w: &mut Vec<u8>, cfg: &DetectorConfig) {
    put_u64(w, cfg.tau as u64);
    put_u64(w, cfg.tau_prime as u64);
    put_u8(
        w,
        match cfg.score {
            ScoreKind::LikelihoodRatio => 0,
            ScoreKind::SymmetrizedKl => 1,
        },
    );
    put_u8(
        w,
        match cfg.weighting {
            Weighting::Equal => 0,
            Weighting::Discounted => 1,
        },
    );
    match &cfg.signature {
        SignatureMethod::KMeans { k } => {
            put_u8(w, 0);
            put_u64(w, *k as u64);
        }
        SignatureMethod::KMedoids { k } => {
            put_u8(w, 1);
            put_u64(w, *k as u64);
        }
        SignatureMethod::Lvq { k } => {
            put_u8(w, 2);
            put_u64(w, *k as u64);
        }
        SignatureMethod::Histogram { width } => {
            put_u8(w, 3);
            put_f64(w, *width);
        }
    }
    put_u8(
        w,
        match cfg.metric {
            GroundMetric::Euclidean => 0,
            GroundMetric::Manhattan => 1,
            GroundMetric::Chebyshev => 2,
        },
    );
    match &cfg.solver {
        EmdSolver::Exact => put_u8(w, 0),
        EmdSolver::Sinkhorn(s) => {
            put_u8(w, 1);
            put_f64(w, s.epsilon);
            put_u64(w, s.max_iters as u64);
            put_f64(w, s.tol);
        }
        EmdSolver::Tiered(t) => match t.epsilon {
            // Exact mode is bit-identical to the exact solver, so its
            // fingerprint deliberately matches tag 0: snapshots are
            // interchangeable between the two configurations.
            None => put_u8(w, 0),
            Some(eps) => {
                put_u8(w, 2);
                put_f64(w, eps);
                put_f64(w, t.estimate.epsilon);
                put_u64(w, t.estimate.max_iters as u64);
                put_f64(w, t.estimate.tol);
            }
        },
    }
    put_f64(w, cfg.estimator.offset);
    put_f64(w, cfg.estimator.scale);
    put_f64(w, cfg.estimator.dist_floor);
    put_u64(w, cfg.bootstrap.replicates as u64);
    put_f64(w, cfg.bootstrap.alpha);
}

/// The fingerprint bytes of a configuration.
pub fn config_fingerprint(cfg: &DetectorConfig) -> Vec<u8> {
    let mut w = Vec::with_capacity(64);
    put_config(&mut w, cfg);
    w
}

// ---- OnlineState -------------------------------------------------------

fn put_signature(w: &mut Vec<u8>, sig: &Signature) {
    put_u32(w, sig.len() as u32);
    put_u32(w, sig.dim() as u32);
    for p in sig.points() {
        for &x in p {
            put_f64(w, x);
        }
    }
    for &weight in sig.weights() {
        put_f64(w, weight);
    }
}

fn read_signature(r: &mut Reader<'_>) -> Result<Signature, SnapshotError> {
    let k = r.u32()? as usize;
    let dim = r.u32()? as usize;
    if k == 0 || dim == 0 || k.saturating_mul(dim) > 16_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible signature shape {k} x {dim}"
        )));
    }
    let mut points = Vec::with_capacity(r.bounded_capacity(k, dim.saturating_mul(8)));
    for _ in 0..k {
        let mut p = Vec::with_capacity(r.bounded_capacity(dim, 8));
        for _ in 0..dim {
            p.push(r.f64()?);
        }
        points.push(p);
    }
    let mut weights = Vec::with_capacity(r.bounded_capacity(k, 8));
    for _ in 0..k {
        weights.push(r.f64()?);
    }
    Signature::new(points, weights)
        .map_err(|e| SnapshotError::Corrupt(format!("invalid signature: {e}")))
}

/// Append one stream state.
fn put_state(w: &mut Vec<u8>, state: &OnlineState) {
    put_u64(w, state.seed);
    put_u64(w, state.pushed);
    put_u64(w, state.emitted);
    match state.dim {
        None => put_u32(w, 0),
        Some(d) => put_u32(w, d + 1),
    }
    put_u32(w, state.sigs.len() as u32);
    for sig in &state.sigs {
        put_signature(w, sig);
    }
    put_u32(w, state.rows.len() as u32);
    for &d in &state.rows {
        put_f64(w, d);
    }
    put_u32(w, state.ci_up_hist.len() as u32);
    for &u in &state.ci_up_hist {
        put_f64(w, u);
    }
}

fn read_state(r: &mut Reader<'_>) -> Result<OnlineState, SnapshotError> {
    let seed = r.u64()?;
    let pushed = r.u64()?;
    let emitted = r.u64()?;
    let dim = match r.u32()? {
        0 => None,
        d => Some(d - 1),
    };
    let nsigs = r.u32()? as usize;
    if nsigs > 1_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible retained signature count {nsigs}"
        )));
    }
    // Each signature takes at least 8 bytes (shape header) on the wire.
    let mut sigs = Vec::with_capacity(r.bounded_capacity(nsigs, 8));
    for _ in 0..nsigs {
        sigs.push(read_signature(r)?);
    }
    let expected_rows = nsigs * nsigs.saturating_sub(1) / 2;
    let total = r.u32()? as usize;
    if total != expected_rows {
        return Err(SnapshotError::Corrupt(format!(
            "{total} distance entries for {nsigs} signatures (expected {expected_rows})"
        )));
    }
    let mut rows = Vec::with_capacity(r.bounded_capacity(total, 8));
    for _ in 0..total {
        rows.push(r.f64()?);
    }
    let hist_len = r.u32()? as usize;
    if hist_len > 1_000_000 {
        return Err(SnapshotError::Corrupt("implausible CI history".into()));
    }
    let mut ci_up_hist = Vec::with_capacity(r.bounded_capacity(hist_len, 8));
    for _ in 0..hist_len {
        ci_up_hist.push(r.f64()?);
    }
    Ok(OnlineState {
        seed,
        pushed,
        emitted,
        dim,
        sigs,
        rows,
        ci_up_hist,
    })
}

// ---- whole engine ------------------------------------------------------

/// A decoded engine checkpoint: the master seed, the intern table
/// (`names[id]` is the name behind [`crate::StreamId`] `id`), and the
/// live streams' states keyed by intern-table index. Retired streams
/// keep their table entry but carry no state, so the stream list can be
/// shorter than the table.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Engine master seed.
    pub master_seed: u64,
    /// Stream-name intern table, in id order.
    pub names: Vec<String>,
    /// Live stream states as `(intern-table index, state)`, ascending.
    pub streams: Vec<(u32, OnlineState)>,
}

/// Serialize an engine checkpoint: master seed, the intern table in id
/// order, and every live stream's state sorted by id — so equal engine
/// states produce equal bytes regardless of collection order.
pub fn encode_engine<S: AsRef<str>>(
    cfg: &DetectorConfig,
    master_seed: u64,
    names: &[S],
    mut streams: Vec<(u32, OnlineState)>,
) -> Vec<u8> {
    streams.sort_by_key(|(id, _)| *id);
    let mut w = Vec::with_capacity(64 + names.len() * 24 + streams.len() * 256);
    w.extend_from_slice(MAGIC);
    put_u32(&mut w, VERSION);
    put_config(&mut w, cfg);
    put_u64(&mut w, master_seed);
    put_u64(&mut w, names.len() as u64);
    for name in names {
        put_str(&mut w, name.as_ref());
    }
    put_u64(&mut w, streams.len() as u64);
    for (id, state) in &streams {
        debug_assert!((*id as usize) < names.len(), "stream id outside the table");
        put_u32(&mut w, *id);
        put_state(&mut w, state);
    }
    w
}

/// Parse an engine checkpoint, validating magic, version, that the
/// embedded configuration fingerprint matches `cfg`, and that the
/// stream ids are distinct members of the intern table.
///
/// # Errors
/// Any [`SnapshotError`].
pub fn decode_engine(bytes: &[u8], cfg: &DetectorConfig) -> Result<EngineSnapshot, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let expected = config_fingerprint(cfg);
    if r.take(expected.len())? != expected.as_slice() {
        return Err(SnapshotError::ConfigMismatch);
    }
    let master_seed = r.u64()?;
    let name_count = r.u64()?;
    if name_count > 100_000_000 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible intern-table size {name_count}"
        )));
    }
    // A table entry is at least its 4-byte length prefix.
    let mut names = Vec::with_capacity(r.bounded_capacity(name_count as usize, 4));
    for _ in 0..name_count {
        names.push(r.str()?.to_owned());
    }
    {
        let mut seen = std::collections::HashSet::with_capacity(names.len());
        for name in &names {
            if !seen.insert(name.as_str()) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate name '{name}' in the intern table"
                )));
            }
        }
    }
    let count = r.u64()?;
    if count > name_count {
        return Err(SnapshotError::Corrupt(format!(
            "{count} stream states for {name_count} interned names"
        )));
    }
    // A stream entry is at least 40 bytes (id + state header).
    let mut streams: Vec<(u32, OnlineState)> =
        Vec::with_capacity(r.bounded_capacity(count as usize, 40));
    for _ in 0..count {
        let id = r.u32()?;
        if id as usize >= names.len() {
            return Err(SnapshotError::Corrupt(format!(
                "stream id {id} outside the intern table of {} names",
                names.len()
            )));
        }
        if let Some((prev, _)) = streams.last() {
            if id <= *prev {
                return Err(SnapshotError::Corrupt(format!(
                    "stream ids not strictly increasing ({id} after {prev})"
                )));
            }
        }
        let state = read_state(&mut r)?;
        streams.push((id, state));
    }
    if !r.finished() {
        return Err(SnapshotError::Corrupt("trailing bytes".into()));
    }
    Ok(EngineSnapshot {
        master_seed,
        names,
        streams,
    })
}
// lint:fingerprint-end(engine-layout)

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::BootstrapConfig;

    fn state(seed: u64) -> OnlineState {
        OnlineState {
            seed,
            pushed: 5,
            emitted: 0,
            dim: Some(1),
            sigs: vec![
                Signature::new(vec![vec![0.0], vec![1.5]], vec![1.0, 2.0]).unwrap(),
                Signature::new(vec![vec![3.0]], vec![4.0]).unwrap(),
            ],
            rows: vec![2.25],
            ci_up_hist: vec![],
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            tau: 3,
            tau_prime: 2,
            bootstrap: BootstrapConfig {
                replicates: 50,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn engine_round_trip() {
        let names = ["beta", "alpha"];
        let streams = vec![(1, state(1)), (0, state(2))];
        let bytes = encode_engine(&cfg(), 99, &names, streams);
        let snap = decode_engine(&bytes, &cfg()).unwrap();
        assert_eq!(snap.master_seed, 99);
        assert_eq!(snap.names, vec!["beta", "alpha"], "table keeps id order");
        assert_eq!(snap.streams.len(), 2);
        assert_eq!(snap.streams[0], (0, state(2)), "streams are id-sorted");
        assert_eq!(snap.streams[1], (1, state(1)));
    }

    #[test]
    fn retired_streams_keep_their_table_entry() {
        // A name with no state (a retired stream) survives the round
        // trip, so its StreamId stays valid after restore.
        let bytes = encode_engine(&cfg(), 3, &["live", "retired"], vec![(0, state(1))]);
        let snap = decode_engine(&bytes, &cfg()).unwrap();
        assert_eq!(snap.names.len(), 2);
        assert_eq!(snap.streams.len(), 1);
    }

    #[test]
    fn rejects_bad_magic_version_truncation() {
        let bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_engine(&bad, &cfg()), Err(SnapshotError::BadMagic));

        let mut bad = bytes.clone();
        bad[8] = 200;
        assert_eq!(
            decode_engine(&bad, &cfg()),
            Err(SnapshotError::BadVersion(200))
        );

        assert_eq!(
            decode_engine(&bytes[..bytes.len() - 3], &cfg()),
            Err(SnapshotError::Truncated)
        );

        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            decode_engine(&trailing, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_version_1_with_explicit_bad_version() {
        // A v1 snapshot (same magic, version field 1) must fail loudly
        // as BadVersion, never parse as garbage.
        let mut bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_engine(&bytes, &cfg()),
            Err(SnapshotError::BadVersion(1))
        );
    }

    #[test]
    fn rejects_every_version_but_the_current_one() {
        // v2 (per-row distance framing) and v3 (before the tiered
        // solver's fingerprint) snapshots share the magic and no longer
        // load; neither does a future version.
        for version in [2u32, 3, VERSION + 1] {
            let mut bytes = encode_engine(&cfg(), 1, &["s"], vec![(0, state(1))]);
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_engine(&bytes, &cfg()),
                Err(SnapshotError::BadVersion(version))
            );
        }
    }

    #[test]
    fn rejects_invalid_stream_ids() {
        // Id outside the table: build the raw layout by hand, pointing
        // the only stream at id 7 of a 1-entry table.
        let header = |names: &[&str], streams: u64| {
            let mut w = MAGIC.to_vec();
            put_u32(&mut w, VERSION);
            w.extend_from_slice(&config_fingerprint(&cfg()));
            put_u64(&mut w, 1);
            put_u64(&mut w, names.len() as u64);
            for name in names {
                put_str(&mut w, name);
            }
            put_u64(&mut w, streams);
            w
        };
        let mut w = header(&["a"], 1);
        put_u32(&mut w, 7);
        put_state(&mut w, &state(1));
        assert!(matches!(
            decode_engine(&w, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));

        // Duplicate id.
        let mut w = header(&["a", "b"], 2);
        put_u32(&mut w, 0);
        put_state(&mut w, &state(1));
        put_u32(&mut w, 0);
        put_state(&mut w, &state(2));
        assert!(matches!(
            decode_engine(&w, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_duplicate_interned_names() {
        let bytes = encode_engine(&cfg(), 1, &["same", "same"], vec![]);
        assert!(matches!(
            decode_engine(&bytes, &cfg()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_declared_lengths_fail_fast_without_allocating() {
        // A tiny buffer claiming 100M interned names must fail with
        // Truncated (after a bounded, byte-budget-limited reservation),
        // not attempt a multi-GB Vec::with_capacity.
        let bytes = encode_engine::<&str>(&cfg(), 1, &[], vec![]);
        let names_at = bytes.len() - 16; // names count, then stream count
        let mut huge = bytes;
        huge[names_at..names_at + 8].copy_from_slice(&100_000_000u64.to_le_bytes());
        huge.push(0); // one stray byte of "table data"
        assert!(matches!(
            decode_engine(&huge, &cfg()),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn rejects_config_mismatch() {
        let bytes = encode_engine::<&str>(&cfg(), 1, &[], vec![]);
        let other = DetectorConfig { tau: 4, ..cfg() };
        assert_eq!(
            decode_engine(&bytes, &other),
            Err(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn tiered_exact_mode_shares_the_exact_fingerprint() {
        use bagcpd::TieredConfig;
        let exact = cfg();
        let tiered = DetectorConfig {
            solver: EmdSolver::Tiered(TieredConfig::default()),
            ..cfg()
        };
        assert_eq!(config_fingerprint(&exact), config_fingerprint(&tiered));
        // Checkpoints are interchangeable between the two: results are
        // bit-identical, so resuming either way is sound.
        let bytes = encode_engine(&exact, 1, &["s"], vec![(0, state(1))]);
        assert!(decode_engine(&bytes, &tiered).is_ok());
        // Bounded-error mode is a distinct configuration.
        let bounded = DetectorConfig {
            solver: EmdSolver::Tiered(TieredConfig {
                epsilon: Some(0.05),
                ..Default::default()
            }),
            ..cfg()
        };
        assert_eq!(
            decode_engine(&bytes, &bounded),
            Err(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let names = ["x", "y"];
        let a = encode_engine(&cfg(), 7, &names, vec![(0, state(1)), (1, state(2))]);
        let b = encode_engine(&cfg(), 7, &names, vec![(1, state(2)), (0, state(1))]);
        assert_eq!(a, b, "order of collection must not matter");
    }
}
