//! The one primitive byte codec behind every on-disk format of the
//! runtime: engine snapshots ([`crate::snapshot`]), ingestion
//! checkpoints ([`crate::ingest::checkpoint`]), and score-log frames
//! ([`crate::scorelog`], which spill logs reuse).
//!
//! Encoding is a set of free `put_*` functions appending to a
//! `Vec<u8>`; decoding is a [`Reader`] over a borrowed buffer. Integers
//! are little-endian, floats travel as their IEEE-754 bit patterns, and
//! strings are a `u32` byte length followed by UTF-8.
//!
//! Every [`Reader`] accessor returns a [`WireError`] instead of
//! panicking when the buffer ends early or a string is not UTF-8, and
//! [`Reader::bounded_capacity`] caps pre-allocations so a corrupt length
//! field cannot trigger a huge reservation.

/// Why a [`Reader`] read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer ends before the value"),
            WireError::BadUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append a byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian IEEE-754 bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed UTF-8 string (`u32` length + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A truncation-safe decoding cursor over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Consume the next `n` bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Consume the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    /// Consume everything left in the buffer (possibly empty).
    pub fn rest(&mut self) -> &'a [u8] {
        let bytes = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        bytes
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer.
    ///
    /// # Errors
    /// [`WireError::Truncated`], or [`WireError::BadUtf8`].
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pre-allocation guard: never reserve more elements than the
    /// remaining bytes could possibly encode (each element of every
    /// decoded collection occupies at least `min_size` bytes), so a
    /// corrupt length field cannot trigger a huge allocation before the
    /// very next read fails with `Truncated`.
    pub fn bounded_capacity(&self, declared: usize, min_size: usize) -> usize {
        declared.min(self.remaining() / min_size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_reads_past_the_end_error() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, i64::MIN);
        put_f64(&mut buf, -0.125);
        put_str(&mut buf, "naïve");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.i64(), Ok(i64::MIN));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.125f64).to_bits()));
        assert_eq!(r.str(), Ok("naïve"));
        assert!(r.finished());
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_utf8_and_absurd_lengths_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Reader::new(&buf).str(), Err(WireError::BadUtf8));

        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let r = Reader::new(&huge);
        assert_eq!(r.bounded_capacity(usize::MAX, 8), 0);
        assert_eq!(Reader::new(&huge).str(), Err(WireError::Truncated));
    }
}
