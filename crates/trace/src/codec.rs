//! The shared binary codec under every durable byte in the workspace.
//!
//! Both the `.dft` trace format ([`crate::record`]) and `distfront`'s
//! on-disk store segments serialize through this one pair of primitives:
//! a [`Writer`] that appends little-endian integers, exact-bit floats,
//! length-prefixed UTF-8 strings and word rows to a byte vector, and
//! a bounds-checked [`Reader`] that decodes the same stream strictly —
//! every read names the section it is in (so a short file fails with
//! *which* field was truncated), unknown layouts are rejected rather than
//! guessed, and [`Reader::expect_end`] turns trailing bytes into a hard
//! error instead of silent acceptance.
//!
//! The conventions are fixed and shared by every format built on top:
//!
//! * multi-byte integers are **little-endian**;
//! * floats are stored as their exact IEEE-754 bits (`f64::to_bits`), so
//!   round-trips are bit identity, not numeric equality;
//! * strings are `u32` byte-length-prefixed UTF-8, validated on read;
//! * counter rows are `u32` count-prefixed `u64` words.
//!
//! Errors carry only a static section name — [`CodecError::Truncated`]
//! when the buffer ran out, [`CodecError::Corrupt`] when the bytes were
//! present but structurally invalid. Formats layer their own error types
//! on top via `From<CodecError>`.
//!
//! # Examples
//!
//! ```
//! use distfront_trace::codec::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.str("hello");
//! w.words(&[3, 1 << 40]);
//! let bytes = w.into_vec();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.str("greeting").unwrap(), "hello");
//! assert_eq!(r.words("row").unwrap(), vec![3, 1 << 40]);
//! r.expect_end().unwrap();
//! ```

/// Why a byte stream failed to decode at the codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended inside the named section.
    Truncated(&'static str),
    /// The bytes were present but structurally invalid (bad UTF-8, a
    /// flag byte that is neither 0 nor 1, trailing bytes past the end of
    /// the format).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "stream truncated in {what}"),
            CodecError::Corrupt(what) => write!(f, "stream corrupt: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encoder for the codec's wire conventions.
///
/// Writers are infallible: every method appends to the internal vector.
/// Take the finished stream with [`Writer::into_vec`].
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer(Vec::new())
    }

    /// An empty writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer(Vec::with_capacity(cap))
    }

    /// The encoded stream so far.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends raw bytes verbatim (magic values, pre-encoded payloads).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Appends a `magic` + little-endian `u32` version header.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) {
        self.bytes(magic);
        self.u32(version);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a float as its exact IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32` byte-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32` count-prefixed row of `u64` words.
    pub fn words(&mut self, words: &[u64]) {
        self.u32(words.len() as u32);
        for &w in words {
            self.u64(w);
        }
    }
}

/// A strict, bounds-checked decoder over a borrowed byte slice.
///
/// Every read method takes a static section name that becomes the
/// payload of the error when the stream is short or malformed there.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Consumes the next `n` bytes, or fails naming `what`.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Validates a `magic` + version header and returns the version.
    /// A magic mismatch is reported as `Corrupt(magic_what)`.
    pub fn header(&mut self, magic: &[u8; 4], magic_what: &'static str) -> Result<u32, CodecError> {
        if self.take(4, magic_what)? != magic {
            return Err(CodecError::Corrupt(magic_what));
        }
        self.u32("version")
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a float from its exact IEEE-754 bits.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u32` byte-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }

    /// Reads a `u32` count-prefixed row of `u64` words.
    ///
    /// The whole row is taken with one bounds check before anything is
    /// allocated, so a count larger than the remaining input fails as
    /// `Truncated(what)` and the allocation never exceeds the input.
    pub fn words(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let len = self.u32(what)? as usize;
        let n = len.checked_mul(8).ok_or(CodecError::Truncated(what))?;
        Ok(self
            .take(n, what)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }

    /// Reads a boolean stored as a strict 0/1 byte.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("flag byte not 0/1")),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with `Corrupt("trailing bytes")` unless the whole stream
    /// was consumed — the strict-decode backstop every format ends with.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.header(b"TEST", 7);
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.str("héllo");
        w.words(&[1, 2, 3]);
        w.u8(1);
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.header(b"TEST", "magic").unwrap(), 7);
        assert_eq!(r.u8("a").unwrap(), 0xab);
        assert_eq!(r.u16("b").unwrap(), 0xbeef);
        assert_eq!(r.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("d").unwrap(), u64::MAX);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str("f").unwrap(), "héllo");
        assert_eq!(r.words("g").unwrap(), vec![1, 2, 3]);
        assert!(r.flag("h").unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_and_trailing_bytes_are_corrupt() {
        let mut w = Writer::new();
        w.header(b"GOOD", 1);
        let mut bytes = w.into_vec();
        assert_eq!(
            Reader::new(&bytes).header(b"WANT", "magic"),
            Err(CodecError::Corrupt("magic"))
        );
        bytes.push(0);
        let mut r = Reader::new(&bytes);
        r.header(b"GOOD", "magic").unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::Corrupt("trailing bytes")));
    }

    #[test]
    fn truncation_mid_row_is_truncated_not_corrupt() {
        let mut w = Writer::new();
        w.words(&[1 << 40, 7]);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            assert_eq!(
                Reader::new(&bytes[..cut]).words("row"),
                Err(CodecError::Truncated("row"))
            );
        }
    }

    #[test]
    fn flag_rejects_non_binary_bytes() {
        let bytes = [2u8];
        assert_eq!(
            Reader::new(&bytes).flag("flag"),
            Err(CodecError::Corrupt("flag byte not 0/1"))
        );
    }
}
