//! The shared binary codec under every durable byte in the workspace.
//!
//! Both the `.dft` trace format ([`crate::record`]) and `distfront`'s
//! on-disk store segments serialize through this one pair of primitives:
//! a [`Writer`] that appends little-endian integers, exact-bit floats,
//! length-prefixed UTF-8 strings and LEB128 varints to a byte vector, and
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
//! * counter rows are `u32` count-prefixed `u64` words;
//! * variable-length integers are unsigned **LEB128** (7 bits per byte,
//!   high bit continues), at most 10 bytes for a `u64`; signed values map
//!   through **zig-zag** (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) first so
//!   small-magnitude deltas of either sign stay short on the wire.
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
//! w.zigzag(-3);
//! let bytes = w.into_vec();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.str("greeting").unwrap(), "hello");
//! assert_eq!(r.zigzag("delta").unwrap(), -3);
//! r.expect_end().unwrap();
//! ```

/// Why a byte stream failed to decode at the codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended inside the named section.
    Truncated(&'static str),
    /// The bytes were present but structurally invalid (bad UTF-8, a
    /// flag byte that is neither 0 nor 1, an over-long varint, trailing
    /// bytes past the end of the format).
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

/// Longest legal LEB128 encoding of a `u64` (⌈64/7⌉ bytes).
const MAX_VARINT_LEN: usize = 10;

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

    /// Appends an unsigned LEB128 varint (1–10 bytes).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.0.push(byte);
                return;
            }
            self.0.push(byte | 0x80);
        }
    }

    /// Appends a signed value as a zig-zag-mapped LEB128 varint, so
    /// small magnitudes of either sign encode in one byte.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }
}

/// A varint of one or two bytes starting `b0, b1`, with its length.
///
/// Either `b0` ends the value or `b1` does; the length is read off
/// `b0`'s continuation bit, not branched on.
#[inline]
fn short_varint(b0: u8, b1: u8) -> Option<(u64, usize)> {
    (b0 & b1 & 0x80 == 0).then(|| {
        let two = u64::from(b0 >> 7);
        let v = u64::from(b0 & 0x7f) | ((u64::from(b1) << 7) * two);
        (v, 1 + two as usize)
    })
}

/// A varint of any length from a window of the stream's next (at most
/// 10) bytes, with its length. A window that ends mid-value is
/// truncated when it is shorter than 10 bytes and corrupt when it is not.
fn long_varint(window: &[u8], what: &'static str) -> Result<(u64, usize), CodecError> {
    let mut v: u64 = 0;
    for (i, &byte) in window.iter().enumerate() {
        let bits = u64::from(byte & 0x7f);
        if i == MAX_VARINT_LEN - 1 && bits > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    if window.len() < MAX_VARINT_LEN {
        return Err(CodecError::Truncated(what));
    }
    Err(CodecError::Corrupt("varint longer than 10 bytes"))
}

/// Maps a zig-zag varint back to its signed value.
#[inline]
fn unzigzag(n: u64) -> i64 {
    (n >> 1) as i64 ^ -((n & 1) as i64)
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

    /// Reads an unsigned LEB128 varint. More than 10 bytes — or a 10th
    /// byte carrying bits a `u64` cannot hold — is corrupt, not long.
    ///
    /// Values of one or two bytes, nearly every delta of a recorded trace
    /// and split about evenly between the two lengths, decode without a
    /// branch on the length. A longer value is decoded from a window of
    /// at most 10 bytes, bounds-checked once. A window that ends mid-value
    /// is truncated when the stream ran out and corrupt when it held all
    /// 10 bytes.
    #[inline]
    pub fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let rest = &self.buf[self.pos..];
        if let [b0, b1, ..] = *rest {
            if let Some((v, len)) = short_varint(b0, b1) {
                self.pos += len;
                return Ok(v);
            }
        }
        let (v, len) = long_varint(&rest[..rest.len().min(MAX_VARINT_LEN)], what)?;
        self.pos += len;
        Ok(v)
    }

    /// Reads a zig-zag-mapped LEB128 varint back to a signed value.
    #[inline]
    pub fn zigzag(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(unzigzag(self.varint(what)?))
    }

    /// Reads a row of `base.len()` zig-zag varints into `out`, each added
    /// (wrapping) to the same entry of `base`: the delta row of
    /// [`crate::record`]. Equal, value and error alike, to one
    /// [`zigzag`](Self::zigzag) call per entry.
    ///
    /// The row is one loop over a local cursor: while a whole 10-byte
    /// window remains, a value cannot run past the stream, so it is
    /// decoded without a bounds check or a `Result` of its own. Only the
    /// values that start in the stream's last 10 bytes go through
    /// [`zigzag`](Self::zigzag).
    ///
    /// # Panics
    ///
    /// Panics if `out` and `base` differ in length.
    pub(crate) fn zigzag_row(
        &mut self,
        base: &[u64],
        out: &mut [u64],
        what: &'static str,
    ) -> Result<(), CodecError> {
        assert_eq!(base.len(), out.len(), "row length mismatch");
        let buf = self.buf;
        let mut pos = self.pos;
        let mut read = 0;
        for (o, &b) in out.iter_mut().zip(base) {
            let Some(window) = buf.get(pos..pos + MAX_VARINT_LEN) else {
                break;
            };
            let (v, len) = match short_varint(window[0], window[1]) {
                Some(short) => short,
                None => long_varint(window, what).inspect_err(|_| self.pos = pos)?,
            };
            pos += len;
            *o = b.wrapping_add(unzigzag(v) as u64);
            read += 1;
        }
        self.pos = pos;
        for (o, &b) in out[read..].iter_mut().zip(&base[read..]) {
            *o = b.wrapping_add(self.zigzag(what)? as u64);
        }
        Ok(())
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
    use proptest::prelude::*;

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
    fn flag_rejects_non_binary_bytes() {
        let bytes = [2u8];
        assert_eq!(
            Reader::new(&bytes).flag("flag"),
            Err(CodecError::Corrupt("flag byte not 0/1"))
        );
    }

    #[test]
    fn varint_edge_encodings() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_vec();
            assert!(bytes.len() <= 10);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint("v").unwrap(), v);
            r.expect_end().unwrap();
        }
        // u64::MAX needs the full 10 bytes.
        let mut w = Writer::new();
        w.varint(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn overlong_and_overflowing_varints_are_corrupt() {
        // Eleven continuation bytes: no 10-byte u64 encoding continues.
        let overlong = [0x80u8; 11];
        assert_eq!(
            Reader::new(&overlong).varint("v"),
            Err(CodecError::Corrupt("varint longer than 10 bytes"))
        );
        // A 10th byte with more than the single bit a u64 has left.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert_eq!(
            Reader::new(&overflow).varint("v"),
            Err(CodecError::Corrupt("varint overflows u64"))
        );
        // The canonical top encoding still decodes.
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(Reader::new(&max).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn truncation_mid_varint_is_truncated_not_corrupt() {
        let mut w = Writer::new();
        w.varint(1 << 40);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            assert_eq!(
                Reader::new(&bytes[..cut]).varint("delta"),
                Err(CodecError::Truncated("delta"))
            );
        }
    }

    /// The varint decoder against the byte-by-byte loop it replaced, on
    /// every two-byte prefix followed by nothing, by one more byte, or by
    /// eight more (a full 10-byte window): same value or error, same
    /// length.
    #[test]
    fn varint_matches_the_byte_loop_on_every_two_byte_prefix() {
        fn byte_loop(bytes: &[u8]) -> (Result<u64, CodecError>, usize) {
            let mut v = 0u64;
            for i in 0..MAX_VARINT_LEN {
                let Some(&byte) = bytes.get(i) else {
                    return (Err(CodecError::Truncated("v")), i);
                };
                let bits = u64::from(byte & 0x7f);
                if i == MAX_VARINT_LEN - 1 && bits > 1 {
                    return (Err(CodecError::Corrupt("varint overflows u64")), i);
                }
                v |= bits << (7 * i);
                if byte & 0x80 == 0 {
                    return (Ok(v), i + 1);
                }
            }
            let err = CodecError::Corrupt("varint longer than 10 bytes");
            (Err(err), MAX_VARINT_LEN)
        }
        let tails: [&[u8]; 3] = [
            &[],
            &[0x85],
            &[0xff, 0x80, 0x93, 0xc1, 0x80, 0xaa, 0xff, 0x01],
        ];
        for b0 in 0..=255u8 {
            for b1 in 0..=255u8 {
                for tail in tails {
                    let mut bytes = vec![b0, b1];
                    bytes.extend_from_slice(tail);
                    let (want, len) = byte_loop(&bytes);
                    let mut r = Reader::new(&bytes);
                    assert_eq!(r.varint("v"), want, "{bytes:x?}");
                    if want.is_ok() {
                        assert_eq!(bytes.len() - r.remaining(), len, "{bytes:x?}");
                    }
                }
                let one = [b0];
                assert_eq!(Reader::new(&one).varint("v"), byte_loop(&one).0);
            }
        }
    }

    proptest! {
        /// varint and zigzag round-trip the full u64/i64 ranges (the
        /// signed value reinterprets the raw bits, covering both signs
        /// and the extremes).
        #[test]
        fn varint_zigzag_roundtrip(u in 0u64..u64::MAX, raw in 0u64..u64::MAX) {
            let s = raw as i64;
            let mut w = Writer::new();
            w.varint(u);
            w.zigzag(s);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.varint("u").unwrap(), u);
            prop_assert_eq!(r.zigzag("s").unwrap(), s);
            r.expect_end().unwrap();
        }

        /// Small-magnitude signed deltas stay short on the wire — the
        /// property the v3 trace layout's size win rests on.
        #[test]
        fn small_deltas_encode_in_one_byte(raw in 0u64..128) {
            let d = raw as i64 - 64;
            let mut w = Writer::new();
            w.zigzag(d);
            prop_assert_eq!(w.len(), 1);
        }
    }
}
