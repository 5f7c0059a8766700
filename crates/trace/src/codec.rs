//! The one byte codec behind every binary format in the workspace.
//!
//! Three formats share these primitives: wire frames (`mlperf-wire`), the
//! `MLPR` recorded trace (`mlperf-replay`), and the `MLPJ` run journal
//! ([`crate::journal`]). Integers are big-endian, strings are a `u32` byte
//! length followed by UTF-8, floats travel as their IEEE-754 bit patterns,
//! and integrity is a CRC-32 (IEEE 802.3 polynomial). The module also holds
//! the workspace's FNV-1a, the content hash behind settings digests,
//! device seeds, and logical detail-log hashes.
//!
//! Every reader accessor checks bounds, and [`ByteReader::get_count`]
//! checks a length field against the bytes that remain *before* anything
//! is allocated, so a decoder fed untrusted bytes returns a structured
//! [`DecodeError`] and never panics or aborts on a huge allocation.

use std::fmt;

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, generated at
/// compile time so the hot path is one table index per byte.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`. Detects every single-byte error and all burst
/// errors up to 32 bits.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a, 64-bit: a fast, stable, non-cryptographic content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sealed payload that failed its integrity check: the body's CRC-32
/// does not match the checksum sealed in front of it.
///
/// Structured (not a string) so callers can map it to a verdict — the
/// wire client turns it into an errored completion — and tests can assert
/// on it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Length of the sealed payload (checksum + body).
    pub len: usize,
    /// CRC-32 sealed into the payload.
    pub expected: u32,
    /// CRC-32 computed over the body as received.
    pub found: u32,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame integrity failure: {}-byte payload, crc {:#010x} != sealed {:#010x}",
            self.len, self.found, self.expected
        )
    }
}

impl std::error::Error for FrameError {}

/// Seals a body: `crc32(body) ‖ body`.
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(body.len() + 4);
    payload.extend_from_slice(&crc32(body).to_be_bytes());
    payload.extend_from_slice(body);
    payload
}

/// Opens a [`seal`]ed payload, verifying the CRC-32 and returning the body.
///
/// # Errors
///
/// Returns [`FrameError`] if the payload is too short to carry a checksum
/// (reported with both CRCs zero) or the body's CRC-32 does not match.
pub fn open(payload: &[u8]) -> Result<&[u8], FrameError> {
    let Some((head, body)) = payload.split_first_chunk::<4>() else {
        return Err(FrameError {
            len: payload.len(),
            expected: 0,
            found: 0,
        });
    };
    let expected = u32::from_be_bytes(*head);
    let found = crc32(body);
    if found != expected {
        return Err(FrameError {
            len: payload.len(),
            expected,
            found,
        });
    }
    Ok(body)
}

/// Why a byte buffer did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did — including a count field
    /// whose elements could not fit in the bytes that remain.
    Truncated {
        /// Offset of the read that failed.
        at: usize,
        /// Bytes the read needed (saturating for huge counts).
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// A string field is not UTF-8.
    InvalidUtf8 {
        /// Offset of the string's bytes.
        at: usize,
    },
    /// Bytes remain after the structure ended.
    TrailingBytes(usize),
    /// A tag byte (an enum discriminant or a flag) outside its range.
    UnknownTag {
        /// What the tag selects (`"payload"`, `"bool"`, ...).
        field: &'static str,
        /// The byte read.
        tag: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at, need, have } => {
                write!(
                    f,
                    "truncated: needed {need} bytes at offset {at}, {have} left"
                )
            }
            DecodeError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 string at offset {at}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last field"),
            DecodeError::UnknownTag { field, tag } => write!(f, "unknown {field} tag {tag}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only big-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty encoder.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder with room for `bytes` bytes.
    #[inline]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the encoder, returning the bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (magics, fixed-size fields).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a flag as one byte, 0 or 1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u32` element count (the writer side of
    /// [`ByteReader::get_count`]).
    #[inline]
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_count(v.len());
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based big-endian decoder. Every accessor checks bounds and
/// returns [`DecodeError::Truncated`] when the buffer runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a buffer.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, need: usize) -> DecodeError {
        DecodeError::Truncated {
            at: self.pos,
            need,
            have: self.remaining(),
        }
    }

    #[inline]
    fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.get_bytes(N)?.try_into().expect("slice of length N"))
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.get_array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.get_array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.get_array().map(u64::from_be_bytes)
    }

    /// Reads an `f32` from its bit pattern.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, DecodeError> {
        self.get_u32().map(f32::from_bits)
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a flag byte; anything but 0 or 1 is
    /// [`DecodeError::UnknownTag`].
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::UnknownTag { field: "bool", tag }),
        }
    }

    /// Reads a `u32` element count whose elements each encode in at least
    /// `min_size` bytes, and rejects it unless that many elements could
    /// fit in the bytes that remain. Route every count through here before
    /// allocating for it: a corrupt count then costs a structured error,
    /// not a multi-gigabyte allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when the count field itself is
    /// cut, or when `count × min_size` exceeds the remaining bytes.
    #[inline]
    pub fn get_count(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let count = self.get_u32()? as usize;
        let need = count.saturating_mul(min_size);
        if need > self.remaining() {
            return Err(self.truncated(need));
        }
        Ok(count)
    }

    /// Reads a length-prefixed UTF-8 string; non-UTF-8 bytes are
    /// [`DecodeError::InvalidUtf8`].
    #[inline]
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_count(1)?;
        let at = self.pos;
        let bytes = self.get_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::InvalidUtf8 { at })
    }

    /// Asserts the buffer was fully consumed, else
    /// [`DecodeError::TrailingBytes`].
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Published IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv_hash_is_deterministic_and_input_sensitive() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }

    #[test]
    fn seal_open_roundtrip() {
        for body in [&b""[..], b"x", b"a longer message body \x00\xff"] {
            let payload = seal(body);
            assert_eq!(payload.len(), body.len() + 4);
            assert_eq!(open(&payload).unwrap(), body);
        }
    }

    #[test]
    fn undersized_payload_is_frame_error() {
        for len in 0..4 {
            let err = open(&vec![0u8; len]).unwrap_err();
            assert_eq!((err.len, err.expected, err.found), (len, 0, 0));
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"MG");
        w.put_u8(7);
        w.put_u16(1_000);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 3);
        w.put_f32(0.25);
        w.put_f64(-1.5e300);
        w.put_bool(true);
        w.put_str("schnell");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_bytes(2).unwrap(), b"MG");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1_000);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), 0.25);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "schnell");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..6]);
        r.get_u8().unwrap();
        assert_eq!(
            r.get_u64(),
            Err(DecodeError::Truncated {
                at: 1,
                need: 8,
                have: 5
            })
        );
    }

    #[test]
    fn count_beyond_remaining_bytes_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).get_count(16),
            Err(DecodeError::Truncated {
                at: 4,
                need: u32::MAX as usize * 16,
                have: 8
            })
        );
        // Exactly enough room is accepted.
        let mut w = ByteWriter::new();
        w.put_count(2);
        w.put_u32(5);
        w.put_u32(6);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_count(4), Ok(2));
        assert!(ByteReader::new(&bytes).get_count(5).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn flag_outside_zero_one_rejected() {
        assert_eq!(
            ByteReader::new(&[2]).get_bool(),
            Err(DecodeError::UnknownTag {
                field: "bool",
                tag: 2
            })
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).get_str(),
            Err(DecodeError::InvalidUtf8 { at: 4 })
        );
    }
}
