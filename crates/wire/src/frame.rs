//! Length-prefixed framing on the socket, and the wire error type.
//!
//! Every message on a wire connection travels as one *frame*:
//!
//! ```text
//! +----------------+----------------+---------------------------------+
//! | length: u32 BE | crc32: u32 BE  | body: `length - 4` bytes        |
//! +----------------+----------------+---------------------------------+
//! ```
//!
//! This module owns only the outer length prefix ([`write_frame`] /
//! [`read_frame`]). The CRC-32 is sealed in and checked by
//! [`mlperf_trace::codec::seal`]/[`open`](mlperf_trace::codec::open)
//! *above* the raw transport, so a byte flipped anywhere in transit —
//! including by a [`ChaosTransport`](crate::transport::ChaosTransport) —
//! surfaces as a structured [`FrameError`], never as a plausible message.
//! The body is a tagged encoding of one [`Message`] written with the
//! shared [`mlperf_trace::codec`] byte codec; see [`crate::message`] for
//! the per-message layouts.
//!
//! [`Message`]: crate::message::Message

use std::io::{Read, Write};

use mlperf_trace::codec::{DecodeError, FrameError};

/// Hard ceiling on a frame's payload size. An offline query over a
/// 24,576-sample QSL encodes in ~400 KiB; 64 MiB leaves room for
/// accuracy-mode payloads while still catching a corrupt length prefix
/// before it turns into a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Errors raised by the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a valid message.
    Protocol(String),
    /// A frame's CRC32 check failed: bytes were corrupted in transit.
    Frame(FrameError),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our protocol version.
        ours: u16,
        /// The peer's protocol version.
        theirs: u16,
    },
    /// The server refused the handshake.
    Rejected(String),
    /// The connection died (reset, heartbeat loss, or orderly close while
    /// queries were still in flight).
    Disconnected(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours v{ours}, peer v{theirs}")
            }
            WireError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            WireError::Disconnected(reason) => write!(f, "wire disconnected: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

/// Writes one frame: `u32` big-endian payload length, then the payload.
///
/// # Errors
///
/// Returns [`WireError::Protocol`] for an oversized payload and
/// [`WireError::Io`] for socket failures.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Protocol(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// Returns [`WireError::Io`] on socket failure or EOF mid-frame, and
/// [`WireError::Protocol`] for a length prefix beyond [`MAX_FRAME_LEN`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Protocol(format!(
            "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(read_frame(&mut cursor).is_err()); // EOF
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"only4");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }
}
