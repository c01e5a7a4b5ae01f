//! Length-prefixed, checksummed frames over a byte stream.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! [u32 payload_len][u64 checksum][payload bytes]
//! ```
//!
//! The checksum is `common::stable_hash_bytes` over the payload, so a
//! corrupt frame is rejected deterministically on both ends without any
//! external hashing dependency. The declared length is capped against
//! [`FrameConfig::max_frame_bytes`] *before* any allocation: a hostile
//! header claiming gigabytes must fail cheaply, never size a `Vec`.

use std::io::{Read, Write};

use bestpeer_common::codec::{get_u32, get_u64};
use bestpeer_common::{stable_hash_bytes, Error, Result};

/// Frame header size on the wire: u32 length + u64 checksum.
pub const FRAME_HEADER_BYTES: usize = 4 + 8;

/// Default cap on a single frame's payload (64 MiB). Generous for the
/// row batches this workload ships, tight enough that a hostile length
/// header cannot exhaust memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Limits applied when reading frames from an untrusted stream.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// Reject frames whose declared payload exceeds this many bytes.
    pub max_frame_bytes: usize,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Write one frame (header + payload) to `w` with a single `write_all`,
/// then flush it. Header and payload leave in one write so a frame never
/// waits behind Nagle's algorithm for the peer's delayed ACK of its own
/// header, whatever the socket's `TCP_NODELAY` setting.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&stable_hash_bytes(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(map_io_error)?;
    w.flush().map_err(map_io_error)?;
    Ok(())
}

/// Read one frame from `r`, verifying length bound and checksum.
pub fn read_frame<R: Read>(r: &mut R, cfg: &FrameConfig) -> Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header).map_err(map_io_error)?;
    let mut buf = &header[..];
    let len = get_u32(&mut buf)? as usize;
    let checksum = get_u64(&mut buf)?;
    if len > cfg.max_frame_bytes {
        return Err(Error::Codec(format!(
            "frame declares {len} payload bytes, cap is {}",
            cfg.max_frame_bytes
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(map_io_error)?;
    if stable_hash_bytes(&payload) != checksum {
        return Err(Error::Codec("frame checksum mismatch".into()));
    }
    Ok(payload)
}

/// Map a socket-level `io::Error` onto the workspace error taxonomy so
/// `core::retry` keeps working unchanged over real sockets: timeouts
/// become [`Error::Timeout`], connection-level failures (refused, reset,
/// unexpected EOF — a peer that died) become [`Error::Unavailable`]
/// which the retry loop re-attempts, and anything else is a plain
/// [`Error::Network`].
pub fn map_io_error(e: std::io::Error) -> Error {
    use std::io::ErrorKind::*;
    match e.kind() {
        TimedOut | WouldBlock => Error::Timeout(format!("socket timeout: {e}")),
        ConnectionRefused | ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof
        | NotConnected => Error::Unavailable(format!("peer connection failed: {e}")),
        _ => Error::Network(format!("socket error: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello frames".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), FRAME_HEADER_BYTES + payload.len());
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, &FrameConfig::default()).unwrap(),
            payload
        );
    }

    /// A sink that accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for payload in [&b""[..], b"x", b"hello frames"] {
            let before = w.writes;
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes - before, 1, "header and payload in one write");
        }
        assert_eq!(w.bytes, 3 * FRAME_HEADER_BYTES + 1 + 12);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[]).unwrap();
        let mut r = &wire[..];
        assert!(read_frame(&mut r, &FrameConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // A header claiming u32::MAX payload bytes with nothing behind
        // it: must fail on the cap check, not by allocating 4 GiB.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        let mut r = &wire[..];
        let err = read_frame(&mut r, &FrameConfig::default()).unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload-bytes").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut r = &wire[..];
        let err = read_frame(&mut r, &FrameConfig::default()).unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn truncated_stream_is_unavailable() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload-bytes").unwrap();
        wire.truncate(wire.len() - 4);
        let mut r = &wire[..];
        let err = read_frame(&mut r, &FrameConfig::default()).unwrap_err();
        // read_exact on a short stream reports UnexpectedEof → the peer
        // died mid-frame → transient Unavailable, so retry re-resolves.
        assert_eq!(err.kind(), "unavailable");
    }
}
