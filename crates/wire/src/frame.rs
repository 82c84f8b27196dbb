//! Length-prefixed, CRC-protected framing.
//!
//! Every message crossing a [`crate::ShardTransport`] travels inside
//! one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     MAGIC        0x43494157 ("CIAW"), little-endian
//! 4       4     payload len  u32, little-endian
//! 8       4     payload CRC  crc32(payload), little-endian
//! 12      len   payload      one Wire-encoded message
//! ```
//!
//! The magic catches desynchronised streams, the length bounds the
//! read, and the CRC catches torn writes and bit flips — all before a
//! single payload byte reaches a decoder.

use std::io::{Read, Write};

use crate::crc::crc32;
use crate::error::WireError;

/// First four bytes of every frame ("CIAW" little-endian).
pub const MAGIC: u32 = 0x4349_4157;

/// Frame header size: magic + length + CRC, four bytes each.
pub const FRAME_HEADER_LEN: usize = 12;

/// Upper bound on a frame payload (64 MiB) — far above any real batch,
/// low enough that a corrupt length field cannot demand the moon.
pub const MAX_FRAME: usize = 64 << 20;

/// Wraps `payload` in a complete frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates one complete frame and returns its payload, borrowed from
/// `bytes` — no copy, no allocation.
///
/// # Errors
///
/// [`WireError::Truncated`] when `bytes` is shorter than the frame it
/// promises (or than a header); [`WireError::BadMagic`],
/// [`WireError::FrameTooLarge`], [`WireError::BadCrc`] for corrupt
/// headers or payloads; [`WireError::TrailingBytes`] when `bytes`
/// continues past the frame.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], WireError> {
    let header = bytes.get(..FRAME_HEADER_LEN).ok_or(WireError::Truncated)?;
    let word = |i: usize| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&header[i..i + 4]);
        u32::from_le_bytes(b)
    };
    let magic = word(0);
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let len = word(4) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    let expected = word(8);
    let end = FRAME_HEADER_LEN + len;
    let payload = bytes
        .get(FRAME_HEADER_LEN..end)
        .ok_or(WireError::Truncated)?;
    if bytes.len() > end {
        return Err(WireError::TrailingBytes {
            remaining: bytes.len() - end,
        });
    }
    let found = crc32(payload);
    if found != expected {
        return Err(WireError::BadCrc { expected, found });
    }
    Ok(payload)
}

/// Writes one frame to `w` (header + payload; the caller flushes).
///
/// # Errors
///
/// [`WireError::Io`] / [`WireError::Closed`] from the sink.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads and validates one frame from `r`, returning its payload. Only
/// [`crate::TcpReceiver`] calls it, and it decodes the payload before
/// anything leaves this crate.
///
/// # Errors
///
/// [`WireError::Closed`] on EOF at a frame boundary (or mid-frame, via
/// the reader's `UnexpectedEof`); [`WireError::BadMagic`],
/// [`WireError::FrameTooLarge`], [`WireError::BadCrc`] for corrupt
/// frames; [`WireError::Io`] for transport failures.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let word = |i: usize| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&header[i..i + 4]);
        u32::from_le_bytes(b)
    };
    let magic = word(0);
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let len = word(4) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    let expected = word(8);
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let found = crc32(&payload);
    if found != expected {
        return Err(WireError::BadCrc { expected, found });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_unframe_roundtrip() {
        for payload in [&b""[..], b"x", b"quote response bytes"] {
            let framed = frame(payload);
            assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
            assert_eq!(unframe(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let framed = frame(b"some payload");
        for cut in 0..framed.len() {
            assert!(
                unframe(&framed[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = frame(b"evidence");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut corrupt = framed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    unframe(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} must error"
                );
            }
        }
    }

    #[test]
    fn io_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"two");
        assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut framed = frame(b"tiny");
        framed[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        match unframe(&framed) {
            Err(WireError::FrameTooLarge { .. }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
