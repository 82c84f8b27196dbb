//! The on-disk record frame: `[crc | ts | ksz | vsz | key | val]`.
//!
//! Every durable fact is one self-validating frame. The CRC covers
//! everything after itself (timestamp, sizes, key, value), so a torn
//! write — a frame cut short by a crash, or bytes flipped by a bad
//! sector — fails validation instead of deserializing into garbage.
//! Readers never trust a length field before the checksum over it has
//! passed; a frame whose declared sizes run past the segment's end is
//! classified as torn, not read out of bounds.
//!
//! Tombstones (deletions) are frames whose `vsz` is the reserved
//! [`TOMBSTONE`] sentinel and whose value is empty: the key's previous
//! versions become garbage for the next compaction to drop.

use cia_wire::crc32;

/// Size of the CRC-32 field.
pub const CRC_SIZE: usize = 4;
/// Size of the logical-timestamp field.
pub const TS_SIZE: usize = 8;
/// Size of the key-length field.
pub const KEY_SIZE: usize = 4;
/// Size of the value-length field.
pub const VAL_SIZE: usize = 4;
/// Total fixed header: `[crc | ts | ksz | vsz]`.
pub const HEADER_SIZE: usize = CRC_SIZE + TS_SIZE + KEY_SIZE + VAL_SIZE;

/// Reserved `vsz` marking a deletion frame (the value is empty).
pub const TOMBSTONE: u32 = u32::MAX;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than one fixed header — a torn header.
    TruncatedHeader {
        /// Bytes remaining at the frame's start offset.
        remaining: usize,
    },
    /// The header is intact but the declared key/value bytes run past
    /// the end of the segment — a torn body.
    TruncatedBody {
        /// Bytes the header claims the frame needs.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The checksum over the decoded bytes does not match the stored
    /// CRC — bit rot or a misaligned read.
    CrcMismatch {
        /// The CRC stored in the frame.
        stored: u32,
        /// The CRC computed over the frame's bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader { remaining } => {
                write!(f, "torn frame header: only {remaining} bytes remain")
            }
            FrameError::TruncatedBody { needed, remaining } => {
                write!(
                    f,
                    "torn frame body: needs {needed} bytes, {remaining} remain"
                )
            }
            FrameError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame, borrowing its key and value from the segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Logical write sequence number (monotonic per store, never wall
    /// clock — replay must be deterministic).
    pub ts: u64,
    /// The record's key.
    pub key: &'a [u8],
    /// The record's value; empty for tombstones.
    pub val: &'a [u8],
    /// True when this frame deletes the key.
    pub tombstone: bool,
    /// Total encoded length, header included.
    pub len: usize,
}

/// Appends one record frame to `out`. `val: None` encodes a tombstone.
/// The one frame encoder: a writer reusing one buffer per frame and a
/// compaction appending a whole segment both call it.
pub fn encode_into(out: &mut Vec<u8>, ts: u64, key: &[u8], val: Option<&[u8]>) {
    let body = val.unwrap_or(&[]);
    let vsz = match val {
        Some(v) => v.len() as u32,
        None => TOMBSTONE,
    };
    let start = out.len();
    out.reserve(HEADER_SIZE + key.len() + body.len());
    out.extend_from_slice(&[0u8; CRC_SIZE]);
    out.extend_from_slice(&ts.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&vsz.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(body);
    let crc = crc32(&out[start + CRC_SIZE..]);
    out[start..start + CRC_SIZE].copy_from_slice(&crc.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(buf)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Decodes the frame starting at `offset` in `segment`.
///
/// # Errors
///
/// [`FrameError`] for torn or corrupt frames; the caller treats any
/// error as "the log ends here" and truncates.
pub fn decode(segment: &[u8], offset: usize) -> Result<Frame<'_>, FrameError> {
    let remaining = segment.len().saturating_sub(offset);
    if remaining < HEADER_SIZE {
        return Err(FrameError::TruncatedHeader { remaining });
    }
    let bytes = &segment[offset..];
    let stored = read_u32(bytes, 0);
    let ts = read_u64(bytes, CRC_SIZE);
    let ksz = read_u32(bytes, CRC_SIZE + TS_SIZE) as usize;
    let raw_vsz = read_u32(bytes, CRC_SIZE + TS_SIZE + KEY_SIZE);
    let tombstone = raw_vsz == TOMBSTONE;
    let vsz = if tombstone { 0 } else { raw_vsz as usize };
    let needed = HEADER_SIZE.saturating_add(ksz).saturating_add(vsz);
    if needed > remaining {
        return Err(FrameError::TruncatedBody { needed, remaining });
    }
    let computed = crc32(&bytes[CRC_SIZE..needed]);
    if computed != stored {
        return Err(FrameError::CrcMismatch { stored, computed });
    }
    Ok(Frame {
        ts,
        key: &bytes[HEADER_SIZE..HEADER_SIZE + ksz],
        val: &bytes[HEADER_SIZE + ksz..needed],
        tombstone,
        len: needed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(ts: u64, key: &[u8], val: Option<&[u8]>) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_into(&mut frame, ts, key, val);
        frame
    }

    #[test]
    fn encode_into_appends_after_what_the_buffer_holds() {
        let mut segment = encode(1, b"a", Some(b"first"));
        let first = segment.len();
        encode_into(&mut segment, 2, b"b", Some(b"second"));
        assert_eq!(segment[first..], encode(2, b"b", Some(b"second")));
        assert_eq!(decode(&segment, first).unwrap().val, b"second");
    }

    #[test]
    fn crc32_known_vectors() {
        // The frame checksum is the IEEE CRC-32 of everything after it;
        // these pinned frames keep journal bytes from drifting.
        let frame = encode(
            42,
            b"agent/sim-0001",
            Some(b"{\"health\":\"Healthy\"}".as_ref()),
        );
        assert_eq!(frame[..CRC_SIZE], 0x4DA5_2A2D_u32.to_le_bytes());
        let tombstone = encode(9, b"dead/key", None);
        assert_eq!(tombstone[..CRC_SIZE], 0xA865_38C4_u32.to_le_bytes());
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = encode(
            42,
            b"agent/sim-0001",
            Some(b"{\"health\":\"Healthy\"}".as_ref()),
        );
        let decoded = decode(&frame, 0).unwrap();
        assert_eq!(decoded.ts, 42);
        assert_eq!(decoded.key, b"agent/sim-0001");
        assert_eq!(decoded.val, b"{\"health\":\"Healthy\"}");
        assert!(!decoded.tombstone);
        assert_eq!(decoded.len, frame.len());
    }

    #[test]
    fn zero_length_value_round_trips() {
        let frame = encode(7, b"meta/flag", Some(b""));
        let decoded = decode(&frame, 0).unwrap();
        assert_eq!(decoded.val, b"");
        assert!(!decoded.tombstone, "empty value is data, not deletion");
    }

    #[test]
    fn tombstone_round_trips() {
        let frame = encode(9, b"dead/key", None);
        let decoded = decode(&frame, 0).unwrap();
        assert!(decoded.tombstone);
        assert_eq!(decoded.val, b"");
    }

    #[test]
    fn torn_header_and_body_classified() {
        let frame = encode(1, b"k", Some(b"value"));
        assert!(matches!(
            decode(&frame[..HEADER_SIZE - 1], 0),
            Err(FrameError::TruncatedHeader { .. })
        ));
        assert!(matches!(
            decode(&frame[..frame.len() - 1], 0),
            Err(FrameError::TruncatedBody { .. })
        ));
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut frame = encode(1, b"k", Some(b"value"));
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode(&frame, 0),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn oversized_declared_length_is_torn_not_out_of_bounds() {
        // A frame claiming a huge value must fail as torn, not index
        // past the segment (or overflow the needed-bytes sum).
        let mut frame = encode(1, b"k", Some(b"v"));
        let vsz_at = CRC_SIZE + TS_SIZE + KEY_SIZE;
        frame[vsz_at..vsz_at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert!(matches!(
            decode(&frame, 0),
            Err(FrameError::TruncatedBody { .. })
        ));
    }
}
