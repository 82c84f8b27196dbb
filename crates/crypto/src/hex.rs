//! Hexadecimal encoding and decoding.

use std::fmt;

/// Encodes `bytes` as lowercase hexadecimal.
///
/// # Examples
///
/// ```
/// assert_eq!(cia_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
#[expect(
    clippy::expect_used,
    reason = "encode_to_slice writes only ASCII hex digits"
)]
pub fn encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    encode_to_slice(bytes, &mut out);
    String::from_utf8(out).expect("hex digits are ASCII")
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as lowercase hexadecimal into a caller-provided
/// buffer without allocating — the hot-path counterpart of [`encode`].
/// Returns the number of bytes written (`bytes.len() * 2`).
///
/// # Panics
///
/// Panics if `out` is shorter than `bytes.len() * 2`.
///
/// # Examples
///
/// ```
/// let mut buf = [0u8; 4];
/// let n = cia_crypto::hex::encode_to_slice(&[0xde, 0xad], &mut buf);
/// assert_eq!(&buf[..n], b"dead");
/// ```
pub fn encode_to_slice(bytes: &[u8], out: &mut [u8]) -> usize {
    let needed = bytes.len() * 2;
    assert!(
        out.len() >= needed,
        "hex buffer too small: need {needed}, have {}",
        out.len()
    );
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[(b >> 4) as usize];
        pair[1] = HEX_DIGITS[(b & 0x0f) as usize];
    }
    needed
}

/// Decodes a hexadecimal string (upper- or lowercase) into bytes.
///
/// # Errors
///
/// Returns [`DecodeHexError`] if the input has odd length or contains a
/// non-hexadecimal character.
///
/// # Examples
///
/// ```
/// assert_eq!(cia_crypto::hex::decode("DEad")?, vec![0xde, 0xad]);
/// # Ok::<(), cia_crypto::hex::DecodeHexError>(())
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, DecodeHexError> {
    let mut out = vec![0u8; s.len() / 2];
    decode_to_slice(s, &mut out)?;
    Ok(out)
}

/// Decodes hexadecimal into a caller-provided buffer without allocating
/// — the hot-path counterpart of [`decode`]. Returns the number of bytes
/// written.
///
/// # Errors
///
/// [`DecodeHexError::OddLength`], [`DecodeHexError::InvalidChar`], or
/// [`DecodeHexError::BufferTooSmall`] when `out` cannot hold the decoded
/// bytes.
///
/// # Examples
///
/// ```
/// let mut buf = [0u8; 4];
/// let n = cia_crypto::hex::decode_to_slice("DEad", &mut buf)?;
/// assert_eq!(&buf[..n], &[0xde, 0xad]);
/// # Ok::<(), cia_crypto::hex::DecodeHexError>(())
/// ```
pub fn decode_to_slice(s: &str, out: &mut [u8]) -> Result<usize, DecodeHexError> {
    if !s.len().is_multiple_of(2) {
        return Err(DecodeHexError::OddLength { len: s.len() });
    }
    let needed = s.len() / 2;
    if out.len() < needed {
        return Err(DecodeHexError::BufferTooSmall {
            needed,
            capacity: out.len(),
        });
    }
    // Decode every pair, OR-ing the nibbles together: a valid nibble is
    // below 16, so one check after the loop catches any non-hex byte.
    let mut seen = 0u8;
    for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        let (hi, lo) = (NIBBLES[pair[0] as usize], NIBBLES[pair[1] as usize]);
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    if seen > 0x0f {
        let position = s
            .bytes()
            .position(|c| NIBBLES[c as usize] == NOT_HEX)
            .unwrap_or_default();
        return Err(DecodeHexError::InvalidChar { position });
    }
    Ok(needed)
}

/// The [`NIBBLES`] entry of a non-hex character.
const NOT_HEX: u8 = 0xff;

/// Nibble values for every byte, [`NOT_HEX`] marking non-hex characters —
/// a branchless lookup for the decode hot path.
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut c = 0usize;
    while c < 256 {
        table[c] = match c as u8 {
            b'0'..=b'9' => c as u8 - b'0',
            b'a'..=b'f' => c as u8 - b'a' + 10,
            b'A'..=b'F' => c as u8 - b'A' + 10,
            _ => NOT_HEX,
        };
        c += 1;
    }
    table
};

/// Error returned by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeHexError {
    /// The input length was not a multiple of two.
    OddLength {
        /// The offending input length.
        len: usize,
    },
    /// A character outside `[0-9a-fA-F]` was found.
    InvalidChar {
        /// Byte offset of the bad character.
        position: usize,
    },
    /// The output buffer passed to [`decode_to_slice`] was too small.
    BufferTooSmall {
        /// Bytes the input decodes to.
        needed: usize,
        /// Capacity of the provided buffer.
        capacity: usize,
    },
}

impl fmt::Display for DecodeHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeHexError::OddLength { len } => {
                write!(f, "hex string has odd length {len}")
            }
            DecodeHexError::InvalidChar { position } => {
                write!(f, "invalid hex character at position {position}")
            }
            DecodeHexError::BufferTooSmall { needed, capacity } => {
                write!(
                    f,
                    "hex output needs {needed} bytes, buffer holds {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeHexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn encode_all_bytes_roundtrip() {
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&all)).unwrap(), all);
    }

    #[test]
    fn decode_uppercase() {
        assert_eq!(decode("FFfe").unwrap(), vec![0xff, 0xfe]);
    }

    #[test]
    fn decode_odd_length() {
        assert_eq!(
            decode("abc").unwrap_err(),
            DecodeHexError::OddLength { len: 3 }
        );
    }

    #[test]
    fn decode_to_slice_matches_decode() {
        let mut buf = [0u8; 32];
        for input in ["", "00", "deadBEEF", "ff00ff00"] {
            let n = decode_to_slice(input, &mut buf).unwrap();
            assert_eq!(&buf[..n], decode(input).unwrap().as_slice());
        }
        assert_eq!(
            decode_to_slice("abc", &mut buf).unwrap_err(),
            DecodeHexError::OddLength { len: 3 }
        );
        assert_eq!(
            decode_to_slice("ag", &mut buf).unwrap_err(),
            DecodeHexError::InvalidChar { position: 1 }
        );
        let mut tiny = [0u8; 1];
        assert_eq!(
            decode_to_slice("aabb", &mut tiny).unwrap_err(),
            DecodeHexError::BufferTooSmall {
                needed: 2,
                capacity: 1
            }
        );
    }

    #[test]
    fn decode_invalid_char_position() {
        assert_eq!(
            decode("ag").unwrap_err(),
            DecodeHexError::InvalidChar { position: 1 }
        );
        assert_eq!(
            decode("zz").unwrap_err(),
            DecodeHexError::InvalidChar { position: 0 }
        );
    }
}
