//! Digest values and hash-algorithm identifiers shared across the workspace.

use std::fmt;

use cia_wire::Wire;
use serde::{DeError, Deserialize, JsonReader, JsonWriter, Serialize};

use crate::hex;

/// Identifies a hash algorithm in logs, policies, and PCR banks.
///
/// Mirrors the algorithm prefixes that appear in IMA's `ima-ng` template
/// (`sha256:...`) and the TPM 2.0 bank selectors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Wire,
)]
pub enum HashAlgorithm {
    /// SHA-1 (legacy PCR bank and template hashes).
    Sha1,
    /// SHA-256 (default bank, policies, file digests).
    Sha256,
}

impl HashAlgorithm {
    /// Digest length in bytes.
    pub fn output_len(self) -> usize {
        match self {
            HashAlgorithm::Sha1 => 20,
            HashAlgorithm::Sha256 => 32,
        }
    }

    /// The lowercase name used in IMA log entries (e.g. `"sha256"`).
    pub fn name(self) -> &'static str {
        match self {
            HashAlgorithm::Sha1 => "sha1",
            HashAlgorithm::Sha256 => "sha256",
        }
    }

    /// Parses an algorithm name as it appears in IMA logs.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAlgorithmError`] if `name` is not a known algorithm.
    pub fn from_name(name: &str) -> Result<Self, ParseAlgorithmError> {
        match name {
            "sha1" => Ok(HashAlgorithm::Sha1),
            "sha256" => Ok(HashAlgorithm::Sha256),
            _ => Err(ParseAlgorithmError {
                name: name.to_string(),
            }),
        }
    }

    /// One-shot digest of `data` using this algorithm.
    pub fn digest(self, data: &[u8]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => crate::Sha1::digest(data),
            HashAlgorithm::Sha256 => crate::Sha256::digest(data),
        }
    }

    /// One-shot digest of several concatenated parts, equivalent to
    /// [`HashAlgorithm::digest`] over their concatenation but without
    /// materializing it — the allocation-free path for hot loops that
    /// hash composite records (e.g. IMA template data).
    pub fn digest_parts(self, parts: &[&[u8]]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => {
                let mut h = crate::Sha1::new();
                for part in parts {
                    h.update(part);
                }
                h.finalize()
            }
            HashAlgorithm::Sha256 => {
                let mut h = crate::Sha256::new();
                for part in parts {
                    h.update(part);
                }
                h.finalize()
            }
        }
    }

    /// The all-zero digest for this algorithm (PCR reset value).
    pub fn zero_digest(self) -> Digest {
        Digest {
            algorithm: self,
            bytes: DigestBytes::zeroed(self.output_len()),
        }
    }

    /// The all-0xFF digest for this algorithm (locality-4 PCR reset value).
    pub fn ones_digest(self) -> Digest {
        let mut bytes = DigestBytes::zeroed(self.output_len());
        bytes.data[..self.output_len()].fill(0xff);
        Digest {
            algorithm: self,
            bytes,
        }
    }
}

impl fmt::Display for HashAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown hash-algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    name: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown hash algorithm `{}`", self.name)
    }
}

impl std::error::Error for ParseAlgorithmError {}

/// Fixed-capacity digest storage (large enough for SHA-256).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct DigestBytes {
    data: [u8; 32],
    len: u8,
}

impl DigestBytes {
    fn zeroed(len: usize) -> Self {
        DigestBytes {
            data: [0u8; 32],
            len: len as u8,
        }
    }
}

/// A hash digest tagged with the algorithm that produced it.
///
/// # Examples
///
/// ```
/// use cia_crypto::{Digest, HashAlgorithm};
///
/// let d = HashAlgorithm::Sha256.digest(b"data");
/// let parsed: Digest = d.to_prefixed_hex().parse()?;
/// assert_eq!(parsed, d);
/// # Ok::<(), cia_crypto::digest::ParseDigestError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    algorithm: HashAlgorithm,
    bytes: DigestBytes,
}

/// Wire form is the compact `algo:hex` string — a fraction of the size
/// of a per-byte array encoding, and what IMA logs print anyway.
impl Serialize for Digest {
    fn write_json(&self, w: &mut JsonWriter) {
        let mut buf = [0u8; Digest::MAX_PREFIXED_HEX];
        let n = self.write_prefixed_hex(&mut buf);
        // An algorithm name, `:` and hex digits: ASCII throughout.
        w.str(std::str::from_utf8(&buf[..n]).unwrap_or_default());
    }
}

/// Parses the string in place: a digest read from JSON allocates nothing.
impl Deserialize for Digest {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.str()?
            .parse()
            .map_err(|e: ParseDigestError| DeError::new(e.to_string()))
    }
}

impl Digest {
    /// Wraps a raw SHA-256 digest.
    pub fn from_sha256(bytes: [u8; 32]) -> Self {
        Digest {
            algorithm: HashAlgorithm::Sha256,
            bytes: DigestBytes {
                data: bytes,
                len: 32,
            },
        }
    }

    /// Wraps a raw SHA-1 digest.
    pub fn from_sha1(bytes: [u8; 20]) -> Self {
        let mut data = [0u8; 32];
        data[..20].copy_from_slice(&bytes);
        Digest {
            algorithm: HashAlgorithm::Sha1,
            bytes: DigestBytes { data, len: 20 },
        }
    }

    /// Builds a digest from raw bytes, validating the length for `algorithm`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] when `bytes` has the wrong length.
    pub fn from_bytes(algorithm: HashAlgorithm, bytes: &[u8]) -> Result<Self, ParseDigestError> {
        if bytes.len() != algorithm.output_len() {
            return Err(ParseDigestError::WrongLength {
                algorithm,
                got: bytes.len(),
            });
        }
        let mut data = [0u8; 32];
        data[..bytes.len()].copy_from_slice(bytes);
        Ok(Digest {
            algorithm,
            bytes: DigestBytes {
                data,
                len: bytes.len() as u8,
            },
        })
    }

    /// The algorithm that produced this digest.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.algorithm
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes.data[..self.bytes.len as usize]
    }

    /// Lowercase hex encoding of the digest bytes.
    pub fn to_hex(&self) -> String {
        hex::encode(self.as_bytes())
    }

    /// Upper bound of the `algo:hex` rendering in bytes (`sha256:` plus
    /// 64 hex digits) — the buffer size for
    /// [`Digest::write_prefixed_hex`].
    pub const MAX_PREFIXED_HEX: usize = 7 + 64;

    /// Writes the `algo:hex` rendering into a stack buffer without
    /// allocating, returning the number of bytes used. The hot-path
    /// counterpart of [`Digest::to_prefixed_hex`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cia_crypto::{Digest, HashAlgorithm};
    ///
    /// let d = HashAlgorithm::Sha256.digest(b"x");
    /// let mut buf = [0u8; Digest::MAX_PREFIXED_HEX];
    /// let n = d.write_prefixed_hex(&mut buf);
    /// assert_eq!(&buf[..n], d.to_prefixed_hex().as_bytes());
    /// ```
    pub fn write_prefixed_hex(&self, out: &mut [u8; Self::MAX_PREFIXED_HEX]) -> usize {
        let name = self.algorithm.name().as_bytes();
        out[..name.len()].copy_from_slice(name);
        out[name.len()] = b':';
        let written = hex::encode_to_slice(self.as_bytes(), &mut out[name.len() + 1..]);
        name.len() + 1 + written
    }

    /// IMA-style `algo:hex` rendering (e.g. `sha256:ab12...`).
    pub fn to_prefixed_hex(&self) -> String {
        format!("{}:{}", self.algorithm.name(), self.to_hex())
    }

    /// Parses a bare hex digest whose algorithm is known from context.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] on bad hex or wrong length.
    pub fn parse_hex(algorithm: HashAlgorithm, s: &str) -> Result<Self, ParseDigestError> {
        let mut buf = [0u8; 32];
        let n = hex::decode_to_slice(s, &mut buf).map_err(|e| match e {
            hex::DecodeHexError::BufferTooSmall { needed, .. } => ParseDigestError::WrongLength {
                algorithm,
                got: needed,
            },
            _ => ParseDigestError::BadHex,
        })?;
        Self::from_bytes(algorithm, &buf[..n])
    }

    /// True when every byte is zero (e.g. violation markers in IMA logs).
    pub fn is_zero(&self) -> bool {
        self.as_bytes().iter().all(|&b| b == 0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_prefixed_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_prefixed_hex())
    }
}

impl std::str::FromStr for Digest {
    type Err = ParseDigestError;

    /// Parses the `algo:hex` form produced by [`Digest::to_prefixed_hex`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, hex_part) = s.split_once(':').ok_or(ParseDigestError::MissingPrefix)?;
        let algorithm =
            HashAlgorithm::from_name(name).map_err(|_| ParseDigestError::MissingPrefix)?;
        Self::parse_hex(algorithm, hex_part)
    }
}

/// Error returned when parsing a digest fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDigestError {
    /// The string was not valid hexadecimal.
    BadHex,
    /// The byte length did not match the algorithm's output size.
    WrongLength {
        /// Expected algorithm.
        algorithm: HashAlgorithm,
        /// Actual byte count.
        got: usize,
    },
    /// No `algo:` prefix was present where one was required.
    MissingPrefix,
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDigestError::BadHex => f.write_str("invalid hexadecimal digest"),
            ParseDigestError::WrongLength { algorithm, got } => write!(
                f,
                "digest length {} does not match {} (expected {})",
                got,
                algorithm,
                algorithm.output_len()
            ),
            ParseDigestError::MissingPrefix => f.write_str("missing or unknown algorithm prefix"),
        }
    }
}

impl std::error::Error for ParseDigestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixed_roundtrip() {
        let d = HashAlgorithm::Sha256.digest(b"roundtrip");
        let s = d.to_prefixed_hex();
        assert!(s.starts_with("sha256:"));
        assert_eq!(s.parse::<Digest>().unwrap(), d);
    }

    #[test]
    fn sha1_roundtrip() {
        let d = HashAlgorithm::Sha1.digest(b"roundtrip");
        assert_eq!(d.as_bytes().len(), 20);
        assert_eq!(d.to_prefixed_hex().parse::<Digest>().unwrap(), d);
    }

    #[test]
    fn wrong_length_rejected() {
        let err = Digest::from_bytes(HashAlgorithm::Sha256, &[0u8; 20]).unwrap_err();
        assert!(matches!(err, ParseDigestError::WrongLength { got: 20, .. }));
    }

    #[test]
    fn zero_digest_is_zero() {
        assert!(HashAlgorithm::Sha256.zero_digest().is_zero());
        assert!(!HashAlgorithm::Sha256.digest(b"x").is_zero());
    }

    #[test]
    fn ones_digest() {
        let d = HashAlgorithm::Sha1.ones_digest();
        assert_eq!(d.as_bytes(), &[0xffu8; 20][..]);
    }

    #[test]
    fn display_matches_prefixed_hex() {
        let d = HashAlgorithm::Sha256.digest(b"display");
        assert_eq!(format!("{d}"), d.to_prefixed_hex());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("sha256:zz".parse::<Digest>().is_err());
        assert!("md5:00".parse::<Digest>().is_err());
        assert!("deadbeef".parse::<Digest>().is_err());
    }

    #[test]
    fn serde_wire_form_is_prefixed_hex() {
        let d = HashAlgorithm::Sha256.digest(b"wire");
        let wire = serde_json::to_string(&d).unwrap();
        assert_eq!(wire, format!("\"{}\"", d.to_prefixed_hex()));
        let back: Digest = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, d);
        let sha1 = HashAlgorithm::Sha1.digest(b"wire");
        assert_eq!(
            serde_json::from_str::<Digest>(&serde_json::to_string(&sha1).unwrap()).unwrap(),
            sha1
        );
        assert!(serde_json::from_str::<Digest>("7").is_err());
        assert!(serde_json::from_str::<Digest>("\"sha256:zz\"").is_err());
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for algo in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_eq!(HashAlgorithm::from_name(algo.name()).unwrap(), algo);
        }
        assert!(HashAlgorithm::from_name("md5").is_err());
    }
}
