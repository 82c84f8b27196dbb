//! Cryptographic primitives for the continuous-attestation simulators.
//!
//! The paper's system hashes files with SHA-256 (Keylime runtime policies,
//! IMA `ima-ng` entries), aggregates measurements into TPM PCRs (SHA-1 and
//! SHA-256 banks), and signs TPM quotes. This crate provides those
//! primitives implemented from scratch:
//!
//! - [`Sha256`] and [`Sha1`] — FIPS 180-4 digests, validated against the
//!   official test vectors.
//! - [`Hmac`] — RFC 2104 HMAC over SHA-256, validated against RFC 4231.
//! - [`SigningKey`]/[`VerifyingKey`] — MAC-based signatures standing in for
//!   the TPM's asymmetric attestation keys (see `DESIGN.md` for why this
//!   substitution preserves the protocol behaviour).
//! - [`hex`] — hexadecimal encoding/decoding.
//!
//! # Examples
//!
//! ```
//! use cia_crypto::Sha256;
//!
//! let digest = Sha256::digest(b"hello world");
//! assert_eq!(
//!     digest.to_hex(),
//!     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A hot-path crate: its library code surfaces typed errors, never a
// panic (DESIGN.md §10). An escape is a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod cache;
pub mod digest;
pub mod hex;
pub mod hmac;
pub mod keys;
pub mod sha1;
pub mod sha256;
pub mod wire;

pub use cache::DigestCache;
pub use digest::{Digest, HashAlgorithm};
pub use hmac::Hmac;
pub use keys::{KeyPair, Signature, SigningKey, VerifyingKey};
pub use sha1::Sha1;
pub use sha256::Sha256;
