//! A TPM 2.0 simulator for the continuous-attestation reproduction.
//!
//! Keylime's trust chain bottoms out in three TPM mechanisms, all modelled
//! here:
//!
//! 1. **PCRs** ([`PcrBank`]): append-only measurement registers.
//!    `extend(i, d)` replaces `PCR[i]` with `H(PCR[i] || d)`, so the final
//!    value commits to the entire measurement sequence. IMA extends PCR 10.
//! 2. **Quotes** ([`Quote`]): signed statements binding a verifier-chosen
//!    nonce to the current PCR values, produced by an attestation key (AK).
//! 3. **Identity** ([`Manufacturer`], [`EkCertificate`]): an endorsement
//!    key (EK) certified by the manufacturer proves the quote comes from a
//!    genuine TPM; the registrar checks this chain and binds the AK to the
//!    EK via a challenge ([`Tpm::certify_ak`]).
//!
//! Signatures are the MAC-based substitution described in `cia-crypto` and
//! `DESIGN.md`: verification keys are only ever distributed over the
//! trusted registrar channel, standing in for the X.509 chain.
//!
//! # Examples
//!
//! ```
//! use cia_crypto::HashAlgorithm;
//! use cia_tpm::{Manufacturer, PcrSelection, Tpm};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let manufacturer = Manufacturer::generate(&mut rng);
//! let mut tpm = Tpm::manufacture(&manufacturer, &mut rng);
//! tpm.create_ak(&mut rng);
//!
//! let d = HashAlgorithm::Sha256.digest(b"measurement");
//! tpm.pcr_extend(HashAlgorithm::Sha256, 10, d)?;
//!
//! let quote = tpm.quote(b"nonce", &PcrSelection::single(10), HashAlgorithm::Sha256)?;
//! assert!(quote.verify(tpm.ak_public().unwrap(), b"nonce"));
//! # Ok::<(), cia_tpm::TpmError>(())
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

pub mod device;
pub mod error;
pub mod identity;
pub mod pcr;
pub mod quote;
pub mod wire;

pub use device::Tpm;
pub use error::TpmError;
pub use identity::{AkBinding, EkCertificate, Manufacturer};
pub use pcr::{PcrBank, PcrSelection, PCR_COUNT};
pub use quote::Quote;
