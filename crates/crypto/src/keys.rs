//! Attestation signing keys.
//!
//! Real TPMs sign quotes with asymmetric keys (RSA/ECC) whose public halves
//! are certified by the manufacturer. None of the allowed dependencies
//! provide asymmetric cryptography, so this module substitutes a MAC-based
//! scheme: a [`KeyPair`] holds 32 bytes of secret material; the
//! [`SigningKey`] MACs messages with it and the [`VerifyingKey`] — which in
//! the simulators is only ever handed out through the trusted registrar
//! channel, mirroring how a real deployment trusts the EK certificate chain
//! — verifies them. The protocol-level property Keylime depends on is
//! preserved: a party without the key material cannot forge a quote.

use std::fmt;

use cia_wire::Wire;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::digest::Digest;
use crate::hex;
use crate::hmac::Hmac;

/// A detached signature over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Wire)]
pub struct Signature(Digest);

impl Signature {
    /// The raw signature bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.to_hex())
    }
}

/// Secret signing half of a key pair.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SigningKey {
    material: [u8; 32],
}

impl SigningKey {
    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(Hmac::mac(&self.material, message))
    }

    /// Derives the matching verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            material: self.material,
        }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("SigningKey(..)")
    }
}

/// Verification half of a key pair.
///
/// In the simulators this value is distributed only over trusted channels
/// (registrar enrolment), standing in for an EK/AK certificate chain.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyingKey {
    /// `pub(crate)` for the wire codec only.
    pub(crate) material: [u8; 32],
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        Hmac::verify(&self.material, message, &signature.0)
    }

    /// A short stable fingerprint identifying this key (safe to log).
    pub fn fingerprint(&self) -> String {
        let digest = crate::Sha256::digest(&self.material);
        hex::encode(&digest.as_bytes()[..8])
    }
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({})", self.fingerprint())
    }
}

/// A freshly generated signing/verifying key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The secret signing key.
    pub signing: SigningKey,
    /// The distributable verifying key.
    pub verifying: VerifyingKey,
}

impl KeyPair {
    /// Generates a key pair from the given randomness source.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut material = [0u8; 32];
        rng.fill_bytes(&mut material);
        Self::from_material(material)
    }

    /// Builds a key pair from fixed material (deterministic tests).
    pub fn from_material(material: [u8; 32]) -> Self {
        let signing = SigningKey { material };
        let verifying = signing.verifying_key();
        KeyPair { signing, verifying }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u8) -> KeyPair {
        KeyPair::from_material([seed; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = pair(1);
        let sig = kp.signing.sign(b"quote data");
        assert!(kp.verifying.verify(b"quote data", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = pair(2);
        let sig = kp.signing.sign(b"quote data");
        assert!(!kp.verifying.verify(b"quote dat4", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = pair(3).signing.sign(b"m");
        assert!(!pair(4).verifying.verify(b"m", &sig));
    }

    #[test]
    fn generate_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = KeyPair::generate(&mut r1);
        let b = KeyPair::generate(&mut r2);
        assert_eq!(a.signing.sign(b"x"), b.signing.sign(b"x"));
    }

    #[test]
    fn debug_does_not_leak_material() {
        let kp = pair(5);
        let s = format!("{:?}{:?}", kp.signing, kp.verifying);
        assert!(!s.contains("05050505"));
    }

    #[test]
    fn fingerprint_is_stable_and_short() {
        let kp = pair(6);
        assert_eq!(
            kp.verifying.fingerprint(),
            kp.signing.verifying_key().fingerprint()
        );
        assert_eq!(kp.verifying.fingerprint().len(), 16);
    }
}
